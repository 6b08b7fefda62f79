"""Every public function, class, method, property and dataclass field of the
package is used, and every nonlinear fit goes through linalg.least_squares.

A top-level definition counts as used when its name appears outside its own
definition in the package, the tests or the benchmark: as a name, an
attribute, an imported name or a string (the benchmark's tracer wraps
functions by their names).  A method or property counts as used when it is
read as an attribute outside its own definition, and a dataclass field when
it is read as an attribute outside its class.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

from specsurf import crossratio, linalg, plane_pose, projection

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specsurf"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "specbench")


@dataclass(frozen=True)
class Definition:
    label: str  # module.name or module.Class.name
    name: str
    path: Path
    first: int
    last: int
    member: bool  # used only by attribute reads


@dataclass(frozen=True)
class Reference:
    path: Path
    line: int
    attribute: bool  # an attribute read


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def public_definitions() -> list[Definition]:
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append(Definition(f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno, False))
            if not isinstance(node, ast.ClassDef):
                continue
            fields = is_dataclass(node)
            for item in node.body:
                if (
                    fields
                    and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                ):
                    name = item.target.id
                    out.append(
                        Definition(f"{module}.{node.name}.{name}", name, path, node.lineno, node.end_lineno, True)
                    )
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append(
                        Definition(
                            f"{module}.{node.name}.{item.name}",
                            item.name,
                            path,
                            item.lineno,
                            item.end_lineno,
                            True,
                        )
                    )
    return out


def references() -> dict[str, list[Reference]]:
    refs: dict[str, list[Reference]] = {}

    def add(name, path, node, attribute=False):
        refs.setdefault(name, []).append(Reference(path, node.lineno, attribute))

    for root in SEARCHED:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    add(node.id, path, node)
                elif isinstance(node, ast.Attribute):
                    add(node.attr, path, node, attribute=isinstance(node.ctx, ast.Load))
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        add(alias.name, path, node)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    add(node.value, path, node)
    return refs


def is_used(definition: Definition, refs: dict[str, list[Reference]]) -> bool:
    for ref in refs.get(definition.name, []):
        if definition.member and not ref.attribute:
            continue
        inside = ref.path == definition.path and definition.first <= ref.line <= definition.last
        if not inside:
            return True
    return False


def test_every_public_definition_is_used():
    definitions = public_definitions()
    labels = {d.label for d in definitions}
    assert "plane_pose.estimate_plane_poses" in labels
    assert "types.RigidPose.transform" in labels
    assert "types.SurfaceEstimate.valid" in labels
    refs = references()
    assert sorted(d.label for d in definitions if not is_used(d, refs)) == []


def docstrings(tree: ast.AST) -> set[ast.AST]:
    return {
        node.body[0].value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None
    }


def imported(node: ast.AST) -> list[str]:
    """The modules, or module.name, that an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{a.name}" for a in node.names]
    return []


def names_scipy(node: ast.AST, docs: set[ast.AST]) -> bool:
    """Whether node imports scipy, reads the name or spells it in a string
    other than a docstring."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(module.split(".")[0] == "scipy" for module in imported(node))
    if isinstance(node, ast.Name):
        return node.id == "scipy"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "scipy" in node.value and node not in docs
    return False


def test_one_levenberg_marquardt():
    # the fits share one entry point, which keeps long residual vectors off
    # OpenBLAS's thread pool; scipy's least_squares would wake it.  Each
    # fit hands it a model, and its memo is the only one: no fit passes a
    # separate Jacobian or compares points itself.  Nothing imports from
    # scipy.optimize, whose import is slow (see linalg): linalg's loader of the
    # MINPACK extension is the one place that names scipy at all.
    assert projection.least_squares is linalg.least_squares
    assert plane_pose.least_squares is linalg.least_squares
    assert crossratio.least_squares is linalg.least_squares
    loader = next(
        node
        for node in ast.parse((PACKAGE / "linalg.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_load_lmder"
    )
    uses, named = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        docs = docstrings(tree)
        for node in ast.walk(tree):
            if any(module.startswith("scipy.optimize") for module in imported(node)):
                uses.append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "least_squares":
                if ast.unparse(node.value).split(".")[0] in ("scipy", "optimize"):
                    uses.append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "array_equal":
                if path.name != "linalg.py":
                    uses.append((path.name, node.lineno))
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("least_squares"):
                if any(k.arg == "jac" for k in node.keywords):
                    uses.append((path.name, node.lineno))
            if names_scipy(node, docs):
                named.append((path.name, node.lineno))
    assert uses == []
    assert named and all(
        name == "linalg.py" and loader.lineno <= line <= loader.end_lineno for name, line in named
    ), named
