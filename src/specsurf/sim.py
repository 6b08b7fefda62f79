"""Synthetic scene generator: ray-traced reflection correspondences.

The simulator builds ground-truth data for the estimation pipeline.  A pixel
ray is cast from the camera, reflected once off the nearest analytic mirror
(law of reflection), and the reflected ray is intersected with the reference
plane at each of its three poses.  The three in-plane hit coordinates form
one reflection correspondence; the mirror point and its normal are kept as
ground truth.

World frame == plane frame at pose 0 (the plane is z=0 there, extent
``[-half_width, half_width] x [-half_height, half_height]``).  Units: mm.

Noise model (applied by generate_dataset, in this order):
  1. Gaussian sigma_mm on every in-plane coordinate of x0, x1, x2;
  2. radial distortion k1 on pixel coordinates (in [-1,1]-normalized form);
  3. uniform quantization noise gamma_px on pixel coordinates.
Triple i of the full pixel grid draws six normals, then two uniforms, from
``np.random.default_rng([seed, i])``, so dropping pixels or parallelizing
never changes the noise of the surviving ones.  ``_stream_words`` hashes
every ``SeedSequence([seed, i])`` at once, a hash fixed by NumPy's
stream-compatibility policy (NEP 19), and numpy's own PCG64 is seeded from
each row of words through ``_Words``; the tests pin the drawn values to the
per-triple ``default_rng`` loop.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import so3
from .errors import EmptyDatasetError, ParseError, SchemaMismatchError
from .types import CorrespondenceSet, Intrinsics, NoiseSpec, RigidPose, identity_pose

# reflected rays must travel at least this far before counting a hit (mm);
# suppresses self-intersection at the reflection point
_MIN_TRAVEL = 1e-6

SCENE_FORMAT_VERSION = 1

# rows traced per batch: bounds the tracer's intermediates without changing
# any row's arithmetic (2**14 to 2**16 trace grid 2 fastest; one chunk of
# the whole grid is ~45 % slower)
_TRACE_CHUNK = 2**15

# SeedSequence hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


@dataclass(frozen=True)
class SphereMirror:
    center: np.ndarray  # (3,) mm
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        if not (np.isfinite(self.center).all() and 0 < self.radius < np.inf):
            raise ValueError("sphere geometry must be finite and its radius positive")


@dataclass(frozen=True)
class ParaboloidMirror:
    """Paraboloid of revolution: axial_dist = radial_dist^2 / (4*focal)."""

    vertex: np.ndarray  # (3,) mm
    axis: np.ndarray  # (3,) unit, pointing into the bowl opening
    focal: float

    def __post_init__(self):
        object.__setattr__(self, "vertex", np.asarray(self.vertex, dtype=float).reshape(3))
        ax = np.asarray(self.axis, dtype=float).reshape(3)
        n = float(np.sqrt(ax @ ax))
        if not (np.isfinite(self.vertex).all() and 0 < n < np.inf and 0 < self.focal < np.inf):
            raise ValueError("paraboloid geometry must be finite, its axis nonzero and its focal parameter positive")
        object.__setattr__(self, "axis", ax / n)


@dataclass(frozen=True)
class MirrorScene:
    """Full synthetic setup: camera, mirrors, plane extent and poses."""

    intrinsics: Intrinsics
    camera_pose: RigidPose  # world -> camera
    image_size: tuple[int, int]  # (width, height) pixels
    plane_half_extent: tuple[float, float]  # (half_width, half_height) mm
    poses: tuple[RigidPose, ...]  # plane local -> world, poses 1 and 2
    mirrors: tuple[SphereMirror | ParaboloidMirror, ...]

    def __post_init__(self):
        if len(self.poses) != 2:
            raise ValueError(f"scene needs two plane motions, got {len(self.poses)}")
        for pose in (self.camera_pose, *self.poses):
            if not (np.isfinite(pose.rotation).all() and np.isfinite(pose.translation).all()):
                raise ValueError("scene poses must be finite")
            if pose.orthonormality_error() > 1e-12 or np.linalg.det(pose.rotation) < 0:
                raise ValueError("scene rotations must be proper and orthonormal")
        if not all(0 < h < np.inf for h in self.plane_half_extent):
            raise ValueError("plane extent must be positive and finite")
        if not all(0 < s < np.inf for s in self.image_size):
            raise ValueError(f"image size {self.image_size!r} must be positive and finite")
        if not self.mirrors:
            raise ValueError("scene needs at least one mirror")

    def camera_center(self) -> np.ndarray:
        return self.camera_pose.inverse().translation


def rotation_about_axis(axis, angle_deg: float) -> np.ndarray:
    """Rotation matrix for a right-handed turn about a (not nec. unit) axis."""
    ax = np.asarray(axis, dtype=float).reshape(3)
    return so3.exp(np.deg2rad(angle_deg) * ax / np.linalg.norm(ax))


def look_at_pose(eye, target) -> RigidPose:
    """World-to-camera pose with the optical axis through the target.

    World +z appears up in the image.
    """
    eye = np.asarray(eye, dtype=float).reshape(3)
    fwd = np.asarray(target, dtype=float).reshape(3) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = so3.cross(fwd, (0.0, 0.0, 1.0))
    nr = np.linalg.norm(right)
    if nr < 1e-12:
        raise ValueError("look_at_pose: view direction parallel to world up")
    right /= nr
    down = so3.cross(fwd, right)
    r = np.vstack([right, down, fwd])
    return RigidPose(r, -r @ eye)


# ---------------------------------------------------------------------------
# intersection helpers (all batched over n rays; origin may be (3,) or (n,3))


def _dot(a, b):
    """np.sum(a * b, axis=-1) over 3-vectors as a0 b0 + a1 b1 + a2 b2, without a slow length-3 reduction."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _nearest_root(a, b, c):
    """Nearest root of a t^2 + b t + c above _MIN_TRAVEL per ray, inf if none.

    a >= 0, so (-b - root) / 2a is the near root; the far one counts when
    the near one does not, as from inside.  Where a vanishes the equation
    is linear (a ray parallel to a paraboloid's axis).  Rays without a root
    divide by zero or take NaN; the caller's errstate silences both.
    """
    quad = np.abs(a) > 1e-14
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.where(quad & (disc >= 0.0), disc, np.nan))
    t_near = (-b - root) / (2.0 * a)
    t_far = (-b + root) / (2.0 * a)
    t_lin = -c / b
    t = np.where(t_far > _MIN_TRAVEL, t_far, np.inf)
    t = np.where(t_near > _MIN_TRAVEL, t_near, t)
    return np.where(~quad & (np.abs(b) > 1e-14) & (t_lin > _MIN_TRAVEL), t_lin, t)


def _mirror_hit(origin, dirs, mirror):
    """Nearest positive hit parameter per ray, inf where missed.

    A sphere passes a = 1 and b = 2 w.d: b and the discriminant are exactly
    2 and 4 times the half-b form's, so its roots are bit-equal to that form's.
    """
    if isinstance(mirror, SphereMirror):
        w = origin - mirror.center
        return _nearest_root(1.0, 2.0 * _dot(w, dirs), _dot(w, w) - mirror.radius * mirror.radius)
    w = origin - mirror.vertex
    wa = _dot(w, mirror.axis)
    da = _dot(dirs, mirror.axis)
    w_perp = w - wa[..., None] * mirror.axis
    d_perp = dirs - da[..., None] * mirror.axis
    a = _dot(d_perp, d_perp)
    b = 2.0 * (_dot(w_perp, d_perp) - 2.0 * mirror.focal * da)
    c = _dot(w_perp, w_perp) - 4.0 * mirror.focal * wa
    return _nearest_root(a, b, c)


def _mirror_normal(points, mirror):
    """Outward unit normal at surface points (n,3)."""
    if isinstance(mirror, SphereMirror):
        n = (points - mirror.center) / mirror.radius
    else:
        w = points - mirror.vertex
        wa = _dot(w, mirror.axis)
        w_perp = w - wa[..., None] * mirror.axis
        n = 2.0 * w_perp - 4.0 * mirror.focal * mirror.axis
        norm = np.sqrt(_dot(n, n))
        n = n / norm[..., None]
    return n


def trace_pixels(scene: MirrorScene, pixels: np.ndarray):
    """Trace a batch of pixels; returns (valid, x0, x1, x2, points, normals).

    valid is a boolean mask over the input rows; the per-pose in-plane
    coordinates and the ground-truth surface data are NaN where invalid.
    Rows are traced _TRACE_CHUNK at a time, so memory beyond the outputs
    stays bounded.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    n = len(pixels)
    valid = np.zeros(n, dtype=bool)
    outputs = tuple(np.full((n, width), np.nan) for width in (2, 2, 2, 3, 3))
    # rays that miss produce inf/NaN intermediates by design; they are
    # masked out at the end, so arithmetic warnings are suppressed here
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, n, _TRACE_CHUNK):
            ok, *chunk = _trace_chunk(scene, pixels[start:start + _TRACE_CHUNK])
            rows = start + np.nonzero(ok)[0]
            valid[rows] = True
            for out, values in zip(outputs, chunk):
                out[rows] = values[ok]
    return (valid, *outputs)


def _trace_chunk(scene: MirrorScene, pixels: np.ndarray):
    """Trace rows of pixels; outputs are only meaningful where valid."""
    n = len(pixels)
    intr = scene.intrinsics
    cam_r = scene.camera_pose.rotation
    center = scene.camera_center()
    d_cam = np.stack(
        [
            (pixels[:, 0] - intr.u0) / intr.fx,
            (pixels[:, 1] - intr.v0) / intr.fy,
            np.ones(n),
        ],
        axis=-1,
    )
    d_world = d_cam @ cam_r  # == R^T @ d per row
    norm = np.sqrt(_dot(d_world, d_world))
    d_world = d_world / norm[:, None]

    # nearest mirror hit along each primary ray
    t_best = np.full(n, np.inf)
    which = np.full(n, -1)
    for mi, mirror in enumerate(scene.mirrors):
        t = _mirror_hit(center, d_world, mirror)
        closer = t < t_best
        t_best[closer] = t[closer]
        which[closer] = mi

    valid = np.isfinite(t_best)
    points = center + t_best[:, None] * d_world
    normals = np.full((n, 3), np.nan)
    for mi, mirror in enumerate(scene.mirrors):
        sel = valid & (which == mi)
        if np.any(sel):
            normals[sel] = _mirror_normal(points[sel], mirror)

    # law of reflection (normals face the incoming ray for our convex mirrors)
    dn = _dot(d_world, normals)
    valid &= dn < 0.0
    reflected = d_world - 2.0 * dn[:, None] * normals

    # single-bounce contract: reflected rays that re-enter a mirror are
    # dropped once the re-hit happens before the farthest plane intersection
    t_rehit = np.full(n, np.inf)
    for mirror in scene.mirrors:
        t = _mirror_hit(points, reflected, mirror)
        t_rehit = np.minimum(t_rehit, t)

    hw, hh = scene.plane_half_extent
    coords = []
    for pose in (identity_pose(), *scene.poses):
        pn = pose.rotation[:, 2]  # plane normal in world coords
        denom = _dot(reflected, pn)
        offset = pose.translation - points
        t_plane = np.where(
            np.abs(denom) > 1e-12, _dot(offset, pn) / np.where(np.abs(denom) > 1e-12, denom, 1.0), np.inf
        )
        hit_ok = np.isfinite(t_plane) & (t_plane > _MIN_TRAVEL) & (t_plane < t_rehit)
        world = points + t_plane[:, None] * reflected
        local = (world - pose.translation) @ pose.rotation
        hit_ok &= (np.abs(local[:, 0]) <= hw) & (np.abs(local[:, 1]) <= hh)
        valid &= hit_ok
        coords.append(local[:, :2])

    return (valid, *coords, points, normals)


def apply_radial_distortion(p, k1: float) -> np.ndarray:
    """One-parameter radial model on [-1,1]-normalized points: p*(1+k1*r^2)."""
    p = np.asarray(p, dtype=float)
    r2 = np.sum(p * p, axis=-1, keepdims=True)
    return p * (1.0 + k1 * r2)


def _distort_pixels(pixels: np.ndarray, k1: float, intr: Intrinsics, image_size) -> np.ndarray:
    """Distort pixel coordinates via the normalized-coordinate model."""
    if k1 == 0.0:
        return pixels
    w, h = image_size
    scale = np.array([w / 2.0, h / 2.0])
    centre = np.array([intr.u0, intr.v0])
    normalized = (pixels - centre) / scale
    return apply_radial_distortion(normalized, k1) * scale + centre


def grid_pixels(image_size, grid_step: int):
    """Row-major sampling grid over the image; returns (n,2) pixel coords."""
    w, h = image_size
    us = np.arange(0, w, grid_step, dtype=float)
    vs = np.arange(0, h, grid_step, dtype=float)
    uu, vv = np.meshgrid(us, vs)
    return np.stack([uu.ravel(), vv.ravel()], axis=-1)


def _hashmix(value: np.ndarray, hash_const: list[int], mult: int = _MULT_A) -> np.ndarray:
    """SeedSequence's hashmix over a uint32 array; advances hash_const[0]."""
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = (hash_const[0] * mult) & _MASK32
    value = value * np.uint32(hash_const[0])
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _stream_words(seed: int, indices) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` per index.

    Every index is hashed at once in wrapping uint32 arithmetic; indices
    must lie below 2**32 (one entropy word each).  Returns (n, 4) uint64.
    """
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if indices.size and not 0 <= indices.min() <= indices.max() <= _MASK32:
        raise ValueError("stream indices must lie in [0, 2**32)")
    n = indices.size
    # the seed's 32-bit words, least significant first; 0 is one word
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    entropy = [np.full(n, word, dtype=np.uint32) for word in entropy]
    entropy.append(indices.astype(np.uint32))
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    hash_const = [_INIT_A]
    pool = [_hashmix(word, hash_const) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))

    # generate_state: eight uint32 words cycling over the pool; uint64
    # word j is uint32 words 2j (low) and 2j + 1 (high)
    hash_const = [_INIT_B]
    state = np.stack([_hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B) for k in range(8)], axis=1)
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


class _Words(ISeedSequence):
    """A seed sequence whose state is one precomputed row of _stream_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for generate_state(4, np.uint64) once, at construction
        return self.words


def _draw_noise(seed: int, indices: np.ndarray):
    """Six normals and two uniforms in [-1, 1) per index.

    Row r holds the first draws of ``np.random.default_rng([seed,
    indices[r]])``: ``normal(0, 1, 6)`` then ``uniform(-1, 1, 2)``.
    """
    normals = np.empty((len(indices), 6))
    uniforms = np.empty((len(indices), 2))
    for row, words in enumerate(_stream_words(seed, indices)):
        gen = np.random.Generator(np.random.PCG64(_Words(words)))
        gen.standard_normal(out=normals[row])
        gen.random(out=uniforms[row])
    # Generator.uniform(-1, 1) is -1 + 2 * random(); 2 * u is exact
    return normals, -1.0 + 2.0 * uniforms


def generate_dataset(scene: MirrorScene, grid_step: int, noise: NoiseSpec) -> CorrespondenceSet:
    """Trace a pixel grid and apply the noise model.

    The mirror points and normals go in gt_points and gt_normals, never
    perturbed; the poses stay with the scene.  Raises EmptyDatasetError when
    no pixel yields a triple; a scan too small for a solver is returned, and
    the solver raises TooFewCorrespondencesError.
    """
    if grid_step < 1:
        raise ValueError("grid_step must be >= 1")
    pixels = grid_pixels(scene.image_size, grid_step)
    valid, *traced = trace_pixels(scene, pixels)
    idx = np.nonzero(valid)[0]
    if idx.size == 0:
        raise EmptyDatasetError("no pixel traced to a triple; adjust scene or grid")
    # keep the valid rows only, the plane points as the rows-first (3, 2, n)
    # stack; the full-grid arrays are released here, and the (n, 2) pixels
    # go into the scan as their (2, n) rows
    pix, points, normals = (a[idx] for a in (pixels, *traced[3:]))
    planes = np.array([x[idx].T for x in traced[:3]])
    del pixels, valid, traced

    plane_noise, pixel_noise = _draw_noise(noise.seed, idx)
    # a row's normal draws 2k and 2k + 1 perturb its pose-k point
    planes += noise.sigma_mm * plane_noise.reshape(-1, 3, 2).transpose(1, 2, 0)
    pix = _distort_pixels(pix, noise.k1, scene.intrinsics, scene.image_size)
    pix = pix + noise.gamma_px * pixel_noise

    return CorrespondenceSet(pixels=pix.T, planes=planes, gt_points=points, gt_normals=normals)


# ---------------------------------------------------------------------------
# default scene and scene files


def default_two_sphere_scene() -> MirrorScene:
    """Reference layout: two 300 mm spheres over a 2000x2000 mm plane.

    Camera focal length 1400 px on a 1280x960 image, matching the synthetic
    scale used throughout the test suite.  Tuned so that a 100x100 pixel
    grid yields well over 1000 valid triples.
    """
    intr = Intrinsics(fx=1400.0, fy=1400.0, u0=639.5, v0=479.5)
    camera = look_at_pose(eye=(0.0, -1000.0, 750.0), target=(0.0, 0.0, 850.0))
    poses = (
        RigidPose(
            rotation_about_axis((1.0, 0.0, 0.0), -10.0)
            @ rotation_about_axis((0.0, 1.0, 0.0), 6.0)
            @ rotation_about_axis((0.0, 0.0, 1.0), 8.0),
            (40.0, -60.0, 170.0),
        ),
        RigidPose(
            rotation_about_axis((1.0, 0.0, 0.0), 8.0)
            @ rotation_about_axis((0.0, 1.0, 0.0), -12.0)
            @ rotation_about_axis((0.0, 0.0, 1.0), -10.0),
            (-70.0, 80.0, 345.0),
        ),
    )
    mirrors = (
        SphereMirror(center=(-340.0, 0.0, 850.0), radius=300.0),
        SphereMirror(center=(340.0, 0.0, 850.0), radius=300.0),
    )
    return MirrorScene(
        intrinsics=intr,
        camera_pose=camera,
        image_size=(1280, 960),
        plane_half_extent=(1000.0, 1000.0),
        poses=poses,
        mirrors=mirrors,
    )


def pure_translation_scene() -> MirrorScene:
    """Degenerate variant: the plane only translates between poses."""
    return replace(
        default_two_sphere_scene(),
        poses=(RigidPose(np.eye(3), (25.0, -30.0, 170.0)), RigidPose(np.eye(3), (-40.0, 45.0, 345.0))),
    )


# mirror classes by their sections' "type" key, and the shapes of the
# non-scalar fields; a dataclass is written as one key per field, holding
# its numbers, and every field missing from _SHAPES is one number
_MIRRORS = {"sphere": SphereMirror, "paraboloid": ParaboloidMirror}
_SHAPES = {"rotation": (3, 3), "translation": (3,), "center": (3,), "vertex": (3,), "axis": (3,)}


def _fmt_floats(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.asarray(values).ravel())


def _parse_floats(text: str, shape: tuple[int, ...], what: str):
    """A float for shape (), else an array of that shape."""
    parts = text.split()
    count = int(np.prod(shape))
    if len(parts) != count:
        raise SchemaMismatchError(f"{what}: expected {count} numbers, got {len(parts)}")
    values = np.array([float(p) for p in parts])
    return values.reshape(shape) if shape else float(values[0])


def _to_section(obj) -> dict[str, str]:
    return {f.name: _fmt_floats(getattr(obj, f.name)) for f in fields(obj)}


def _from_section(cls, section, what: str):
    return cls(
        **{f.name: _parse_floats(section[f.name], _SHAPES.get(f.name, ()), f"{what}.{f.name}") for f in fields(cls)}
    )


def write_scene(scene: MirrorScene, path):
    """Write the INI-style scene description (schema version 1)."""
    cfg = configparser.ConfigParser()
    cfg["scene"] = {"format_version": str(SCENE_FORMAT_VERSION)}
    width, height = scene.image_size
    cfg["camera"] = {
        **_to_section(scene.intrinsics),
        "width": str(width),
        "height": str(height),
        **_to_section(scene.camera_pose),
    }
    cfg["plane"] = dict(zip(("half_width", "half_height"), map(_fmt_floats, scene.plane_half_extent)))
    for i, pose in enumerate(scene.poses, start=1):
        cfg[f"pose{i}"] = _to_section(pose)
    for i, mirror in enumerate(scene.mirrors, start=1):
        kind = next(name for name, cls in _MIRRORS.items() if isinstance(mirror, cls))
        cfg[f"mirror{i}"] = {"type": kind, **_to_section(mirror)}
    with open(path, "w", newline="\n") as fh:
        cfg.write(fh)


def read_scene(path) -> MirrorScene:
    """Parse a scene description written by write_scene.

    A missing key or section, or a section it would not read (an extra
    pose, a mirror after a gap in the numbering), raises
    SchemaMismatchError; a value that does not parse raises ParseError.
    """
    cfg = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except configparser.Error as exc:
        raise ParseError(f"scene file: {exc}") from exc
    try:
        version = int(cfg["scene"]["format_version"])
        if version != SCENE_FORMAT_VERSION:
            raise SchemaMismatchError(f"unsupported scene format_version {version}")
        cam = cfg["camera"]
        plane = cfg["plane"]
        mirrors = []
        while cfg.has_section(name := f"mirror{len(mirrors) + 1}"):
            kind = cfg[name]["type"]
            cls = _MIRRORS.get(kind.strip().lower())
            if cls is None:
                raise SchemaMismatchError(f"unknown mirror type {kind!r}")
            mirrors.append(_from_section(cls, cfg[name], name))
        read = {"scene", "camera", "plane", "pose1", "pose2", *(f"mirror{i}" for i in range(1, len(mirrors) + 1))}
        if unread := sorted(set(cfg.sections()) - read):
            raise SchemaMismatchError(f"scene file has sections read_scene does not read: {', '.join(unread)}")
        if not mirrors:
            raise SchemaMismatchError("scene file defines no mirror sections")
        return MirrorScene(
            intrinsics=_from_section(Intrinsics, cam, "camera"),
            camera_pose=_from_section(RigidPose, cam, "camera"),
            image_size=(int(cam["width"]), int(cam["height"])),
            plane_half_extent=(float(plane["half_width"]), float(plane["half_height"])),
            poses=tuple(_from_section(RigidPose, cfg[f"pose{i}"], f"pose{i}") for i in (1, 2)),
            mirrors=tuple(mirrors),
        )
    except KeyError as exc:
        raise SchemaMismatchError(f"scene file missing key/section: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"scene file: {exc}") from exc
