"""The tall-matrix R-SVD against NumPy's SVD, and the Levenberg-Marquardt
entry point against scipy.optimize.least_squares, as oracles; the fits
evaluate each model once per point."""

import importlib.machinery
import importlib.util
import re
import sys
import time
import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from specsurf import crossratio, linalg, plane_pose, projection, so3
from specsurf.errors import SpecsurfError
from specsurf.linalg import least_squares, right_singular
from specsurf.plane_pose import _polish_objective, estimate_plane_poses, refine_plane_poses
from specsurf.projection import _point_line_objective, build_observations, focal_sweep
from specsurf.sim import default_two_sphere_scene, generate_dataset
from specsurf.types import CalibrationEstimate, NoiseSpec

seeds = st.integers(0, 2**32 - 1)


def trailing_projector(vt, nullity):
    tail = vt[len(vt) - nullity :]
    return tail.T @ tail


def graded(rng, m, k, decades):
    """Gaussian m x k matrix with columns scaled over `decades` decades;
    right_singular takes its transpose, one row per unknown."""
    return rng.normal(size=(m, k)) * np.logspace(0, -decades, k)


@settings(max_examples=50)
@given(seed=seeds, m=st.integers(1, 400), k=st.integers(1, 24), decades=st.floats(0.0, 8.0))
def test_singular_values_match_numpy(seed, m, k, decades):
    a = graded(np.random.default_rng(seed), m, k, decades)
    s, vt = right_singular(a.T)
    ref = np.linalg.svd(a, compute_uv=False)
    assert s.shape == (k,) and vt.shape == (k, k)
    assert np.max(np.abs(s[: len(ref)] - ref)) <= 1e-12 * ref[0]
    assert np.all(s[len(ref) :] <= 1e-14 * ref[0])
    np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-13)


@settings(max_examples=50)
@given(seed=seeds, m=st.integers(30, 400), k=st.integers(2, 24), data=st.data())
def test_trailing_subspace_on_rank_deficient_input(seed, m, k, data):
    rank = data.draw(st.integers(1, k - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, k))
    _, vt = right_singular(a.T)
    _, _, ref = np.linalg.svd(a)
    p = trailing_projector(vt, k - rank)
    np.testing.assert_allclose(p, trailing_projector(ref, k - rank), atol=1e-9)
    # the trailing rows are null vectors of the input
    assert np.max(np.abs(a @ vt[rank:].T)) <= 1e-12 * np.max(np.abs(a)) * m


@pytest.mark.parametrize("column", [0, 7, 17])
def test_zero_column(rng, column):
    a = rng.normal(size=(561, 18))
    a[:, column] = 0.0
    s, vt = right_singular(a.T)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(vt))
    assert s[-1] < 1e-14 * s[0]
    assert abs(vt[-1, column]) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-12 * s[0])


def test_zero_matrix():
    s, vt = right_singular(np.zeros((6, 30)))
    np.testing.assert_array_equal(s, 0.0)
    np.testing.assert_allclose(vt @ vt.T, np.eye(6), atol=1e-15)


def test_square(rng):
    a = rng.normal(size=(18, 18))
    s, vt = right_singular(a.T)
    _, ref_s, ref_vt = np.linalg.svd(a)
    np.testing.assert_allclose(s, ref_s, rtol=0, atol=1e-12 * ref_s[0])
    assert abs(vt[-1] @ ref_vt[-1]) == pytest.approx(1.0, abs=1e-12)


def test_wide_input_keeps_a_square_vt(rng):
    # 17 constraints on 18 unknowns: np.linalg.svd(full_matrices=False)
    # stops at 17 right vectors; the padded R keeps the 18th, the data's
    # null vector
    a = rng.normal(size=(17, 18))
    s, vt = right_singular(a.T)
    assert s.shape == (18,) and vt.shape == (18, 18)
    assert s[17] < 1e-14 * s[0]
    assert np.max(np.abs(a @ vt[17])) < 1e-13 * s[0]
    np.testing.assert_allclose(vt @ vt.T, np.eye(18), atol=1e-13)


def test_input_untouched(rng):
    # a contiguous 6 x 50 input and a strided 6 x 50 view of a larger
    # array are not written to, and the view factors as its copy does
    a = rng.normal(size=(6, 50))
    before = a.copy()
    right_singular(a)
    np.testing.assert_array_equal(a, before)
    big = rng.normal(size=(12, 100))
    view = big[::2, ::2]
    assert not view.flags.contiguous
    before = big.copy()
    s, vt = right_singular(view)
    np.testing.assert_array_equal(big, before)
    s_ref, vt_ref = right_singular(view.copy())
    assert np.array_equal(s, s_ref) and np.array_equal(vt, vt_ref)


def test_front_end_factors_no_tall_matrix(monkeypatch):
    # OpenBLAS runs LAPACK on tall inputs across its threads, which then
    # spin; the motions and camera must reach LAPACK only through small
    # k x k factors.  Every candidate is swept, as the chain does.
    scene = default_two_sphere_scene()
    data = generate_dataset(scene, grid_step=20, noise=NoiseSpec(seed=0))
    shapes = []
    for name in ("svd", "qr", "lstsq"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    sol = estimate_plane_poses(data)
    for pair in sol.candidates:
        try:
            focal_sweep(build_observations(data, pair), scene.image_size)
        except SpecsurfError:
            pass
    # the R factors of the design and incidence matrices were seen
    assert (24, 24) in shapes and (18, 18) in shapes
    assert max(s[0] for s in shapes) <= 24


# report status of each scipy.optimize.least_squares status a fit can end on
SCIPY_STATUS = {0: "max_iterations", 1: "gradient", 2: "plateau", 3: "step", 4: "step"}
DECAY_T = np.linspace(0.0, 4.0, 50)


def model_of(fun, jac):
    """The least_squares model of a residual function and a scipy-style
    m x n Jacobian function."""
    return lambda x: (fun(x), lambda: jac(x).T)


def decay(y, t=DECAY_T):
    """Model of fitting a e^(-b t) to y, free of BLAS.  Its Jacobian reads
    x only when it is built."""

    def model(x):
        def jacobian():
            e = np.exp(-x[1] * t)
            return np.stack([e, -x[0] * t * e])

        return x[0] * np.exp(-x[1] * t) - y, jacobian

    return model


@pytest.fixture(scope="module")
def scene():
    return default_two_sphere_scene()


@pytest.fixture(scope="module")
def noisy8(scene):
    return generate_dataset(scene, grid_step=8, noise=NoiseSpec(0.5, 0.5, 0.0, 0))


def polish_problem(scene, data):
    """The plane-pose polish from the true motions, which noisy data move
    off the optimum."""
    model = _polish_objective(scene.poses, data.planes)
    start = np.concatenate([part for p in scene.poses for part in (np.zeros(3), p.translation)])
    return model, start, {}


def point_line_problem(scene):
    """The free-focal camera fit from a perturbed camera, stopped after five
    residual evaluations."""
    data = generate_dataset(scene, grid_step=8, noise=NoiseSpec(seed=3))
    intr = scene.intrinsics
    obs = build_observations(data, scene.poses).centered(intr.u0, intr.v0)
    model = _point_line_objective(obs)
    rotation = so3.exp(np.array([0.02, -0.01, 0.015])) @ scene.camera_pose.rotation
    translation = scene.camera_pose.translation + np.array([5.0, -5.0, 20.0])
    start = np.concatenate([[np.log(1.1 * intr.fx)], so3.log(rotation), translation])
    return model, start, {"max_nfev": 5}


def toy_problem(status):
    """A two-parameter fit that stops on status."""
    if status == "gradient":
        # Rosenbrock's zero-residual valley

        def fun(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        return model_of(fun, jac), np.array([-1.2, 1.0]), {}
    clean = 3.0 * np.exp(-0.7 * DECAY_T)
    if status == "plateau":
        noise = 0.05 * np.random.default_rng(0).normal(size=DECAY_T.size)
        return decay(clean + noise), np.array([1.0, 0.1]), {}
    return decay(clean), np.array([1.0, 0.1]), {}


# the decay cases' Jacobians read x only when built, after MINPACK has
# moved on to its next trial point
@pytest.mark.parametrize(
    "case, status",
    [
        ("polish", "plateau"),
        ("point_line", "max_iterations"),
        ("gradient", "gradient"),
        ("plateau", "plateau"),
        ("step", "step"),
    ],
)
def test_least_squares_matches_scipy(case, status, scene, noisy8):
    if case == "polish":
        model, start, kwargs = polish_problem(scene, noisy8)
    elif case == "point_line":
        model, start, kwargs = point_line_problem(scene)
    else:
        model, start, kwargs = toy_problem(case)
    # scipy builds each Jacobian at once, from the point it is handed
    ref = scipy.optimize.least_squares(
        lambda x: model(x)[0],
        start,
        jac=lambda x: model(x)[1]().T,
        method="lm",
        x_scale="jac",
        xtol=1e-12,
        ftol=1e-12,
        **kwargs,
    )
    fit = least_squares(model, start, **kwargs)
    np.testing.assert_array_equal(fit.x, ref.x)
    assert (fit.nfev, fit.njev) == (ref.nfev, ref.njev)
    assert fit.status == SCIPY_STATUS[ref.status] == status
    assert fit.cost == pytest.approx(2.0 * ref.cost, rel=1e-14)


def test_ftol_matches_scipy(scene, noisy8):
    # a looser relative cost decrease stops the polish a step earlier, at
    # scipy's iterate for the same ftol
    model, start, _ = polish_problem(scene, noisy8)
    ref = scipy.optimize.least_squares(
        lambda x: model(x)[0],
        start,
        jac=lambda x: model(x)[1]().T,
        method="lm",
        x_scale="jac",
        xtol=1e-12,
        ftol=1e-6,
    )
    fit = least_squares(model, start, ftol=1e-6)
    np.testing.assert_array_equal(fit.x, ref.x)
    assert (fit.nfev, fit.njev) == (ref.nfev, ref.njev)
    assert fit.status == SCIPY_STATUS[ref.status] == "plateau"
    assert fit.nfev < least_squares(model, start).nfev


def polish_fit(scene, data):
    refine_plane_poses(scene.poses, data.planes)


def camera_fit(scene, data):
    # free focal from a perturbed camera
    intr = scene.intrinsics
    obs = build_observations(data, scene.poses).centered(intr.u0, intr.v0)
    start = (
        so3.exp(np.array([0.02, -0.01, 0.015])) @ scene.camera_pose.rotation,
        scene.camera_pose.translation + np.array([5.0, -5.0, 20.0]),
    )
    projection._refine_metric(1.1 * intr.fx, obs, start, free_focal=True)


def cross_ratio_fit(scene, data):
    rig = CalibrationEstimate(
        scene.intrinsics, scene.camera_pose.rotation, scene.camera_pose.translation, "rig"
    )
    crossratio.refine(rig, data, scene.poses)


@pytest.mark.parametrize(
    "module, run",
    [(plane_pose, polish_fit), (projection, camera_fit), (crossratio, cross_ratio_fit)],
    ids=["polish", "camera", "refine"],
)
def test_jacobian_at_solution_not_recomputed(module, run, scene, noisy8, monkeypatch):
    # least_squares builds the Jacobian at the start to check its shape,
    # MINPACK then asks for it there again, and afterwards only at the
    # point whose residuals it has just evaluated: the memo answers every
    # repeat, so each fit evaluates its model once per point and builds
    # njev Jacobians.  Each objective builds its Jacobian rows first, a
    # C-contiguous n x m array for n parameters and m residuals, which
    # reaches MINPACK without a copy.
    points, built, fits, shapes = [], [], [], set()

    def recorded(model, x0, **kwargs):
        def traced(x):
            points.append(x.tobytes())
            residuals, jacobian = model(x)
            shapes.add((x0.size, residuals.size))
            return residuals, lambda: built.append(jacobian()) or built[-1]

        fits.append(linalg.least_squares(traced, x0, **kwargs))
        return fits[-1]

    monkeypatch.setattr(module, "least_squares", recorded)
    run(scene, noisy8)
    assert len(fits) == 1
    assert len(set(points)) == len(points) == fits[0].nfev
    assert len(built) == fits[0].njev > 0
    [shape] = shapes
    assert all(jac.flags.c_contiguous and jac.shape == shape for jac in built)


def test_jacobian_layout_does_not_change_the_fit():
    # lmder takes the n x m Jacobian as MINPACK's column-major m x n: a
    # C-contiguous one is handed over as it is, any other is copied into
    # that layout, and MINPACK sees the same bytes either way
    model = decay(3.0 * np.exp(-0.7 * DECAY_T) + 0.05 * np.random.default_rng(0).normal(size=DECAY_T.size))

    def laid_out(order):
        def ordered(x):
            residuals, jacobian = model(x)
            return residuals, lambda: np.asarray(jacobian(), order=order)

        return least_squares(ordered, np.array([1.0, 0.1]))

    by_rows, by_columns = laid_out("C"), laid_out("F")
    np.testing.assert_array_equal(by_rows.x, by_columns.x)
    assert (by_rows.nfev, by_rows.njev) == (by_columns.nfev, by_columns.njev)
    assert by_rows.cost == by_columns.cost


def test_unused_covariance_does_not_warn():
    # scipy.optimize.leastsq inverted the R factor for a covariance; with
    # one Jacobian column at 1e-170 the inverse's product overflowed.  lmder
    # alone computes none, and the objective's own warnings reach the caller.
    t = np.linspace(0.0, 1.0, 10)

    def fun(x):
        return np.concatenate([x[0] * t - t, 1e-170 * (x[1] * t - 1.0)])

    def jac(x):
        return np.column_stack([np.r_[t, 0.0 * t], np.r_[0.0 * t, 1e-170 * t]])

    fit = least_squares(model_of(fun, jac), np.zeros(2))
    assert fit.x[0] == pytest.approx(1.0, rel=1e-12)

    def overflowing(x):
        np.exp(np.float64(1000.0))
        return fun(x)

    with pytest.warns(RuntimeWarning, match="overflow"):
        least_squares(model_of(overflowing, jac), np.zeros(2))


def test_tiny_rate_fits_without_warning():
    # the decay fit with its rate scaled by 1e-160: leastsq's covariance
    # overflowed in matmul here, which pytest turns into an error
    scale = 1e-160
    model = decay(3.0 * np.exp(-0.7 * DECAY_T), scale * DECAY_T)
    fit = least_squares(model, np.array([1.0, 0.1 / scale]))
    np.testing.assert_allclose(fit.x, [3.0, 0.7 / scale], rtol=1e-10)


def test_jacobian_shape_checked_before_minpack():
    # lmder's C wrapper would only notice mid-fit that the array "changed
    # size between calls"
    y = 3.0 * np.exp(-0.7 * DECAY_T)
    model = model_of(lambda x: x[0] * np.exp(-x[1] * DECAY_T) - y, lambda x: np.ones((DECAY_T.size, 3)))
    with pytest.raises(ValueError, match=re.escape("is (3, 50), not (2, 50)")):
        least_squares(model, np.array([1.0, 0.1]))


def test_jacobian_rows_last_rejected_before_minpack(monkeypatch):
    # a model that hands over the m x n Jacobian, as scipy takes it, is
    # refused at the start: MINPACK would read its bytes as the transpose
    calls = []
    monkeypatch.setattr(linalg, "_lmder", lambda *args: calls.append(args))
    y = 3.0 * np.exp(-0.7 * DECAY_T)
    model = decay(y)

    def rows_last(x):
        residuals, jacobian = model(x)
        return residuals, lambda: jacobian().T

    with pytest.raises(ValueError, match=re.escape("is (50, 2), not (2, 50)")):
        least_squares(rows_last, np.array([1.0, 0.1]))
    assert calls == []


def scipy_lm(model, start, **kwargs):
    """scipy's MINPACK fit of model on the full m-row Jacobian, which it
    factors by Householder QR at every accepted point."""
    return scipy.optimize.least_squares(
        lambda x: model(x)[0],
        start,
        jac=lambda x: model(x)[1]().T,
        method="lm",
        x_scale="jac",
        xtol=1e-12,
        ftol=1e-12,
        **kwargs,
    )


@pytest.fixture(scope="module")
def noisy4(scene):
    # surface-g4's draw: 14,049 triples
    return generate_dataset(scene, grid_step=4, noise=NoiseSpec(0.5, 0.5, 0.0, 0))


def test_square_root_polish_matches_full_qr(scene, noisy4):
    # 42,147 x 12: MINPACK factors the 13 x 12 square root instead, whose
    # steps, scaling and tests are the full problem's in exact arithmetic
    model, start, _ = polish_problem(scene, noisy4)
    assert model(start)[0].size == 42_147 >= linalg.SQUARE_ROOT_MIN_ROWS
    ref = scipy_lm(model, start)
    fit = least_squares(model, start)
    assert (fit.nfev, fit.njev) == (ref.nfev, ref.njev)
    assert fit.status == SCIPY_STATUS[ref.status]
    # x is (w1, t1, w2, t2): the w are corrections of 1e-4 rad to the true
    # rotations, so they are held to radians and the t to their own size
    w, t = fit.x.reshape(2, 2, 3).transpose(1, 0, 2)
    ref_w, ref_t = ref.x.reshape(2, 2, 3).transpose(1, 0, 2)
    assert np.max(np.abs(w - ref_w)) <= 1e-14
    assert np.all(np.linalg.norm(t - ref_t, axis=1) <= 1e-12 * np.linalg.norm(ref_t, axis=1))
    assert fit.cost == pytest.approx(2.0 * ref.cost, rel=1e-12)


def test_square_root_refine_matches_full_qr(scene, noisy4, monkeypatch):
    # the surface-g4 refine from the rig camera, on the twin the rig picks
    fits = []

    def recorded(model, x0, **kwargs):
        fits.append((model, x0.copy(), linalg.least_squares(model, x0, **kwargs)))
        return fits[-1][2]

    monkeypatch.setattr(crossratio, "least_squares", recorded)
    rig = CalibrationEstimate(
        scene.intrinsics, scene.camera_pose.rotation, scene.camera_pose.translation, "rig"
    )
    lines = projection.camera_line_matrix(rig.intrinsics, rig.rotation, rig.translation)

    def rig_cost(pair):
        return projection.point_line_cost(lines, build_observations(noisy4, pair))

    kept = min(estimate_plane_poses(noisy4).candidates, key=rig_cost)
    crossratio.refine(rig, noisy4, kept)
    [(model, start, fit)] = fits
    assert model(start)[0].size == 24_908 >= linalg.SQUARE_ROOT_MIN_ROWS
    ref = scipy_lm(model, start)
    assert (fit.nfev, fit.njev) == (ref.nfev, ref.njev) == (34, 28)
    assert fit.status == SCIPY_STATUS[ref.status]
    assert fit.cost == pytest.approx(2.0 * ref.cost, rel=1e-12)


DENSE_T = np.linspace(0.0, 4.0, 20_000)
DENSE_Y = 3.0 * np.exp(-0.7 * DENSE_T) + 0.05 * np.random.default_rng(0).normal(size=DENSE_T.size)


def test_square_root_fit_through_nan_trials():
    # a rate past 0.3 makes every residual NaN: MINPACK rejects such a
    # trial on its NaN norm, ||r|| in the square-root form, and shrinks the
    # step, as it does on the full residuals
    model = decay(DENSE_Y, DENSE_T)

    def bounded(x):
        residuals, jacobian = model(x)
        return (np.full_like(residuals, np.nan) if x[1] > 0.3 else residuals), jacobian

    start = np.array([1.0, 0.1])
    ref = scipy_lm(bounded, start)
    fit = least_squares(bounded, start)
    assert (fit.nfev, fit.njev) == (ref.nfev, ref.njev) == (64, 39)
    assert fit.status == SCIPY_STATUS[ref.status] == "step"
    np.testing.assert_allclose(fit.x, ref.x, rtol=1e-12)


def test_square_root_fit_with_duplicated_column():
    # a e^(-b t) with a = x0 + x2: the Jacobian has rank 2 of 3, so x is
    # not unique, but the cost, x0 + x2 and x1 are.  The reference ends at
    # x0 and x2 of about +-1,200, so its sum of about 3 keeps 13 digits.
    def model(x):
        a = x[0] + x[2]

        def jacobian():
            e = np.exp(-x[1] * DENSE_T)
            return np.stack([e, -a * DENSE_T * e, e])

        return a * np.exp(-x[1] * DENSE_T) - DENSE_Y, jacobian

    start = np.array([0.5, 0.1, 0.5])
    ref = scipy_lm(model, start)
    fit = least_squares(model, start)
    assert fit.cost == pytest.approx(2.0 * ref.cost, rel=1e-12)
    assert fit.x[0] + fit.x[2] == pytest.approx(ref.x[0] + ref.x[2], rel=1e-11)
    assert fit.x[1] == pytest.approx(ref.x[1], rel=1e-11)


@pytest.mark.parametrize(
    "start, nfev, njev, status", [((3.0, 0.7), 1, 1, "gradient"), ((1.0, 0.1), 7, 6, "step")]
)
def test_square_root_zero_residual_stays_exact(start, nfev, njev, status):
    # h = J^T r / ||r|| is read as zero when r is: from the truth the fit
    # stops at once, and from afar it reaches the truth exactly
    model = decay(3.0 * np.exp(-0.7 * DENSE_T), DENSE_T)
    ref = scipy_lm(model, np.array(start))
    fit = least_squares(model, np.array(start))
    assert (fit.nfev, fit.njev) == (ref.nfev, ref.njev) == (nfev, njev)
    assert fit.status == SCIPY_STATUS[ref.status] == status
    np.testing.assert_array_equal(fit.x, [3.0, 0.7])
    assert fit.cost == ref.cost == 0.0


@pytest.mark.parametrize("below", [1, 0])
def test_square_root_form_from_the_constant_on(below, monkeypatch):
    # below the constant MINPACK gets the m residuals and the n x m
    # Jacobian; from it on, n + 1 residuals and n x (n + 1)
    shapes = []
    lmder = linalg._lmder

    def recorded(fun, jac, x0, *args):
        return lmder(
            lambda x: shapes.append(("f", fun(x).shape)) or fun(x),
            lambda x: shapes.append(("J", jac(x).shape)) or jac(x),
            x0,
            *args,
        )

    monkeypatch.setattr(linalg, "_lmder", recorded)
    rows = linalg.SQUARE_ROOT_MIN_ROWS - below
    t = np.linspace(0.0, 4.0, rows)
    fit = least_squares(decay(3.0 * np.exp(-0.7 * t) + 0.01 * np.sin(7.0 * t), t), np.array([1.0, 0.1]))
    seen = rows if below else 3
    assert fit.njev > 1
    assert set(shapes) == {("f", (seen,)), ("J", (2, seen))}


def import_fresh_linalg(monkeypatch):
    """Execute linalg.py afresh under another name, as its import would."""
    spec = importlib.util.spec_from_file_location("fresh_linalg", linalg.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)


@pytest.mark.parametrize("missing", ["extension", "lmder"])
def test_missing_minpack_fails_at_import(missing, monkeypatch):
    if missing == "extension":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    else:
        monkeypatch.setattr(
            importlib.machinery.ExtensionFileLoader, "create_module", lambda self, spec: types.ModuleType(spec.name)
        )
    with pytest.raises(ImportError, match=re.escape(f"scipy {scipy.__version__} lacks")):
        import_fresh_linalg(monkeypatch)


def test_fewer_residuals_than_parameters_rejected():
    with pytest.raises(ValueError, match="number of residuals is less than"):
        least_squares(model_of(lambda x: x[:1], lambda x: np.eye(2)[:1]), np.zeros(2))


def test_non_finite_start_residuals_rejected():
    with pytest.raises(ValueError, match="not finite in the initial point"):
        least_squares(
            model_of(lambda x: np.array([np.nan, 1.0, 2.0]), lambda x: np.ones((3, 2))), np.zeros(2)
        )


def spin_cpu(work, seconds=0.3) -> float:
    """CPU time burnt by the process's other threads during work() and a
    sleep right after it.

    An OpenBLAS call on long vectors leaves the pool's idle thread
    busy-waiting for about 130 ms.  The calling thread's own CPU time is
    taken out, so a spin shows whether it ends inside work() or outlasts
    it, and whether or not the spinner gets a core of its own; CPU time of
    other processes does not count.
    """
    time.sleep(0.2)  # let any earlier call's spinning thread settle
    cpu, own = time.process_time(), time.thread_time()
    work()
    time.sleep(seconds)
    return (time.process_time() - cpu) - (time.thread_time() - own)


def test_long_fit_leaves_blas_threads_asleep():
    # the objective itself runs no BLAS, so any spin is the solver's
    t = np.linspace(0.0, 4.0, 40_000)
    model = decay(3.0 * np.exp(-0.7 * t), t)
    assert spin_cpu(lambda: least_squares(model, np.array([1.0, 0.1]))) < 0.02


def test_plane_pose_polish_leaves_blas_threads_asleep(scene, noisy8):
    # three residuals per triple: 10,542, above the size dot threads
    planes = noisy8.planes
    assert spin_cpu(lambda: refine_plane_poses(scene.poses, planes)) < 0.02


@pytest.fixture(scope="module")
def grid2(scene):
    # 56,232 triples: an n x 3 by 3 x 9 or n x 6 by 6 x 3 matmul threads here
    data = generate_dataset(scene, grid_step=2, noise=NoiseSpec(0.5, 0.5, 0.0, 0))
    assert len(data) >= 50_000
    return data


def test_dense_polish_leaves_blas_threads_asleep(scene, grid2):
    planes = grid2.planes
    assert spin_cpu(lambda: refine_plane_poses(scene.poses, planes)) < 0.02


def test_skew_stack_leaves_blas_threads_asleep(grid2):
    assert spin_cpu(lambda: so3.skew(grid2.pixels[[0, 1, 0]])) < 0.02


def test_point_line_cost_leaves_blas_threads_asleep(scene, grid2):
    obs = build_observations(grid2, scene.poses)
    assert len(obs) >= 50_000
    intr, pose = scene.intrinsics, scene.camera_pose
    line_matrix = projection.camera_line_matrix(intr, pose.rotation, pose.translation)
    assert spin_cpu(lambda: projection.point_line_cost(line_matrix, obs)) < 0.02


def test_camera_fit_leaves_blas_threads_asleep(scene):
    # grid 2: a 3 x 3 by 3 x 2n matmul of the rotated lines threads here
    data = generate_dataset(scene, grid_step=2, noise=NoiseSpec(seed=0))
    assert len(data) >= 50_000
    assert spin_cpu(lambda: camera_fit(scene, data)) < 0.02


def test_cross_ratio_refine_leaves_blas_threads_asleep(scene):
    # grid 4: 14,049 triples, 28,098 residuals; a dot over a stack this
    # long in any evaluation, or in the closing gate, threads here
    data = generate_dataset(scene, grid_step=4, noise=NoiseSpec(0.5, 0.5, 0.0, 0))
    assert len(data) >= 14_000
    assert spin_cpu(lambda: cross_ratio_fit(scene, data)) < 0.02
