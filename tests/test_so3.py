"""Rotation primitives: exponential, logarithm, left Jacobian, projection."""

import numpy as np
import pytest

from specsurf import so3

AXES = np.array([[1.0, 0.0, 0.0], [0.3, -0.8, 0.52], [-0.2, 0.1, -0.97]])


def unit(v):
    return v / np.linalg.norm(v)


class TestExpLog:
    @pytest.mark.parametrize("angle", [0.0, 1e-9, 0.5, np.pi - 1e-6])
    def test_round_trip(self, angle):
        for axis in AXES:
            v = angle * unit(axis)
            assert np.linalg.norm(so3.log(so3.exp(v)) - v) <= 1e-12 * angle

    def test_round_trip_at_half_turn(self):
        # a half turn about k equals one about -k; either vector will do
        for axis in AXES:
            v = np.pi * unit(axis)
            r = so3.exp(v)
            w = so3.log(r)
            assert min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < 1e-12
            np.testing.assert_allclose(so3.exp(w), r, atol=1e-15)

    @pytest.mark.parametrize("angle", [1e-9, 0.5, np.pi - 1e-6, np.pi])
    def test_exp_is_proper_rotation(self, angle):
        for axis in AXES:
            r = so3.exp(angle * unit(axis))
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-15)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(r @ unit(axis), unit(axis), atol=1e-15)

    def test_skew_is_cross_product(self, rng):
        a, b = rng.normal(size=(2, 3, 5))
        np.testing.assert_allclose(so3.skew(a[:, 0]) @ b[:, 0], np.cross(a[:, 0], b[:, 0]), atol=1e-15)
        np.testing.assert_allclose(
            np.einsum("ijn,jn->in", so3.skew(a), b), np.cross(a, b, axis=0), atol=1e-15
        )


class TestCrossProducts:
    """skew and cross work on 3-vectors and on (3, n) column stacks."""

    def test_skew_stack_is_per_column_matrix(self, rng):
        a = rng.normal(size=(3, 7))
        stack = so3.skew(a)
        assert stack.shape == (3, 3, 7)
        for i, (x, y, z) in enumerate(a.T):
            assert np.array_equal(stack[:, :, i], [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])

    def test_cross_equals_np_cross(self, rng):
        p, q = rng.normal(size=(2, 3, 561))
        v, w = rng.normal(size=(2, 3))
        assert np.array_equal(so3.cross(p, q), np.cross(p, q, axis=0))
        assert np.array_equal(so3.cross(v, q), np.cross(v, q, axis=0))
        assert np.array_equal(so3.cross(p, v), np.cross(p, v, axis=0))
        assert np.array_equal(so3.cross(v, w), np.cross(v, w))


class TestLeftJacobian:
    @pytest.mark.parametrize("angle", [1e-5, 0.9, 2.5, np.pi - 1e-3])
    def test_matches_central_differences(self, angle):
        # exp(v + h e_k) exp(v)^T = exp(h J e_k) to first order in h
        h = 1e-6
        for axis in AXES:
            v = angle * unit(axis)
            r_t = so3.exp(v).T
            numeric = np.empty((3, 3))
            for k in range(3):
                step = h * np.eye(3)[k]
                d = (so3.exp(v + step) @ r_t - so3.exp(v - step) @ r_t) / (2.0 * h)
                numeric[:, k] = [d[2, 1], d[0, 2], d[1, 0]]
            np.testing.assert_allclose(so3.left_jacobian(v), numeric, atol=1e-8)


def matrix_rodrigues(v, a, b):
    """I + a [v]x + b [v]x^2 by 3 x 3 matrix arithmetic."""
    vx = so3.skew(v)
    return np.eye(3) + a * vx + b * (vx @ vx)


class TestScalarForms:
    """exp and left_jacobian build their entries from floats; the matrix
    forms of the same formulas are the oracle."""

    def test_match_matrix_forms(self, rng):
        for _ in range(200):
            v = rng.uniform(1e-2, np.pi) * unit(rng.normal(size=3))
            t = np.linalg.norm(v)
            half = 2.0 * (np.sin(t / 2.0) / t) ** 2
            exp = matrix_rodrigues(v, np.sin(t) / t, half)
            jac = matrix_rodrigues(v, half, (t - np.sin(t)) / t**3)
            np.testing.assert_allclose(so3.exp(v), exp, rtol=0, atol=1e-15)
            np.testing.assert_allclose(so3.left_jacobian(v), jac, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "switch, fn", [(1e-3, so3.left_jacobian), (1e-12, so3.exp)], ids=["left_jacobian", "exp"]
    )
    def test_continuous_across_the_series_switch(self, switch, fn):
        for axis in AXES:
            below = fn(switch * (1.0 - 1e-12) * unit(axis))
            above = fn(switch * (1.0 + 1e-12) * unit(axis))
            np.testing.assert_allclose(below, above, rtol=0, atol=2e-15)


class TestClosestRotation:
    def test_returns_proper_rotation(self, rng):
        for _ in range(5):
            g = rng.normal(size=(3, 3))
            for m in (g, -g):  # one of the two has a negative determinant
                r = so3.closest_rotation(m)
                np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)
                assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)

    def test_fixes_a_perturbed_rotation(self, rng):
        r = so3.exp(np.array([0.4, -1.1, 0.7]))
        g = r + 1e-6 * rng.normal(size=(3, 3))
        np.testing.assert_allclose(so3.closest_rotation(g), r, atol=1e-5)
        np.testing.assert_allclose(so3.closest_rotation(r), r, atol=1e-15)
