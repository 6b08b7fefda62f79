"""Line-coordinate algebra tests, incl. the conversion round trips.

Lines are [moment; direction] = [a x b; a - b]; the line matrix of
P = [Q | t] is [cof(Q) | -[t]x Q].
"""

from __future__ import annotations

import numpy as np
import pytest

from specsurf import plucker
from specsurf.errors import RankDeficientError

from conftest import random_point_camera, random_rotation


IDENTITY_CAMERA = np.hstack([np.eye(3), np.zeros((3, 1))])

# line matrix of [I | 0]: cof(I) = I, and t = 0 leaves no direction block
IDENTITY_LINE_MATRIX = np.hstack([np.eye(3), np.zeros((3, 3))])


def reciprocal(l1, l2):
    """w1 . v2 + v1 . w2, zero exactly when the two lines are coplanar."""
    return l1[..., 3:] @ l2[..., :3] + l1[..., :3] @ l2[..., 3:]


class TestLineFromPoints:
    def test_axis_line_through_origin(self):
        line = plucker.lines_from_points([1.0, 0, 0], [0.0, 0, 0])
        assert np.array_equal(line, [0, 0, 0, 1, 0, 0])

    def test_hand_evaluated_direction_and_moment(self):
        line = plucker.lines_from_points([0.0, 1, 0], [1.0, 0, 0])
        assert np.array_equal(line[:3], [0, 0, -1])
        assert np.array_equal(line[3:], [-1, 1, 0])

    def test_self_intersection_identity_random(self, rng):
        # a line meets itself: v . w = 0
        a = rng.uniform(-100, 100, size=(3, 10_000))
        b = rng.uniform(-100, 100, size=(3, 10_000))
        lines = plucker.lines_from_points(a, b)
        scale = np.sum(lines * lines, axis=0)
        res = np.abs(np.einsum("in,in->n", lines[:3], lines[3:]))
        assert np.all(res <= 1e-9 * np.maximum(scale, 1.0))

    def test_vectorized_matches_scalar(self, rng):
        a = rng.uniform(-10, 10, size=(3, 50))
        b = rng.uniform(-10, 10, size=(3, 50))
        batch = plucker.lines_from_points(a, b)
        assert batch.shape == (6, 50)
        for i in range(50):
            assert np.array_equal(batch[:, i], plucker.lines_from_points(a[:, i], b[:, i]))


class TestReciprocalProduct:
    """The blocks are Pluecker coordinates: coplanarity is bilinear in them."""

    def test_origin_lines_coplanar(self):
        l1 = plucker.lines_from_points([1.0, 0, 0], [0.0, 0, 0])
        l2 = plucker.lines_from_points([0.0, 3, 5], [0.0, 0, 0])
        assert reciprocal(l1, l2) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_lines_coplanar(self):
        x_axis = plucker.lines_from_points([1.0, 0, 0], [0.0, 0, 0])
        shifted = plucker.lines_from_points([0.0, 0, 1], [1.0, 0, 1])
        assert reciprocal(x_axis, shifted) == pytest.approx(0.0, abs=1e-12)

    def test_skew_lines_give_unit(self):
        x_axis = plucker.lines_from_points([1.0, 0, 0], [0.0, 0, 0])
        skew = plucker.lines_from_points([0.0, 0, 1], [0.0, 1, 1])
        assert abs(reciprocal(x_axis, skew)) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        for _ in range(20):
            l1 = plucker.lines_from_points(rng.normal(size=3), rng.normal(size=3))
            l2 = plucker.lines_from_points(rng.normal(size=3), rng.normal(size=3))
            assert reciprocal(l1, l2) == pytest.approx(reciprocal(l2, l1), rel=1e-12, abs=1e-12)

    def test_intersecting_lines_coplanar(self, rng):
        # lines sharing the point p are coplanar in pairs
        p = rng.uniform(-5, 5, size=3)
        l1 = plucker.lines_from_points(p, p + rng.normal(size=3))
        l2 = plucker.lines_from_points(p, p + rng.normal(size=3))
        scale = np.linalg.norm(l1) * np.linalg.norm(l2)
        assert abs(reciprocal(l1, l2)) <= 1e-9 * scale


class TestProjectLine:
    def test_identity_camera_oracle(self):
        # line x=1, z=1 projects to the image line joining the projections
        # of two of its points: cross((1,0,1), (1,1,1)) = (-1, 0, 1)
        line = plucker.lines_from_points([1.0, 0, 1], [1.0, 1, 1])
        image_line = IDENTITY_LINE_MATRIX @ line
        assert np.array_equal(image_line, np.cross([1.0, 0.0, 1.0], [1.0, 1.0, 1.0]))

    def test_optical_center_line_degenerate(self, rng):
        # a line through the optical center projects to a point: M L = 0
        p = random_point_camera(rng)
        center = -np.linalg.solve(p[:, :3], p[:, 3])
        line = plucker.lines_from_points(center, center + rng.normal(size=3) * 100.0)
        image_line = plucker.point_to_line_matrix(p) @ line
        scale = np.linalg.norm(plucker.point_to_line_matrix(p)) * np.linalg.norm(line)
        assert np.linalg.norm(image_line) < 1e-12 * scale

    def test_linear_in_matrix_scale(self, rng):
        # the image line is linear in the line matrix, which is quadratic
        # in the camera: P and -P give the same line matrix
        p = random_point_camera(rng)
        line = plucker.lines_from_points(rng.normal(size=3), rng.normal(size=3))
        one = plucker.point_to_line_matrix(p) @ line
        assert np.allclose(plucker.point_to_line_matrix(5.0 * p) @ line, 25.0 * one, rtol=1e-14)
        assert np.array_equal(plucker.point_to_line_matrix(-p), plucker.point_to_line_matrix(p))


class TestMatrixConversions:
    def test_identity_camera_line_matrix(self):
        out = plucker.point_to_line_matrix(IDENTITY_CAMERA)
        assert np.array_equal(out, IDENTITY_LINE_MATRIX)

    def test_identity_round_trip(self):
        back = plucker.line_to_point_matrix(IDENTITY_LINE_MATRIX)
        assert np.array_equal(back, IDENTITY_CAMERA)

    def test_rank_deficient_rejected(self):
        p = np.vstack([IDENTITY_CAMERA[:2], IDENTITY_CAMERA[1]])
        with pytest.raises(RankDeficientError):
            plucker.point_to_line_matrix(p)

    def test_round_trip_random_cameras(self, rng):
        # the line matrix is quadratic in P, so the way back gives det(Q) P
        for _ in range(200):
            p = random_point_camera(rng)
            back = plucker.line_to_point_matrix(plucker.point_to_line_matrix(p))
            expected = np.linalg.det(p[:, :3]) * p
            assert np.linalg.norm(back - expected) < 1e-12 * np.linalg.norm(expected)

    def test_focal_scales_rows(self, rng):
        # M(diag(f, f, 1) [R T]) = diag(f, f, f^2) M([R T]): the column
        # scaling the constrained camera solve rests on
        for _ in range(20):
            f = rng.uniform(0.3, 3000.0)
            rt = np.hstack([random_rotation(rng), rng.uniform(-500, 500, size=(3, 1))])
            scaled = plucker.point_to_line_matrix(np.diag([f, f, 1.0]) @ rt)
            expected = np.diag([f, f, f * f]) @ plucker.point_to_line_matrix(rt)
            assert np.allclose(scaled, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())

    def test_incidence_transport_random(self, rng):
        for _ in range(200):
            p = random_point_camera(rng)
            lm = plucker.point_to_line_matrix(p)
            x = rng.uniform(-300, 300, size=3)
            y = rng.uniform(-300, 300, size=3)
            x[2] += 1500.0
            y[2] += 1500.0
            img_pt = p @ np.append(x, 1.0)
            img_pt /= img_pt[2]
            img_line = lm @ plucker.lines_from_points(x, y)
            img_line /= np.linalg.norm(img_line[:2])
            assert abs(img_pt @ img_line) < 1e-9 * max(1.0, np.abs(img_pt).max())
