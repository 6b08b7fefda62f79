"""Line-coordinate algebra tests, incl. the conversion round trips."""

from __future__ import annotations

import numpy as np
import pytest

from specsurf import plucker
from specsurf.errors import CoincidentPointsError, DegenerateProjectionError, RankDeficientError

from conftest import random_point_camera


IDENTITY_CAMERA = np.hstack([np.eye(3), np.zeros((3, 1))])

# line matrix of [I | 0], by direct minor evaluation
IDENTITY_LINE_MATRIX = np.array(
    [
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    ]
)


class TestLineFromPoints:
    def test_axis_line_through_origin(self):
        line = plucker.line_from_points([1, 0, 0], [0, 0, 0])
        assert np.allclose(plucker.direction_of(line), [1, 0, 0])
        assert np.allclose(plucker.moment_of(line), [0, 0, 0])

    def test_hand_evaluated_direction_and_moment(self):
        line = plucker.line_from_points([0, 1, 0], [1, 0, 0])
        assert np.allclose(plucker.direction_of(line), [-1, 1, 0])
        assert np.allclose(plucker.moment_of(line), [0, 0, -1])

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPointsError):
            plucker.line_from_points([1, 2, 3], [1, 2, 3])

    def test_self_intersection_identity_random(self, rng):
        a = rng.uniform(-100, 100, size=(10_000, 3))
        b = rng.uniform(-100, 100, size=(10_000, 3))
        lines = plucker.lines_from_points(a, b)
        scale = np.sum(lines * lines, axis=-1)
        res = np.abs(plucker.self_intersection(lines))
        assert np.all(res <= 1e-9 * np.maximum(scale, 1.0))

    def test_vectorized_matches_scalar(self, rng):
        a = rng.uniform(-10, 10, size=(50, 3))
        b = rng.uniform(-10, 10, size=(50, 3))
        batch = plucker.lines_from_points(a, b)
        for i in range(50):
            assert np.array_equal(batch[i], plucker.line_from_points(a[i], b[i]))


class TestRescaleLines:
    def test_line_rescale_matches_endpoint_rescale(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 3)) * 300.0
        b = a + rng.normal(size=(40, 3)) * 150.0
        rho = 7.3
        direct = plucker.lines_from_points(a / rho, b / rho)
        direct /= np.linalg.norm(direct, axis=1, keepdims=True)
        lines = plucker.lines_from_points(a, b)
        lines /= np.linalg.norm(lines, axis=1, keepdims=True)
        scaled = plucker.rescale_lines(lines, rho)
        # rows agree up to a per-line sign
        dots = np.abs(np.einsum("ij,ij->i", direct, scaled))
        assert np.min(dots) > 1.0 - 1e-12


class TestDual:
    def test_reordering(self):
        out = plucker.dual(np.array([1.0, 2, 3, 4, 5, 6]))
        assert np.array_equal(out, [5, 6, 4, 3, 1, 2])

    def test_involution(self, rng):
        line = rng.normal(size=6)
        assert np.array_equal(plucker.dual(plucker.dual(line)), line)

    def test_origin_line_zero_block_moves(self):
        # moment slots (1,2,4) are zero for a line through the origin and
        # land in dual slots (3,5,6)
        line = plucker.line_from_points([2.0, -1.0, 3.0], [0.0, 0.0, 0.0])
        d = plucker.dual(line)
        assert np.allclose(d[[2, 4, 5]], 0.0)
        assert np.allclose([d[0], d[1], d[3]], [line[4], line[5], line[2]])


class TestReciprocalProduct:
    def test_origin_lines_coplanar(self):
        l1 = plucker.line_from_points([1, 0, 0], [0, 0, 0])
        l2 = plucker.line_from_points([0, 3, 5], [0, 0, 0])
        assert plucker.reciprocal_product(l1, l2) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_lines_coplanar(self):
        x_axis = plucker.line_from_points([1, 0, 0], [0, 0, 0])
        shifted = plucker.line_from_points([0, 0, 1], [1, 0, 1])
        assert plucker.reciprocal_product(x_axis, shifted) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_skew_lines_give_unit(self):
        x_axis = plucker.line_from_points([1, 0, 0], [0, 0, 0])
        skew = plucker.line_from_points([0, 0, 1], [0, 1, 1])
        assert abs(plucker.reciprocal_product(x_axis, skew)) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        for _ in range(20):
            l1 = plucker.lines_from_points(rng.normal(size=3), rng.normal(size=3))
            l2 = plucker.lines_from_points(rng.normal(size=3), rng.normal(size=3))
            assert plucker.reciprocal_product(l1, l2) == pytest.approx(
                plucker.reciprocal_product(l2, l1), rel=1e-12, abs=1e-12
            )

    def test_intersecting_lines_coplanar(self, rng):
        # lines sharing the point p are coplanar in pairs
        p = rng.uniform(-5, 5, size=3)
        l1 = plucker.line_from_points(p, p + rng.normal(size=3))
        l2 = plucker.line_from_points(p, p + rng.normal(size=3))
        scale = np.linalg.norm(l1) * np.linalg.norm(l2)
        assert abs(plucker.reciprocal_product(l1, l2)) <= 1e-9 * scale


class TestProjectLine:
    def test_identity_camera_oracle(self):
        # line x=1, z=1 projects to the image line joining the projections
        # of two of its points: cross((1,0,1), (1,1,1)) = (-1, 0, 1)
        line = plucker.line_from_points([1, 0, 1], [1, 1, 1])
        image_line = plucker.project_line(IDENTITY_LINE_MATRIX, line)
        expected = np.cross([1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        assert np.allclose(
            plucker.normalize_projective(image_line),
            plucker.normalize_projective(expected),
        )

    def test_optical_center_line_degenerate(self):
        line = plucker.line_from_points([1, 1, 1], [0, 0, 0])
        with pytest.raises(DegenerateProjectionError):
            plucker.project_line(IDENTITY_LINE_MATRIX, line)

    def test_linear_in_matrix_scale(self):
        line = plucker.line_from_points([1, 0, 1], [1, 1, 1])
        one = plucker.project_line(IDENTITY_LINE_MATRIX, line)
        five = plucker.project_line(5.0 * IDENTITY_LINE_MATRIX, line)
        assert np.allclose(five, 5.0 * one)


class TestMatrixConversions:
    def test_identity_camera_line_matrix(self):
        out = plucker.point_to_line_matrix(IDENTITY_CAMERA)
        assert np.array_equal(out, IDENTITY_LINE_MATRIX)

    def test_identity_round_trip(self):
        back = plucker.line_to_point_matrix(IDENTITY_LINE_MATRIX)
        back = plucker.normalize_projective(back)
        assert np.allclose(back, plucker.normalize_projective(IDENTITY_CAMERA))

    def test_rank_deficient_rejected(self):
        p = np.vstack([IDENTITY_CAMERA[:2], IDENTITY_CAMERA[1]])
        with pytest.raises(RankDeficientError):
            plucker.point_to_line_matrix(p)

    def test_invalid_line_matrix_rejected(self, rng):
        lm = plucker.point_to_line_matrix(random_point_camera(rng))
        lm = lm / np.linalg.norm(lm)
        lm[0] += 0.1 * rng.normal(size=6)
        assert plucker.line_matrix_validity(lm) > 1e-6

    def test_round_trip_random_cameras(self, rng):
        for _ in range(200):
            p = random_point_camera(rng)
            lm = plucker.point_to_line_matrix(p)
            assert plucker.line_matrix_validity(lm) < 1e-10
            back = plucker.line_to_point_matrix(lm)
            d = plucker.normalize_projective(back) - plucker.normalize_projective(p)
            assert np.linalg.norm(d) < 1e-9

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
            img_line = plucker.project_line(lm, plucker.line_from_points(x, y))
            img_line /= np.linalg.norm(img_line[:2])
            assert abs(img_pt @ img_line) < 1e-9 * max(1.0, np.abs(img_pt).max())


class TestNormalizeProjective:
    def test_unit_norm_and_sign(self):
        out = plucker.normalize_projective(np.array([-3.0, 4.0]))
        assert np.allclose(out, [0.6, -0.8])
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            plucker.normalize_projective(np.zeros(4))
