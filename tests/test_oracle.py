import numpy as np
import pytest

from spherelink import (
    clifford_torus_curve,
    evaluate_main_theorem,
    great_subsphere,
    hopf_fiber,
)
from spherelink.oracle import (
    POLE_CANDIDATES,
    EuclideanCurve,
    find_pole,
    gauss_linking_integral,
    oracle_linking,
    stereographic_project,
)

from conftest import euclid_circle, hopf_pair, threading_circles


def reverse(curve: EuclideanCurve) -> EuclideanCurve:
    def evaluate(s):
        pts, vel = curve.evaluate(curve.period - np.asarray(s, dtype=float))
        return pts, -vel
    return EuclideanCurve(evaluate=evaluate, period=curve.period)


class TestPoleMachinery:
    def test_candidates_are_unit(self):
        assert POLE_CANDIDATES.shape == (20, 4)
        assert np.allclose(np.linalg.norm(POLE_CANDIDATES, axis=1), 1.0)

    def test_find_pole_clears_curves(self):
        K = great_subsphere(1, (0, 1), 3)
        L = great_subsphere(1, (2, 3), 3)
        pole = find_pole([K, L])
        pts = np.vstack([K.batch(np.linspace(0, 2 * np.pi, 64)[:, None])[0],
                         L.batch(np.linspace(0, 2 * np.pi, 64)[:, None])[0]])
        assert np.arccos(np.clip(np.max(pts @ pole), -1, 1)) > 0.05

    def test_pole_on_curve_rejected(self):
        K = great_subsphere(1, (0, 1), 3)
        with pytest.raises(ValueError, match="pole"):
            stereographic_project(K, np.array([1.0, 0, 0, 0]))


class TestStereographicProjection:
    def test_great_circle_projects_to_round_circle(self):
        # a great circle avoiding the pole lands on a perfect circle in R^3
        K = great_subsphere(1, (0, 1), 3)
        proj = stereographic_project(K, np.array([0.0, 0, 0, 1.0]))
        pts, vel = proj.sample(128)
        # equatorial circle from the (0,0,0,1) pole maps to itself: radius 1
        center = pts.mean(axis=0)
        radii = np.linalg.norm(pts - center, axis=1)
        assert np.allclose(radii, radii[0], atol=1e-12)
        # velocities tangent to the circle
        assert np.max(np.abs(np.sum((pts - center) * vel, axis=1))) < 1e-10

    def test_velocity_by_finite_difference(self):
        K = clifford_torus_curve(2, 3)
        proj = stereographic_project(K, np.array([1.0, 1, 1, 1]) / 2)
        s = np.linspace(0.1, 6.0, 17)
        pts, vel = proj.evaluate(s)
        h = 1e-6
        fd = (proj.evaluate(s + h)[0] - proj.evaluate(s - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - vel)) < 1e-6

    def test_hopf_fibers_stay_disjoint(self):
        K, L = hopf_pair()
        pole = find_pole([K, L])
        pk = stereographic_project(K, pole).sample(256)[0]
        pl = stereographic_project(L, pole).sample(256)[0]
        dmin = np.min(np.linalg.norm(pk[:, None, :] - pl[None, :, :], axis=2))
        assert dmin > 1e-3


class TestGaussIntegral:
    def test_threading_circles(self):
        # unit circle in the xy-plane, threaded by a unit circle in the
        # xz-plane through the origin.  With both run counterclockwise in
        # their planes, the second pierces the spanning disk of the first
        # downward at the origin: one negative crossing, Lk = -1.
        r = gauss_linking_integral(*threading_circles())
        assert r.raw_value == pytest.approx(-1.0, abs=1e-9)
        assert r.nearest_integer == -1
        assert r.accepted

    def test_distant_circles_unlinked(self):
        K = euclid_circle([0, 0, 0], 1.0)
        L = euclid_circle([5, 0, 0], 1.0)
        r = gauss_linking_integral(K, L)
        assert abs(r.raw_value) < 1e-9
        assert r.nearest_integer == 0

    def test_orientation_reversal_negates(self):
        K, L = threading_circles()
        a = gauss_linking_integral(K, L).raw_value
        b = gauss_linking_integral(K, reverse(L)).raw_value
        assert b == pytest.approx(-a, abs=1e-9)

    def test_proximity_rejected(self):
        K = euclid_circle([0, 0, 0], 1.0)
        L = euclid_circle([2.0 + 1e-5, 0, 0], 1.0)
        with pytest.raises(ValueError, match="approach"):
            gauss_linking_integral(K, L)

    def test_touching_circles_rejected_before_dividing(self):
        # the circles meet at the shared node s = 0, where |x - y| = 0: the
        # distance check must fire before the integrand divides by it
        K = euclid_circle([0, 0, 0], 1.0)
        L = EuclideanCurve(evaluate=lambda s: (
            np.column_stack([2 - np.cos(s), 0 * s, np.sin(s)]),
            np.column_stack([np.sin(s), 0 * s, np.cos(s)])))
        with pytest.raises(ValueError, match="approach"):
            gauss_linking_integral(K, L, m=64)

    def test_nan_point_rejected(self):
        circle = euclid_circle([5, 0, 0], 1.0)

        def evaluate(s):
            pts, vel = circle.evaluate(s)
            pts[3] = np.nan
            return pts, vel

        with pytest.raises(ValueError, match="integrand is not finite"):
            gauss_linking_integral(euclid_circle([0, 0, 0], 1.0),
                                   EuclideanCurve(evaluate=evaluate))

    def test_report_method(self):
        K = euclid_circle([0, 0, 0], 1.0)
        L = euclid_circle([5, 0, 0], 1.0)
        r = gauss_linking_integral(K, L)
        assert r.method == "gauss_oracle"
        assert r.min_alpha <= r.max_alpha

    def test_vanishing_velocity_rejected(self):
        frozen = EuclideanCurve(evaluate=lambda s: (
            np.tile([1.0, 0, 0], (len(s), 1)), np.zeros((len(s), 3))))
        L = euclid_circle([5, 0, 0], 1.0)
        with pytest.raises(ValueError, match="velocity"):
            gauss_linking_integral(frozen, L)


class TestOracleVsSphere:
    def test_great_circles(self):
        K = great_subsphere(1, (0, 1), 3)
        L = great_subsphere(1, (2, 3), 3)
        assert oracle_linking(K, L).raw_value == pytest.approx(1.0, abs=1e-9)

    def test_pole_independence(self):
        K, L = hopf_pair()
        values = []
        for pole in [np.array([1.0, 1, 1, 1]) / 2, np.array([0.3, -0.5, 0.7, 0.4])]:
            pole = pole / np.linalg.norm(pole)
            r = gauss_linking_integral(stereographic_project(K, pole),
                                       stereographic_project(L, pole))
            values.append(r.raw_value)
        assert abs(values[0] - values[1]) < 1e-6

    def test_matches_main_theorem(self):
        pairs = [
            (great_subsphere(1, (0, 1), 3), great_subsphere(1, (2, 3), 3), 1e-6),
            (*hopf_pair(), 1e-6),
            (clifford_torus_curve(2, 3), clifford_torus_curve(2, 3, np.pi / 4), 1e-3),
        ]
        for K, L, tol in pairs:
            a = oracle_linking(K, L).raw_value
            b = evaluate_main_theorem(K, L).raw_value
            assert abs(a - b) < tol

    def test_requires_s3_curves(self):
        with pytest.raises(ValueError, match="S\\^3"):
            oracle_linking(great_subsphere(1, (0, 1), 4),
                           great_subsphere(2, (2, 3, 4), 4))
