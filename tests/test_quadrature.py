import numpy as np
import pytest

from spherelink.engine import GridSpec
from spherelink.quadrature import (
    ChartDim,
    Estimate,
    product_rule,
    refine_until,
    tree_sum,
    tree_sum_axis,
    worker_count,
)


PERIOD = (0.0, 2 * np.pi)


def weighted_sum(f, *intervals):
    """A refine_until level: f summed against the product of periodic
    trapezoid rules of grid.curve nodes, one per interval."""
    def level_sum(grid):
        pts, wts = product_rule([ChartDim(a, b, True) for a, b in intervals], grid.curve)
        return tree_sum(f(pts) * wts)
    return level_sum


def integrate(m, f, *intervals):
    """m nodes per interval refined once, with the difference against m."""
    return refine_until(GridSpec(curve=m), weighted_sum(f, *intervals), tol=np.inf,
                        max_level=0)


class TestRules:
    def test_weight_normalization(self):
        for cd, m in [(ChartDim(0, 2 * np.pi, True), 37), (ChartDim(-1.5, 2.5, False), 12),
                      (ChartDim(1.0, 4.0, True), 8), (ChartDim(0, np.pi, False), 5)]:
            _, w = cd.rule(m)
            assert np.sum(w) == pytest.approx(cd.hi - cd.lo, abs=1e-12)

    def test_gauss_degree_exactness(self):
        # m nodes integrate polynomials up to degree 2m - 1 exactly
        x, w = ChartDim(-1.0, 1.0, False).rule(4)
        got = float(np.sum(w * (x**7 - 2 * x**6 + x**3 + 1)))
        exact = -2 * (2 / 7) + 2  # odd powers vanish on [-1, 1]
        assert got == pytest.approx(exact, abs=1e-12)

    def test_gauss_nodes_interior(self):
        x, _ = ChartDim(0, np.pi, False).rule(16)
        assert x.min() > 0 and x.max() < np.pi

    def test_invalid(self):
        with pytest.raises(ValueError, match="node count"):
            ChartDim(0, 1, True).rule(0)
        with pytest.raises(ValueError, match="positive length"):
            ChartDim(1, 1, False).rule(4)


class TestProductRule:
    def test_lexicographic_order(self):
        pts, wts = product_rule([ChartDim(0, 1, True), ChartDim(0, 1, True)], 2)
        assert pts.shape == (4, 2) and wts.shape == (4,)
        # first factor varies slowest
        assert np.array_equal(pts[:, 0], [0.0, 0.0, 0.5, 0.5])
        assert np.array_equal(pts[:, 1], [0.0, 0.5, 0.0, 0.5])
        assert np.allclose(wts, 1 / 4)

    def test_mixed_periodic_and_open(self):
        # an open factor between two periodic ones: node j of the product is
        # (a[j0], b[j1], c[j2]) with j = (j0 * m + j1) * m + j2, and its weight
        # is the product of the three factors' weights
        domain = [ChartDim(0, 2 * np.pi, True), ChartDim(0, np.pi, False),
                  ChartDim(-1, 3, True)]
        m = 3
        rules = [cd.rule(m) for cd in domain]
        pts, wts = product_rule(domain, m)
        assert pts.shape == (m ** 3, 3) and wts.shape == (m ** 3,)
        for j, (j0, j1, j2) in enumerate(np.ndindex(m, m, m)):
            assert list(pts[j]) == [rules[0][0][j0], rules[1][0][j1], rules[2][0][j2]]
            assert wts[j] == rules[0][1][j0] * rules[1][1][j1] * rules[2][1][j2]


class TestTreeSum:
    def test_matches_sum(self, rng):
        v = rng.standard_normal(1001)
        assert tree_sum(v) == pytest.approx(float(np.sum(v)), abs=1e-10)

    def test_fixed_pairing(self):
        # ((a + b) + c) pairing, odd tail carried
        a, b, c = 0.1, 0.2, 0.3
        assert tree_sum([a, b, c]) == (a + b) + c

    def test_axis_version(self, rng):
        v = rng.standard_normal((7, 33))
        rows = tree_sum_axis(v, axis=1)
        assert rows.shape == (7,)
        for i in range(7):
            assert rows[i] == tree_sum(v[i])

    def test_empty(self):
        assert tree_sum([]) == 0.0

    def test_pairing_matches_reference(self, rng):
        # adjacent pairs level by level, an odd tail carried unchanged
        def reference(v):
            while len(v) > 1:
                v = [v[i] + v[i + 1] for i in range(0, len(v) - 1, 2)] + v[len(v) - len(v) % 2:]
            return v[0]

        for n in range(1, 40):
            v = rng.standard_normal(n)
            assert tree_sum(v) == reference(list(v))


class TestIntegrate:
    def test_constant_over_torus(self):
        est = integrate(8, lambda p: np.ones(p.shape[0]), PERIOD, PERIOD)
        assert est.value == pytest.approx((2 * np.pi) ** 2, abs=1e-12)
        assert est.error_estimate < 1e-12

    def test_orthogonality(self):
        est = integrate(16, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]), PERIOD, PERIOD)
        assert abs(est.value) < 1e-14

    def test_constant_distance_pair_factorization(self):
        # two orthogonal unit circles: the distance kernel is constant 1/2
        # and the bracket is identically 1, so the integral factors into
        # (2 pi)(2 pi)(1/2)
        from spherelink import great_subsphere, phi_kernel_ratio
        K = great_subsphere(1, (0, 1), 3)
        L = great_subsphere(1, (2, 3), 3)

        def integrand(p):
            x, dx = K.batch(p[:, :1])
            y, dy = L.batch(p[:, 1:])
            m = np.concatenate([x[:, :, None], dx, y[:, :, None], dy], axis=2)
            alpha = np.arccos(np.clip(np.sum(x * y, axis=1), -1, 1))
            return phi_kernel_ratio(1, 1, alpha) * np.linalg.det(m)

        est = integrate(16, integrand, PERIOD, PERIOD)
        assert est.value == pytest.approx((2 * np.pi) ** 2 * 0.5, rel=1e-12)

class TestRefineUntil:
    def test_infinite_tol_returns_base(self):
        g = GridSpec(curve=8)
        level_sum = weighted_sum(lambda p: np.exp(np.sin(p[:, 0])), PERIOD)
        est = refine_until(g, level_sum, tol=np.inf, max_level=0)
        coarse, fine = level_sum(g), level_sum(g.refined())
        assert est.levels_used == 0
        assert est.value == fine
        assert est.error_estimate == abs(fine - coarse)
        assert est.level_values == (coarse, fine)

    def test_requires_positive_tol(self):
        # tol must be >= 0: negative and NaN raise, 0 runs every level
        g = GridSpec(curve=4)
        level_sum = weighted_sum(lambda p: np.ones(p.shape[0]), (0.0, 1.0))
        for tol in (-1.0, np.nan):
            with pytest.raises(ValueError, match="tolerance"):
                refine_until(g, level_sum, tol=tol, max_level=0)
        est = refine_until(g, level_sum, tol=0.0, max_level=3)
        assert est.levels_used == 3
        assert len(est.level_values) == 5
        assert not est.converged

    def test_spectral_convergence_smooth_periodic(self):
        # each doubling of a periodic trapezoid on a smooth integrand must
        # slash the error estimate by far more than 10x until it bottoms out
        f = lambda p: np.exp(np.sin(p[:, 0]))
        exact = 2 * np.pi * 1.2660658777520084  # 2 pi I_0(1)
        est = refine_until(GridSpec(curve=4), weighted_sum(f, PERIOD), tol=0.0, max_level=4)
        values = est.level_values
        errors = [abs(b - a) for a, b in zip(values[1:], values[2:])]
        resolved = [e for e in errors if e > 1e-14]
        for e1, e2 in zip(resolved, resolved[1:]):
            assert e2 < e1 / 10
        assert est.value == pytest.approx(exact, rel=1e-12)

    def test_close_approach_flags_nonconvergence(self):
        # two great circles passing within 0.05 rad: a coarse grid with a
        # low level cap cannot resolve the near-singular kernel
        from spherelink import great_subsphere, phi_kernel_ratio, rotated
        from spherelink.spheregeom import compose_givens
        K = great_subsphere(1, (0, 1), 3)
        L = rotated(great_subsphere(1, (2, 3), 3),
                    compose_givens(4, [((0, 2), np.pi / 2 - 0.05)]))

        def integrand(p):
            x, dx = K.batch(p[:, :1])
            y, dy = L.batch(p[:, 1:])
            m = np.concatenate([x[:, :, None], dx, y[:, :, None], dy], axis=2)
            alpha = np.arccos(np.clip(np.sum(x * y, axis=1), -1, 1))
            return phi_kernel_ratio(1, 1, alpha) * np.linalg.det(m)

        est = refine_until(GridSpec(curve=8), weighted_sum(integrand, PERIOD, PERIOD),
                           tol=1e-9, max_level=2)
        assert not est.converged
        assert isinstance(est, Estimate)


class TestDeterminism:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SPHERELINK_WORKERS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("SPHERELINK_WORKERS")
        assert worker_count() >= 1

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_worker_count_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("SPHERELINK_WORKERS", value)
        with pytest.raises(ValueError, match="SPHERELINK_WORKERS"):
            worker_count()
