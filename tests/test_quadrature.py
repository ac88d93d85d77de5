import numpy as np
import pytest

from spherelink.quadrature import (
    Estimate,
    ProductGrid,
    gauss_legendre,
    periodic_trapezoid,
    refine_until,
    tree_sum,
    tree_sum_axis,
    worker_count,
)


def weighted_sum(f):
    """A refine_until level: f summed against the grid's weights."""
    def level_sum(grid):
        pts, wts = grid.points_weights()
        return tree_sum(f(pts) * wts)
    return level_sum


def integrate(grid, f):
    """The grid refined once, with the difference against grid itself."""
    return refine_until(grid, weighted_sum(f), tol=np.inf)


class TestRules:
    def test_weight_normalization(self):
        for rule in [periodic_trapezoid(0, 2 * np.pi, 37),
                     gauss_legendre(-1.5, 2.5, 12),
                     periodic_trapezoid(1.0, 4.0, 8),
                     gauss_legendre(0, np.pi, 5)]:
            _, w = rule.nodes_weights()
            assert np.sum(w) == pytest.approx(rule.b - rule.a, abs=1e-12)

    def test_gauss_degree_exactness(self):
        # m nodes integrate polynomials up to degree 2m - 1 exactly
        rule = gauss_legendre(-1.0, 1.0, 4)
        x, w = rule.nodes_weights()
        got = float(np.sum(w * (x**7 - 2 * x**6 + x**3 + 1)))
        exact = -2 * (2 / 7) + 2  # odd powers vanish on [-1, 1]
        assert got == pytest.approx(exact, abs=1e-12)

    def test_gauss_nodes_interior(self):
        x, _ = gauss_legendre(0, np.pi, 16).nodes_weights()
        assert x.min() > 0 and x.max() < np.pi

    def test_invalid(self):
        with pytest.raises(ValueError):
            periodic_trapezoid(0, 1, 0)
        with pytest.raises(ValueError):
            gauss_legendre(1, 1, 4)
        with pytest.raises(ValueError):
            from spherelink.quadrature import QuadratureRule1D
            QuadratureRule1D("simpson", 0, 1, 4)


class TestProductGrid:
    def test_lexicographic_order(self):
        g = ProductGrid([periodic_trapezoid(0, 1, 2), periodic_trapezoid(0, 1, 3)])
        pts, wts = g.points_weights()
        assert g.total_points == 6
        # first factor varies slowest
        assert np.allclose(pts[:3, 0], 0.0) and np.allclose(pts[3:, 0], 0.5)
        assert np.allclose(wts, (1 / 2) * (1 / 3))

    def test_refined_doubles_every_factor(self):
        g = ProductGrid([periodic_trapezoid(0, 1, 4), gauss_legendre(0, 1, 3)])
        r = g.refined()
        assert r.factor_counts == (8, 6)


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


class TestIntegrate:
    def test_constant_over_torus(self):
        g = ProductGrid([periodic_trapezoid(0, 2 * np.pi, 8),
                         periodic_trapezoid(0, 2 * np.pi, 8)])
        est = integrate(g, lambda p: np.ones(p.shape[0]))
        assert est.value == pytest.approx((2 * np.pi) ** 2, abs=1e-12)
        assert est.error_estimate < 1e-12

    def test_orthogonality(self):
        g = ProductGrid([periodic_trapezoid(0, 2 * np.pi, 16),
                         periodic_trapezoid(0, 2 * np.pi, 16)])
        est = integrate(g, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
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

        g = ProductGrid([periodic_trapezoid(0, 2 * np.pi, 16),
                         periodic_trapezoid(0, 2 * np.pi, 16)])
        est = integrate(g, integrand)
        assert est.value == pytest.approx((2 * np.pi) ** 2 * 0.5, rel=1e-12)

class TestRefineUntil:
    def test_infinite_tol_returns_base(self):
        g = ProductGrid([periodic_trapezoid(0, 2 * np.pi, 8)])
        level_sum = weighted_sum(lambda p: np.exp(np.sin(p[:, 0])))
        est = refine_until(g, level_sum, tol=np.inf)
        coarse, fine = level_sum(g), level_sum(g.refined())
        assert est.levels_used == 0
        assert est.value == fine
        assert est.error_estimate == abs(fine - coarse)
        assert est.level_values == (coarse, fine)

    def test_requires_positive_tol(self):
        # tol must be >= 0: negative and NaN raise, 0 runs every level
        g = ProductGrid([periodic_trapezoid(0, 1, 4)])
        level_sum = weighted_sum(lambda p: np.ones(p.shape[0]))
        for tol in (-1.0, np.nan):
            with pytest.raises(ValueError, match="tolerance"):
                refine_until(g, level_sum, tol=tol)
        est = refine_until(g, level_sum, tol=0.0, max_level=3)
        assert est.levels_used == 3
        assert len(est.level_values) == 5
        assert not est.converged

    def test_spectral_convergence_smooth_periodic(self):
        # each doubling of a periodic trapezoid on a smooth integrand must
        # slash the error estimate by far more than 10x until it bottoms out
        g = ProductGrid([periodic_trapezoid(0, 2 * np.pi, 4)])
        f = lambda p: np.exp(np.sin(p[:, 0]))
        exact = 2 * np.pi * 1.2660658777520084  # 2 pi I_0(1)
        est = refine_until(g, weighted_sum(f), tol=0.0, max_level=4)
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

        g = ProductGrid([periodic_trapezoid(0, 2 * np.pi, 8),
                         periodic_trapezoid(0, 2 * np.pi, 8)])
        est = refine_until(g, weighted_sum(integrand), tol=1e-9, max_level=2)
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
