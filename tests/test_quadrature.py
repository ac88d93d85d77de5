import math
import re
import subprocess
import sys
import threading
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest

from spherelink import engine, quadrature
from spherelink.engine import GridSpec
from spherelink.quadrature import (
    ChartDim,
    Estimate,
    Kronrod,
    NewNodes,
    blocks,
    part_size,
    probes,
    product_rule,
    refine_until,
    run_chunked,
    tensor_grid,
    tree_sum,
    tree_sum_axis,
    worker_count,
)

from conftest import small_sphere_pair


PERIOD = (0.0, 2 * np.pi)


def periodic(*intervals):
    """The chart factors of periodic intervals."""
    return tuple(ChartDim(a, b, True) for a, b in intervals)


def weighted_sum(f, *intervals, grids=None):
    """refine_until's level sums: for each grid, f summed against the
    product of periodic trapezoid rules, one per interval at its own node
    count; each grid integrated is appended to `grids` when one is given."""
    def level_sums(todo):
        if grids is not None:
            grids.extend(todo)
        return [tree_sum(f(pts) * wts)
                for pts, wts in (product_rule(periodic(*intervals), c) for c in todo)]
    return level_sums


def integrate(m, f, *intervals):
    """One refinement step from m nodes per interval: the base and each
    one-factor doubling."""
    return refine_until((m,) * len(intervals), weighted_sum(f, *intervals), tol=np.inf,
                        max_level=0, domain=periodic(*intervals))


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
        pts, wts = product_rule([ChartDim(0, 1, True), ChartDim(0, 1, True)], (2, 2))
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
        pts, wts = product_rule(domain, (m, m, m))
        assert pts.shape == (m ** 3, 3) and wts.shape == (m ** 3,)
        for j, (j0, j1, j2) in enumerate(np.ndindex(m, m, m)):
            assert list(pts[j]) == [rules[0][0][j0], rules[1][0][j1], rules[2][0][j2]]
            assert wts[j] == rules[0][1][j0] * rules[1][1][j1] * rules[2][1][j2]

    def test_tensor_grid_any_factor_count(self):
        # lexicographic for more factors than np.meshgrid takes (32)
        factors = [np.array([0.5])] * 31 + [np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])]
        grid = tensor_grid(factors)
        assert grid.shape == (6, 33)
        assert np.array_equal(grid[:, :31], np.full((6, 31), 0.5))
        assert grid[:, 31:].tolist() == [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5]]


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

class TestBlocks:
    DOMAIN = (ChartDim(0.0, 2 * np.pi, True), ChartDim(0.0, np.pi, False),
              ChartDim(-1.0, 3.0, True))

    def test_blocks_partition_the_grid(self):
        # every node of the grid in exactly one block, at the grid's own
        # coordinates and weight, bit for bit, once each block's weights are
        # scaled by 2^-doublings
        grid0, counts = (3, 4, 5), (12, 8, 10)
        parts = blocks(self.DOMAIN, grid0, counts)
        # the first factor has three increments, the open one one, the last two
        assert len(parts) == 3 * 1 * 2 and len(set(b for b, _, _ in parts)) == len(parts)
        assert parts[0] == ((3, 8, 5), 3, None)
        assert parts[-1] == ((NewNodes(12), 8, NewNodes(10)), 0, None)
        pts, wts = product_rule(self.DOMAIN, counts)
        got = [product_rule(self.DOMAIN, b) for b, _, _ in parts]
        bpts = np.vstack([p for p, _ in got])
        bwts = np.concatenate([np.ldexp(w, -e) for (_, w), (_, e, _) in zip(got, parts)])
        order, border = np.lexsort(pts.T[::-1]), np.lexsort(bpts.T[::-1])
        assert np.array_equal(pts[order], bpts[border])
        assert np.array_equal(wts[order], bwts[border])

    def test_new_nodes_are_the_odd_nodes(self):
        cd = self.DOMAIN[0]
        x, w = cd.rule(16)
        nx, nw = cd.increment(NewNodes(16))
        assert np.array_equal(nx, x[1::2]) and np.array_equal(nw, w[1::2])
        assert np.array_equal(cd.increment(8)[0], x[::2])
        for bad, part in ((self.DOMAIN[1], NewNodes(8)), (cd, NewNodes(7))):
            with pytest.raises(ValueError, match="periodic factor at an even count"):
                bad.increment(part)

    def test_open_factor_new_nodes_come_from_its_kronrod_rule(self):
        # Gauss-Legendre at 8 does not refine the rule at 4, so NewNodes(8)
        # names no nodes of an open factor; NewNodes(Kronrod(4)) names the
        # 5 the Kronrod rule adds to Gauss-Legendre at 4
        with pytest.raises(ValueError, match="periodic factor at an even count"):
            self.DOMAIN[1].increment(NewNodes(8))
        sizes = [part_size(p) for p in (4, Kronrod(4), NewNodes(Kronrod(4)), NewNodes(8))]
        assert sizes == [4, 9, 5, 4]
        x, _ = self.DOMAIN[1].increment(NewNodes(Kronrod(4)))
        assert len(x) == 5 and not set(x) & set(self.DOMAIN[1].rule(4)[0])

    def test_probes_double_periodic_and_extend_open_factors(self):
        assert probes(self.DOMAIN, (3, 4, 5)) == [(6, 4, 5), (3, Kronrod(4), 5), (3, 4, 10)]

    def test_kronrod_probe_blocks_partition_its_grid(self):
        # a probe of the open factor at 8, grown from 4: the base grid's
        # blocks, flagged to be read at the Kronrod weights of their Gauss
        # nodes, and blocks of the 9 nodes it adds over the same increments
        # of the others
        grid0, counts = (3, 4, 5), (12, Kronrod(8), 10)
        parts = blocks(self.DOMAIN, grid0, counts)
        assert len(parts) == 3 * 2 * 2 and len(set(b for b, _, _ in parts)) == len(parts)
        assert parts[0] == ((3, 8, 5), 3, 1)
        assert parts[-1] == ((NewNodes(12), NewNodes(Kronrod(8)), NewNodes(10)), 0, None)
        # the flagged blocks are the base grid's, with their doublings
        base = blocks(self.DOMAIN, grid0, (12, 8, 10))
        assert [(b, e, 1) for b, e, _ in base] == [p for p in parts if p[2] is not None]
        pts, wts = product_rule(self.DOMAIN, counts)
        assert len(wts) == 12 * 17 * 10

        def block_rule(block, kronrod):
            # the block's product rule, factor `kronrod` at its Kronrod weights
            nodes, weights = map(list, zip(*map(ChartDim.increment, self.DOMAIN, block)))
            if kronrod is not None:
                weights[kronrod] = self.DOMAIN[kronrod].rule(Kronrod(block[kronrod]))[1][1::2]
            return tensor_grid(nodes), reduce(np.multiply, tensor_grid(weights).T)

        got = [block_rule(b, i) for b, _, i in parts]
        bpts = np.vstack([p for p, _ in got])
        bwts = np.concatenate([np.ldexp(w, -e) for (_, w), (_, e, _) in zip(got, parts)])
        order, border = np.lexsort(pts.T[::-1]), np.lexsort(bpts.T[::-1])
        assert np.array_equal(pts[order], bpts[border])
        assert np.array_equal(wts[order], bwts[border])

    def test_kronrod_probe_blocks_reproduce_its_sum(self):
        # each flagged block summed as its marginal along the probed factor,
        # reweighted: the probe's product-rule sum to a few ulps
        f = lambda p: np.exp(np.sin(p[:, 0]) + np.cos(p[:, 1]) * np.sin(p[:, 2]))

        def terms(block):
            pts, w = product_rule(self.DOMAIN, block)
            return f(pts) * w

        grid0, counts = (3, 4, 5), (12, Kronrod(8), 10)
        total = []
        for b, e, i in blocks(self.DOMAIN, grid0, counts):
            if i is None:
                total.append(np.ldexp(math.fsum(terms(b)), -e))
                continue
            marginal = terms(b).reshape([part_size(p) for p in b]).sum(axis=(0, 2))
            total.append(np.ldexp(math.fsum(marginal * Kronrod(b[i]).ratio()), -e))
        direct = math.fsum(terms(counts))
        assert abs(math.fsum(total) - direct) <= 4 * np.spacing(direct)

    def test_grids_off_the_doubling_ladder_are_whole(self):
        # a count that is not the base's times a power of two, or below it,
        # is one block: its whole rule
        assert blocks(self.DOMAIN[:1], (4,), (12,)) == [((12,), 0, None)]
        assert blocks(self.DOMAIN[:1], (4,), (2,)) == [((2,), 0, None)]
        assert blocks(self.DOMAIN[:1], (4,), (4,)) == [((4,), 0, None)]
        assert blocks((), (), ()) == [((), 0, None)]

    def test_one_kronrod_factor_per_grid(self):
        # a block is read at the Kronrod weights of one factor at most, so a
        # grid that probes two open factors is refused
        domain = (self.DOMAIN[1],) * 2
        with pytest.raises(ValueError, match=r"probes 2 open factors"):
            blocks(domain, (4, 4), (Kronrod(4), Kronrod(4)))

    def test_domain_must_match_the_grid(self):
        # a second count with no chart factor is rejected, not dropped
        with pytest.raises(ValueError, match="1 chart factors need as many node counts, got 2"):
            blocks(self.DOMAIN[:1], (4, 4), (8, 4))
        with pytest.raises(ValueError, match="3 chart factors .* got 2"):
            blocks(self.DOMAIN, (3, 4, 5), (6, 4))


class TestKronrod:
    """The Gauss-Kronrod extension of each Gauss-Legendre rule, an open
    factor's probe."""

    @pytest.mark.parametrize("cd", [ChartDim(0.0, 1.0, False), ChartDim(0.0, np.pi, False)])
    def test_extends_every_gauss_rule(self, cd):
        for m in range(1, 65):
            x, w = cd.increment(Kronrod(m))
            gx, gw = cd.rule(m)
            # the Gauss nodes bit for bit, the m + 1 new ones strictly
            # inside the interval and between them, every weight positive
            assert len(x) == 2 * m + 1 and np.array_equal(x[1::2], gx)
            assert cd.lo < x[0] and x[-1] < cd.hi and np.all(np.diff(x) > 0)
            assert np.all(w > 0)
            # exact to degree 3m + 1, within 1e-14 of the interval's length:
            # P_0 of the interval integrates to it and P_1 ... P_{3m+1}, each
            # bounded by 1, to 0.  (Monomials near degree 190 lose that much
            # to their own rounding: Gauss-Legendre at 64 reads 5e-14.)
            t = (x - 0.5 * (cd.lo + cd.hi)) / (0.5 * (cd.hi - cd.lo))
            got = w @ np.polynomial.legendre.legvander(t, 3 * m + 1)
            exact = np.zeros(3 * m + 2)
            exact[0] = cd.hi - cd.lo
            assert np.max(np.abs(got - exact)) <= 1e-14 * (cd.hi - cd.lo), m
            # the Gauss nodes at their Kronrod weights, the Gauss weights
            # times ratio(), and the increment of the new nodes
            assert np.allclose(gw * Kronrod(m).ratio(), w[1::2], rtol=1e-14, atol=0)
            assert all(map(np.array_equal, cd.increment(NewNodes(Kronrod(m))),
                           (x[::2], w[::2])))
            assert all(map(np.array_equal, cd.rule(Kronrod(m)), (x, w)))

    def test_open_factors_only(self):
        # a whole rule, a Kronrod rule and the new nodes of each are distinct
        # block keys
        assert len({4, Kronrod(4), NewNodes(Kronrod(4)), NewNodes(8)}) == 4
        for part in (Kronrod(4), NewNodes(Kronrod(4))):
            with pytest.raises(ValueError, match="needs an open factor"):
                ChartDim(0.0, 1.0, True).increment(part)
        with pytest.raises(ValueError, match="node count"):
            ChartDim(0.0, 1.0, False).increment(Kronrod(0))

    def test_built_on_first_probe_only(self):
        # importing the package and building a kernel table computes no rule
        code = ("import spherelink\n"
                "from spherelink import kernels, quadrature\n"
                "kernels.get_evaluator(2, 3)\n"
                "assert quadrature._kronrod.cache_info().currsize == 0")
        env = {"PYTHONPATH": ":".join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


class TestRefineUntil:
    def test_infinite_tol_returns_base(self):
        # one step: the base, each one-factor doubling, and the base plus
        # the probes' differences
        f = lambda p: np.exp(np.sin(p[:, 0]) + np.cos(p[:, 1]))
        level_sums = weighted_sum(f, PERIOD, PERIOD)
        est = refine_until((8, 4), level_sums, tol=np.inf, max_level=0,
                           domain=periodic(PERIOD, PERIOD))
        base, probe0, probe1 = level_sums([(8, 4), (16, 4), (8, 8)])
        assert est.levels_used == 0 and est.converged
        assert est.level_values == (base, probe0, probe1)
        assert est.error_estimate == abs(probe0 - base) + abs(probe1 - base)
        assert est.value == base + ((probe0 - base) + (probe1 - base))

    def test_requires_positive_tol(self):
        # tol must be >= 0: negative and NaN raise, 0 runs every level
        level_sums = weighted_sum(lambda p: np.ones(p.shape[0]), (0.0, 1.0))
        for tol in (-1.0, np.nan):
            with pytest.raises(ValueError, match="tolerance"):
                refine_until((4,), level_sums, tol=tol, max_level=0, domain=periodic((0.0, 1.0)))
        est = refine_until((4,), level_sums, tol=0.0, max_level=3, domain=periodic((0.0, 1.0)))
        assert est.levels_used == 3
        assert len(est.level_values) == 5  # one factor: 4, 8, 16, 32 and 64 nodes
        assert not est.converged

    def test_rejects_negative_max_level(self):
        level_sums = weighted_sum(lambda p: np.ones(p.shape[0]), (0.0, 1.0))
        with pytest.raises(ValueError, match="max_level"):
            refine_until((4,), level_sums, tol=0.0, max_level=-3, domain=periodic((0.0, 1.0)))

    @pytest.mark.parametrize("max_level", [1.5, 0.5, np.inf, -np.inf, np.nan,
                                           np.float64("inf")])
    def test_max_level_is_a_whole_number(self, max_level):
        # max_level counts doublings: a fraction would run as the next whole
        # number, inf never stops at tol 0, and NaN caps nothing either
        calls = []
        level_sums = weighted_sum(lambda p: np.ones(p.shape[0]), (0.0, 1.0), grids=calls)
        with pytest.raises(ValueError, match="max_level must be a whole number >= 0, got "
                           + re.escape(repr(max_level))):
            refine_until((4,), level_sums, tol=0.0, max_level=max_level,
                         domain=periodic((0.0, 1.0)))
        assert calls == []

    def test_max_level_counts_doublings(self):
        # an integral float is a whole number of doublings, and a cap far
        # past any grid the run reaches costs nothing to hold (caps of
        # 2^(10^8) times each base count, as integers, took 57 MiB)
        level_sums = weighted_sum(lambda p: 2.0 + np.cos(p[:, 0]), PERIOD)
        est = refine_until((4,), level_sums, tol=0.0, max_level=2.0, domain=periodic(PERIOD))
        assert est.levels_used == 2 and len(est.level_values) == 4
        level_sums = weighted_sum(lambda p: 2.0 + np.cos(p[:, 0]), PERIOD, PERIOD)
        tracemalloc.start()
        try:
            est = refine_until((4, 4), level_sums, tol=1e-9, max_level=10**8,
                               domain=periodic(PERIOD, PERIOD))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.levels_used == 0 and est.converged
        assert peak < 2**20, f"{peak / 2**20:.2f} MiB"

    def test_domain_must_match_the_grid(self):
        # a base of two counts over one chart factor would never probe the
        # second
        level_sums = weighted_sum(lambda p: np.ones(p.shape[0]), PERIOD)
        with pytest.raises(ValueError, match="1 chart factors need as many node counts, got 2"):
            refine_until((4, 4), level_sums, tol=1e-9, max_level=2, domain=periodic(PERIOD))

    def test_exact_factor_stays_at_base(self):
        # 2 + cos x is exact on 4 trapezoid nodes, exp(sin y) is not: only y
        # doubles, and each step reuses the probe it grew into as its base.
        # One call per step takes the grids not yet summed: the base, then
        # the probes in factor order, a base already summed left out
        calls = []
        f = lambda p: (2.0 + np.cos(p[:, 0])) * np.exp(np.sin(p[:, 1]))
        level_sums = weighted_sum(f, PERIOD, PERIOD)
        est = refine_until((4, 4), lambda grids: calls.append(grids) or level_sums(grids),
                           tol=1e-10, max_level=4, domain=periodic(PERIOD, PERIOD))
        assert calls == [[(4, 4), (8, 4), (4, 8)], [(8, 8), (4, 16)], [(8, 16), (4, 32)]]
        assert est.converged and est.levels_used == 2
        assert len(est.level_values) == sum(map(len, calls))
        assert est.value == pytest.approx(2 * (2 * np.pi) ** 2 * 1.2660658777520084,
                                          rel=1e-14)

    def test_zero_tol_grows_every_factor_to_cap(self):
        grids = []
        f = lambda p: np.exp(np.sin(p[:, 0]) * np.cos(p[:, 1]) + np.sin(p[:, 2]))
        est = refine_until((4, 2, 3), weighted_sum(f, PERIOD, PERIOD, PERIOD, grids=grids),
                           tol=0.0, max_level=2, domain=periodic(PERIOD, PERIOD, PERIOD))
        assert not est.converged and est.levels_used == 2
        # every base factor reaches max_level doublings, and no probe goes
        # past one more
        assert np.max(grids, axis=0).tolist() == [4 << 3, 2 << 3, 3 << 3]
        assert len(set(grids)) == len(grids) == 3 * 4

    def test_no_factors_is_one_level_sum(self):
        calls = []

        def level_sums(grids):
            calls.extend(grids)
            return [0.75] * len(grids)

        est = refine_until((), level_sums, tol=1e-9, max_level=4, domain=())
        assert calls == [()]
        assert (est.value, est.error_estimate, est.levels_used) == (0.75, 0.0, 0)
        assert est.converged and est.level_values == (0.75,)

    def test_zero_dimensional_pair_is_one_level_sum(self):
        K, L = small_sphere_pair(0, 0)
        r = engine.evaluate_main_theorem(K, L)
        assert len(r.node_counts) == len(r.level_values) == 1
        assert r.error_estimate == 0.0 and r.converged and r.nearest_integer == 1

    def test_spectral_convergence_smooth_periodic(self):
        # each doubling of a periodic trapezoid on a smooth integrand must
        # slash the error estimate by far more than 10x until it bottoms out
        f = lambda p: np.exp(np.sin(p[:, 0]))
        exact = 2 * np.pi * 1.2660658777520084  # 2 pi I_0(1)
        est = refine_until((4,), weighted_sum(f, PERIOD), tol=0.0, max_level=4,
                           domain=periodic(PERIOD))
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

        grids = []
        est = refine_until((8, 8), weighted_sum(integrand, PERIOD, PERIOD, grids=grids),
                           tol=1e-9, max_level=2, domain=periodic(PERIOD, PERIOD))
        assert not est.converged
        assert isinstance(est, Estimate)
        # an unconverged run ends only at the cap: both bases at 8 << 2,
        # probed once more
        assert est.levels_used == 2
        assert np.max(grids, axis=0).tolist() == [8 << 3, 8 << 3]


class TestDeterminism:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SPHERELINK_WORKERS", "3")
        assert worker_count() == 3
        monkeypatch.delenv("SPHERELINK_WORKERS")
        assert worker_count() >= 1

    def test_worker_count_defaults_to_affinity(self, monkeypatch):
        # a process pinned to fewer CPUs than the host has gets one worker
        # per CPU it may run on; without an affinity call, the CPU count
        monkeypatch.delenv("SPHERELINK_WORKERS", raising=False)
        monkeypatch.setattr(quadrature.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(quadrature.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert worker_count() == 1
        monkeypatch.delattr(quadrature.os, "sched_getaffinity")
        assert worker_count() == 8

    def test_pool_no_larger_than_chunks(self, monkeypatch):
        sizes = []

        class Pool(quadrature.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(quadrature, "ThreadPoolExecutor", Pool)
        out = np.zeros(10)

        def work(s, e):
            out[s:e] = np.arange(s, e)

        assert run_chunked(10, work, workers=8, chunk=5) == 2
        assert run_chunked(10, work, workers=2, chunk=3) == 4
        assert sizes == [2, 2] and np.array_equal(out, np.arange(10))

    def test_worker_pool_serves_its_thread_only(self, monkeypatch):
        # inside a worker_pool block the calls of the thread that opened it
        # share one pool of worker_count() threads; a call from one of its
        # workers, or outside the block, runs a pool of its own
        sizes, outer_threads = [], set()

        class Pool(quadrature.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        def outer(s, e):
            outer_threads.add(threading.current_thread())
            run_chunked(4, lambda s, e: None, workers=None, chunk=1)

        monkeypatch.setattr(quadrature, "ThreadPoolExecutor", Pool)
        monkeypatch.setenv("SPHERELINK_WORKERS", "3")
        with quadrature.worker_pool():
            run_chunked(10, lambda s, e: None, workers=None, chunk=5)
            run_chunked(10, outer, workers=None, chunk=5)
            assert sizes[0] == 3 and len(outer_threads) <= 3
        assert sizes == [3, 3, 3]  # the block's pool, then one per nested call
        run_chunked(10, lambda s, e: None, workers=None, chunk=5)
        assert sizes == [3, 3, 3, 2]

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_worker_count_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("SPHERELINK_WORKERS", value)
        with pytest.raises(ValueError, match="SPHERELINK_WORKERS"):
            worker_count()


class TestBlasThreads:
    """run_chunked holds OpenBLAS at one thread while it runs a pool or one
    worker, and leaves the count as it found it."""

    @pytest.fixture
    def blas(self):
        api = quadrature._openblas_threads()
        if api is None:
            pytest.skip("numpy is not linked to its bundled scipy_openblas")
        get, put = api
        before = get()
        put(2)  # a count the cap visibly changes
        yield get
        put(before)

    def test_two_worker_evaluation_restores_count(self, blas, monkeypatch):
        # two workers, then one: the cap holds whether or not a pool runs
        monkeypatch.setattr(engine, "CHUNK_BYTES", 1 << 10)  # several chunks a level
        K, L = small_sphere_pair(1, 2)
        ev = engine.kernels.get_evaluator(1, 2)
        for workers in ("2", "1"):
            monkeypatch.setenv("SPHERELINK_WORKERS", workers)
            seen = []

            def kern(c):
                seen.append(blas())
                return ev.kernel_ratio(None, c)

            value = engine._level_sum(K, L, GridSpec(curve=16, surface=8).counts(K, L),
                                      partial(engine._kernel_terms, kern, 1.0,
                                              (K.span, L.span), None),
                                      lambda lo, hi: None)
            assert np.isfinite(value[0])
            assert len(seen) > 1 and set(seen) == {1}, workers
            assert blas() == 2
            engine.evaluate_corollary(K, L, grid=GridSpec(curve=16, surface=8), max_level=0)
            assert blas() == 2
        # one chunk with two workers allowed keeps OpenBLAS's own threads
        seen = []
        run_chunked(1, lambda s, e: seen.append(blas()), workers=2, chunk=1)
        assert seen == [2]

    def test_nested_and_concurrent_calls_restore_count(self, blas):
        # more threads than cores and a short switch interval: a lost
        # update of the holder count would show as a count other than 1
        # inside some chunk, or other than 2 after the last call
        seen = []

        def inner(s, e):
            seen.append(blas())

        def outer(s, e):
            seen.append(blas())
            run_chunked(4, inner, workers=2, chunk=1)

        def caller():
            for _ in range(20):
                run_chunked(4, outer, workers=3, chunk=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 4 * 20 * 4 * 5 and set(seen) == {1}
        assert blas() == 2

    def test_runs_without_openblas(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_openblas_threads", lambda: None)
        out = np.zeros(10)

        def work(s, e):
            out[s:e] = np.arange(s, e)

        assert run_chunked(10, work, workers=2, chunk=3) == 4
        assert np.array_equal(out, np.arange(10))
