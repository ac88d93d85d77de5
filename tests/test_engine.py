import math
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest

from spherelink import (
    DisjointnessError,
    GridSpec,
    antipodal_image,
    clifford_torus_curve,
    evaluate_corollary,
    evaluate_join_degree,
    evaluate_main_theorem,
    great_subsphere,
    hopf_fiber,
    oracle_linking,
    orientation_reversed,
    rotated,
    round_to_linking,
    sign_factor,
)
from spherelink import engine, kernels
from spherelink.engine import (
    _join_batch,
    _kernel_terms,
    _level_sum,
    _minor_dets,
    _side_arrays,
)
from spherelink.quadrature import Estimate, blocks, part_size, probes, worker_count
from spherelink.spheregeom import compose_givens

from conftest import (
    clifford_pair,
    great_pair,
    hopf_pair,
    laplace_subsets,
    random_fourier_pair,
    random_rotation,
    small_sphere_pair,
    threading_circles,
    unit_rows,
)


class TestSignFactor:
    def test_block_swap_brute_force(self, rng):
        for _ in range(40):
            k = int(rng.integers(0, 4))
            l = int(rng.integers(0, 4))
            d = k + l + 2
            m = rng.standard_normal((d, d))
            x_part, y_part = m[:, : k + 1], m[:, k + 1 :]
            swapped = np.column_stack([y_part, x_part])
            assert np.linalg.det(swapped) == pytest.approx(
                sign_factor("block_swap", k=k, l=l) * np.linalg.det(m), rel=1e-10)

    def test_u_column_move(self, rng):
        for n in range(2, 7):
            m = rng.standard_normal((n + 1, n + 1))
            moved = np.column_stack([m[:, :1], m[:, -1:], m[:, 1:-1]])
            assert np.linalg.det(moved) == pytest.approx(
                sign_factor("u_column_move", n=n) * np.linalg.det(m), rel=1e-10)

    def test_y_column_move(self, rng):
        for k in range(0, 5):
            d = k + 4
            m = rng.standard_normal((d, d))
            # move the column at position k+1 to position 1
            order = [0, k + 1] + [j for j in range(1, d) if j != k + 1]
            assert np.linalg.det(m[:, order]) == pytest.approx(
                sign_factor("y_column_move", k=k) * np.linalg.det(m), rel=1e-10)

    def test_antipodal_transfer(self, rng):
        for l in range(0, 5):
            d = l + 4
            m = rng.standard_normal((d, d))
            negated = m.copy()
            negated[:, -(l + 1):] *= -1
            assert np.linalg.det(negated) == pytest.approx(
                sign_factor("antipodal_transfer", l=l) * np.linalg.det(m), rel=1e-10)

    def test_prefactor_rules(self):
        assert sign_factor("corollary_prefactor", k=2) == 1
        assert sign_factor("corollary_prefactor", k=3) == -1
        for n in range(1, 7):
            assert sign_factor("join_reduced_net", n=n) == -1
        with pytest.raises(ValueError):
            sign_factor("mystery")


def join_points(x, y, u):
    """Column 0 of `_join_batch`, the join map's image: (r, t, nu, d)."""
    c = np.clip(x @ y.T, -1.0, 1.0)
    tx, ty = np.empty(x.shape + (0,)), np.empty(y.shape + (0,))
    return _join_batch(x, tx, y, ty, c, np.arccos(c), np.asarray(u))[..., 0]


class TestJoinMap:
    def test_endpoints(self, rng):
        x, y = np.eye(4)[[0]], np.eye(4)[[2]]
        f = join_points(x, y, [0.0, 1.0])[0, 0]
        assert np.allclose(f[0], x[0], rtol=0, atol=1e-14)
        assert np.allclose(f[1], -y[0], rtol=0, atol=1e-14)
        x, y = unit_rows(rng, 6, 5), unit_rows(rng, 7, 5)
        f = join_points(x, y, [0.0, 1.0])
        assert np.abs(f[:, :, 0] - x[:, None, :]).max() <= 1e-12
        assert np.abs(f[:, :, 1] + y[None, :, :]).max() <= 1e-12

    def test_midpoint_orthogonal(self):
        x, y = np.eye(4)[[0]], np.eye(4)[[2]]
        f = join_points(x, y, [0.5])[0, 0, 0]
        assert np.allclose(f, (x[0] - y[0]) / np.sqrt(2), rtol=0, atol=1e-12)

    def test_unit_norm_random(self, rng):
        x, y = unit_rows(rng, 6, 5), unit_rows(rng, 7, 5)
        f = join_points(x, y, rng.uniform(0.0, 1.0, 8))
        assert np.abs(np.linalg.norm(f, axis=-1) - 1.0).max() <= 1e-10

    def test_degenerate_rejected(self):
        # the arc direction (y - c x) / sin alpha degenerates at alpha = 0 and
        # pi; join-full refuses both on the level's own nodes before any value
        K = great_subsphere(1, (0, 1), 3)
        grid = GridSpec(curve=8, u=4)
        with pytest.raises(DisjointnessError):
            evaluate_join_degree(K, great_subsphere(1, (1, 2), 3), variant="full", grid=grid)
        K, L = clifford_pair(2, 3, np.pi / 2)
        with pytest.raises(DisjointnessError, match="-L"):
            evaluate_join_degree(K, L, variant="full", grid=grid)

    def test_jacobian_matches_differences(self, rng):
        # every column, including its components along x and v, which the
        # join-degree determinant cannot see
        x = rng.standard_normal((3, 5))
        y = rng.standard_normal((2, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        tx = rng.standard_normal((3, 5, 2))
        ty = rng.standard_normal((2, 5, 1))
        u = rng.uniform(0.0, 1.0, 4)

        def jac(x, tx, y, ty, u):
            c = np.clip(x @ y.T, -1.0, 1.0)
            return _join_batch(x, tx, y, ty, c, np.arccos(c), u)

        def f(x, y, u):
            return jac(x, tx[:, :, :0], y, ty[:, :, :0], u)[..., 0]

        h = 1e-6
        steps = [(tx[:, :, 0], 0, 0), (tx[:, :, 1], 0, 0), (0, ty[:, :, 0], 0), (0, 0, 1.0)]
        full = jac(x, tx, y, ty, u)
        assert full.shape == (3, 2, 4, 5, 5)
        for col, (dx, dy, du) in enumerate(steps, start=1):
            diff = (f(x + h * dx, y + h * dy, u + h * du)
                    - f(x - h * dx, y - h * dy, u - h * du)) / (2 * h)
            assert np.allclose(full[..., col], diff, rtol=0, atol=1e-8), col

    def test_jacobian_columns_read_without_copy(self, rng):
        # the Jacobian is laid out column by column, nodes last: its flat
        # (N, d, d) frames are a view, and the (d, d, N) transpose that
        # _minor_dets reads is contiguous
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((2, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        c = np.clip(x @ y.T, -1.0, 1.0)
        jac = _join_batch(x, rng.standard_normal((3, 4, 1)), y, rng.standard_normal((2, 4, 1)),
                          c, np.arccos(c), rng.uniform(0.0, 1.0, 5))
        frames = jac.reshape(-1, 4, 4)
        assert np.shares_memory(frames, jac)
        assert frames.transpose(2, 1, 0).flags.c_contiguous


class TestMinorDets:
    def test_matches_lu_on_every_row_subset(self, rng):
        # both subset orders the bracket expansion uses: lexicographic for
        # K, reversed (the complements) for L
        for d in range(1, 8):
            for m in range(1, d + 1):
                frames = rng.standard_normal((20, d, m))
                lex = list(combinations(range(d), m))
                for subsets in (lex, lex[::-1]):
                    ref = np.stack([np.linalg.det(frames[:, list(s), :]) for s in subsets],
                                   axis=1)
                    got = _minor_dets(frames, subsets)
                    assert got.shape == ref.shape
                    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (d, m)


class TestSpanBracket:
    """Each pair-kernel side's minors are taken in its own span, and K's
    carry the bracket matrix of the two spans (Cauchy-Binet): every kind's
    span must give the whole bracket det(x, dx, y, dy)."""

    CASES = {
        "great_1_2": lambda rng: great_pair(1, 2),
        "small_1_2": lambda rng: small_sphere_pair(1, 2),
        "small_2_3": lambda rng: small_sphere_pair(2, 3),
        "small_3_2": lambda rng: small_sphere_pair(3, 2),
        "great_small_1_3": lambda rng: (great_subsphere(1, (0, 5), 5),
                                         small_sphere_pair(1, 3)[1]),
        "points_0_2": lambda rng: small_sphere_pair(0, 2),
        "points_2_0": lambda rng: small_sphere_pair(2, 0),
        "rotated": lambda rng: tuple(rotated(m, random_rotation(7, rng))
                                     for m in small_sphere_pair(2, 3)),
        # accepted within 1e-10 of orthogonal, as every rotation is
        "rotated_inexact": lambda rng: tuple(
            rotated(m, random_rotation(7, rng) + 1e-11 * rng.standard_normal((7, 7)))
            for m in small_sphere_pair(2, 3)),
        "antipodal_image": lambda rng: (antipodal_image(small_sphere_pair(2, 3)[0]),
                                        small_sphere_pair(2, 3)[1]),
        "orientation_reversed": lambda rng: (small_sphere_pair(2, 3)[0],
                                             orientation_reversed(small_sphere_pair(2, 3)[1])),
        "wrapped_great": lambda rng: (
            rotated(orientation_reversed(great_subsphere(2, (1, 2, 4), 6)),
                    random_rotation(7, rng)),
            antipodal_image(rotated(small_sphere_pair(2, 3)[1], random_rotation(7, rng)))),
        "fourier_hopf": lambda rng: (random_fourier_pair(rng)[0], hopf_pair()[1]),
        "rotated_hopf": lambda rng: tuple(rotated(m, random_rotation(4, rng))
                                          for m in hopf_pair()),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_laplace_bracket(self, case):
        K, L = self.CASES[case](np.random.default_rng(5))
        k, l, n = K.dim, L.dim, K.ambient_n
        ck, cl = (3,) * k, (4,) * l
        bracket = engine._span_bracket(*(tuple(map(tuple, m.span)) for m in (K, L)), k + 1)
        _, mk = engine._minor_side(K, ck, 1.0, K.span, None, bracket)
        _, ml = engine._minor_side(L, cl, 1.0, L.span)
        assert ml.shape[1] == math.comb(L.span.shape[1], l + 1) == mk.shape[1]
        # the whole bracket by Laplace expansion on every row subset
        _, fk, wk = _side_arrays(K, ck)
        _, fl, wl = _side_arrays(L, cl)
        subs, comps, signs = laplace_subsets(n + 1, k + 1)
        ak, al = _minor_dets(fk, subs) * signs, _minor_dets(fl, comps)
        largest = np.max(np.abs(ak).max(axis=0) * np.abs(al).max(axis=0))
        got = (mk @ ml.T) / np.outer(wk, wl)
        assert np.abs(got - ak @ al.T).max() <= 1e-13 * largest

    def test_small_23_minor_counts(self):
        # 4 and 5 minors a node in the spans, where the whole space has 35
        K, L = small_sphere_pair(2, 3)
        bracket = engine._span_bracket(*(tuple(map(tuple, m.span)) for m in (K, L)), 3)
        assert bracket.shape == (4, 5) and not bracket.flags.writeable

    def test_identity_spans_give_the_laplace_signs(self):
        # whole-space spans: the sign of each row subset at its complement
        for d in range(2, 8):
            eye = tuple(map(tuple, np.eye(d)))
            for m in range(1, d):
                subs, comps, signs = laplace_subsets(d, m)
                lex = list(combinations(range(d), d - m))
                want = np.zeros((len(subs), len(lex)))
                want[range(len(subs)), [lex.index(c) for c in comps]] = signs
                assert np.array_equal(engine._span_bracket(eye, eye, m), want), (d, m)


@pytest.mark.parametrize("field", ["curve", "surface", "u", "k_nodes", "l_nodes"])
def test_grid_count_below_one_names_field(field):
    # a count below one, a non-integral count and a boolean are all refused
    for value in (0, 16.5, True):
        with pytest.raises(ValueError, match=f"GridSpec.{field} "):
            GridSpec(**{field: value})


class TestRoundToLinking:
    def test_clean_accept(self):
        nearest, residual, accepted = round_to_linking(0.9999996, 1e-7)
        assert (nearest, accepted) == (1, True)
        assert residual == pytest.approx(4e-7, rel=1e-6)

    def test_reject_large_residual(self):
        nearest, residual, accepted = round_to_linking(0.4, 1e-6)
        assert (nearest, residual, accepted) == (0, 0.4, False)

    def test_accept_with_tolerance(self):
        nearest, residual, accepted = round_to_linking(2.00003, 1e-4)
        assert (nearest, accepted) == (2, True)
        assert residual == pytest.approx(3e-5, rel=1e-6)

    def test_inconsistent_with_error_rejected(self):
        # residual far beyond what the error estimate can explain
        _, _, accepted = round_to_linking(1.01, 1e-9)
        assert not accepted


class TestMainTheorem:
    def test_great_circles(self):
        K, L = great_pair(1, 1)
        r = evaluate_main_theorem(K, L)
        assert r.nearest_integer == 1
        assert r.residual < 1e-9
        assert r.accepted and r.converged
        assert r.min_alpha == pytest.approx(np.pi / 2)
        assert r.method == "main_theorem"

    def test_curve_surface(self):
        K, L = great_pair(1, 2)
        r = evaluate_main_theorem(K, L)
        assert abs(r.raw_value - 1) < 1e-9

    def test_hopf_sign(self):
        K, L = hopf_pair()
        r = evaluate_main_theorem(K, L)
        assert r.raw_value == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="n - 1"):
            evaluate_main_theorem(great_subsphere(1, (0, 1), 3),
                                  great_subsphere(0, (2,), 3))

    def test_disjointness_error(self):
        K = great_subsphere(1, (0, 1), 3)
        with pytest.raises(DisjointnessError):
            evaluate_main_theorem(K, great_subsphere(1, (1, 2), 3))

    def test_report_invariants(self):
        K, L = clifford_pair(1, 2, np.pi / 2)
        r = evaluate_main_theorem(K, L)
        assert 0.0 <= r.residual <= 0.5
        assert 0.0 <= r.min_alpha <= r.max_alpha <= np.pi
        assert r.error_estimate >= 0.0
        assert r.linking_number == r.nearest_integer == 2

    def test_nonconvergence_flagged(self):
        # close-approach pair on a coarse grid with no refinement headroom
        K = great_subsphere(1, (0, 1), 3)
        L = rotated(great_subsphere(1, (2, 3), 3),
                    compose_givens(4, [((0, 2), np.pi / 2 - 0.05)]))
        r = evaluate_main_theorem(K, L, grid=GridSpec(curve=8), tol=1e-10,
                                  max_level=0)
        assert not r.converged
        assert not r.accepted

    def test_small_round_spheres_link_once(self):
        # shrunk copies of the nested great spheres still link once
        from conftest import small_sphere_pair
        K, L = small_sphere_pair(1, 1)
        r = evaluate_main_theorem(K, L)
        assert r.raw_value == pytest.approx(1.0, abs=1e-8)
        K2, L2 = small_sphere_pair(2, 2)
        r2 = evaluate_main_theorem(K2, L2, grid=GridSpec(surface=16), tol=1e-7)
        assert r2.raw_value == pytest.approx(1.0, abs=1e-6)

    def test_unknotted_distant_loop_gives_zero(self):
        # a perturbed loop whose spanning disk avoids the circle: no linking
        from conftest import unknotted_distant_pair
        from spherelink.oracle import oracle_linking
        K, L = unknotted_distant_pair()
        r = evaluate_main_theorem(K, L)
        assert r.nearest_integer == 0
        assert r.residual < 1e-3
        assert oracle_linking(K, L).nearest_integer == 0


class TestLevelChecks:
    """Checks that run on every integrated level, not only the base grid."""

    def _alpha_ranges(self, K, L, nodes):
        ranges = []
        for m in (nodes, 2 * nodes):
            dots = np.clip(_side_arrays(K, (m,))[0] @ _side_arrays(L, (m,))[0].T, -1.0, 1.0)
            ranges.append((float(np.arccos(dots.max())), float(np.arccos(dots.min()))))
        return ranges

    def test_nan_kernel_rejected(self):
        K, L = hopf_pair()
        terms = partial(_kernel_terms, lambda cos_alpha: np.full_like(cos_alpha, np.nan), 1.0,
                        (K.span, L.span), None)
        with pytest.raises(ValueError, match="not finite.*min separation"):
            _level_sum(K, L, GridSpec(curve=8).counts(K, L), terms, lambda amin, amax: None)

    CASES = {
        "hopf-main": (hopf_pair, GridSpec(curve=8), "main"),
        "hopf-join-full": (hopf_pair, GridSpec(curve=8, u=4), "join-full"),
        "small_1_2-main": (lambda: small_sphere_pair(1, 2), GridSpec(curve=8, surface=6), "main"),
        "small_1_2-corollary": (lambda: small_sphere_pair(1, 2), GridSpec(curve=8, surface=6),
                                "corollary"),
        "clifford_2_3-main": (lambda: clifford_pair(2, 3, 0.3), GridSpec(curve=16), "main"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_extremes_and_counts_match_every_pair(self, case):
        # each chunk's alpha range comes from its two extreme dot products:
        # it must equal the range of arccos over every pair of every level,
        # bit for bit, as the whole-chunk arccos gave it
        pair, grid, method = self.CASES[case]
        K, L = pair()
        report = engine._evaluate(method, K, L, grid, 0.0, 0, engine.MIN_ALPHA)
        lows, highs, counts = [], [], []
        base = grid.counts(K, L, u=method == "join-full")
        k, l = K.dim, L.dim
        for c in [base] + probes(engine._tensor_domain(K, L, base), base):
            pk, pl, u = _side_arrays(K, c[:k])[0], _side_arrays(L, c[k:k + l])[0], c[k + l:]
            alpha = np.arccos(np.clip(pk @ pl.T, -1.0, 1.0))
            lows.append(alpha.min())
            highs.append(alpha.max())
            counts.append(alpha.size * math.prod(map(part_size, u)))
        assert (report.min_alpha, report.max_alpha) == (min(lows), max(highs))
        assert report.node_counts == tuple(counts)

    def test_nan_extremes_fail_separation(self):
        # a NaN dot product makes both extremes NaN, which clear no threshold
        for antipodal in (False, True):
            with pytest.raises(DisjointnessError, match="min geodesic separation nan"):
                engine._check_separation(np.nan, np.nan, engine.MIN_ALPHA, antipodal)
        with pytest.raises(DisjointnessError, match="-L"):
            engine._check_separation(1.0, np.nan, engine.MIN_ALPHA, antipodal=True)

    def test_min_alpha_checked_on_refined_grid(self):
        K, L = hopf_pair()
        (amin0, _), (amin1, _) = self._alpha_ranges(K, L, 6)
        assert amin1 < amin0
        threshold = 0.5 * (amin0 + amin1)
        with pytest.raises(DisjointnessError):
            evaluate_main_theorem(K, L, grid=GridSpec(curve=6), min_alpha=threshold)

    def test_antipodal_margin_checked_on_refined_grid(self, monkeypatch):
        K, L = hopf_pair()
        (_, amax0), (_, amax1) = self._alpha_ranges(K, L, 6)
        assert amax1 > amax0
        monkeypatch.setattr(engine, "_ANTIPODAL_MARGIN", np.pi - 0.5 * (amax0 + amax1))
        with pytest.raises(DisjointnessError):
            evaluate_corollary(K, L, grid=GridSpec(curve=6))

    def test_join_full_min_alpha_checked_on_refined_grid(self):
        K, L = hopf_pair()
        (amin0, _), (amin1, _) = self._alpha_ranges(K, L, 6)
        threshold = 0.5 * (amin0 + amin1)
        with pytest.raises(DisjointnessError):
            evaluate_join_degree(K, L, variant="full", grid=GridSpec(curve=6, u=4),
                                 min_alpha=threshold, max_level=1)


class TestCorollary:
    def test_orthogonal_circles_zero(self):
        K, L = great_pair(1, 1)
        r = evaluate_corollary(K, L)
        assert abs(r.raw_value) < 1e-12
        assert r.method == "corollary"

    def test_orthogonal_two_spheres_value_two(self):
        K, L = great_pair(2, 2)
        r = evaluate_corollary(K, L, grid=GridSpec(surface=12), tol=1e-8)
        assert r.raw_value == pytest.approx(2.0, abs=1e-8)

    def test_antipodal_contact_rejected(self):
        # phase pi/2 puts some K-point antipodal to an L-point
        K, L = clifford_pair(2, 3, np.pi / 2)
        with pytest.raises(DisjointnessError, match="-L"):
            evaluate_corollary(K, L)

    def test_consistency_identity(self):
        # corollary = main(K, L) + (-1)^n main(K, -L)
        K, L = clifford_pair(1, 1, np.pi)
        cor = evaluate_corollary(K, L)
        main = evaluate_main_theorem(K, L)
        anti = evaluate_main_theorem(K, antipodal_image(L))
        combined = main.raw_value + (-1) ** 3 * anti.raw_value
        tol = cor.error_estimate + main.error_estimate + anti.error_estimate + 1e-9
        assert abs(cor.raw_value - combined) < tol

    def test_hemisphere_flag_passthrough(self):
        from conftest import unknotted_distant_pair
        K, L = unknotted_distant_pair()
        r = evaluate_corollary(K, L)
        assert r.nearest_integer == 0

    def test_consistency_on_random_fourier_pairs(self):
        # pairs that clear both separation thresholds satisfy
        # corollary = main(K, L) + (-1)^n main(K, -L)
        from conftest import random_fourier_pair
        for seed in (5, 17):
            K, L = random_fourier_pair(np.random.default_rng(seed))
            cor = evaluate_corollary(K, L)
            main = evaluate_main_theorem(K, L)
            anti = evaluate_main_theorem(K, antipodal_image(L))
            combined = main.raw_value - anti.raw_value
            tol = cor.error_estimate + main.error_estimate + anti.error_estimate + 1e-9
            assert abs(cor.raw_value - combined) < tol


class TestJoinDegree:
    def test_great_circle_degree(self):
        K, L = great_pair(1, 1)
        red = evaluate_join_degree(K, L, variant="reduced")
        assert red.raw_value == pytest.approx(-1.0, abs=1e-9)
        assert red.method == "join_degree_reduced"
        assert red.linking_number == 1
        full = evaluate_join_degree(K, L, variant="full",
                                    grid=GridSpec(curve=24, u=8), tol=1e-6,
                                    max_level=1)
        assert full.raw_value == pytest.approx(-1.0, abs=1e-8)
        assert full.method == "join_degree_full"

    def test_full_variant_has_no_difference_floor(self):
        # exact chain-rule derivatives: no finite-difference error remains
        K, L = great_pair(1, 1)
        full = evaluate_join_degree(K, L, variant="full",
                                    grid=GridSpec(curve=24, u=8), tol=1e-6,
                                    max_level=1)
        assert abs(full.raw_value + 1.0) < 1e-12

    def test_reduced_negates_main_exactly(self):
        for K, L in (great_pair(2, 2), hopf_pair()):
            grid = GridSpec(surface=12)
            red = evaluate_join_degree(K, L, grid=grid, variant="reduced")
            assert red.raw_value == -evaluate_main_theorem(K, L, grid=grid).raw_value

    def test_point_pair_factor(self):
        K, L = great_pair(0, 1)
        red = evaluate_join_degree(K, L, variant="reduced")
        assert red.raw_value == pytest.approx(-1.0, abs=1e-9)
        full = evaluate_join_degree(K, L, variant="full",
                                    grid=GridSpec(curve=32, u=8), tol=1e-7,
                                    max_level=1)
        assert full.raw_value == pytest.approx(-1.0, abs=1e-7)

    def test_variants_agree_on_hopf(self):
        K, L = hopf_pair()
        red = evaluate_join_degree(K, L, variant="reduced")
        full = evaluate_join_degree(K, L, variant="full",
                                    grid=GridSpec(curve=24, u=10), tol=1e-6,
                                    max_level=1)
        assert abs(red.raw_value - full.raw_value) < 1e-5

    def test_degree_negates_linking(self):
        K, L = clifford_pair(1, -1, np.pi)
        main = evaluate_main_theorem(K, L)
        red = evaluate_join_degree(K, L, variant="reduced")
        assert abs(main.raw_value + red.raw_value) < 1e-8
        assert red.linking_number == main.nearest_integer == -1

    def test_full_bit_identical_across_workers(self, monkeypatch):
        # small chunks, so that every level has several for the threads: a
        # Hopf pair (d = 4) at 8 u nodes holds 8 (17 + 8 * 30) = 2056 B a pair,
        # so a K row of 24 L nodes (49 kB) is a chunk of its own, its L nodes
        # in blocks of 15; the (0, 1) pair's two K points are two chunks
        monkeypatch.setattr(engine, "CHUNK_BYTES", 256 * 128)
        for K, L in (hopf_pair(), great_pair(0, 1)):
            values = []
            for workers in ("1", "8"):
                monkeypatch.setenv("SPHERELINK_WORKERS", workers)
                values.append(evaluate_join_degree(
                    K, L, variant="full", grid=GridSpec(curve=24, u=8),
                    tol=1e-6, max_level=1).raw_value)
            assert values[0] == values[1]

    def test_unknown_variant(self):
        K, L = great_pair(1, 1)
        with pytest.raises(ValueError):
            evaluate_join_degree(K, L, variant="medium")


def first_level(run, monkeypatch):
    """(K, L, terms, check) of the first level sum `run` takes; the sum
    itself is not taken."""
    args = []

    class Taken(Exception):
        pass

    def spy(K, L, counts, terms, check, *_):
        args.append((K, L, terms, check))
        raise Taken

    with monkeypatch.context() as m:
        m.setattr(engine, "_level_sum", spy)
        with pytest.raises(Taken):
            run()
    return args[0]


def counting_chunks(monkeypatch):
    """The chunk count of every level sum taken from now on, in order."""
    chunks = []
    run_chunked = engine.run_chunked

    def counted(total, work, workers, chunk):
        chunks.append(run_chunked(total, work, workers=workers, chunk=chunk))
        return chunks[-1]

    monkeypatch.setattr(engine, "run_chunked", counted)
    return chunks


def traced_peak(fn):
    """Peak bytes numpy and Python allocate, through tracemalloc, while fn
    runs, above what was allocated when it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestChunkBudget:
    """Every route's level sum is the same bits whatever the chunk budget."""

    RUNS = {
        "main": lambda: evaluate_main_theorem(*random_fourier_pair(np.random.default_rng(7))),
        "corollary": lambda: evaluate_corollary(
            *random_fourier_pair(np.random.default_rng(7))),
        "join-full": lambda: evaluate_join_degree(
            *great_pair(1, 2), variant="full",
            grid=GridSpec(curve=12, surface=6, u=4), max_level=0),
        "oracle": lambda: oracle_linking(*threading_circles(), m=64),
    }

    @pytest.mark.parametrize("route", RUNS)
    def test_chunks_match_whole_levels(self, monkeypatch, route):
        whole = self.RUNS[route]()
        # the pair and oracle levels (64 and 128 nodes a side) take 8 K rows
        # a chunk, the least a pair-kernel chunk holds, as 20 kB is less
        # than the kernel's block temporaries; a coarse join-full K row holds
        # 36 L nodes, each 8 (20 + 4 * 46) = 1632 B at d = 5 and 4 u nodes
        # (58.8 kB), so they go in blocks of 12
        monkeypatch.setattr(engine, "CHUNK_BYTES", 20_000)
        chunks = counting_chunks(monkeypatch)
        chunked = self.RUNS[route]()
        assert len(chunks) == len(whole.node_counts) and min(chunks) > 1
        assert chunked.raw_value == whole.raw_value
        assert (chunked.min_alpha, chunked.max_alpha) == (whole.min_alpha, whole.max_alpha)

    def test_small_23_base_level_whatever_the_budget(self, monkeypatch):
        # a pair-kernel chunk contracts its rows 8 to a matrix product, so
        # the base level, the tree sum of its rows, keeps its bits for every
        # budget: here 8, 16, 24 and 40 K rows of 256 a chunk, at 4096 L
        # nodes, 8 B a pair and 48 B a K row or L column, against the
        # default's 56.  One product per chunk changed the bits at each.
        def run():
            return evaluate_main_theorem(*small_sphere_pair(2, 3), grid=GridSpec(surface=16),
                                         tol=np.inf, max_level=0)

        whole = run().level_values[0]
        for rows in (8, 16, 24, 40):
            budget = engine._KERNEL_BYTES + 48 * 4096 + rows * (8 * 4096 + 48)
            monkeypatch.setattr(engine, "CHUNK_BYTES", budget)
            chunks = counting_chunks(monkeypatch)
            assert run().level_values[0] == whole, rows
            assert chunks[0] == -(-256 // rows)


class TestChunkMemory:
    """A level sum holds at most CHUNK_BYTES per chunk in flight beyond what
    building its side arrays and minors takes: every per-pair temporary is
    counted in the budget, not only the largest."""

    # fixed-size temporaries, whatever a chunk's size: the kernel's blocks of
    # 2^14 values, the per-row sums and the chunks' Python objects
    SLACK = 1 << 20

    LEVELS = {
        "main": (lambda: evaluate_main_theorem(*small_sphere_pair(2, 3)), (16, 16, 32, 16, 16)),
        "corollary": (lambda: evaluate_corollary(*clifford_pair(2, 3, np.pi / 4)), (1024, 1024)),
        "join-full": (lambda: evaluate_join_degree(*clifford_pair(2, 3, np.pi / 4),
                                                   variant="full"), (256, 128, 10)),
        "oracle": (lambda: oracle_linking(*small_sphere_pair(2, 3), grid=GridSpec(surface=16)),
                   (16, 16, 32, 16, 16)),
    }

    @pytest.mark.parametrize("route", LEVELS)
    def test_level_peak_within_budget(self, monkeypatch, route):
        run, counts = self.LEVELS[route]
        K, L, terms, check = first_level(run, monkeypatch)
        sides = traced_peak(lambda: terms(K, L, counts))
        chunks = counting_chunks(monkeypatch)
        peak = traced_peak(lambda: _level_sum(K, L, counts, terms, check))
        in_flight = min(worker_count(), chunks[0])
        assert peak <= sides + in_flight * engine.CHUNK_BYTES + self.SLACK, (
            f"{peak / 2**20:.1f} MiB at {in_flight} chunk(s) in flight, "
            f"{sides / 2**20:.1f} MiB to build the sides")
        assert chunks[0] > 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_chunks_reuse_their_threads_arrays(self, monkeypatch, workers):
        # every chunk but the last holds as many K rows, so each thread
        # allocates its dots once per level; the kernel writes its values
        # over them and the contractions' products are a few doubles a row
        monkeypatch.setenv("SPHERELINK_WORKERS", workers)
        run, counts = self.LEVELS["main"]
        K, L, terms, check = first_level(run, monkeypatch)
        seen, take = {}, engine._take

        def recorded(scratch, name, shape):
            got = take(scratch, name, shape)
            seen.setdefault(name, set()).add(got.__array_interface__["data"][0])
            return got

        monkeypatch.setattr(engine, "_take", recorded)
        chunks = counting_chunks(monkeypatch)
        _level_sum(K, L, counts, terms, check)
        assert chunks[0] > 2 * int(workers)
        assert seen.keys() == {"dots"}
        assert all(1 <= len(a) <= int(workers) for a in seen.values())

    def test_small_23_levels_span_chunks(self, monkeypatch):
        # surface-orders' (2, 3) pair at surface 16: K has 256 nodes, L 4096
        # or more, so at 8 B a pair and 48 B a K row or L column a chunk
        # holds at most 56 K rows, no level is one chunk and a second
        # worker has a chunk to take
        chunks = counting_chunks(monkeypatch)
        evaluate_main_theorem(*small_sphere_pair(2, 3), grid=GridSpec(surface=16),
                              tol=np.inf, max_level=0)
        assert len(chunks) == 6 and min(chunks) >= 2


class TestSideReuse:
    """An evaluator call builds each distinct side block of a refinement
    step once, and keeps none of them past its step."""

    def test_small_23_step_builds_each_side_once(self, monkeypatch):
        K, L = small_sphere_pair(2, 3)
        cls, calls = type(K), []
        batch = cls.batch
        monkeypatch.setattr(cls, "batch", lambda self, coords, out=None: (
            calls.append(len(coords)), batch(self, coords, out))[1])

        def run():
            return evaluate_main_theorem(K, L, grid=GridSpec(surface=16), tol=1e-6,
                                         max_level=0)

        first = run()
        # the base and its five probes: K's three side blocks, L's four,
        # where a fresh build per level sum would take 2 (1 + 5) = 12
        assert len(calls) == 7
        second = run()
        assert len(calls) == 14
        assert second == first
        # each level sum equals that grid's level summed alone, up to the
        # rounding of summing it in blocks: 4 ulp of its largest block
        _, _, terms, check = first_level(run, monkeypatch)
        fresh = partial(terms, sides=engine._fresh)
        base = GridSpec(surface=16).counts(K, L)
        domain = K.chart_domain + L.chart_domain
        for g, value in zip([base] + probes(domain, base), first.level_values):
            largest = max(abs(_level_sum(K, L, b, fresh, check)[0])
                          for b, _, _ in blocks(domain, base, g))
            assert abs(value - _level_sum(K, L, g, fresh, check)[0]) <= 4 * np.spacing(largest)

    def test_small_23_side_blocks_live_within_their_step(self, monkeypatch):
        # each side block lives from the first pair block of the step that
        # reads it to the last: the base's blocks, and one probe's new block
        # beside them, never all seven, and none once the call returns
        K, L = small_sphere_pair(2, 3)
        finalizers, alive = [], []
        minor_side = engine._minor_side

        def tracked(*args):
            pts, minors = minor_side(*args)
            finalizers.append(weakref.finalize(minors, lambda: None))
            alive.append(sum(f.alive for f in finalizers))
            return pts, minors

        monkeypatch.setattr(engine, "_minor_side", tracked)
        evaluate_main_theorem(K, L, grid=GridSpec(surface=16), tol=1e-6, max_level=0)
        assert len(finalizers) == 7
        assert max(alive) <= 3, alive
        assert not any(f.alive for f in finalizers)


class TestBlockSums:
    """A level sum is the sum of its grid's blocks, each integrated once per
    evaluator call: a probe pays for its new nodes only."""

    @staticmethod
    def counting_pairs(monkeypatch):
        """The (K node, L node[, u node]) pairs every kernel or join-map
        call evaluates from now on, in one running count."""
        pairs = [0]
        ratio, join = kernels.KernelEvaluator.kernel_ratio, engine._join_batch

        def counted_ratio(self, alpha, cos_alpha=None, out=None):
            pairs[0] += np.size(cos_alpha)
            return ratio(self, alpha, cos_alpha, out)

        def counted_join(x, tx, y, ty, c, alpha, u):
            pairs[0] += c.size * u.size
            return join(x, tx, y, ty, c, alpha, u)

        monkeypatch.setattr(kernels.KernelEvaluator, "kernel_ratio", counted_ratio)
        monkeypatch.setattr(engine, "_join_batch", counted_join)
        return pairs

    def test_small_23_step_pays_for_new_nodes(self, monkeypatch):
        pairs = self.counting_pairs(monkeypatch)
        K, L = small_sphere_pair(2, 3)

        def run():
            return evaluate_main_theorem(K, L, grid=GridSpec(surface=16), tol=np.inf,
                                         max_level=0)

        first = run()
        # the base (16 * 16^4 pairs), the two azimuths' new nodes (16 * 16^4
        # each) and, for each of the three polar angles, the 17 nodes its
        # Kronrod rule adds to its 16 Gauss nodes over the other four
        # factors' 16^4 (17 * 16^4 each): (16 + 32 + 51) 16^4 = 99 * 16^4,
        # 6.1875 base-grid units, where Gauss-Legendre probes at 32 polar
        # nodes, whole, took 1 + 2 + 3 * 2 = 9 and every probe whole 11
        assert pairs[0] == 99 * 16**4 == 6.1875 * 16**5
        # the grids: the base, then per factor (K's polar angle and azimuth,
        # L's two polar angles and azimuth) a Kronrod rule of 33 polar
        # nodes or 32 azimuths
        kronrod, doubled = 33 * 16**4, 32 * 16**4
        assert first.node_counts == (16**5, kronrod, doubled, kronrod, kronrod, doubled)
        # nothing is kept across calls: a second call pays again
        second = run()
        assert pairs[0] == 2 * 99 * 16**4 and second == first

    def test_curve_steps_pay_for_new_nodes(self, monkeypatch):
        pairs = self.counting_pairs(monkeypatch)
        K, L = hopf_pair()
        # both curves are periodic: 1 + 1 + 1 units, not 5
        evaluate_main_theorem(K, L, grid=GridSpec(curve=16), tol=np.inf, max_level=0)
        assert pairs[0] == 3 * 16 * 16
        # join-full at 10 u nodes: the base and the two curves' new nodes
        # (16 * 16 * 10 each), and the 11 u nodes Kronrod adds (16 * 16 *
        # 11): 4.1 units, where the whole Gauss-Legendre u probe took 5 and
        # every probe whole 7
        pairs[0] = 0
        evaluate_join_degree(K, L, grid=GridSpec(curve=16, u=10), variant="full", tol=np.inf,
                             max_level=0)
        assert pairs[0] == 16 * 16 * (3 * 10 + 11) == 4.1 * 16 * 16 * 10

    def test_open_factor_growing_alone_pays_for_its_new_base(self, monkeypatch):
        # Great (1, 2) main at curve 16, surface 4: only L's polar angle
        # moves the value (Delta 7.9e-6; the circle and the azimuth 1e-16),
        # so at tol 1e-9 it grows alone to Gauss-Legendre at 8, which shares
        # no node with its rule at 4 or its Kronrod probe: the second base
        # pays whole.  In units of 16 * 16 pairs, the first step takes the
        # base, the circle's and the azimuth's new nodes (1 each) and the 5
        # new polar nodes (5/4); the second a base twice that (2), the
        # circle's and the azimuth's new nodes over it (2 each) and the 9
        # new polar nodes over 16 x 4 (9/4): 4.25 + 8.25 = 12.5 units.
        # Whole Gauss-Legendre probes took 5 + 8 = 13, the second base
        # being their first polar probe; the growth costs its probe and its
        # new base, 5/4 + 2, where it cost 2.
        pairs = self.counting_pairs(monkeypatch)
        report = evaluate_main_theorem(*great_pair(1, 2), grid=GridSpec(curve=16, surface=4),
                                       tol=1e-9, max_level=1)
        assert report.levels_used == 1 and report.converged
        assert report.node_counts == (256, 512, 576, 512, 512, 1024, 1088, 1024)
        assert pairs[0] == 12.5 * 16 * 16
        # Hopf join-full at u 4: only u moves the value (Delta 1.7e-5; each
        # curve 4e-11), so u grows alone to 8, its cap.  In units of
        # 16 * 16 * 4 pairs: the first step 1 + 1 + 1 + 5/4, the second a
        # base twice that (2), the curves' new nodes over it (2 each) and
        # the 9 new u nodes (9/4): 4.25 + 8.25 = 12.5, against 5 + 8 = 13
        pairs[0] = 0
        report = evaluate_join_degree(*hopf_pair(), grid=GridSpec(curve=16, u=4), variant="full",
                                      tol=1e-9, max_level=1)
        assert report.levels_used == 1
        assert report.node_counts == (1024, 2048, 2048, 16 * 16 * 9,
                                      2048, 4096, 4096, 16 * 16 * 17)
        assert pairs[0] == 12.5 * 16 * 16 * 4

    RUNS = {
        "main": lambda: evaluate_main_theorem(*small_sphere_pair(2, 3), grid=GridSpec(surface=6),
                                              tol=0.0, max_level=1),
        # three open factors at 8 and 16: Kronrod probes from every step's
        # base marginals
        "main-surface-8": lambda: evaluate_main_theorem(*small_sphere_pair(2, 3),
                                                        grid=GridSpec(surface=8), tol=0.0,
                                                        max_level=1),
        "join-full": lambda: evaluate_join_degree(*hopf_pair(), grid=GridSpec(curve=16, u=4),
                                                  variant="full", tol=0.0, max_level=1),
        "oracle": lambda: oracle_linking(*small_sphere_pair(1, 2), grid=GridSpec(surface=8),
                                         tol=0.0, max_level=1),
    }

    @pytest.mark.parametrize("route", RUNS)
    def test_bit_identical_across_workers(self, monkeypatch, route):
        # small chunks, so that every block has several for the threads
        monkeypatch.setattr(engine, "CHUNK_BYTES", 1 << 14)
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv("SPHERELINK_WORKERS", workers)
            reports.append(self.RUNS[route]())
        one, two = reports
        assert one.levels_used == 1  # two steps: the second sums mixed blocks
        # level values, min/max alpha and every other field, bit for bit
        assert one == two

    ONE_CHUNK = {f"small_{k}_3-{method}": (k, method)
                 for k in (1, 2) for method in ("main", "corollary", "oracle")}

    @pytest.mark.parametrize("case", ONE_CHUNK)
    def test_one_chunk_levels_bit_identical_across_workers(self, monkeypatch, case):
        # every block one chunk: at two workers run_chunked then leaves
        # OpenBLAS its own threads on the long kern(c) @ ml contraction
        k, method = self.ONE_CHUNK[case]
        K, L = small_sphere_pair(k, 3)
        grid = GridSpec(surface=16)
        monkeypatch.setattr(engine, "CHUNK_BYTES", 1 << 26)
        reports = []
        for workers in ("1", "2"):
            monkeypatch.setenv("SPHERELINK_WORKERS", workers)
            chunks = counting_chunks(monkeypatch)
            if method == "oracle":
                reports.append(oracle_linking(K, L, grid=grid, tol=1e-6, max_level=0))
            else:
                reports.append(engine._evaluate(method, K, L, grid, 1e-6, 0, engine.MIN_ALPHA))
            assert set(chunks) == {1}
        one, two = reports
        assert one == two

    PROBED = {
        "small_2_3-main": (lambda: small_sphere_pair(2, 3), GridSpec(surface=16), "main"),
        "great_2_2-join-full": (lambda: great_pair(2, 2), GridSpec(surface=4, u=10),
                                "join-full"),
    }

    @pytest.mark.parametrize("case", PROBED)
    def test_kronrod_probes_match_doubled_probes(self, monkeypatch, case):
        # each open factor's Delta_i from its Kronrod probe, summed from the
        # base's marginals and the new nodes, against Delta_i from the whole
        # Gauss-Legendre grid at twice its count
        make, grid, method = self.PROBED[case]
        K, L = make()

        def run():
            return engine._evaluate(method, K, L, grid, np.inf, 0, engine.MIN_ALPHA)

        v0, *probed = run().level_values
        _, _, terms, check = first_level(run, monkeypatch)
        fresh = partial(terms, sides=engine._fresh)
        base = grid.counts(K, L, u=method == "join-full")
        opened = [i for i, cd in enumerate(engine._tensor_domain(K, L, base)) if not cd.periodic]
        assert len(opened) == 3
        for i in opened:
            kronrod = probed[i] - v0
            doubled = base[:i] + (2 * base[i],) + base[i + 1:]
            gauss = _level_sum(K, L, doubled, fresh, check)[0] - v0
            assert (abs(kronrod - gauss) <= 0.1 * abs(gauss)
                    or max(abs(kronrod), abs(gauss)) < 1e-13), (i, kronrod, gauss)

    def test_level_sums_share_one_pool(self, monkeypatch):
        # the run_chunked calls of one evaluator call run on one pool's
        # threads: a pool per call would start new ones for every block
        monkeypatch.setenv("SPHERELINK_WORKERS", "2")
        monkeypatch.setattr(engine, "CHUNK_BYTES", 1 << 12)
        threads = []
        run_chunked = engine.run_chunked

        def recorded(total, work, workers, chunk):
            seen = set()
            threads.append(seen)
            return run_chunked(total, lambda s, e: (seen.add(threading.current_thread()),
                                                    work(s, e))[1], workers=workers, chunk=chunk)

        monkeypatch.setattr(engine, "run_chunked", recorded)
        evaluate_main_theorem(*small_sphere_pair(1, 2), grid=GridSpec(curve=16, surface=8),
                              tol=np.inf, max_level=0)
        every = set().union(*threads)
        assert len(threads) == 4 and all(threads)
        assert len(every) <= 2 and threading.current_thread() not in every
        assert len({t.ident for t in every}) <= 2

    def test_concurrent_calls_keep_their_own_pools(self, monkeypatch):
        # evaluator calls on several threads at once, more workers than
        # cores and a short switch interval: each call runs its chunks on a
        # pool of its own, and every report is the serial one, bit for bit
        monkeypatch.setenv("SPHERELINK_WORKERS", "3")
        monkeypatch.setattr(engine, "CHUNK_BYTES", 1 << 12)
        K, L = small_sphere_pair(1, 2)

        def run():
            return evaluate_main_theorem(K, L, grid=GridSpec(curve=16, surface=8), tol=0.0,
                                         max_level=1)

        serial, reports = run(), [None] * 3
        threads = [threading.Thread(target=lambda i=i: reports.__setitem__(i, run()))
                   for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reports == [serial] * 3


class TestSideMemory:
    """A side build holds its frames, their coordinates in its span, two
    sizes of minors and what it keeps, and keeps only points and minors."""

    def test_small_23_side_build(self):
        # L at (32, 16, 16): 8192 nodes of 4 frame columns in R^7 (1.75 MiB),
        # their coordinates in its 5-dim span (1.25 MiB) and its 10 minors
        # there of 2 rows and of 3 (0.625 MiB each); it keeps its points and
        # its 5 minors of 4 rows, 8192 x (7 + 5) doubles (0.75 MiB), and K
        # its 256 x (7 + 5), its 4 minors times the 4 x 5 bracket matrix
        # (0.02 MiB)
        K, L = small_sphere_pair(2, 3)
        counts = (16, 16, 32, 16, 16)
        # the subset tables' caches
        _kernel_terms(np.cos, 1.0, (K.span, L.span), None, K, L, counts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            level = _kernel_terms(np.cos, 1.0, (K.span, L.span), None, K, L, counts)
            held, peak = (b - before for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert tuple(map(len, level.points)) == (256, 8192)
        assert peak <= 4.5 * 2**20, f"{peak / 2**20:.2f} MiB"
        assert held <= 0.8 * 2**20, f"{held / 2**20:.2f} MiB"


class TestGridSpec:
    def test_counts_per_factor(self):
        # K's chart factors, then L's, then u for join-full
        g = GridSpec(curve=8, surface=6, u=4, k_nodes=5)
        K, L = small_sphere_pair(1, 2)
        assert g.counts(K, L) == (5, 6, 6)
        assert g.counts(L, K, u=True) == (5, 5, 8, 4)
        assert g.counts(*small_sphere_pair(0, 0)) == ()


class TestLkScale:
    """Every route refines on the Lk scale: tol, the error estimate and the
    level values are one number, with nothing rescaled after refinement."""

    RUNS = {
        "main": lambda K, L: evaluate_main_theorem(K, L, GridSpec(curve=16), tol=0.0,
                                                   max_level=1),
        "corollary": lambda K, L: evaluate_corollary(K, L, GridSpec(curve=16), tol=0.0,
                                                     max_level=1),
        "join-reduced": lambda K, L: evaluate_join_degree(K, L, GridSpec(curve=16), tol=0.0,
                                                          max_level=1),
        "join-full": lambda K, L: evaluate_join_degree(K, L, GridSpec(curve=16, u=4), "full",
                                                       tol=0.0, max_level=0),
        "oracle": lambda K, L: oracle_linking(K, L, m=16, tol=0.0, max_level=1),
    }

    @pytest.mark.parametrize("route", RUNS)
    def test_error_estimate_is_last_level_step(self, route):
        # at tol 0 every factor grows, so the last step is the base and one
        # probe per factor, the last level sums taken
        r = self.RUNS[route](*clifford_pair(2, 3, np.pi / 4))
        factors = 3 if route == "join-full" else 2
        base, *probed = r.level_values[-factors - 1:]
        deltas = [v - base for v in probed]
        assert r.error_estimate > 0.0
        assert r.error_estimate == math.fsum(abs(d) for d in deltas)
        assert r.raw_value == base + math.fsum(deltas)


class TestHonestErrorEstimate:
    """A report's error estimate bounds its distance from the value on a
    grid one doubling finer, in every factor, than any grid the run
    integrated, up to a round-off floor: twice the most nodes any level had
    in that factor, a periodic factor's trapezoid rule or an open factor's
    Gauss-Legendre rule, whose most is a Kronrod probe's 2m + 1."""

    ROUNDOFF_FLOOR = 1e-12
    ROUTES = {
        "main": lambda K, L, grid, **kw: evaluate_main_theorem(K, L, grid, **kw),
        "corollary": lambda K, L, grid, **kw: evaluate_corollary(K, L, grid, **kw),
        "join-reduced": lambda K, L, grid, **kw: evaluate_join_degree(K, L, grid, **kw),
        "join-full": lambda K, L, grid, **kw: evaluate_join_degree(K, L, grid, "full", **kw),
        "oracle": lambda K, L, grid, **kw: oracle_linking(K, L, grid, **kw),
    }
    PAIRS = {
        "hopf": (hopf_pair, GridSpec(curve=8, u=4)),
        "clifford_2_3": (lambda: clifford_pair(2, 3, np.pi / 4), GridSpec(curve=64, u=10)),
        "great_1_2": (lambda: great_pair(1, 2), GridSpec(curve=8, surface=4, u=3)),
        "great_2_2": (lambda: great_pair(2, 2), GridSpec(surface=4, u=10)),
        "small_1_1": (lambda: small_sphere_pair(1, 1), GridSpec(curve=16, u=6)),
        "small_1_2": (lambda: small_sphere_pair(1, 2), GridSpec(curve=8, surface=6)),
        "fourier_7": (lambda: random_fourier_pair(np.random.default_rng(7)),
                      GridSpec(curve=16, u=6)),
        "great_0_1": (lambda: great_pair(0, 1), GridSpec(curve=8, u=4)),
        "great_1_3": (lambda: great_pair(1, 3), GridSpec(curve=8, surface=4, u=10)),
        "great_1_1": (lambda: great_pair(1, 1), GridSpec(curve=8, u=4)),
        "clifford_1_1_core": (lambda: (clifford_torus_curve(1, 1),
                                       great_subsphere(1, (2, 3), 3)), GridSpec(curve=16, u=6)),
    }
    SURFACE_ROUTES = ("main", "corollary", "join-reduced")
    CASES = (list(product(("hopf", "small_1_1", "fourier_7", "great_1_1", "clifford_1_1_core"),
                          ROUTES))
             + list(product(("clifford_2_3",), SURFACE_ROUTES + ("oracle",)))
             + list(product(("great_1_2", "great_0_1"),
                            SURFACE_ROUTES + ("join-full", "oracle")))
             + list(product(("great_2_2", "small_1_2", "great_1_3"),
                            SURFACE_ROUTES + ("oracle",)))
             + [("great_2_2", "join-full")]
             # 6-9 s and 13-14 s on 2 vCPUs, most of it the reference level
             + [pytest.param(pair, "join-full", marks=pytest.mark.slow)
                for pair in ("clifford_2_3", "great_1_3")])

    @pytest.mark.parametrize("pair, route", CASES)
    def test_estimate_bounds_finer_grid(self, pair, route, monkeypatch):
        make, grid = self.PAIRS[pair]
        K, L = make()
        run = self.ROUTES[route]
        grids, poles = [], []
        refine, oracle = engine.refine_until, engine._ROUTES["oracle"]

        def recorded(grid0, level_sums, tol, max_level, domain):
            return refine(grid0, lambda gs: grids.extend(gs) or level_sums(gs), tol,
                          max_level, domain)

        monkeypatch.setattr(engine, "refine_until", recorded)
        monkeypatch.setitem(engine._ROUTES, "oracle", replace(
            oracle, pole=lambda pts: poles.append(oracle.pole(pts)) or poles[-1]))
        r = run(K, L, grid, tol=1e-6, max_level=2)
        # the reference is the route's one level sum on the finer grid, from
        # the run's own pole for the oracle
        finer = tuple(2 * max(map(part_size, c)) for c in zip(*grids))

        def one_level(grid0, level_sums, tol, max_level, domain):
            (value,) = level_sums([finer])
            return Estimate(value, 0.0, 0, level_values=(value,))

        monkeypatch.setattr(engine, "refine_until", one_level)
        monkeypatch.setitem(engine._ROUTES, "oracle", replace(oracle, pole=lambda pts: poles[0]))
        ref = run(K, L, grid, tol=0.0, max_level=0).raw_value
        assert abs(r.raw_value - ref) <= r.error_estimate + self.ROUNDOFF_FLOOR


class TestSymmetries:
    def test_anticommutation(self):
        K, L = great_pair(1, 2)
        a = evaluate_main_theorem(K, L)
        b = evaluate_main_theorem(L, K)
        sign = sign_factor("block_swap", k=1, l=2)
        assert b.raw_value == pytest.approx(sign * a.raw_value, abs=1e-9)

    def test_orientation_reversal_negates(self):
        K, L = hopf_pair()
        a = evaluate_main_theorem(K, L)
        b = evaluate_main_theorem(orientation_reversed(K), L)
        assert b.raw_value == pytest.approx(-a.raw_value, abs=1e-9)

    def test_rotation_invariance(self, rng):
        from conftest import random_rotation
        K, L = hopf_pair()
        base = evaluate_main_theorem(K, L)
        r = random_rotation(4, rng)
        moved = evaluate_main_theorem(rotated(K, r), rotated(L, r))
        assert abs(moved.raw_value - base.raw_value) < 1e-10


class TestConvergenceTable:
    """Per-level values a report carries; `spherelink link` prints them."""

    def test_rows_shrink(self):
        K, L = clifford_pair(2, 3, np.pi / 4)
        r = evaluate_main_theorem(K, L, grid=GridSpec(curve=32), tol=0.0, max_level=3)
        values = r.level_values
        assert len(values) == 4 * 3  # four steps, each the base and two probes
        errs = [abs(values[i + 1] - values[i]) + abs(values[i + 2] - values[i])
                for i in range(0, len(values), 3)]
        # spectral: each doubling slashes the estimate by far more than 10x
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 < e1 / 10
        assert errs[-1] < 1e-9  # converged at the default tol
        assert r.error_estimate == errs[-1]
        assert r.node_counts[:4] == (32 * 32, 64 * 32, 32 * 64, 64 * 64)

    def test_single_level(self):
        K, L = great_pair(1, 1)
        r = evaluate_main_theorem(K, L, tol=0.0, max_level=0)
        assert len(r.level_values) == 3  # one step: the base and a probe per curve
