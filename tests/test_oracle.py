from dataclasses import replace

import numpy as np
import pytest

from spherelink import (
    DisjointnessError,
    GridSpec,
    clifford_torus_curve,
    evaluate_main_theorem,
    great_subsphere,
    oracle_linking,
    orientation_reversed,
)
from spherelink import engine, kernels
from spherelink.engine import _minor_side, _pole_span, _side_arrays, _span_bracket, sign_factor
from spherelink.quadrature import probes
from spherelink.spheregeom import _vol_sphere_any, find_pole, pole_candidates

from conftest import (
    LIFT_FRAME,
    LIFT_POLE,
    great_pair,
    hopf_pair,
    lifted_circle,
    random_fourier_pair,
    small_sphere_pair,
    threading_circles,
    unit_rows,
)


def projection_frame(pole):
    """Orthonormal columns q_1, ..., q_n orthogonal to the pole, with
    det[q_1, ..., q_n, pole] = +1: the pole and every axis but its largest
    component, orthonormalised in order, the last column negated if need be."""
    axes = np.delete(np.eye(len(pole)), int(np.argmax(np.abs(pole))), axis=1)
    frame = np.linalg.qr(np.column_stack([pole, axes]))[0][:, 1:]
    if np.linalg.det(np.column_stack([frame, pole])) < 0:
        frame[:, -1] *= -1
    return frame


def projected(M, nodes, pole):
    """M's point-first frames (N, n, 1 + dim) at its quadrature nodes,
    stereographically projected from `pole` to R^n, and its weights: with
    Q = projection_frame(pole), a point x maps to X = Q^T x / (1 - p.x) and a
    tangent column t to its chain-rule image (Q^T t + X p.t) / (1 - p.x)."""
    pts, frames, w = _side_arrays(M, (nodes,) * M.dim)
    den = 1.0 - pts @ pole
    out = np.einsum("ji,njc->nic", projection_frame(pole), frames) / den[:, None, None]
    out[:, :, 1:] += out[:, :, :1] * (pole @ frames[:, :, 1:] / den[:, None])[:, None, :]
    return out, w


def kernel_calls(monkeypatch):
    """Record the shape of every chunk whose Gauss kernel is formed."""
    calls, kernel = [], engine._gauss_kernel
    monkeypatch.setattr(engine, "_gauss_kernel",
                        lambda n, c: calls.append(c.shape) or kernel(n, c))
    return calls


def with_find(monkeypatch, find):
    """Make the oracle's route pick its pole by find(points)."""
    monkeypatch.setitem(engine._ROUTES, "oracle", replace(engine._ROUTES["oracle"], pole=find))


def with_pole(monkeypatch, pole):
    """Make oracle_linking project from `pole` instead of its own choice."""
    with_find(monkeypatch, lambda points: np.asarray(pole, dtype=float))


class TestPoleMachinery:
    def test_candidates_are_unit(self):
        for d in range(2, 8):
            cands = pole_candidates(d)
            assert cands.shape == (2 * d * d, d)
            assert np.allclose(np.linalg.norm(cands, axis=1), 1.0)
            assert len(np.unique(cands.round(12), axis=0)) == len(cands)

    def test_find_pole_clears_curves(self):
        K = great_subsphere(1, (0, 1), 3)
        L = great_subsphere(1, (2, 3), 3)
        pole = find_pole(np.vstack([_side_arrays(M, (16,))[0] for M in (K, L)]))
        pts = np.vstack([K.batch(np.linspace(0, 2 * np.pi, 64)[:, None])[0],
                         L.batch(np.linspace(0, 2 * np.pi, 64)[:, None])[0]])
        assert np.arccos(np.clip(np.max(pts @ pole), -1, 1)) > 0.05

    def test_pole_on_curve_rejected(self, monkeypatch):
        K, L = great_pair(1, 1)
        # e0 is K's node 0
        with_pole(monkeypatch, [1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="pole passes within"):
            oracle_linking(K, L, m=16)
        # the clearance is checked on every level's nodes: this pole lies
        # midway between two of K's 8 base nodes, on a node of the next level
        with_pole(monkeypatch, [np.cos(np.pi / 8), np.sin(np.pi / 8), 0, 0])
        with pytest.raises(ValueError, match="pole passes within 0.0000 rad"):
            oracle_linking(K, L, m=8)

    def test_pole_search_embeds_each_side_grid_once(self, monkeypatch):
        # the first step's base and five probes share their nodes: the
        # search embeds them as the step's side blocks, K's three and L's
        # four, not both sides of every grid (12), so each node enters once,
        # and it picks the pole those twelve side grids give
        K, L = small_sphere_pair(2, 3)
        counts = GridSpec(surface=6).counts(K, L)
        domain = K.chart_domain + L.chart_domain
        every = np.vstack([_side_arrays(M, c)[0] for g in [counts] + probes(domain, counts)
                           for M, c in ((K, g[:2]), (L, g[2:]))])
        cls, calls, chosen = type(K), [], []
        batch = cls.batch
        monkeypatch.setattr(cls, "batch", lambda self, coords, out=None: (
            calls.append(len(coords)), batch(self, coords, out))[1])

        class Found(Exception):
            pass

        def spy(points):
            chosen.append((points, find_pole(points)))
            raise Found

        with_find(monkeypatch, spy)
        with pytest.raises(Found):
            oracle_linking(K, L, GridSpec(surface=6))
        assert len(calls) == 7
        points, pole = chosen[0]
        # the same point set, bit for bit, each point once
        distinct = np.unique(every, axis=0)
        assert len(points) == len(distinct) < len(every)
        assert np.array_equal(np.unique(points, axis=0), distinct)
        assert np.array_equal(pole, find_pole(every))

    def test_no_clear_pole_rejected(self):
        # nodes on every candidate leave no pole to project from
        cands = pole_candidates(4)
        with pytest.raises(ValueError, match="no candidate pole"):
            find_pole(cands)


class TestPoleSpan:
    """Each side takes its minors in the span of [B | p], B its own span and
    p the pole: an orthonormal span that holds every x - p and tangent
    column, on which the pair's bracket is the whole space's."""

    CASES = {
        # pair, pole (None: the oracle's own), minors a node per side
        "small_sphere": (lambda: small_sphere_pair(2, 3), None, (10, 15)),
        "great_subsphere": (lambda: great_pair(1, 2), None, (3, 4)),
        # whole-space spans: no column added, C(4, 2) minors a side
        "fourier": (lambda: random_fourier_pair(np.random.default_rng(7)), None, (6, 6)),
        # -e3 lies in both sides' spans: a unit vector orthogonal to each
        # completes it
        "pole_in_span": (lambda: small_sphere_pair(2, 3), -np.eye(7)[3], (10, 15)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_span_holds_shifted_frames(self, case):
        make, pole, minors = self.CASES[case]
        K, L = make()
        counts = GridSpec(curve=16, surface=4).counts(K, L)
        if pole is None:
            pole = engine._first_step_pole(find_pole, K, L, counts)
        k, n = K.dim, K.ambient_n
        parts = (counts[:k], counts[k:])
        spans = [_pole_span(M.span, pole) for M in (K, L)]
        for M, c, span, want in zip((K, L), parts, spans, minors):
            B = M.span
            if case == "fourier":
                assert np.array_equal(span, B) and span.shape[1] == n + 1
            else:
                assert span.shape[1] == B.shape[1] + 1
            if case == "pole_in_span":
                assert np.max(np.abs(B @ (B.T @ pole) - pole)) < 1e-15
            assert np.max(np.abs(span.T @ span - np.eye(span.shape[1]))) <= 1e-12
            frames = _side_arrays(M, c)[1].copy()
            frames[:, :, 0] -= pole
            off = np.linalg.norm(frames - span @ (span.T @ frames), axis=1)
            assert np.max(off / np.maximum(1.0, np.linalg.norm(frames, axis=1))) <= 1e-12
            assert _minor_side(M, c, 1.0, span, pole)[1].shape[1] == want

        def brackets(sk, sl):
            # every pair's bracket det(x - p, dx, y - p, dy) from the minors in sk, sl
            m = _span_bracket(tuple(map(tuple, sk)), tuple(map(tuple, sl)), k + 1)
            return (_minor_side(K, parts[0], 1.0, sk, pole, m)[1]
                    @ _minor_side(L, parts[1], 1.0, sl, pole)[1].T)

        # the two spans give the whole space's brackets
        got, ref = brackets(*spans), brackets(np.eye(n + 1), np.eye(n + 1))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestStereographicProjection:
    @pytest.mark.parametrize("k, l", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (1, 2), (2, 2),
                                      (1, 3), (2, 3)])
    def test_sphere_form_is_the_gauss_integrand(self, k, l, rng):
        # the literal Gauss integrand of the images in R^n, weighted, at
        # every pair of small K and L grids, is the sphere form the oracle
        # integrates: a K row of minors dotted with an L row, times the
        # kernel (2 (1 - x.y))^(-n/2), from a random pole
        K, L = small_sphere_pair(k, l)
        n = K.ambient_n
        nodes = {0: 1, 1: 8, 2: 4, 3: 3}
        pts = np.vstack([_side_arrays(M, (nodes[M.dim],) * M.dim)[0] for M in (K, L)])
        pole = unit_rows(rng, 1, n + 1)[0]
        while np.max(pts @ pole) > np.cos(0.1):
            pole = unit_rows(rng, 1, n + 1)[0]
        sk, sl = (_pole_span(M.span, pole) for M in (K, L))
        bracket = _span_bracket(tuple(map(tuple, sk)), tuple(map(tuple, sl)), k + 1)
        pk, mk = _minor_side(K, (nodes[k],) * k, 1.0 / _vol_sphere_any(n - 1), sk, pole, bracket)
        pl, ml = _minor_side(L, (nodes[l],) * l, 1.0, sl, pole)
        sphere = (mk @ ml.T) * (2 * (1 - pk @ pl.T)) ** (-n / 2)
        (fk, wk), (fl, wl) = (projected(M, nodes[M.dim], pole) for M in (K, L))
        X, Y = fk[:, None, :, :1], fl[None, :, :, :1]
        pair = (len(fk), len(fl), n)
        det = np.linalg.det(np.concatenate(
            [np.broadcast_to(c, pair + c.shape[3:])
             for c in (X - Y, fk[:, None, :, 1:], fl[None, :, :, 1:])], axis=3))
        dist = np.linalg.norm((X - Y)[..., 0], axis=2)
        gauss = (sign_factor("stereographic", l=l) / _vol_sphere_any(n - 1)
                 * det / dist ** n * np.outer(wk, wl))
        assert np.max(np.abs(sphere - gauss)) <= 1e-13 * np.max(np.abs(gauss))

    def test_lifted_circles_project_to_threading_circles(self):
        # from LIFT_POLE the fixture's circles land on the R^3 circles they
        # were lifted from, run counterclockwise in their planes
        assert np.array_equal(projection_frame(LIFT_POLE), LIFT_FRAME)
        for M, center, (a, b) in zip(threading_circles(), ([0, 0, 0], [0.5, 0, 0]),
                                     ((0, 1), (0, 2))):
            frames, _ = projected(M, 32, LIFT_POLE)
            rel, vel = frames[:, :, 0] - center, frames[:, :, 1]
            assert np.allclose(np.linalg.norm(rel, axis=1), 0.5, atol=1e-12)
            assert np.max(np.abs(rel[:, 3 - a - b])) < 1e-12
            assert np.all(rel[:, a] * vel[:, b] - rel[:, b] * vel[:, a] > 0)


class TestGaussIntegral:
    def test_threading_circles(self):
        # round circles on S^3 whose projections are the threading circles
        # (see conftest): one negative crossing, Lk = -1, from any pole
        K, L = threading_circles()
        r = oracle_linking(K, L)
        assert r.raw_value == pytest.approx(-1.0, abs=1e-9)
        assert r.nearest_integer == -1
        assert r.accepted
        assert evaluate_main_theorem(K, L).nearest_integer == -1

    def test_distant_circles_unlinked(self):
        K = lifted_circle([0, 0, 0], 0.5)
        L = lifted_circle([3, 0, 0], 0.5)
        r = oracle_linking(K, L)
        assert abs(r.raw_value) < 1e-9
        assert r.nearest_integer == 0

    def test_orientation_reversal_negates(self):
        K, L = threading_circles()
        a = oracle_linking(K, L).raw_value
        b = oracle_linking(K, orientation_reversed(L)).raw_value
        assert b == pytest.approx(-a, abs=1e-9)

    def test_proximity_rejected(self, monkeypatch):
        # the images pass within 1e-5 of each other at (1/2, 0, 0)
        K = lifted_circle([0, 0, 0], 0.5)
        L = lifted_circle([1.0 + 1e-5, 0, 0], 0.5)
        kernels = kernel_calls(monkeypatch)
        with pytest.raises(DisjointnessError, match="min geodesic separation 0.0000 rad"):
            oracle_linking(K, L)
        assert kernels == []

    def test_touching_circles_rejected_before_dividing(self, monkeypatch):
        # the circles meet at K's node 0 and L's node m/2, where |x - y| = 0:
        # the separation check must fire before the kernel divides by it
        K = lifted_circle([0, 0, 0], 0.5)
        L = lifted_circle([1.0, 0, 0], 0.5, normal_axis=1)
        kernels = kernel_calls(monkeypatch)
        with pytest.raises(DisjointnessError, match="min geodesic separation 0.0000 rad"):
            oracle_linking(K, L, m=64)
        assert kernels == []

    def test_nan_point_rejected(self, monkeypatch):
        # a NaN node makes every chunk's separation range NaN, which clears
        # no threshold
        K, L = lifted_circle([0, 0, 0], 0.5), lifted_circle([3, 0, 0], 0.5)
        batch = L.batch

        def poisoned(coords, out=None):
            pts, tan = batch(coords, out=out)
            pts[3] = np.nan
            return pts, tan

        monkeypatch.setattr(L, "batch", poisoned)
        kernels = kernel_calls(monkeypatch)
        with pytest.raises(DisjointnessError, match="min geodesic separation nan"):
            oracle_linking(K, L)
        assert kernels == []

    def test_separation_matches_main(self):
        # one geometry for every route: the oracle's min/max alpha are
        # main's, bit for bit, on the same grid
        for (K, L), grid in ((hopf_pair(), GridSpec(curve=32)),
                             (small_sphere_pair(1, 2), GridSpec(curve=16, surface=6))):
            orc = oracle_linking(K, L, grid, tol=1e-6, max_level=0)
            main = evaluate_main_theorem(K, L, grid, tol=1e-6, max_level=0)
            assert (orc.min_alpha, orc.max_alpha) == (main.min_alpha, main.max_alpha)
            assert orc.node_counts == main.node_counts

    def test_builds_no_kernel_evaluator(self, monkeypatch):
        # Gauss's kernel needs none of the sphere kernels' tables
        def refused(k, l):
            raise AssertionError("the oracle asked for a KernelEvaluator")

        monkeypatch.setattr(kernels, "get_evaluator", refused)
        assert oracle_linking(*hopf_pair(), m=32, tol=1e-6).accepted

    def test_report_method(self):
        K = lifted_circle([0, 0, 0], 0.5)
        L = lifted_circle([3, 0, 0], 0.5)
        r = oracle_linking(K, L)
        assert r.method == "gauss_oracle"
        assert r.min_alpha <= r.max_alpha


class TestOracleVsSphere:
    def test_great_circles(self):
        K = great_subsphere(1, (0, 1), 3)
        L = great_subsphere(1, (2, 3), 3)
        assert oracle_linking(K, L).raw_value == pytest.approx(1.0, abs=1e-9)

    def test_pole_independence(self, monkeypatch):
        # the same link from two poles: a Hopf pair and a (1,2) pair in S^4
        cases = [(*hopf_pair(), None, 1e-6),
                 (*small_sphere_pair(1, 2), GridSpec(curve=16, surface=8), 1e-8)]
        poles = [np.array([1.0, 1, 1, 1, 1]), np.array([0.3, -0.5, 0.7, 0.4, -0.2])]
        for K, L, grid, tol in cases:
            values = []
            for pole in poles:
                pole = pole[: K.ambient_n + 1] / np.linalg.norm(pole[: K.ambient_n + 1])
                with_pole(monkeypatch, pole)
                values.append(oracle_linking(K, L, grid, tol=tol).raw_value)
            assert abs(values[0] - values[1]) < tol

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

    def test_s4_pair_gives_main_integer(self):
        K, L = great_subsphere(1, (0, 1), 4), great_subsphere(2, (2, 3, 4), 4)
        grid = GridSpec(curve=16, surface=8)
        r = oracle_linking(K, L, grid, tol=1e-8)
        assert r.accepted
        assert r.nearest_integer == evaluate_main_theorem(K, L, grid).nearest_integer == 1


class TestOrders:
    """The oracle agrees with main at every order, zero-dimensional sides
    included, on the same grid: the sign rule and the minors hold for all k, l."""

    @pytest.mark.parametrize("k, l", [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1),
                                      (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3)])
    def test_small_spheres_match_main(self, k, l):
        K, L = small_sphere_pair(k, l)
        grid = GridSpec(curve=16, surface=6)
        # three levels; the last is within ~1e-12 of Lk on either route
        main = evaluate_main_theorem(K, L, grid, tol=1e-9, max_level=1)
        orc = oracle_linking(K, L, grid, tol=1e-9, max_level=1)
        assert orc.node_counts == main.node_counts
        assert abs(orc.raw_value - main.raw_value) < 1e-8
        assert orc.nearest_integer == main.nearest_integer == 1

    @pytest.mark.parametrize("k, l", [(0, 1), (1, 0), (1, 2), (2, 2)])
    def test_great_spheres_link_once(self, k, l):
        r = oracle_linking(*great_pair(k, l), GridSpec(curve=16, surface=6), tol=1e-8)
        assert r.raw_value == pytest.approx(1.0, abs=1e-8)

    def test_point_sides_left_unchanged(self):
        # the pole is subtracted from a copy of a point side's frames, which
        # are a view of the catalog's own points
        for k, l in ((0, 2), (2, 0)):
            K, L = small_sphere_pair(k, l)
            P = K if k == 0 else L
            before = [a.copy() for a in P.signed_points()]
            oracle_linking(K, L, GridSpec(curve=16, surface=6), tol=1e-6)
            for a, b in zip(before, P.signed_points()):
                assert np.array_equal(a, b)

    def test_reversing_either_side_negates(self):
        # k = 0 and l = 0 sides: a point pair with its signs swapped
        for k, l in ((0, 2), (2, 0)):
            K, L = small_sphere_pair(k, l)
            grid = GridSpec(curve=16, surface=6)
            a = oracle_linking(K, L, grid, tol=1e-6).raw_value
            for pair in ((orientation_reversed(K), L), (K, orientation_reversed(L))):
                b = oracle_linking(*pair, grid, tol=1e-6).raw_value
                assert b == pytest.approx(-a, abs=1e-9)
