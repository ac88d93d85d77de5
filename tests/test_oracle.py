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
from spherelink import oracle
from spherelink.engine import _side_arrays
from spherelink.oracle import find_pole, pole_candidates, stereographic_frames
from spherelink.quadrature import probes

from conftest import (
    LIFT_POLE,
    great_pair,
    hopf_pair,
    lifted_circle,
    small_sphere_pair,
    threading_circles,
)


def projected(M, nodes, pole):
    """Projected point-first frames of M's quadrature nodes."""
    return stereographic_frames(_side_arrays(M, (nodes,) * M.dim)[1], pole)


def kernel_calls(monkeypatch):
    """Record the shape of every chunk whose Gauss kernel is formed."""
    calls, kernel = [], oracle._gauss_kernel
    monkeypatch.setattr(oracle, "_gauss_kernel",
                        lambda n, c: calls.append(c.shape) or kernel(n, c))
    return calls


def with_pole(monkeypatch, pole):
    """Make oracle_linking project from `pole` instead of its own choice."""
    monkeypatch.setattr(oracle, "find_pole", lambda points: np.asarray(pole, dtype=float))


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
        with pytest.raises(ValueError, match="pole"):
            projected(K, 16, np.array([1.0, 0, 0, 0]))
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
        every = np.vstack([_side_arrays(M, c)[0] for g in [counts] + probes(counts)
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

        monkeypatch.setattr(oracle, "find_pole", spy)
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


class TestStereographicProjection:
    def test_great_circle_projects_to_round_circle(self):
        # the equatorial circle, projected from (0, 0, 0, 1), is the unit circle
        K = great_subsphere(1, (0, 1), 3)
        frames = projected(K, 128, np.array([0.0, 0, 0, 1.0]))
        pts, vel = frames[:, :, 0], frames[:, :, 1]
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        # velocities tangent to the circle
        assert np.max(np.abs(np.sum(pts * vel, axis=1))) < 1e-10

    def test_velocity_by_finite_difference(self):
        # projected tangent columns are the derivatives of the projected
        # points, for a curve in S^3 and a 2-sphere in S^4
        K = clifford_torus_curve(2, 3)
        S, _ = small_sphere_pair(2, 1)
        for M, pole, coords in (
                (K, np.array([1.0, 1, 1, 1]) / 2, np.linspace(0.1, 6.0, 17)[:, None]),
                (S, np.array([0.0, 1, 1, 0, 1]) / np.sqrt(3),
                 np.column_stack([np.linspace(0.3, 2.8, 9), np.linspace(0.2, 6.0, 9)]))):
            pts, tan = M.batch(coords)
            frames = stereographic_frames(np.concatenate([pts[:, :, None], tan], axis=2), pole)
            h = 1e-6
            for j in range(M.dim):
                step = h * np.eye(M.dim)[j]
                fwd, bwd = (stereographic_frames(M.batch(coords + sg * step)[0][:, :, None],
                                                 pole)[:, :, 0] for sg in (1, -1))
                assert np.max(np.abs((fwd - bwd) / (2 * h) - frames[:, :, 1 + j])) < 1e-6

    def test_hopf_fibers_stay_disjoint(self):
        K, L = hopf_pair()
        pole = find_pole(np.vstack([_side_arrays(M, (256,))[0] for M in (K, L)]))
        pk, pl = (projected(M, 256, pole)[:, :, 0] for M in (K, L))
        dmin = np.min(np.linalg.norm(pk[:, None, :] - pl[None, :, :], axis=2))
        assert dmin > 1e-3

    def test_lifted_circles_project_to_threading_circles(self):
        # from LIFT_POLE the fixture's circles land on the R^3 circles they
        # were lifted from, run counterclockwise in their planes
        for M, center, (a, b) in zip(threading_circles(), ([0, 0, 0], [0.5, 0, 0]),
                                     ((0, 1), (0, 2))):
            frames = projected(M, 32, LIFT_POLE)
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

    def test_reversing_either_side_negates(self):
        # k = 0 and l = 0 sides: a point pair with its signs swapped
        for k, l in ((0, 2), (2, 0)):
            K, L = small_sphere_pair(k, l)
            grid = GridSpec(curve=16, surface=6)
            a = oracle_linking(K, L, grid, tol=1e-6).raw_value
            for pair in ((orientation_reversed(K), L), (K, orientation_reversed(L))):
                b = oracle_linking(*pair, grid, tol=1e-6).raw_value
                assert b == pytest.approx(-a, abs=1e-9)
