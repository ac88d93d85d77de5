import time

import numpy as np
import pytest

from spherelink import (
    antipodal_image,
    clifford_torus_curve,
    fourier_curve,
    great_subsphere,
    hopf_fiber,
    orientation_reversed,
    rotated,
    small_round_sphere,
)
from spherelink.catalog import (
    _VALIDATION_POINTS,
    _validation_samples,
    alpha_range_scan,
    build_entry,
    catalog_schemas,
)
from spherelink.engine import _side_arrays

from conftest import random_fourier_pair, random_rotation, small_sphere_pair


def batch_points(m, coords):
    return m.batch(np.asarray(coords, dtype=float))


def chart_grid(m, samples=7):
    """Interior tensor grid over the chart of m, (samples^dim, dim)."""
    axes = [np.linspace(cd.lo, cd.hi, samples + 2)[1:-1] for cd in m.chart_domain]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def hopf_reference(base, t):
    """Direct formula of the Hopf orbit t -> (z1 e^{it}, z2 e^{it})."""
    a1, b1, a2, b2 = base
    c, s = np.cos(t), np.sin(t)
    pts = np.column_stack([a1 * c - b1 * s, a1 * s + b1 * c,
                           a2 * c - b2 * s, a2 * s + b2 * c])
    tan = np.column_stack([-a1 * s - b1 * c, a1 * c - b1 * s,
                           -a2 * s - b2 * c, a2 * c - b2 * s])
    return pts, tan


def torus_reference(p, q, phase, s):
    """Direct formula of the (p, q) curve (e^{ips}, e^{i(qs + phase)}) / sqrt 2."""
    r = 1.0 / np.sqrt(2.0)
    pts = r * np.column_stack([np.cos(p * s), np.sin(p * s),
                               np.cos(q * s + phase), np.sin(q * s + phase)])
    tan = r * np.column_stack([-p * np.sin(p * s), p * np.cos(p * s),
                               -q * np.sin(q * s + phase), q * np.cos(q * s + phase)])
    return pts, tan


class TestGreatSubsphere:
    def test_circle_parametrization(self):
        c = great_subsphere(1, (0, 1), 3)
        s = np.array([[0.0], [np.pi / 3], [2.1]])
        pts, tan = c.batch(s)
        assert np.allclose(pts, np.column_stack(
            [np.cos(s[:, 0]), np.sin(s[:, 0]), 0 * s[:, 0], 0 * s[:, 0]]), atol=1e-15)
        assert np.allclose(tan[:, :, 0], np.column_stack(
            [-np.sin(s[:, 0]), np.cos(s[:, 0]), 0 * s[:, 0], 0 * s[:, 0]]), atol=1e-15)

    def test_point_pair(self):
        p = great_subsphere(0, (0,), 1)
        pts, signs = p.signed_points()
        assert np.allclose(pts, [[1, 0], [-1, 0]])
        assert np.allclose(signs, [1, -1])

    def test_sphere_chart_matches_standard(self):
        s2 = great_subsphere(2, (0, 1, 2), 5)
        coords = np.array([[0.7, 1.3]])
        pts, _ = s2.batch(coords)
        th, ph = coords[0]
        assert np.allclose(pts[0, :3],
                           [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        assert np.allclose(pts[0, 3:], 0.0)

    def test_positive_chart_orientation(self, rng):
        # det(x, dx_1, ..., dx_k) > 0 in the coordinate block for every k
        for k in range(1, 5):
            m = great_subsphere(k, tuple(range(k + 1)), k + 2)
            for _ in range(10):
                coords = np.concatenate([
                    rng.uniform(0.2, np.pi - 0.2, k - 1), rng.uniform(0, 2 * np.pi, 1)])
                pts, tan = m.batch(coords[None, :])
                block = np.column_stack([pts[0, :k + 1], tan[0, :k + 1, :]])
                assert np.linalg.det(block) > 0

    def test_axis_order_flips_orientation(self):
        a = great_subsphere(1, (0, 1), 3)
        b = great_subsphere(1, (1, 0), 3)
        s = np.array([[0.4]])
        pa, ta = a.batch(s)
        pb, tb = b.batch(s)
        # same circle traversed with swapped coordinates
        assert pb[0, 0] == pytest.approx(pa[0, 1])
        assert pb[0, 1] == pytest.approx(pa[0, 0])

    def test_invalid_axes(self):
        with pytest.raises(ValueError):
            great_subsphere(1, (0, 0), 3)
        with pytest.raises(ValueError):
            great_subsphere(1, (0, 7), 3)
        with pytest.raises(ValueError):
            great_subsphere(3, (0, 1, 2, 3), 3)
        with pytest.raises(ValueError):
            great_subsphere(1, (0,), 3)

    def test_negative_k_names_k(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            great_subsphere(-1, [], 3)

    def test_validation_grid_bounded(self):
        # 9 samples per chart factor up to k = 4; above, fewer, so that the
        # construction-time check takes at most 9^4 points
        assert [_validation_samples(k) for k in range(1, 5)] == [9] * 4
        for k in range(5, 40):
            m = _validation_samples(k)
            assert m >= 1 and m ** k <= _VALIDATION_POINTS
        t0 = time.perf_counter()
        assert great_subsphere(8, range(9), 9).dim == 8
        assert time.perf_counter() - t0 < 1.0
        # more chart factors than np.meshgrid takes (32)
        assert great_subsphere(33, range(34), 34).dim == 33

    @pytest.mark.parametrize("n", range(2, 7))
    def test_is_round_sphere_of_radius_half_pi(self, n):
        # a great k-sphere is the round sphere of angular radius pi/2 about
        # any unit vector orthogonal to its block, framed by the block's axes
        eye = np.eye(n + 1)
        for k in range(n):
            axes = tuple(range(n - k, n + 1))[::-1]
            great = great_subsphere(k, axes, n)
            round_ = small_round_sphere(k, eye[0], np.pi / 2, eye[list(axes)])
            if k == 0:
                for a, b in zip(great.signed_points(), round_.signed_points()):
                    assert np.max(np.abs(a - b)) <= 1e-15
                continue
            coords = chart_grid(great, 5)
            for a, b in zip(great.batch(coords), round_.batch(coords)):
                assert np.max(np.abs(a - b)) <= 1e-15


class TestHopfFiber:
    def test_axis_fibers(self):
        f1 = hopf_fiber((1, 0, 0, 0))
        t = np.array([[0.0], [1.1]])
        pts, _ = f1.batch(t)
        assert np.allclose(pts, np.column_stack(
            [np.cos(t[:, 0]), np.sin(t[:, 0]), 0 * t[:, 0], 0 * t[:, 0]]), atol=1e-15)
        f2 = hopf_fiber((0, 0, 1, 0))
        pts2, _ = f2.batch(t)
        assert np.allclose(pts2, np.column_stack(
            [0 * t[:, 0], 0 * t[:, 0], np.cos(t[:, 0]), np.sin(t[:, 0])]), atol=1e-15)

    def test_matches_direct_formula(self):
        b = np.array([0.3, -0.2, 0.8, 0.4])
        for base in ((1, 0, 0, 0), b / np.linalg.norm(b)):
            t = np.linspace(0.0, 2 * np.pi, 97)
            pts, tan = hopf_fiber(base).batch(t[:, None])
            ref_pts, ref_tan = hopf_reference(np.asarray(base, dtype=float), t)
            assert np.max(np.abs(pts - ref_pts)) <= 1e-14
            assert np.max(np.abs(tan[:, :, 0] - ref_tan)) <= 1e-14

    def test_requires_unit_base(self):
        with pytest.raises(ValueError):
            hopf_fiber((1, 1, 0, 0))

    def test_distinct_fibers_disjoint(self, rng):
        # scan ~10^3 sample pairs for several random base pairs
        for _ in range(5):
            b1 = rng.standard_normal(4)
            b1 /= np.linalg.norm(b1)
            b2 = rng.standard_normal(4)
            b2 /= np.linalg.norm(b2)
            # skip if accidentally on the same fiber (same complex ray)
            z1 = complex(b1[0], b1[1]), complex(b1[2], b1[3])
            z2 = complex(b2[0], b2[1]), complex(b2[2], b2[3])
            cross = z1[0] * z2[1] - z1[1] * z2[0]
            if abs(cross) < 1e-3:
                continue
            amin, _ = alpha_range_scan(hopf_fiber(b1), hopf_fiber(b2), 32)
            assert amin > 0.0


class TestCliffordCurve:
    def test_degenerate_blocks(self):
        c = clifford_torus_curve(1, 0, phase=0.7)
        s = np.array([[0.9]])
        pts, _ = c.batch(s)
        r = 1 / np.sqrt(2)
        assert np.allclose(pts[0], [r * np.cos(0.9), r * np.sin(0.9),
                                    r * np.cos(0.7), r * np.sin(0.7)])
        c2 = clifford_torus_curve(0, 1)
        pts2, _ = c2.batch(s)
        assert np.allclose(pts2[0], [r, 0, r * np.cos(0.9), r * np.sin(0.9)])

    @pytest.mark.parametrize("p, q, phase", [
        (1, 1, 0.0), (1, -1, 0.0), (2, 3, np.pi / 4), (1, 0, 0.0), (0, 1, 0.0), (-2, 1, 0.0),
    ])
    def test_matches_direct_formula(self, p, q, phase):
        s = np.linspace(0.0, 2 * np.pi, 97)
        pts, tan = clifford_torus_curve(p, q, phase).batch(s[:, None])
        ref_pts, ref_tan = torus_reference(p, q, phase, s)
        assert np.max(np.abs(pts - ref_pts)) <= 1e-14
        assert np.max(np.abs(tan[:, :, 0] - ref_tan)) <= 1e-14

    def test_invalid(self):
        with pytest.raises(ValueError):
            clifford_torus_curve(0, 0)
        with pytest.raises(ValueError):
            clifford_torus_curve(2, 4)


class TestSmallRoundSphere:
    def test_great_limit(self):
        frame = np.zeros((2, 4))
        frame[0, 0] = 1.0
        frame[1, 1] = 1.0
        center = np.array([0.0, 0, 1, 0])
        small = small_round_sphere(1, center, np.pi / 2, frame)
        great = great_subsphere(1, (0, 1), 3)
        s = np.linspace(0, 2 * np.pi, 9)[:, None]
        ps, ts = small.batch(s)
        pg, tg = great.batch(s)
        assert np.allclose(ps, pg, atol=1e-12)
        assert np.allclose(ts, tg, atol=1e-12)

    def test_constant_distance_from_center(self):
        frame = np.zeros((2, 4))
        frame[0, 0] = 1.0
        frame[1, 1] = 1.0
        center = np.array([0.0, 0, 0.6, 0.8])
        r = 0.9
        m = small_round_sphere(1, center, r, frame)
        pts, _ = m.batch(np.linspace(0, 2 * np.pi, 33)[:, None])
        dots = pts @ center
        assert np.allclose(np.arccos(dots), r, atol=1e-12)

    def test_validation(self):
        frame = np.zeros((2, 4))
        frame[0, 0] = 1.0
        frame[1, 1] = 1.0
        with pytest.raises(ValueError):
            small_round_sphere(1, [0, 0, 1, 0], 2.0, frame)  # radius > pi/2
        with pytest.raises(ValueError):
            small_round_sphere(1, [0, 0, 1, 0], 0.5, frame * 2)  # not orthonormal
        bad_frame = np.zeros((2, 4))
        bad_frame[0, 2] = 1.0  # parallel to center
        bad_frame[1, 1] = 1.0
        with pytest.raises(ValueError):
            small_round_sphere(1, [0, 0, 1, 0], 0.5, bad_frame)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            small_round_sphere(-1, [0, 0, 1, 0], 0.5, np.zeros((0, 4)))


class TestFourierCurve:
    def test_reproduces_great_circle(self):
        cc = np.zeros((2, 4))
        sc = np.zeros((2, 4))
        cc[1, 0] = 1.0
        sc[1, 1] = 1.0
        f = fourier_curve(cc, sc)
        g = great_subsphere(1, (0, 1), 3)
        s = np.linspace(0, 2 * np.pi, 17)[:, None]
        pf, tf = f.batch(s)
        pg, tg = g.batch(s)
        assert np.allclose(pf, pg, atol=1e-14)
        assert np.allclose(tf, tg, atol=1e-14)

    def test_tangency(self, rng):
        cc = rng.normal(0, 0.3, (4, 4))
        sc = rng.normal(0, 0.3, (4, 4))
        cc[1, 0] += 1.5
        sc[1, 1] += 1.5
        f = fourier_curve(cc, sc)
        pts, tan = f.batch(np.linspace(0, 2 * np.pi, 64)[:, None])
        radial = np.einsum("nd,ndk->nk", pts, tan)
        assert np.max(np.abs(radial)) < 1e-9
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12

    def test_degenerate_rejected(self):
        cc = np.zeros((2, 4))
        sc = np.zeros((2, 4))
        cc[1, 0] = 1e-8  # nearly zero series
        with pytest.raises(ValueError):
            fourier_curve(cc, sc)


class TestWrappers:
    def test_rotated_identity(self):
        m = great_subsphere(1, (0, 1), 3)
        r = rotated(m, np.eye(4))
        s = np.array([[0.3], [2.0]])
        assert np.allclose(r.batch(s)[0], m.batch(s)[0])
        assert np.allclose(r.batch(s)[1], m.batch(s)[1])

    def test_rotated_rejects_bad_matrix(self):
        m = great_subsphere(1, (0, 1), 3)
        with pytest.raises(ValueError):
            rotated(m, np.eye(4) * 2)

    def test_rotation_moves_points(self, rng):
        m = great_subsphere(1, (0, 1), 3)
        r = random_rotation(4, rng)
        w = rotated(m, r)
        s = np.array([[1.0]])
        assert np.allclose(w.batch(s)[0][0], r @ m.batch(s)[0][0])

    def test_antipodal_involution(self):
        m = hopf_fiber((1, 0, 0, 0))
        a2 = antipodal_image(antipodal_image(m))
        s = np.array([[0.2], [4.0]])
        assert np.allclose(a2.batch(s)[0], m.batch(s)[0])
        assert np.allclose(a2.batch(s)[1], m.batch(s)[1])

    def test_antipodal_negates(self):
        m = hopf_fiber((1, 0, 0, 0))
        a = antipodal_image(m)
        s = np.array([[0.2]])
        assert np.allclose(a.batch(s)[0], -m.batch(s)[0])
        assert np.allclose(a.batch(s)[1], -m.batch(s)[1])

    def test_orientation_reversal_same_point_set(self):
        m = clifford_torus_curve(2, 3)
        r = orientation_reversed(m)
        # same image: compare sorted sample clouds via distance scan
        amin, amax = alpha_range_scan(m, r, 64)
        assert amin == pytest.approx(0.0, abs=1e-12)
        # reversal of a point pair flips the signs
        p = orientation_reversed(great_subsphere(0, (0,), 1))
        pts, signs = p.signed_points()
        assert np.allclose(signs, [-1, 1])

    def test_point_pair_antipodal_image(self):
        p = antipodal_image(great_subsphere(0, (1,), 2))
        pts, signs = p.signed_points()
        assert np.allclose(pts, [[0, -1, 0], [0, 1, 0]])
        assert np.allclose(signs, [1, -1])


class TestDisjointnessScan:
    def test_disjoint_pairs_clear_threshold(self):
        pairs = [
            (great_subsphere(1, (0, 1), 3), great_subsphere(1, (2, 3), 3)),
            (hopf_fiber((1, 0, 0, 0)), hopf_fiber((0, 0, 1, 0))),
            (clifford_torus_curve(2, 3), clifford_torus_curve(2, 3, np.pi / 4)),
        ]
        for k_m, l_m in pairs:
            amin, amax = alpha_range_scan(k_m, l_m, 48)
            assert amin > 0.01
            assert amin <= amax <= np.pi

    @pytest.mark.parametrize("pair, m", [
        (lambda: random_fourier_pair(np.random.default_rng(7)), 16),
        (lambda: small_sphere_pair(0, 1), 8), (lambda: small_sphere_pair(1, 2), 6),
        (lambda: small_sphere_pair(2, 2), 5)])
    def test_scan_sees_engine_nodes(self, pair, m):
        # at m the scan samples exactly the nodes an engine route integrates
        # on a grid of m nodes per chart factor
        K, L = pair()
        dots = np.clip(_side_arrays(K, m)[0] @ _side_arrays(L, m)[0].T, -1.0, 1.0)
        assert alpha_range_scan(K, L, m) == (float(np.arccos(dots.max())),
                                             float(np.arccos(dots.min())))


class TestBuildEntry:
    def test_each_kind(self):
        n = 3
        entries = [
            {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
            {"kind": "hopf_fiber", "base": [1, 0, 0, 0]},
            {"kind": "clifford_torus_curve", "p": 2, "q": 3, "phase": 0.5},
            {"kind": "fourier_curve",
             "cos_coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]],
             "sin_coeffs": [[0, 0, 0, 0], [0, 1, 0, 0]]},
            {"kind": "rotated",
             "base": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
             "givens": [{"plane": [0, 2], "angle": 0.3}]},
            {"kind": "antipodal_image",
             "base": {"kind": "hopf_fiber", "base": [1, 0, 0, 0]}},
            {"kind": "orientation_reversed",
             "base": {"kind": "clifford_torus_curve", "p": 1, "q": 1}},
        ]
        for e in entries:
            m = build_entry(e, n)
            assert m.ambient_n == n
        sphere_entry = {"kind": "small_round_sphere", "k": 1,
                        "center": [0, 0, 1, 0], "angular_radius": 1.0,
                        "frame": [[1, 0, 0, 0], [0, 1, 0, 0]]}
        assert build_entry(sphere_entry, 3).dim == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="kind"):
            build_entry({"kind": "mobius_band"}, 3)
        with pytest.raises(ValueError, match="missing"):
            build_entry({"kind": "great_subsphere", "k": 1}, 3)
        with pytest.raises(ValueError):
            build_entry({"kind": "hopf_fiber", "base": [1, 0, 0, 0]}, 4)
        with pytest.raises(ValueError):
            build_entry("not a dict", 3)

    @pytest.mark.parametrize("entry, field", [
        ({"kind": "great_subsphere", "k": 1.9, "axes": [0.7, 1.2]}, "'k'"),
        ({"kind": "great_subsphere", "k": 1, "axes": [0.7, 1.2]}, "'axes'"),
        ({"kind": "great_subsphere", "k": True, "axes": [0, 1]}, "'k'"),
        ({"kind": "clifford_torus_curve", "p": 2.9, "q": True}, "'p'"),
        ({"kind": "clifford_torus_curve", "p": 2, "q": True}, "'q'"),
        ({"kind": "clifford_torus_curve", "p": 2, "q": 3, "phase": False}, "'phase'"),
        ({"kind": "clifford_torus_curve", "p": "2", "q": 3}, "'p'"),
        ({"kind": "hopf_fiber", "base": [True, 0, 0, 0]}, "'base'"),
        ({"kind": "rotated", "base": {"kind": "great_subsphere", "k": 1, "axes": [0, 1]},
          "givens": [{"plane": [0, 2.5], "angle": 0.3}]}, "'givens'"),
    ])
    def test_strict_numbers(self, entry, field):
        # integer fields refuse bools and non-integral numbers, float fields
        # refuse bools and strings, instead of truncating or coercing them
        with pytest.raises(ValueError, match=f"field {field} is malformed"):
            build_entry(entry, 3)

    def test_integral_floats_accepted(self):
        a = build_entry({"kind": "great_subsphere", "k": 1.0, "axes": [2.0, 3.0]}, 3)
        b = build_entry({"kind": "great_subsphere", "k": 1, "axes": [2, 3]}, 3)
        s = np.linspace(0.0, 6.0, 7)[:, None]
        assert all(np.array_equal(x, y) for x, y in zip(a.batch(s), b.batch(s)))
        torus = build_entry({"kind": "clifford_torus_curve", "p": 2.0, "q": 3.0}, 3)
        assert np.array_equal(torus.batch(s)[0], clifford_torus_curve(2, 3).batch(s)[0])

    def test_schemas_cover_kinds(self):
        schemas = catalog_schemas()
        for kind in ("great_subsphere", "hopf_fiber", "clifford_torus_curve",
                     "small_round_sphere", "fourier_curve", "rotated",
                     "antipodal_image"):
            assert kind in schemas
        assert set(catalog_schemas()["clifford_torus_curve"]) == {"p", "q", "phase"}
