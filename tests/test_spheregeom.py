"""Sphere geometry as the routes compute it: geodesic distance ranges from
dot products, the bracket det(x, dx, y, dy) from per-side minors, sphere
volumes and rotations."""

from itertools import product

import numpy as np
import pytest

from spherelink import (
    antipodal_image,
    evaluate_main_theorem,
    great_subsphere,
    rotated,
    sign_factor,
    small_round_sphere,
)
from spherelink.catalog import OrientedSubmanifold
from spherelink.engine import _laplace_subsets, _minor_dets
from spherelink.quadrature import ChartDim
from spherelink.spheregeom import (
    _vol_sphere_any,
    alpha_extremes,
    compose_givens,
    givens_rotation,
    sphere_volume,
)

from conftest import random_rotation, unit_rows


class TestGeodesicDistance:
    """`alpha_extremes`: the geodesic distance range of an array of dots."""

    def test_orthogonal(self):
        assert alpha_extremes(np.eye(4)[0] @ np.eye(4)[1:].T) == (np.pi / 2, np.pi / 2)

    def test_identical(self):
        # dots just past 1 clamp to alpha 0 instead of NaN
        assert alpha_extremes(np.array([1.0, 1.0 + 1e-15])) == (0.0, 0.0)

    def test_antipodal(self):
        assert alpha_extremes(np.array([-1.0, -1.0 - 1e-15])) == (np.pi, np.pi)

    def test_dimension_mismatch(self):
        # points of different spheres have no distance; the routes refuse them
        with pytest.raises(ValueError, match="same sphere"):
            evaluate_main_theorem(great_subsphere(1, (0, 1), 3), great_subsphere(2, (2, 3, 4), 4))

    def test_symmetry_and_cache(self, rng):
        # symmetric in K and L, and the cosines of the extremes give back the
        # extreme dots
        for _ in range(25):
            x, y = unit_rows(rng, 6, 5), unit_rows(rng, 7, 5)
            dots = x @ y.T
            amin, amax = alpha_extremes(dots)
            assert alpha_extremes(y @ x.T) == pytest.approx((amin, amax), abs=1e-14)
            assert (np.cos(amin), np.cos(amax)) == pytest.approx((dots.max(), dots.min()),
                                                                 abs=1e-12)

    def test_extremes_of_every_pair(self, rng):
        # arccos is decreasing: the extremes of the pairwise alpha, bit for bit
        for _ in range(25):
            dots = unit_rows(rng, 6, 5) @ unit_rows(rng, 7, 5).T
            alpha = np.arccos(np.clip(dots, -1.0, 1.0))
            assert alpha_extremes(dots) == (alpha.min(), alpha.max())

    def test_antipodal_complement(self, rng):
        # against -L the closest pair is the farthest one against L
        for _ in range(25):
            x, y = unit_rows(rng, 6, 4), unit_rows(rng, 7, 4)
            amin, amax = alpha_extremes(x @ y.T)
            assert alpha_extremes(x @ (-y).T) == pytest.approx((np.pi - amax, np.pi - amin),
                                                                abs=1e-12)

    def test_nan_propagates(self):
        assert np.isnan(alpha_extremes(np.array([0.5, np.nan]))).all()


def random_frames(rng, n, d, m):
    """n frames (x, dx_1, ..., dx_{m-1}) in R^d: a unit point first, then
    tangent columns orthogonal to it; shape (n, d, m)."""
    x = unit_rows(rng, n, d)
    cols = rng.standard_normal((n, d, m - 1))
    cols -= x[:, :, None] * np.einsum("nd,ndj->nj", x, cols)[:, None, :]
    return np.concatenate([x[:, :, None], cols], axis=2)


def laplace_bracket(fk, fl):
    """det(x, dx, y, dy) of every K frame against every L frame, as the pair
    kernels form it: signed K minors times the complementary L minors."""
    subs, comps, signs = _laplace_subsets(fk.shape[1], fk.shape[2])
    return (_minor_dets(fk, subs) * signs) @ _minor_dets(fl, comps).T


class TestBracketForm:
    """The bracket as the pair kernels form it, from `_laplace_subsets`."""

    def test_matches_full_determinant(self, rng):
        # the signs and complements combine the minors into the whole
        # determinant of the stacked frames, for every split k + l = n - 1
        for d in range(2, 7):
            for k in range(d - 1):
                fk = random_frames(rng, 4, d, k + 1)
                fl = random_frames(rng, 3, d, d - k - 1)
                pairs = (4, 3, d)
                ref = np.linalg.det(np.concatenate(
                    [np.broadcast_to(fk[:, None], pairs + (k + 1,)),
                     np.broadcast_to(fl[None, :], pairs + (d - k - 1,))], axis=3))
                got = laplace_bracket(fk, fl)
                assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max()), (d, k)

    def test_identity_columns(self):
        eye = np.eye(4)
        assert laplace_bracket(eye[None, :, 0:2], eye[None, :, 2:4])[0, 0] == pytest.approx(
            1.0, abs=1e-14)

    def test_block_swap_sign(self, rng):
        # interchanging the (k+1)-column group with the (l+1)-column group
        for k, l in product(range(4), repeat=2):
            d = k + l + 2
            fk, fl = random_frames(rng, 3, d, k + 1), random_frames(rng, 2, d, l + 1)
            assert laplace_bracket(fl, fk).T == pytest.approx(
                sign_factor("block_swap", k=k, l=l) * laplace_bracket(fk, fl),
                rel=1e-12, abs=1e-12)

    def test_block_diagonal_factorization(self, rng):
        # frames supported on complementary coordinate blocks: the bracket
        # splits into the product of the two block determinants
        k, l = 1, 2
        fk = np.zeros((1, 5, k + 1))
        fk[0, :2] = random_frames(rng, 1, 2, k + 1)[0]
        fl = np.zeros((1, 5, l + 1))
        fl[0, 2:] = random_frames(rng, 1, 3, l + 1)[0]
        left, right = np.linalg.det(fk[0, :2]), np.linalg.det(fl[0, 2:])
        assert laplace_bracket(fk, fl)[0, 0] == pytest.approx(left * right, rel=1e-12)

    def test_alternating_and_multilinear(self, rng):
        fk, fl = random_frames(rng, 1, 6, 3), random_frames(rng, 1, 6, 3)
        dup = fk.copy()
        dup[:, :, 2] = dup[:, :, 1]
        assert laplace_bracket(dup, fl)[0, 0] == pytest.approx(0.0, abs=1e-12)
        scaled = fk * np.array([1.0, 3.0, 1.0])
        assert laplace_bracket(scaled, fl)[0, 0] == pytest.approx(
            3 * laplace_bracket(fk, fl)[0, 0], rel=1e-12)

    def test_column_count_mismatch(self):
        # 1 + 2 + 1 + 1 = 5 columns cannot fill a 4-dimensional ambient space
        with pytest.raises(ValueError, match="n - 1"):
            evaluate_main_theorem(great_subsphere(2, (0, 1, 2), 3), great_subsphere(1, (2, 3), 3))

    def test_tangency_enforced(self):
        # an entry whose tangent column is radial fails its construction check
        class Radial(OrientedSubmanifold):
            dim, ambient_n, chart_domain = 1, 3, (ChartDim(0.0, 2 * np.pi, True),)

            def batch(self, coords):
                s = coords[:, 0]
                pts = np.column_stack([np.cos(s), np.sin(s), 0 * s, 0 * s])
                return pts, pts[:, :, None]

        with pytest.raises(ValueError, match="orthogonal to the base point"):
            Radial()._validate()


class TestSphereVolume:
    def test_cited_values(self):
        assert sphere_volume(3) == pytest.approx(2 * np.pi**2, rel=1e-14)
        assert sphere_volume(4) == pytest.approx(8 * np.pi**2 / 3, rel=1e-14)
        assert sphere_volume(5) == pytest.approx(np.pi**3, rel=1e-14)
        assert sphere_volume(1) == pytest.approx(2 * np.pi, rel=1e-14)
        assert sphere_volume(2) == pytest.approx(4 * np.pi, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            sphere_volume(0)
        with pytest.raises(ValueError):
            sphere_volume(-2)

    def test_slab_identity(self):
        # integral of sin^k cos^l over [0, pi/2] times vol S^k vol S^l
        # equals vol S^n for k + l = n - 1 (n up to 8)
        x, w = np.polynomial.legendre.leggauss(80)
        theta = np.pi / 4 * (x + 1)
        wq = np.pi / 4 * w
        for n in range(1, 9):
            for k in range(0, n):
                l = n - 1 - k
                moment = float(np.sum(wq * np.sin(theta) ** k * np.cos(theta) ** l))
                lhs = moment * _vol_sphere_any(k) * _vol_sphere_any(l)
                assert lhs == pytest.approx(_vol_sphere_any(n), rel=1e-10)


class TestRotations:
    def test_identity(self):
        m = small_round_sphere(2, np.eye(5)[4], 0.7, np.eye(5)[:3])
        s = np.array([[0.4, 1.0], [2.5, 5.0]])
        for a, b in zip(rotated(m, np.eye(5)).batch(s), m.batch(s)):
            assert np.array_equal(a, b)

    def test_preserves_norm_and_distance(self, rng):
        K, L = great_subsphere(1, (0, 1), 3), great_subsphere(1, (2, 3), 3)
        s = rng.uniform(0.0, 2 * np.pi, (9, 1))
        for _ in range(20):
            r = random_rotation(4, rng)
            x, y = K.batch(s)[0], L.batch(s)[0]
            rx, ry = rotated(K, r).batch(s)[0], rotated(L, r).batch(s)[0]
            assert np.abs(np.linalg.norm(rx, axis=1) - 1.0).max() <= 1e-12
            assert np.abs(rx @ ry.T - x @ y.T).max() <= 1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            rotated(great_subsphere(1, (0, 1), 3), np.eye(4) * 1.001)

    def test_rejects_reflection(self):
        r = np.eye(4)
        r[0, 0] = -1.0
        with pytest.raises(ValueError, match="determinant"):
            rotated(great_subsphere(1, (0, 1), 3), r)

    def test_givens_composition(self, rng):
        r = compose_givens(5, [((0, 1), 0.3), ((2, 4), -1.2), ((1, 3), 2.0)])
        assert np.allclose(r.T @ r, np.eye(5), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        single = givens_rotation(3, (0, 2), np.pi / 2)
        assert np.allclose(single @ [1, 0, 0], [0, 0, 1], atol=1e-15)

    def test_givens_invalid_plane(self):
        with pytest.raises(ValueError):
            givens_rotation(3, (1, 1), 0.5)


class TestAntipode:
    """`antipodal_image`: every point and tangent column negated."""

    def test_basic(self):
        m = great_subsphere(2, (0, 2, 4), 5)
        s = np.array([[0.4, 1.0], [2.5, 5.0]])
        for a, b in zip(antipodal_image(m).batch(s), m.batch(s)):
            assert np.array_equal(a, -b)

    def test_involution(self):
        m = small_round_sphere(2, np.eye(5)[4], 0.7, np.eye(5)[:3])
        s = np.array([[0.4, 1.0], [2.5, 5.0]])
        for a, b in zip(antipodal_image(antipodal_image(m)).batch(s), m.batch(s)):
            assert np.array_equal(a, b)
