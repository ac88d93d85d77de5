"""Shared fixtures: the standard link-pair catalog, random helpers and an
independent quadrature reference for the distance kernels."""

from functools import lru_cache

import numpy as np
import pytest

from spherelink import (
    clifford_torus_curve,
    fourier_curve,
    great_subsphere,
    hopf_fiber,
    small_round_sphere,
)
from spherelink.engine import _side_arrays
from spherelink.oracle import _projection_frame
from spherelink.spheregeom import alpha_extremes


def unit_rows(rng, n, d):
    """n random unit vectors in R^d, one per row."""
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_rotation(dim: int, rng) -> np.ndarray:
    """Haar-ish random element of SO(dim) via QR with sign fixing."""
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def alpha_range(K, L, m: int):
    """Geodesic separation range (min, max) of K and L on the nodes an
    engine route integrates at m nodes per chart factor."""
    return alpha_extremes(_side_arrays(K, (m,) * K.dim)[0] @ _side_arrays(L, (m,) * L.dim)[0].T)


def random_fourier_pair(rng, scale: float = 0.12, min_sep: float = 0.15):
    """Two perturbed orthogonal circles on S^3, rejection-sampled until the
    pair clears the disjointness thresholds on a dense scan."""
    shape_mask_c = np.array([[1.0], [1.0], [0.5]])
    shape_mask_s = np.array([[0.0], [1.0], [0.5]])
    for _ in range(100):
        cc1 = np.zeros((3, 4))
        sc1 = np.zeros((3, 4))
        cc1[1, 0] = 1.0
        sc1[1, 1] = 1.0
        cc1 += rng.normal(0.0, scale, (3, 4)) * shape_mask_c
        sc1 += rng.normal(0.0, scale, (3, 4)) * shape_mask_s
        cc2 = np.zeros((3, 4))
        sc2 = np.zeros((3, 4))
        cc2[1, 2] = 1.0
        sc2[1, 3] = 1.0
        cc2 += rng.normal(0.0, scale, (3, 4)) * shape_mask_c
        sc2 += rng.normal(0.0, scale, (3, 4)) * shape_mask_s
        try:
            k_curve = fourier_curve(cc1, sc1)
            l_curve = fourier_curve(cc2, sc2)
        except ValueError:
            continue
        amin, amax = alpha_range(k_curve, l_curve, 64)
        if amin > min_sep and amax < np.pi - min_sep:
            return k_curve, l_curve
    raise RuntimeError("could not sample a disjoint perturbed pair")


def unknotted_distant_pair():
    """A small perturbed loop near +e0 and a great circle a quarter-turn
    away; they cannot link (the loop bounds a disk clear of the circle)."""
    cc = np.zeros((2, 4))
    sc = np.zeros((2, 4))
    cc[0, 0] = 0.95
    cc[1, 1] = 0.30
    sc[1, 2] = 0.28
    cc[1, 3] = 0.05
    loop = fourier_curve(cc, sc)
    circle = great_subsphere(1, (2, 3), 3)
    return loop, circle


def small_sphere_pair(k: int, l: int):
    """Shrunk copies of the nested great spheres, still linking once."""
    n = k + l + 1
    d = n + 1
    r = 1.2
    center_k = np.zeros(d)
    center_k[k + 1] = 1.0
    frame_k = np.zeros((k + 1, d))
    for i in range(k + 1):
        frame_k[i, i] = 1.0
    center_l = np.zeros(d)
    center_l[0] = 1.0
    frame_l = np.zeros((l + 1, d))
    for i in range(l + 1):
        frame_l[i, k + 1 + i] = 1.0
    return (small_round_sphere(k, center_k, r, frame_k),
            small_round_sphere(l, center_l, r, frame_l))


def great_pair(k: int, l: int):
    n = k + l + 1
    return (great_subsphere(k, tuple(range(k + 1)), n),
            great_subsphere(l, tuple(range(k + 1, n + 1)), n))


def hopf_pair(generic: bool = True):
    if not generic:
        return hopf_fiber((1, 0, 0, 0)), hopf_fiber((0, 0, 1, 0))
    b = np.array([0.3, -0.2, 0.8, 0.4])
    return hopf_fiber((1, 0, 0, 0)), hopf_fiber(b / np.linalg.norm(b))


def clifford_pair(p: int, q: int, phase: float):
    return clifford_torus_curve(p, q), clifford_torus_curve(p, q, phase)


# the pole the lifted circles are projected from, through the oracle's frame
LIFT_POLE = np.array([0.0, 0.0, 0.0, 1.0])


def lifted_circle(center, radius, normal_axis=2):
    """Round circle on S^3 whose stereographic image from LIFT_POLE is the
    circle of R^3 with this center and radius in the coordinate plane
    normal to `normal_axis`, run from the plane's first axis to its second.

    The inverse projection X -> (2 Q X + (|X|^2 - 1) p) / (|X|^2 + 1) takes
    the circle's node on the first axis to a point a, with tangent t (the
    quotient rule on the second axis), and its node on the second axis to
    b.  The S^3 circle lies in the affine plane through a spanned by t and
    b - a; the plane's foot from the origin is its center, and it starts
    at a, heading along t.
    """
    q, p = _projection_frame(LIFT_POLE), LIFT_POLE
    e = np.eye(3)[[i for i in range(3) if i != normal_axis]]
    center = np.asarray(center, dtype=float)

    def lift(x):
        return (2 * q @ x + (x @ x - 1) * p) / (x @ x + 1)

    x = center + radius * e[0]
    a, b = lift(x), lift(center + radius * e[1])
    t = (2 * q @ e[1] + 2 * (x @ e[1]) * (p - a)) / (x @ x + 1)
    plane = np.linalg.qr(np.column_stack([t, b - a]))[0]
    foot = a - plane @ (plane.T @ a)
    e1 = (a - foot) / np.linalg.norm(a - foot)
    e2 = t - (t @ e1) * e1
    frame = np.vstack([e1, e2 / np.linalg.norm(e2)])
    c = np.linalg.norm(foot)
    return small_round_sphere(1, foot / c, np.arccos(c), frame)


def threading_circles():
    """Circles on S^3 projecting to a circle of radius 1/2 about the origin
    in the xy-plane and one of radius 1/2 about (1/2, 0, 0) in the xz-plane.
    Run counterclockwise in their planes, the second pierces the first's
    spanning disk downward at the origin: one negative crossing, Lk = -1."""
    return (lifted_circle([0, 0, 0], 0.5, normal_axis=2),
            lifted_circle([0.5, 0, 0], 0.5, normal_axis=1))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


# ---------------------------------------------------------------------------
# kernel reference: adaptive Gauss-Legendre of the defining integrals
# ---------------------------------------------------------------------------

ABS_TOL = 1e-12
_MAX_PANEL = 4096
_PI_LO = 1.2246467991473532e-16  # float64 tail of pi


@lru_cache(maxsize=64)
def _gl_nodes(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w  # rescaled to [0, 1]


def _eps_from_pi(alpha):
    return (np.pi - alpha) + _PI_LO


def _phi_panel(k, l, alpha, m):
    # phi = eps * int_0^1 sin^k(eps (1-w)) sin^l(eps w) dw  with eps = pi - alpha.
    # This substituted form keeps full relative precision as alpha -> pi.
    w, q = _gl_nodes(m)
    eps_flat = _eps_from_pi(alpha)
    eps = eps_flat[..., None]
    vals = np.sin(eps * (1.0 - w)) ** k * np.sin(eps * w) ** l
    return (vals @ q) * eps_flat


def _conv_panel(k, l, alpha, m):
    w, q = _gl_nodes(m)
    beta = np.pi * w
    vals = np.sin(alpha[..., None] - beta) ** k * np.sin(beta) ** l
    return np.pi * (vals @ q)


def _adaptive(panel, k, l, alpha, start_nodes=48):
    alpha = np.asarray(alpha, dtype=float)
    m = max(16, int(start_nodes))
    prev = panel(k, l, alpha, m)
    while m <= _MAX_PANEL:
        m *= 2
        cur = panel(k, l, alpha, m)
        if float(np.max(np.abs(cur - prev))) < ABS_TOL:
            return cur
        prev = cur
    raise RuntimeError(f"kernel ({k},{l}) quadrature did not converge to {ABS_TOL}")


def phi_numeric(k, l, alpha):
    """phi(k, l, alpha) by adaptive Gauss-Legendre, 1e-12 absolute."""
    return _adaptive(_phi_panel, k, l, alpha)


def conv_numeric(k, l, alpha):
    """convolution(k, l, alpha) by adaptive Gauss-Legendre, 1e-12 absolute."""
    return _adaptive(_conv_panel, k, l, alpha)


# ---------------------------------------------------------------------------
# join-reduced kernel reference: the join parameter integrated numerically
# ---------------------------------------------------------------------------

_REDUCED_SWITCH = np.pi - 1e-3


def reduced_kernel_numeric(k, l, alpha, u_nodes=32):
    """Kernel of the reduced join-degree integrand by quadrature in u.

    -(pi - alpha) <A^k B^l>_u / sin^n(alpha), with A = sin(eta (1 - u)),
    B = sin(eta u) for eta = pi - alpha; the u average uses Gauss-Legendre
    on [0, 1].  Past pi - 1e-3, where the quotient tends to 0/0, the u
    average is phi itself, so the direct kernel's near-pi series replaces it.
    """
    from spherelink.kernels import get_evaluator, stable_sin

    alpha = np.asarray(alpha, dtype=float)
    u, uw = _gl_nodes(u_nodes)
    eta = _eps_from_pi(alpha)
    terms = np.sin(eta[..., None] * (1.0 - u)) ** k * np.sin(eta[..., None] * u) ** l
    g = (terms @ uw) * eta
    near = alpha > _REDUCED_SWITCH
    safe = np.where(near, 0.5 * np.pi, alpha)
    quotient = np.where(near, 0.0, g) / stable_sin(safe) ** (k + l + 1)
    quotient[near] = get_evaluator(k, l).near_pi_ratio(eta[near])
    return -quotient
