"""Independent ground truth: the Gauss linking integral, written on S^n.

Disjoint closed oriented K^k, L^l in S^n (k + l = n - 1) are carried by
stereographic projection, from one pole p clear of both, into R^n, where the
classical Gauss integral counts their linking number:

    Lk = sign / vol S^{n-1} * integral over K x L of
         det(X - Y, dX, dY) / |X - Y|^n,

with ``sign = sign_factor("stereographic", l=l)`` (derived there).  Every
order is covered, zero-dimensional sides (signed points) included.  Nothing
is projected: by multilinearity the integrand is one on the sphere.  Take Q
with det[Q | p] = +1, X = Q^T x / (1 - p.x) and
dX = (Q^T t + X p.t) / (1 - p.x) for a tangent column t.

1. det(X - Y, dX, dY) = (-1)^(k+1) det[(1; X), (0; dX), (1; Y), (0; dY)],
   an (n+1)-square bracket: subtract the first column from (1; Y), expand
   along the top row and move Y - X to the front.
2. Scale each K column by 1 - p.x and each L column by 1 - p.y.  Then
   (1 - p.x)(1; X) = JR(x - p) and (1 - p.x)(0; dX) = JRt + (p.t)(1; X),
   with R = [p | Q]^T, J = diag(-1, 1, ..., 1) and det(JR) = (-1)^(n+1);
   the term (p.t)(1; X), a multiple of the first column, drops out.
3. |X - Y|^n = (2 (1 - x.y))^(n/2) / ((1 - p.x) (1 - p.y))^(n/2).

The sign's (-1)^(l+1) times the (-1)^(k+1) of step 1 and the (-1)^(n+1)
of step 2 is +1, so

    Lk = 1 / vol S^{n-1} * integral over K x L of det(x - p, dx, y - p, dy)
         (1 - p.x)^((l-k-1)/2) (1 - p.y)^((k-l-1)/2) (2 (1 - x.y))^(-n/2).

The oracle stays independent of the routes where it counts: Gauss's kernel,
not phi / sin^n, on a bracket of x - p, not x.

The integral is one more ``terms`` of the engine's level sum,
:func:`spherelink.engine._level_sum`, on the sides' own quadrature nodes and
point-first frames from :func:`spherelink.engine._side_arrays`, each side
block built once and reused across the pair blocks of a refinement step as
on every route (:func:`~spherelink.engine._refined_report`).  Each side
takes the minors of its frames, the pole subtracted from the point column,
on every (1 + dim)-row subset of the n + 1 rows in one
:func:`~spherelink.engine._minor_dets` call, times its weights and its
factor (1 - p.x)^(n/2 - dim - 1); K's also carry 1 / vol S^{n-1} and the
bracket matrix of two identity spans (:func:`~spherelink.engine._span_bracket`,
the signed Laplace permutation), so that a K row dotted with an L row is the
pair's weighted bracket.  A pair's kernel is (2 (1 - c))^(-n/2) of the
chunk's dot products c = x.y.  The oracle's chunks are thus the sphere
routes' own, :func:`~spherelink.engine._pair_level` on the dot products
:func:`~spherelink.engine._level_sum` forms, the kernel contracted against
L's minors before anything is multiplied out, checked by
:func:`~spherelink.engine._check_separation` at the fixed
``engine.MIN_ALPHA`` before any kernel is formed, and the report's min/max
alpha are geodesic, as for every route.  The engine's
:func:`~spherelink.engine._refined_report` refines from the ``GridSpec``
base counts one factor at a time, as for every route, and reports the
levels.
"""

from functools import partial
from itertools import combinations

import numpy as np

from .catalog import OrientedSubmanifold
from .engine import (
    MAX_LEVEL,
    MIN_ALPHA,
    TOL,
    GridSpec,
    LinkingReport,
    _check_pair,
    _check_separation,
    _fresh,
    _Level,
    _minor_dets,
    _pair_level,
    _refined_report,
    _side_arrays,
    _side_blocks,
    _span_bracket,
    _tensor_domain,
)
from .quadrature import probes
from .spheregeom import _vol_sphere_any

__all__ = ["oracle_linking", "find_pole", "pole_candidates", "CURVE_NODES"]

# geodesic clearance (rad) the pole keeps from every node of every level
_POLE_CLEARANCE = 0.05
# default base node count per curve, of the Python API and the CLI alike
CURVE_NODES = 256


def pole_candidates(d: int) -> np.ndarray:
    """Unit pole candidates on S^{d-1}: the signed axes +-e_i, then
    +-(e_i + e_j) / sqrt 2 and +-(e_i - e_j) / sqrt 2 for i < j; 2 d^2 rows."""
    eye = np.eye(d)
    diagonals = [eye[i] + s * eye[j] for i, j in combinations(range(d), 2) for s in (1, -1)]
    half = np.vstack([eye, np.reshape(diagonals, (-1, d)) / np.sqrt(2)])
    return np.vstack([half, -half])


def find_pole(points: np.ndarray) -> np.ndarray:
    """The candidate pole farthest from every row of `points` (unit vectors
    of R^{n+1}); ValueError when none keeps _POLE_CLEARANCE from them all."""
    candidates = pole_candidates(points.shape[1])
    # cos of each one's clearance; fmax skips a NaN point, which the
    # integrand's finiteness check then reports
    nearest = np.fmax.reduce(candidates @ points.T, axis=1)
    best = int(np.argmin(nearest))
    if nearest[best] >= np.cos(_POLE_CLEARANCE):
        raise ValueError("no candidate pole is clear of K and L")
    return candidates[best]


def _gauss_kernel(n: int, c: np.ndarray) -> np.ndarray:
    """(2 (1 - c))^(-n/2), in place on a chunk's dot products c = x.y: the
    Gauss kernel |X - Y|^-n of the images without their conformal factors."""
    c *= -2.0
    c += 2.0
    return np.power(c, -0.5 * n, out=c)


def _gauss_terms(pole, kern, scale, bracket, K, L, counts, sides=_fresh) -> _Level:
    """One level of the Gauss integral, as a `terms` of the engine's level sum:
    kern(c) = (2 (1 - c))^(-n/2) of each chunk's dot products, times the
    bracket det(x - p, dx, y - p, dy) of each side's minors
    (:func:`_gauss_side`), K's carrying `scale` and `bracket`.  `sides`
    builds or reuses each side, as for the routes' terms
    (:func:`~spherelink.engine._kernel_terms`).
    """
    k = K.dim
    pk, mk = sides(0, counts[:k], partial(_gauss_side, pole, K, counts[:k], scale, bracket))
    pl, ml = sides(1, counts[k:], partial(_gauss_side, pole, L, counts[k:], 1.0))
    return _pair_level(kern, pk, mk, pl, ml)


def _gauss_side(pole, m, counts, scale, bracket=None):
    """One side of the Gauss integral: its points and the minors of its
    frames with the pole subtracted from the point column, on every
    (1 + dim)-row subset in `combinations` order, times scale, its weights
    and its factor (1 - p.x)^(n/2 - dim - 1), then times `bracket` when
    given.  ValueError when a point comes within _POLE_CLEARANCE of the pole.
    """
    pts, frames, w = _side_arrays(m, counts)
    if m.dim == 0:  # a view of the catalog's own points, which stay as they are
        frames = frames.copy()
    pts = pts.copy()
    dots = pts @ pole
    nearest = np.fmax.reduce(dots)
    if nearest >= np.cos(_POLE_CLEARANCE):
        closest = float(np.arccos(min(nearest, 1.0)))
        raise ValueError(f"pole passes within {closest:.4f} rad of the manifold")
    frames[:, :, 0] -= pole
    n = m.ambient_n
    minors = _minor_dets(frames, list(combinations(range(n + 1), m.dim + 1)))
    minors *= (scale * w * (1.0 - dots) ** (n / 2 - m.dim - 1))[:, None]
    return pts, minors if bracket is None else minors @ bracket


def oracle_linking(K: OrientedSubmanifold, L: OrientedSubmanifold,
                   grid: GridSpec | None = None, tol: float = TOL,
                   max_level: int = MAX_LEVEL, m: int = CURVE_NODES) -> LinkingReport:
    """Lk(K, L) by the Gauss integral of the stereographic images in R^n,
    integrated in its form on S^n (see the module docstring).

    grid holds the base node counts, as for the engine's evaluators; without
    one, curves take m nodes (GridSpec(curve=m)).  One pole serves every
    level: the candidate farthest from both sides' nodes on the grids of the
    first refinement step, the base and its probes, which every run
    integrates, since a coarse base grid alone can overstate a candidate's
    clearance; they are embedded as that step's side blocks, so each node
    enters the search once.  Each level refuses a node within
    _POLE_CLEARANCE of it, and
    a chunk whose geodesic separation reaches the engine's MIN_ALPHA raises
    DisjointnessError before its kernel is formed.
    """
    k, _, n = _check_pair(K, L)
    counts = (grid or GridSpec(curve=m)).counts(K, L)
    k_blocks, l_blocks = _side_blocks(K, L, counts,
                                      [counts] + probes(_tensor_domain(K, L, counts), counts))
    # each side block embedded once, and only its points kept
    pole = find_pole(np.vstack([_side_arrays(M, b)[0].copy()
                                for M, side in ((K, k_blocks), (L, l_blocks)) for b in side]))
    # the sphere form's signs multiply to +1 (module docstring)
    scale = 1.0 / _vol_sphere_any(n - 1)
    bracket = _span_bracket(*(tuple(map(tuple, np.eye(n + 1))),) * 2, k + 1)
    terms = partial(_gauss_terms, pole, partial(_gauss_kernel, n), scale, bracket)
    return _refined_report(K, L, terms, partial(_check_separation, min_alpha=MIN_ALPHA),
                           counts, tol, max_level, "gauss_oracle")
