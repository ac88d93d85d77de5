"""Independent ground truth: the Gauss linking integral in R^n.

Disjoint closed oriented K^k, L^l in S^n (k + l = n - 1) are carried by
stereographic projection, from one pole clear of both, into R^n, where the
classical Gauss integral counts their linking number:

    Lk = sign / vol S^{n-1} * integral over K x L of
         det(x - y, dx, dy) / |x - y|^n,

with ``sign = sign_factor("stereographic", l=l)`` (derived there) for the
projection frame of :func:`_projection_frame`.  Every order is covered,
zero-dimensional sides (signed points) included.

The integral is one more ``terms`` of the engine's level sum,
:func:`spherelink.engine._level_sum`, on the sides' own quadrature nodes and
point-first frames from :func:`spherelink.engine._side_arrays`, projected
with their tangent columns once per side block, each reused across the pair
blocks of a refinement step as on every route
(:func:`~spherelink.engine._refined_report`).
The numerator splits as
det(x, dx | dy) - (-1)^k det(dx | y, dy): two Laplace expansions into
per-side minors (:func:`~spherelink.engine._laplace_subsets`,
:func:`~spherelink.engine._minor_dets`), stacked so that one matrix product
sums both, with the weights, the sign and 1 / vol S^{n-1} folded into K's
side.  The denominator needs no projected distances: the images X, Y of
x, y satisfy |X - Y|^2 = 2 (1 - x.y) / ((1 - p.x) (1 - p.y)), so each side's
minors carry its conformal factor (1 - p.x)^(n/2) and a pair's kernel is
(2 (1 - c))^(-n/2) of the chunk's dot products c = x.y.  The oracle's chunks
are thus the sphere routes' own, :func:`~spherelink.engine._pair_level` on
:func:`~spherelink.engine._geodesic`, checked by
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
    _laplace_subsets,
    _Level,
    _minor_dets,
    _pair_level,
    _refined_report,
    _side_arrays,
    _side_blocks,
    _tensor_domain,
    sign_factor,
)
from .quadrature import probes
from .spheregeom import _vol_sphere_any

__all__ = ["oracle_linking", "find_pole", "pole_candidates", "stereographic_frames",
           "CURVE_NODES"]

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


def _projection_frame(pole: np.ndarray) -> np.ndarray:
    """Orthonormal columns q_1, ..., q_n orthogonal to the pole, with
    det(q_1, ..., q_n, pole) = +1: the pole and every axis but its largest
    component, orthonormalised in order, the last column negated if need be."""
    axes = np.delete(np.eye(len(pole)), int(np.argmax(np.abs(pole))), axis=1)
    frame = np.linalg.qr(np.column_stack([pole, axes]))[0][:, 1:]
    if np.linalg.det(np.column_stack([frame, pole])) < 0:
        frame[:, -1] *= -1
    return frame


def stereographic_frames(frames: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Point-first frames (N, n+1, 1 + m) on S^n projected from `pole` to R^n.

    With Q = _projection_frame(pole), a point x maps to X = Q^T x / (1 - p.x)
    and a tangent column t to its chain-rule image (Q^T t + X p.t) / (1 - p.x).
    The result is a view of frames laid out column by column with the nodes
    last, as :func:`~spherelink.engine._side_arrays` lays out its input, and
    each product with p or Q is one matmul over every column at once.
    ValueError when a point comes within _POLE_CLEARANCE of the pole.
    """
    cols = frames.transpose(2, 1, 0)
    dots = pole @ cols
    nearest = np.fmax.reduce(dots[0])
    if nearest >= np.cos(_POLE_CLEARANCE):
        closest = float(np.arccos(min(nearest, 1.0)))
        raise ValueError(f"pole passes within {closest:.4f} rad of the manifold")
    den = 1.0 - dots[0]
    out = np.matmul(_projection_frame(pole).T, cols)
    out /= den
    out[1:] += out[0] * (dots[1:, None, :] / den)
    return out.transpose(2, 1, 0)


def _gauss_kernel(n: int, c: np.ndarray) -> np.ndarray:
    """(2 (1 - c))^(-n/2), in place on a chunk's dot products c = x.y: the
    Gauss kernel |X - Y|^-n of the images without their conformal factors."""
    c *= -2.0
    c += 2.0
    return np.power(c, -0.5 * n, out=c)


def _gauss_terms(pole, K, L, counts, sides=_fresh) -> _Level:
    """One level of the Gauss integral, as a `terms` of the engine's level sum.

    The images X, Y of x, y satisfy
    |X - Y|^2 = 2 (1 - x.y) / ((1 - p.x) (1 - p.y)), so each side's minors
    carry its conformal factor (1 - p.x)^(n/2) and a pair's kernel is
    :func:`_gauss_kernel` of the routes' own chunk geometry.  `sides` builds
    or reuses each side, as for the routes' terms
    (:func:`~spherelink.engine._kernel_terms`).
    """
    k, l, n = _check_pair(K, L)
    subs, comps, signs = _laplace_subsets(n, k + 1)      # det(x, dx | dy)
    subs2, comps2, signs2 = _laplace_subsets(n, k)       # det(dx | y, dy)
    scale = sign_factor("stereographic", l=l) / _vol_sphere_any(n - 1)
    # (first column, row subsets, signs) of each side's two minor blocks
    k_parts = ((0, subs, signs), (1, subs2, signs2 * (-1) ** (k + 1)))
    l_parts = ((1, comps, 1.0), (0, comps2, 1.0))
    pk, mk = sides(0, counts[:k], partial(_gauss_side, pole, K, counts[:k], k_parts, scale))
    pl, ml = sides(1, counts[k:], partial(_gauss_side, pole, L, counts[k:], l_parts, 1.0))
    return _pair_level(partial(_gauss_kernel, n), pk, mk, pl, ml)


def _gauss_side(pole, m, counts, parts, scale):
    """One side of the Gauss integral: its points and the minors of its
    projected frames, one block per part, times scale, its weights and its
    conformal factor."""
    pts, frames, w = _side_arrays(m, counts)
    pts = pts.copy()
    frames = stereographic_frames(frames, pole)
    minors = np.hstack([_minor_dets(frames[:, :, c:], subsets) * sg
                        for c, subsets, sg in parts])
    minors *= (scale * w * (1.0 - pts @ pole) ** (m.ambient_n / 2))[:, None]
    return pts, minors


def oracle_linking(K: OrientedSubmanifold, L: OrientedSubmanifold,
                   grid: GridSpec | None = None, tol: float = TOL,
                   max_level: int = MAX_LEVEL, m: int = CURVE_NODES) -> LinkingReport:
    """Lk(K, L) by the Gauss integral of the stereographic images in R^n.

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
    _check_pair(K, L)
    counts = (grid or GridSpec(curve=m)).counts(K, L)
    k_blocks, l_blocks = _side_blocks(K, L, counts,
                                      [counts] + probes(_tensor_domain(K, L, counts), counts))
    # each side block embedded once, and only its points kept
    pole = find_pole(np.vstack([_side_arrays(M, b)[0].copy()
                                for M, side in ((K, k_blocks), (L, l_blocks)) for b in side]))
    return _refined_report(K, L, partial(_gauss_terms, pole),
                           partial(_check_separation, min_alpha=MIN_ALPHA), counts, tol,
                           max_level, "gauss_oracle")
