"""Linking-number evaluators.

Routes to Lk(K, L) for disjoint closed oriented submanifolds K^k, L^l of
S^n with k + l = n - 1:

* ``evaluate_main_theorem`` -- the direct linking integral
  (1 / vol S^n) * integral over K x L of
  phi(k, l, alpha) / sin^n(alpha) * det(x, dx, y, dy);

* ``evaluate_corollary`` -- the antipodally-paired integral with the
  convolution kernel; its value is Lk(K, L) + (-1)^n Lk(K, -L), which
  reduces to Lk(K, L) whenever L's antipodal image does not link K
  (e.g. both manifolds strictly on one side of a great hypersphere);

* ``evaluate_join_degree`` -- the degree of the map carrying the join
  K * L onto S^n along geodesic arcs from x to -y; the degree equals
  -Lk(K, L).  Variant "reduced" is the pullback integrand with the join
  parameter integrated out, which is exactly the main kernel carrying the
  join sign ``sign_factor("join_reduced_net")``; it re-checks that sign, not
  the kernel.  Variant "full" integrates the raw (n+1) x (n+1) determinant
  of the join map and its Jacobian over K x L x [0, 1], the Jacobian taken
  exactly by the chain rule through the catalog's tangent columns; it is
  the independent cross-check of the whole pullback reduction.

Every route is one sum over K x L, and ``_ROUTES`` holds what differs per
CLI method name: label, kernel, sign and separation check.  One chunk loop,
:func:`_level_sum`, sums every level, the Gauss integral of
:mod:`spherelink.oracle` included: per chunk of K rows the route's terms
give the chunk's geometry against every L node, the dot products
c = cos alpha (:func:`_geodesic`), and its geodesic separation range from
their two extremes, which :func:`_check_separation` checks before any
per-pair value is evaluated.  A pair-kernel chunk, the oracle's included
(:func:`_pair_level`), is then one dot product, one kernel pass straight
from c, one minor matmul and one row reduction.  ``CHUNK_BYTES`` bounds
the bytes a chunk holds at once, every per-pair temporary counted (three
doubles a pair for a pair kernel; for join-full its Jacobians, scratch and
minors per node and its per-pair arrays), so memory stays within the
budget per chunk in flight as levels double.  :func:`_refined_report` runs
the one refinement loop, :func:`spherelink.quadrature.refine_until`, which
hands it each step's grids at once, and builds the report.  A level
is a tuple of node counts, one per tensor factor: K's chart factors, then
L's, then the join parameter u for join-full (``GridSpec.counts`` gives
the base); each refinement step integrates the base and one probe per
factor, a periodic factor doubled and an open one extended to its
Gauss-Kronrod rule, and grows only the factors whose probe still moves the
value.  A level's value is the sum of its grid's blocks
(:func:`spherelink.quadrature.blocks`: per factor the base nodes or the
nodes one doubling of a periodic factor added, an open factor's whole
rule, or a Kronrod probe's Gauss nodes and the nodes it adds), each scaled
by its power of 1/2; one evaluator call sums each (K side block, L side
block[, u rule]) pair block once, by :func:`_level_sum`, beside its
marginal along each open factor, and a block of Gauss nodes at Kronrod
weights is the marginal of the base block it reweights, so a probe pays
only for its new nodes: a step of a small (2,3) pair at 16 nodes a factor
costs 6.19 base grids of pair nodes, not 9 with whole Gauss-Legendre
probes, one of two curves 3, not 5, and join-full's on two curves at 10 u
nodes 4.1, not 5.  An open factor at m that grows pays 2 more for the
next base, whose block at Gauss-Legendre 2m no probe has summed.  Each
route's terms fold its prefactor
(sign / vol S^n here, sign / vol S^{n-1} in the oracle) into the K-side
weights, so every level sum is on the scale of Lk: the tolerance, the error
estimate, the level values and the report are one number on one scale, and
nothing is rescaled after refinement.  Pair
kernels expand the bracket determinant into per-manifold minors combined by
a matrix product; join-full forms its chunk's alpha, builds each block's
Jacobians in place, one column at a time, and sums each pair's join-map
determinant against the u rule.  One Laplace recursion,
:func:`_minor_dets`, gives every determinant, the oracle's included.  Each
side's arrays come from :func:`_side_arrays`: the side's ``batch`` writes
its point and tangent columns into one array laid out column by column
with the nodes last, which :func:`_minor_dets` reads without a copy, and a
pair route folds its signs, weights and prefactor into the minors in place,
keeping only points and minors.  :func:`_refined_report` sums each
refinement step's new pair blocks in one pass and keeps each side block
from the first of them that reads it to the last, so a probe, which
refines one factor and so changes one side, reuses the other: a step of f
factors builds each distinct side block once, 2 + f of them, not
2 (1 + f) sides, and no side block outlives its step.  A dimension-0 side
enters as its signed points with +-1 weights.

Every evaluator shares the same deterministic quadrature contract (see
:mod:`spherelink.quadrature`): results are bit-identical for any worker
count.
"""

import threading
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import combinations
from math import comb, fsum, ldexp, prod
from typing import Callable

import numpy as np

from . import kernels
from .catalog import OrientedSubmanifold, _frame_array, _int
from .quadrature import (
    ChartDim,
    GaussNodes,
    KronrodNodes,
    blocks,
    part_size,
    product_rule,
    refine_until,
    run_chunked,
    tree_sum,
    tree_sum_axis,
    worker_pool,
)
from .spheregeom import _vol_sphere_any, alpha_extremes

__all__ = [
    "DisjointnessError",
    "GridSpec",
    "LinkingReport",
    "sign_factor",
    "evaluate_main_theorem",
    "evaluate_corollary",
    "evaluate_join_degree",
    "round_to_linking",
]

# bytes of per-pair temporaries one chunk of K rows may hold at once, every
# one of them counted (`_pair_level`, `_join_pair_bytes`)
CHUNK_BYTES = 1 << 22
# distance max alpha keeps from pi where -L matters (corollary, join-full)
_ANTIPODAL_MARGIN = 0.01
# run defaults of every evaluator and the oracle: the refinement tolerance on
# the Lk scale, the doublings allowed per factor of the base grid (probes go
# one further, plus one node on an open factor), the least geodesic
# separation (radians) the routes accept, fixed for the oracle
TOL = 1e-9
MAX_LEVEL = 4
MIN_ALPHA = 0.01
# the join parameter u's factor, after K's and L's chart factors
_U = ChartDim(0.0, 1.0, False)


class DisjointnessError(ValueError):
    """K and L (or an antipodal image) approach closer than the threshold."""


def sign_factor(rule: str, k: int | None = None, l: int | None = None,
                n: int | None = None) -> int:
    """Single home for every orientation/reorder sign used by the evaluators.

    rule:
      * ``block_swap``          -- swapping the (x, dx) and (y, dy) column
        groups of the bracket: (-1)^((k+1)(l+1)).
      * ``u_column_move``       -- moving the u-derivative column from last
        position to just after the first column: (-1)^(n-1).
      * ``y_column_move``       -- moving the second base column across the
        k tangent columns of the first factor: (-1)^k.
      * ``join_reduced_net``    -- product of the two moves above with the
        (-1)^n from writing the reduced integrand over the bracket: always -1.
      * ``antipodal_transfer``  -- negating base and tangent columns of the
        second factor inside the bracket: (-1)^(l+1).
      * ``corollary_prefactor`` -- the (-1)^k in front of the convolution
        integral.
      * ``stereographic``       -- the sign of the Gauss integral in R^n of
        :mod:`spherelink.oracle`, (1 / vol S^{n-1}) det(x - y, dx, dy) /
        |x - y|^n after stereographic projection from a pole p through a
        frame Q with det(Q, p) = +1: (-1)^(l+1).  Both integrals are
        invariant under isotopies of K and L in S^n minus p, and the
        dilations x -> r x of R^n (r -> 0) shrink the pair towards -p
        while leaving the Gauss integral unchanged, so comparing the two
        integrands near -p fixes the sign.  There phi(alpha) / vol S^n
        tends to phi(0) / vol S^n = 1 / vol S^{n-1}, sin alpha to alpha =
        |y - x| = 2 |Y - X| (projected points X, Y) and the bracket
        det(x, dx, y - x, dy) to det(-p, Q A), where A = Q^T (dx, y - x, dy)
        = 2 (dX, Y - X, dY) to first order.  det(-p, Q) = (-1)^(n+1)
        det(Q, p), and moving Y - X to the front of A across the k columns
        of dX gives (-1)^(k+1) det(X - Y, dX, dY).  So the sphere integrand
        tends to (-1)^(n+k) = (-1)^(l+1) times the Gauss one (n = k + l + 1).
    """
    if rule == "block_swap":
        return (-1) ** ((k + 1) * (l + 1))
    if rule == "u_column_move":
        return (-1) ** (n - 1)
    if rule == "y_column_move":
        return (-1) ** k
    if rule == "join_reduced_net":
        return -1
    if rule == "antipodal_transfer":
        return (-1) ** (l + 1)
    if rule == "corollary_prefactor":
        return (-1) ** k
    if rule == "stereographic":
        return (-1) ** (l + 1)
    raise ValueError(f"unknown sign rule {rule!r}")


@dataclass(frozen=True)
class _Route:
    """What one CLI method needs: report label, kernel, sign, separation."""

    label: str
    # (evaluator, n) -> kern(cos_alpha), which overwrites its argument with
    # the values it returns, resolved per call so that wrappers installed on
    # KernelEvaluator are seen; None for join-full
    kernel: Callable | None
    sign_rule: str | None
    antipodal: bool  # max alpha must also keep a margin from pi

    def prefactor(self, k: int, n: int) -> float:
        sign = sign_factor(self.sign_rule, k=k) if self.sign_rule else 1
        return sign / _vol_sphere_any(n)


_ROUTES = {
    "main": _Route("main_theorem", lambda ev, n: lambda c: ev.kernel_ratio(None, c, out=c),
                   None, False),
    "corollary": _Route("corollary",
                        lambda ev, n: lambda c: ev.convolution_fast(None, c, sin_power=n, out=c),
                        "corollary_prefactor", True),
    "join-reduced": _Route("join_degree_reduced",
                           lambda ev, n: lambda c: ev.kernel_ratio(None, c, out=c),
                           "join_reduced_net", False),
    "join-full": _Route("join_degree_full", None, None, True),
}


def _check_separation(amin: float, amax: float, min_alpha: float, antipodal: bool = False):
    """Raise DisjointnessError unless the alpha range clears min_alpha and,
    for an antipodal route, keeps max alpha from pi; a NaN extreme clears
    none."""
    if not amin > min_alpha:
        raise DisjointnessError(
            f"min geodesic separation {amin:.4f} rad <= threshold {min_alpha}; "
            "K and L are not safely disjoint"
        )
    if antipodal and not amax < np.pi - _ANTIPODAL_MARGIN:
        raise DisjointnessError(
            f"max geodesic separation {amax:.4f} rad reaches within "
            f"{_ANTIPODAL_MARGIN} of pi: K is not safely disjoint from -L"
        )


@dataclass(frozen=True)
class GridSpec:
    """Base node counts per chart dimension.

    `curve` applies to 1-dimensional manifolds, `surface` to each chart
    dimension of manifolds of dimension >= 2, `u` to the join parameter
    (read by the full join-degree variant only).  `k_nodes` / `l_nodes`
    override the per-dimension count for one side.  Every count given must
    be an integer >= 1 (catalog's `_int`: 3.0 is 3; 16.5, a bool or a
    string is not), stored as an int; ValueError names the first that is
    not.
    """

    curve: int = 64
    surface: int = 32
    u: int = 32
    k_nodes: int | None = None
    l_nodes: int | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is None:
                continue
            try:
                count = _int(value)
            except ValueError:
                count = 0
            if count < 1:
                raise ValueError(f"GridSpec.{name} must be an integer node count >= 1, "
                                 f"got {value!r}")
            object.__setattr__(self, name, count)

    def nodes_for(self, m: OrientedSubmanifold, side: str) -> int:
        override = self.k_nodes if side == "k" else self.l_nodes
        if override is not None:
            return override
        return self.curve if m.dim == 1 else self.surface

    def counts(self, K: OrientedSubmanifold, L: OrientedSubmanifold,
               u: bool = False) -> tuple[int, ...]:
        """Base node count of every tensor factor: K's chart factors, then
        L's, then the join parameter's when `u`."""
        return ((self.nodes_for(K, "k"),) * K.dim + (self.nodes_for(L, "l"),) * L.dim
                + ((self.u,) if u else ()))


@dataclass(frozen=True)
class LinkingReport:
    """Result of one evaluator run.

    raw_value is the computed integral (for the join variants: the degree
    of the join map, whose negative is the linking number).  residual is
    the distance from raw_value to the nearest integer; `accepted` is the
    verdict of :func:`round_to_linking` at default thresholds (see
    :meth:`rounded`) and also requires `converged`.  min/max alpha are the
    separation extremes seen on every level's quadrature grid, geodesic
    angles for every method, the oracle included.  level_values holds the
    value of every level sum taken, in the order taken, base grid first,
    beside node_counts, each grid's node count; each refinement step takes
    its base grid G and one probe G_i per factor, a periodic factor doubled
    and an open one at m nodes extended to its Gauss-Kronrod rule of
    2m + 1, and levels_used counts the steps that grew the base.
    raw_value, error_estimate and level_values are on the scale of Lk, the
    scale the refinement tolerance is compared on: with Delta_i = v(G_i) - v(G) on the last step,
    error_estimate is sum |Delta_i| and raw_value is v(G) + sum Delta_i.
    """

    raw_value: float
    nearest_integer: int
    residual: float
    error_estimate: float
    min_alpha: float
    max_alpha: float
    method: str
    converged: bool
    accepted: bool
    levels_used: int = 0
    node_counts: tuple[int, ...] = ()
    level_values: tuple[float, ...] = ()

    @property
    def linking_number(self) -> int:
        """Nearest integer to the linking number this run estimates."""
        if self.method.startswith("join_degree"):
            return -self.nearest_integer
        return self.nearest_integer

    def rounded(self, **thresholds) -> "LinkingReport":
        """This report with raw_value re-rounded at `thresholds` (keyword
        arguments of :func:`round_to_linking`); accepted still requires
        converged."""
        return replace(self, **_verdict(self.raw_value, self.error_estimate,
                                        self.converged, **thresholds))


def round_to_linking(raw: float, error_estimate: float,
                     residual_cap: float = 0.25,
                     error_mult: float = 10.0,
                     error_floor: float = 1e-6):
    """Round an integral value to an integer linking number.

    Returns (nearest, residual, accepted): accepted only when the residual
    is both small in absolute terms (<= residual_cap) and consistent with
    the quadrature error estimate (<= error_mult * error + error_floor).
    """
    nearest = int(round(raw))
    residual = abs(raw - nearest)
    accepted = residual <= residual_cap and residual <= error_mult * error_estimate + error_floor
    return nearest, residual, accepted


def _verdict(raw, error_estimate, converged, **thresholds) -> dict:
    """A report's rounding fields: accepted only when refinement converged."""
    nearest, residual, accepted = round_to_linking(raw, error_estimate, **thresholds)
    return dict(nearest_integer=nearest, residual=residual, accepted=accepted and converged)


# ---------------------------------------------------------------------------
# join map
# ---------------------------------------------------------------------------

def _join_batch(x, tx, y, ty, c, alpha, u) -> np.ndarray:
    """Geodesic-sweep map from x toward -y with its exact Jacobian columns.

    x: (r, d) points with tangent columns tx (r, d, k); y: (t, d) with ty
    (t, d, l); c = x.y = cos alpha and alpha, (r, t); u: (nu,) fractions of
    the arc.  Returns (r, t, nu, d, k + l + 2), a view of memory laid out
    column by column with the nodes last, which :func:`_minor_dets` reads
    without a copy: the image f = x cos w - v sin w, where s = sin alpha,
    v = (y - c x) / s and w = u (pi - alpha), then the derivative of f
    along each column of tx, each column of ty and along u, by the chain
    rule: c' = x'.y + x.y', alpha' = -c'/s, s' = c alpha',
    w' = u' (pi - alpha) - u alpha', v' = (y' - c' x - c x')/s - v s'/s and
    f' = x' cos w - x sin w w' - v' sin w - v cos w w'.  Each column is
    written into the result in place, one at a time, through one
    (d, r, t, nu) scratch array, so the call holds the Jacobian, that
    scratch and ten arrays of one double per node (`_join_pair_bytes`).
    """
    (r, d, k), (t, l) = tx.shape, ty.shape[::2]
    # c' per pair along each column: tx's, ty's, then u's (zero)
    dc = np.concatenate([np.einsum("td,rdj->rtj", y, tx), np.einsum("rd,tdj->rtj", x, ty),
                         np.zeros((r, t, 1))], axis=2).transpose(2, 0, 1)[..., None]
    # per pair (r, t, 1), per node (r, t, nu); coordinates lead
    c = c[:, :, None]
    s = np.sin(alpha)[:, :, None]
    eta = np.pi - alpha[:, :, None]
    w = u * eta
    cw, sw = np.cos(w), np.sin(w)
    x = x.T[:, :, None, None]
    v = (y.T[:, None, :, None] - c * x) / s
    # f' = x' (cos w + c sin w / s) - y' sin w / s + x a + v b, with
    # a = sin w c' / s - sin w w' and b = c sin w alpha' / s - cos w w'
    sw_s = sw / s
    swc_s = sw * c / s
    cw_swc = cw + swc_s
    out = np.empty((k + l + 2, d, r, t, u.size))
    tmp = np.empty((d, r, t, u.size))
    np.multiply(x, cw, out=out[0])
    out[0] -= np.multiply(v, sw, out=tmp)
    for j, (col, dcj) in enumerate(zip(out[1:], dc)):
        dalpha = -dcj / s
        dw = -u * dalpha
        if j == k + l:
            dw += eta
        np.multiply(x, sw_s * dcj - sw * dw, out=col)
        col += np.multiply(v, swc_s * dalpha - cw * dw, out=tmp)
        if j < k:
            col += np.multiply(tx[:, :, j].T[:, :, None, None], cw_swc, out=tmp)
        elif j < k + l:
            col -= np.multiply(ty[:, :, j - k].T[:, None, :, None], sw_s, out=tmp)
    return out.transpose(2, 3, 4, 1, 0)


def _join_pair_bytes(d: int, nu: int) -> int:
    """Bytes a join-full chunk holds at once per (K node, L node) pair on
    S^(d-1) at nu u nodes, every temporary counted.

    Per pair, 3 d + 5 doubles: the dot product, the row values, c, alpha,
    s, pi - alpha, c' (d - 1 columns) and v = (y - c x) / s with its two
    temporaries.  Per node, the d x d Jacobian and the larger of what
    building it and taking its determinant hold beside it: `_join_batch`'s
    scratch column (d) and ten arrays (w, cos w, sin w, sin w / s,
    c sin w / s and cos w + c sin w / s, then a column's w' with its two
    products and their difference), or `_minor_dets`'s minors of two sizes,
    at most comb(d + 1, (d + 1) // 2) together, and one term.
    """
    node = d * d + max(d + 10, comb(d + 1, (d + 1) // 2) + 1)
    return 8 * (3 * d + 5 + nu * node)


# ---------------------------------------------------------------------------
# shared pair machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _laplace_subsets(d: int, m: int):
    """Row subsets, complements and signs for expansion by the first m columns.

    A d x d determinant whose first m columns are a frame A and whose last
    d - m are a frame B is the sum over the m-row subsets S of
    signs[S] det A[S] det B[comps[S]].  With A = (x, dx_1, ..., dx_k) and
    B = (y, dy_1, ..., dy_l), as `_side_arrays` lays the frames out, that is
    the bracket det(x, dx, y, dy) every pair kernel integrates.  Its column
    order carries the sphere's point-first orientation: a tangent basis
    A_1, ..., A_n at p is positive exactly when (p, A_1, ..., A_n) is a
    positive basis of R^{n+1}.  That convention is normative for every
    orientation decision in the package.
    """
    subs = list(combinations(range(d), m))
    base = m * (m - 1) // 2
    signs = np.array([(-1.0) ** (sum(s) - base) for s in subs])
    comps = [tuple(r for r in range(d) if r not in s) for s in subs]
    return subs, comps, signs


@lru_cache(maxsize=64)
def _laplace_plan(d: int, subsets: tuple):
    """Expansion terms of every minor `_minor_dets` forms on d-row frames.

    Per size j >= 2, one list per j-row minor of the first j columns (all
    of them below the requested size m, the requested subsets at m) of
    (row, index of the (j-1)-row minor without it) along column j, last
    row first, so the signs alternate from +; then the requested subsets'
    indices at size m, a slice when already in order so that none is copied,
    except at m = 1, where the minors are the frames' own entries and are
    copied, so that a caller scaling them in place leaves its frames be.
    """
    steps, lower = [], {(r,): r for r in range(d)}
    for j in range(2, len(subsets[0]) + 1):
        upper = subsets if j == len(subsets[0]) else list(combinations(range(d), j))
        steps.append([[(s[i], lower[s[:i] + s[i + 1:]]) for i in reversed(range(j))]
                      for s in upper])
        lower = {s: i for i, s in enumerate(upper)}
    final = [lower[s] for s in subsets]
    return steps, slice(None) if steps and final == list(range(len(final))) else final


def _minor_dets(frames: np.ndarray, subsets) -> np.ndarray:
    """det of the rows `subset` of each (d, m) frame; shape (N, len(subsets)).

    One Laplace recursion for every size: for j = 1 ... m the j-row minors
    of each frame's first j columns are expanded along column j from the
    (j-1)-row minors, so each minor of each size is formed exactly once.
    The columns are read from one contiguous (m, d, N) transpose, which is
    a view when the frames were laid out column by column, as
    :func:`_side_arrays` and :func:`_join_batch` lay them out, and a copy
    otherwise, and the terms accumulate in place.  The result is a
    transposed view of the (len(subsets), N) minors, which a caller may
    scale in place.  This is the inner loop of the bracket expansion and
    the join-full determinant (m = d, the whole frame).
    """
    n, d, _ = frames.shape
    if not subsets[0]:  # the one minor of no rows: det of 0 x 0 is 1
        return np.ones((n, 1))
    steps, final = _laplace_plan(d, tuple(subsets))
    cols = np.ascontiguousarray(frames.transpose(2, 1, 0))
    prev = cols[0]
    term = np.empty(n)
    for col, step in zip(cols[1:], steps):
        cur = np.empty((len(step), n))
        for acc, ((r, p), *rest) in zip(cur, step):
            np.multiply(col[r], prev[p], out=acc)
            for i, (r, p) in enumerate(rest):
                np.multiply(col[r], prev[p], out=term)
                (np.add if i % 2 else np.subtract)(acc, term, out=acc)
        prev = cur
    return prev[final].T


def _check_pair(K: OrientedSubmanifold, L: OrientedSubmanifold):
    if K.ambient_n != L.ambient_n:
        raise ValueError("K and L must live in the same sphere")
    n = K.ambient_n
    if K.dim + L.dim != n - 1:
        raise ValueError(
            f"dim K + dim L = {K.dim + L.dim} but must equal n - 1 = {n - 1} "
            f"(complementary-plus-one dimensions)"
        )
    return K.dim, L.dim, n


def _side_arrays(m: OrientedSubmanifold, counts: tuple):
    """Points, base+tangent frames and weights for one side, at one node
    count, or one increment (a side block), per chart factor.

    The frames (N, n+1, 1 + dim) are a view of one array laid out column by
    column with the nodes last, which the side's `batch` writes in place, so
    :func:`_minor_dets` reads them without a copy; the points are a view of
    its first column.  A dimension-0 side is its signed points, with +-1
    weights.
    """
    if m.dim == 0:
        pts, signs = m.signed_points()
        return pts, pts[:, :, None], signs
    coords, w = product_rule(m.chart_domain, counts)
    frames = _frame_array(m, len(w))
    pts, _ = m.batch(coords, out=frames)
    return pts, frames.transpose(2, 1, 0), w


def _fresh(which, counts, build):
    """The `sides` of a lone level sum: every side is built anew."""
    return build()


def _gauss_factor(block):
    """The factor of a pair block that holds a Kronrod rule's Gauss nodes
    (:class:`~spherelink.quadrature.GaussNodes`), or None."""
    return next((i for i, p in enumerate(block) if isinstance(p, GaussNodes)), None)


def _marginal(values, shape, axis) -> np.ndarray:
    """Tree sums of `values`, laid out lexicographically in `shape`, over
    every axis but `axis`: one sum per node of that factor."""
    v = np.moveaxis(np.reshape(values, shape), axis, 0)
    return tree_sum_axis(v.reshape(shape[axis], -1), axis=1)


# one quadrature level of a route, as `_level_sum` sums it
_Level = namedtuple("_Level", "geometry values pair_bytes shape nodes")


def _geodesic(pk, pl):
    """Chunk geometry of the sphere routes: the dot products c = cos alpha,
    in the thread's scratch array "dots", with the alpha range taken from
    their two extremes."""
    def geometry(s, e, take):
        dots = np.matmul(pk[s:e], pl.T, out=take("dots", (e - s, len(pl))))
        return (dots,), alpha_extremes(dots)

    return geometry


def _take(scratch, name, shape) -> np.ndarray:
    """This thread's array `name` of `scratch` (a threading.local), grown
    to at least prod(shape) doubles when it is smaller and viewed as
    `shape`: a chunk's pair-sized arrays reuse the memory of the thread's
    last chunk, which the allocator would otherwise hand back to the system
    and fault in again, chunk after chunk."""
    size, buf = prod(shape), getattr(scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(scratch, name, buf)
    return buf[:size].reshape(shape)


def _level_sum(K, L, counts, terms, check, marginals=None, scratch=None):
    """One quadrature level of a route: a chunked sum over K x L.

    counts holds one node count, or one increment, per tensor factor: a
    whole grid, or one pair block of it (:func:`_refined_report`).
    terms(K, L, counts) gives the level's `_Level`: geometry(s, e, take)
    returns K rows s:e's geometry against every L node and its separation
    range (min, max), values(s, e, take, *geometry) their weighted per-pair
    values and, for join-full, the chunk's sum per u node (else None), each
    taking its pair-sized arrays from take(name, shape), the calling
    thread's arrays of `scratch` (a threading.local, one per evaluator call,
    else per level; see :func:`_take`), pair_bytes the bytes of every
    temporary a chunk holds at once per (K node, L node) pair, shape
    (K nodes, L nodes) and nodes the level's quadrature node count.  A
    chunk holds as many K rows as keep their temporaries within
    CHUNK_BYTES.  check(min, max) runs on each chunk's separation range
    before its values are evaluated, and every K row is tree-summed whole,
    so the value does not depend on the chunking.  Returns (value, nodes,
    min separation, max separation).  For each factor that is a key of the
    dict `marginals`, the level's marginal along it, the sum of its weighted
    values at each node of that factor, is taken too and stored there: a K
    factor's from the row sums, an L factor's from each chunk's column sums,
    added in row order, and u's from its sums per u node, both tree-summed
    in chunk order.
    """
    level = terms(K, L, counts)
    k, l = K.dim, L.dim
    sizes = [part_size(p) for p in counts]
    nk, nl = level.shape
    cs = max(1, CHUNK_BYTES // (level.pair_bytes * nl))
    nchunks = (nk + cs - 1) // cs
    rows = np.empty(nk)
    lo = np.full(nchunks, np.inf)
    hi = -lo
    marginals = {} if marginals is None else marginals
    take = partial(_take, threading.local() if scratch is None else scratch)
    # per chunk, the marginals along L's factors and u
    cols = {i: np.empty((nchunks, sizes[i])) for i in marginals if i >= k}

    def work(s, e):
        geometry, (smin, smax) = level.geometry(s, e, take)
        check(smin, smax)
        c = s // cs
        lo[c], hi[c] = smin, smax
        vals, per_u = level.values(s, e, take, *geometry)
        rows[s:e] = tree_sum_axis(vals, axis=1)
        if any(i < k + l for i in cols):
            # in row order: a pairwise tree across rows runs at a third of
            # the speed, and the chunk's rows depend only on its level
            col = np.add.reduce(vals, axis=0)
        for i, got in cols.items():
            got[c] = per_u if i == k + l else _marginal(col, sizes[k:k + l], i - k)

    run_chunked(nk, work, workers=None, chunk=cs)
    smin, smax = float(lo.min()), float(hi.max())
    if not np.isfinite(rows).all():
        raise ValueError(f"integrand is not finite on the level with {nk} x {nl} "
                         f"K x L nodes (min separation {smin:.3g})")
    for i in marginals:
        marginals[i] = _marginal(rows, sizes[:k], i) if i < k else tree_sum_axis(cols[i], axis=0)
    return tree_sum(rows), level.nodes, smin, smax


def _kernel_terms(kern, scale, K, L, counts, sides=_fresh):
    """Pair-kernel values: scale times kern(cos_alpha) times the bracket
    det(x, dx, y, dy), in the point-first column order of `_laplace_subsets`.

    The bracket determinant is expanded into per-side minors once per side
    (:func:`_minor_side`), with each side's quadrature weights folded in,
    and the route's prefactor `scale` with K's; each (s, t) pair then costs
    one multiply-add through a matrix product.  ``sides(which, block,
    build)`` returns side `which`'s arrays (0 for K, 1 for L) at its side
    block, built by build() or kept from another pair block of the step
    (:func:`_refined_report`).
    """
    k = K.dim
    subs, comps, signs = _laplace_subsets(K.ambient_n + 1, k + 1)
    pk, mk = sides(0, counts[:k], partial(_minor_side, K, counts[:k], subs, scale, signs))
    pl, ml = sides(1, counts[k:], partial(_minor_side, L, counts[k:], comps, 1.0))
    return _pair_level(kern, pk, mk, pl, ml)


def _minor_side(m, counts, subsets, scale, signs=None):
    """One side of a pair kernel: its points and the minors of its frames on
    `subsets`, times `signs` and then scale times its weights, in place.
    Only the points (copied out) and the minors are kept, not the frames."""
    pts, frames, w = _side_arrays(m, counts)
    minors = _minor_dets(frames, subsets)
    if signs is not None:
        minors *= signs
    minors *= (scale * w)[:, None]
    return pts.copy(), minors


def _pair_level(kern, pk, mk, pl, ml) -> _Level:
    """One level of a pair kernel: per chunk of K rows, kern of the chunk's
    dot products c = cos alpha times the minor product mk @ ml.T, which
    hold three doubles a pair: c, the kernel's values (c itself, for the
    routes' kernels) and the product, in the scratch array "minors"."""
    def values(s, e, take, dots):
        vals = kern(dots)
        vals *= np.matmul(mk[s:e], ml.T, out=take("minors", vals.shape))
        return vals, None

    return _Level(_geodesic(pk, pl), values, 24, (len(pk), len(pl)), len(mk) * len(ml))


def _join_terms(scale, K, L, counts, sides=_fresh):
    """join-full values: the u-rule-weighted det of the join map's Jacobian.

    The route's prefactor `scale` is folded into K's weights, and `sides`
    builds or reuses each side's points, frames and weights.  The join map
    reads cos alpha and alpha, which it forms from each block's dot
    products.  A chunk holds `_join_pair_bytes` per pair: per node of
    K x L x [0, 1], the d x d Jacobian, which `_join_batch` builds in place
    and which is freed once its determinant is taken, with the scratch and
    minors beside it.  When one K row alone holds more than CHUNK_BYTES,
    its L nodes are taken in blocks.
    """
    k, l = K.dim, L.dim
    pk, fk, wk = sides(0, counts[:k], partial(_join_side, K, counts[:k], scale))
    pl, fl, wl = sides(1, counts[k:k + l], partial(_join_side, L, counts[k:k + l], 1.0))
    (nu,) = counts[k + l:]
    u, wu = _U.increment(nu)
    nt, d = fl.shape[:2]
    whole = [tuple(range(d))]
    pair_bytes = _join_pair_bytes(d, u.size)

    def values(s, e, take, dots):
        cols = max(1, CHUNK_BYTES // ((e - s) * pair_bytes))
        vals, per_u = np.empty((e - s, nt)), []
        for t0 in range(0, nt, cols):
            t1 = min(t0 + cols, nt)
            c = np.clip(dots[:, t0:t1], -1.0, 1.0)
            # no name holds the Jacobian: it is freed once its determinants are taken
            dets = _minor_dets(_join_batch(fk[s:e, :, 0], fk[s:e, :, 1:], fl[t0:t1, :, 0],
                                           fl[t0:t1, :, 1:], c, np.arccos(c), u)
                               .reshape(-1, d, d), whole).reshape(e - s, t1 - t0, u.size)
            dets *= wu
            vals[:, t0:t1] = tree_sum_axis(dets, axis=2) * wl[t0:t1]
            dets *= wl[t0:t1, None]
            per_u.append(tree_sum_axis(dets, axis=1))
        vals *= wk[s:e, None]
        return vals, tree_sum_axis(tree_sum_axis(per_u, axis=0) * wk[s:e, None], axis=0)

    return _Level(_geodesic(pk, pl), values, pair_bytes, (len(pk), nt), len(pk) * nt * u.size)


def _join_side(m, counts, scale):
    """One side of join-full: its points (copied out), frames and weights
    times scale."""
    pts, frames, w = _side_arrays(m, counts)
    return pts.copy(), frames, scale * w


def _tensor_domain(K, L, grid0) -> tuple:
    """The factors of a route's grids: K's chart factors, L's, then u's when
    grid0 counts one more."""
    return K.chart_domain + L.chart_domain + (_U,) * (len(grid0) - K.dim - L.dim)


def _side_blocks(K, L, grid0, grids):
    """K's and L's side blocks of the pair blocks of `grids`, each once, in
    order of first appearance."""
    k, l = K.dim, L.dim
    pairs = dict.fromkeys(b for g in grids for b, _ in blocks(_tensor_domain(K, L, grid0), grid0, g)
                          if _gauss_factor(b) is None)
    return dict.fromkeys(b[:k] for b in pairs), dict.fromkeys(b[k:k + l] for b in pairs)


def _refined_report(K, L, terms, check, grid0, tol, max_level, method) -> LinkingReport:
    """Level sums of one route refined from the base counts grid0 to tol,
    as a report.

    Each refinement step's grids are summed in one pass.  A grid's level
    sum is the sum of its blocks (:func:`blocks`), each scaled by its power
    of 1/2, and each pair block, a K side block times an L side block (times
    the u rule), is summed by :func:`_level_sum` once per call, with its
    marginal along every open factor unless it holds a Kronrod probe's new
    nodes, which no base grid does; a block of a Kronrod probe's Gauss nodes
    is the marginal of its base block reweighted node by node
    (:meth:`~spherelink.quadrature.GaussNodes.ratio`), summed by fsum.  A
    probe pays only for its new nodes.  The step's new pair blocks are
    summed in order of first appearance, and each side block is built at
    the first of them that reads it and dropped at the last, by a count of
    the pair blocks still to read it, so no side block outlives its step.
    One threading.local serves every worker thread's chunk arrays
    (:func:`_take`), and the call's run_chunked calls share one
    :func:`~spherelink.quadrature.worker_pool`.  The terms put every level
    sum on the Lk scale, so the report takes the refinement's value, error
    and level values as they are, with each grid's node count beside its
    value in the order taken; its separation range spans every chunk of
    every block.
    """
    domain = _tensor_domain(K, L, grid0)
    k, l = K.dim, L.dim
    opened = tuple(i for i, cd in enumerate(domain) if not cd.periodic)
    scratch = threading.local()
    sums, margins, nodes = {}, {}, []

    def block_sum(b):
        """(value, nodes) of one pair block: its sum or, for a block of
        Gauss nodes at Kronrod weights, the marginal of the same nodes at
        Gauss weights, reweighted."""
        i = _gauss_factor(b)
        if i is None:
            return sums[b][:2]
        gauss = b[:i] + (b[i].m,) + b[i + 1:]
        return fsum(margins[gauss][i] * b[i].ratio()), sums[gauss][1]

    def level_sums(grids):
        parts = [blocks(domain, grid0, g) for g in grids]
        todo = [b for b in dict.fromkeys(b for p in parts for b, _ in p)
                if b not in sums and _gauss_factor(b) is None]
        uses = (Counter(b[:k] for b in todo), Counter(b[k:k + l] for b in todo))
        kept = ({}, {})

        def sides(which, block, build):
            if block not in kept[which]:
                kept[which][block] = build()
            uses[which][block] -= 1
            return kept[which][block] if uses[which][block] else kept[which].pop(block)

        step_terms = partial(terms, sides=sides)
        for b in todo:
            # a block of new Kronrod nodes is in no base grid, so no probe
            # reweights its marginals
            kronrod = any(isinstance(p, KronrodNodes) for p in b)
            margins[b] = dict.fromkeys(() if kronrod else opened)
            sums[b] = _level_sum(K, L, b, step_terms, check, margins[b], scratch)
        values = []
        for p in parts:
            got = [block_sum(b) for b, _ in p]
            nodes.append(sum(n for _, n in got))
            values.append(fsum(ldexp(v, -e) for (v, _), (_, e) in zip(got, p)))
        return values

    with worker_pool():
        est = refine_until(grid0, level_sums, tol, max_level, domain)
    _, _, lows, highs = zip(*sums.values())
    return LinkingReport(
        raw_value=est.value, error_estimate=est.error_estimate,
        **_verdict(est.value, est.error_estimate, est.converged),
        min_alpha=min(lows), max_alpha=max(highs), method=method, converged=est.converged,
        levels_used=est.levels_used, node_counts=tuple(nodes), level_values=est.level_values)


def _evaluate(method, K, L, grid, tol, max_level, min_alpha) -> LinkingReport:
    """Integral of one `_ROUTES` entry over K x L, refined to tol."""
    k, l, n = _check_pair(K, L)
    route = _ROUTES[method]
    scale = route.prefactor(k, n)
    if route.kernel is None:
        terms = partial(_join_terms, scale)
    else:
        terms = partial(_kernel_terms, route.kernel(kernels.get_evaluator(k, l), n), scale)
    check = partial(_check_separation, min_alpha=min_alpha, antipodal=route.antipodal)
    counts = (grid or GridSpec()).counts(K, L, u=route.kernel is None)
    return _refined_report(K, L, terms, check, counts, tol, max_level, route.label)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def evaluate_main_theorem(K: OrientedSubmanifold, L: OrientedSubmanifold,
                          grid: GridSpec | None = None, tol: float = TOL,
                          max_level: int = MAX_LEVEL,
                          min_alpha: float = MIN_ALPHA) -> LinkingReport:
    """Linking number by the direct geodesic-kernel integral over K x L."""
    return _evaluate("main", K, L, grid, tol, max_level, min_alpha)


def evaluate_corollary(K: OrientedSubmanifold, L: OrientedSubmanifold,
                       grid: GridSpec | None = None, tol: float = TOL,
                       max_level: int = MAX_LEVEL,
                       min_alpha: float = MIN_ALPHA) -> LinkingReport:
    """Convolution-kernel integral; equals Lk(K, L) + (-1)^n Lk(K, -L).

    Requires K disjoint from both L and the antipodal image -L (grid
    max alpha at least 0.01 short of pi).  When L's antipodal image
    cannot link K (for instance both manifolds sit strictly on one side of
    a great hypersphere), the rounded value is itself the linking number.
    """
    return _evaluate("corollary", K, L, grid, tol, max_level, min_alpha)


def evaluate_join_degree(K: OrientedSubmanifold, L: OrientedSubmanifold,
                         grid: GridSpec | None = None,
                         variant: str = "reduced", tol: float = TOL,
                         max_level: int = MAX_LEVEL,
                         min_alpha: float = MIN_ALPHA) -> LinkingReport:
    """Degree of the join-sweep map K * L -> S^n; equals -Lk(K, L).

    variant "reduced" integrates the pullback with the join parameter
    integrated out, which is the main kernel times the join sign; variant
    "full" assembles det(f, df/ds, df/dt, df/du) at every node of
    K x L x [0, 1] from exact chain-rule derivatives of the join map and
    also needs max alpha at least 0.01 short of pi.
    """
    if variant not in ("reduced", "full"):
        raise ValueError(f"unknown join-degree variant {variant!r}")
    return _evaluate("join-" + variant, K, L, grid, tol, max_level, min_alpha)
