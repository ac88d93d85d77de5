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
from c, one minor matmul and one row reduction.  ``CHUNK_BYTES`` sizes
every chunk, and :func:`_refined_report` runs the one refinement loop,
:func:`spherelink.quadrature.refine_until`, and builds the report.  A level
is a tuple of node counts, one per tensor factor: K's chart factors, then
L's, then the join parameter u for join-full (``GridSpec.counts`` gives
the base); each refinement step integrates the base and one probe per
factor with that factor doubled, and grows only the factors whose probe
still moves the value.  Each route's terms fold its prefactor
(sign / vol S^n here, sign / vol S^{n-1} in the oracle) into the K-side
weights, so every level sum is on the scale of Lk: the tolerance, the error
estimate, the level values and the report are one number on one scale, and
nothing is rescaled after refinement.  Pair
kernels expand the bracket determinant into per-manifold minors combined by
a matrix product; join-full forms its chunk's alpha and sums each pair's
join-map determinant against the u rule.  One Laplace recursion,
:func:`_minor_dets`, gives every determinant, the oracle's included.  A
dimension-0 side enters as its signed points with +-1 weights.

Every evaluator shares the same deterministic quadrature contract (see
:mod:`spherelink.quadrature`): results are bit-identical for any worker
count.
"""

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable

import numpy as np

from . import kernels
from .catalog import OrientedSubmanifold, _int
from .quadrature import (
    ChartDim,
    product_rule,
    refine_until,
    run_chunked,
    tree_sum,
    tree_sum_axis,
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

# bytes of per-pair temporaries one chunk of K rows may hold: 2^21 pair-kernel
# cos alpha values (the oracle's included), 2^17 join-full nodes on S^3
CHUNK_BYTES = 1 << 24
# distance max alpha keeps from pi where -L matters (corollary, join-full)
_ANTIPODAL_MARGIN = 0.01
# run defaults of every evaluator and the oracle: the refinement tolerance on
# the Lk scale, the doublings allowed per factor of the base grid (probes go
# one further), the least geodesic separation (radians) the routes accept,
# fixed for the oracle
TOL = 1e-9
MAX_LEVEL = 4
MIN_ALPHA = 0.01


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
    # (evaluator, n) -> kern(cos_alpha), resolved per call so that
    # wrappers installed on KernelEvaluator are seen; None for join-full
    kernel: Callable | None
    sign_rule: str | None
    antipodal: bool  # max alpha must also keep a margin from pi

    def prefactor(self, k: int, n: int) -> float:
        sign = sign_factor(self.sign_rule, k=k) if self.sign_rule else 1
        return sign / _vol_sphere_any(n)


_ROUTES = {
    "main": _Route("main_theorem", lambda ev, n: partial(ev.kernel_ratio, None), None, False),
    "corollary": _Route("corollary",
                        lambda ev, n: partial(ev.convolution_fast, None, sin_power=n),
                        "corollary_prefactor", True),
    "join-reduced": _Route("join_degree_reduced", lambda ev, n: partial(ev.kernel_ratio, None),
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
    beside node_counts; each refinement step takes its base grid G and one
    probe G_i per factor with that factor doubled, and levels_used counts
    the steps that grew the base.  raw_value, error_estimate and
    level_values are on the scale of Lk, the scale the refinement tolerance
    is compared on: with Delta_i = v(G_i) - v(G) on the last step,
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
    f' = x' cos w - x sin w w' - v' sin w - v cos w w'.
    """
    (r, d, k), (t, l) = tx.shape, ty.shape[::2]
    dc = np.concatenate([np.einsum("td,rdj->rtj", y, tx), np.einsum("rd,tdj->rtj", x, ty),
                         np.zeros((r, t, 1))], axis=2).transpose(2, 0, 1)[..., None]
    # per pair (r, t, 1), per node (r, t, nu); columns, then coordinates, lead
    c = c[:, :, None]
    s = np.sin(alpha)[:, :, None]
    eta = np.pi - alpha[:, :, None]
    w = u * eta
    cw, sw = np.cos(w), np.sin(w)
    x = x.T[:, :, None, None]
    v = (y.T[:, None, :, None] - c * x) / s
    dalpha = -dc / s
    dw = -u * dalpha
    dw[-1] += eta
    # f' = x' (cos w + c sin w / s) - y' sin w / s + x a + v b
    a = sw / s * dc - sw * dw
    b = sw * c / s * dalpha - cw * dw
    out = np.empty((k + l + 2, d, r, t, u.size))
    out[0] = x * cw - v * sw
    np.multiply(x, a[:, None], out=out[1:])
    out[1:] += v * b[:, None]
    out[1 : k + 1] += tx.transpose(2, 1, 0)[..., None, None] * (cw + c * sw / s)
    out[k + 1 : k + l + 1] -= ty.transpose(2, 1, 0)[:, :, None, :, None] * (sw / s)
    return out.transpose(2, 3, 4, 1, 0)


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
    indices at size m, a slice when already in order so that none is copied.
    """
    steps, lower = [], {(r,): r for r in range(d)}
    for j in range(2, len(subsets[0]) + 1):
        upper = subsets if j == len(subsets[0]) else list(combinations(range(d), j))
        steps.append([[(s[i], lower[s[:i] + s[i + 1:]]) for i in reversed(range(j))]
                      for s in upper])
        lower = {s: i for i, s in enumerate(upper)}
    final = [lower[s] for s in subsets]
    return steps, slice(None) if final == list(range(len(final))) else final


def _minor_dets(frames: np.ndarray, subsets) -> np.ndarray:
    """det of the rows `subset` of each (d, m) frame; shape (N, len(subsets)).

    One Laplace recursion for every size: for j = 1 ... m the j-row minors
    of each frame's first j columns are expanded along column j from the
    (j-1)-row minors, so each minor of each size is formed exactly once.
    The columns are read from one contiguous (m, d, N) transpose, which is
    a view when the frames were laid out column by column (as
    :func:`_join_batch` lays out join-full's) and a copy otherwise, and the
    terms accumulate in place.  This is the inner loop of the bracket
    expansion and the join-full determinant (m = d, the whole frame).
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


def _side_arrays(m: OrientedSubmanifold, counts: tuple[int, ...]):
    """Points, base+tangent frames and weights for one side, at one node
    count per chart factor."""
    if m.dim == 0:
        pts, signs = m.signed_points()
        return pts, pts[:, :, None], signs
    coords, w = product_rule(m.chart_domain, counts)
    pts, tan = m.batch(coords)
    return pts, np.concatenate([pts[:, :, None], tan], axis=2), w


def _sides(K, L, counts):
    """Both sides' `_side_arrays` at their factors' counts, and the counts
    left after them (join-full's u)."""
    k, l = K.dim, L.dim
    return _side_arrays(K, counts[:k]), _side_arrays(L, counts[k:k + l]), counts[k + l:]


# one quadrature level of a route, as `_level_sum` sums it
_Level = namedtuple("_Level", "geometry values pair_bytes shape nodes")


def _geodesic(pk, pl):
    """Chunk geometry of the sphere routes: the dot products c = cos alpha,
    with the alpha range taken from their two extremes."""
    def geometry(s, e):
        dots = pk[s:e] @ pl.T
        return (dots,), alpha_extremes(dots)

    return geometry


def _level_sum(K, L, counts, terms, check):
    """One quadrature level of a route: a chunked sum over K x L.

    terms(K, L, counts) gives the level's `_Level`: geometry(s, e) returns K
    rows s:e's geometry against every L node and its separation range
    (min, max), values(s, e, *geometry) their weighted per-pair values,
    pair_bytes the size of the largest per-pair temporaries, shape
    (K nodes, L nodes) and nodes the level's quadrature node count.  A
    chunk holds as many K rows as keep their temporaries within
    CHUNK_BYTES.  check(min, max) runs on each chunk's separation range
    before its values are evaluated, and every K row is tree-summed whole,
    so the value does not depend on the chunking.  Returns (value, nodes,
    min separation, max separation).
    """
    level = terms(K, L, counts)
    nk, nl = level.shape
    cs = max(1, CHUNK_BYTES // (level.pair_bytes * nl))
    rows = np.empty(nk)
    lo = np.full((nk + cs - 1) // cs, np.inf)
    hi = -lo

    def work(s, e):
        geometry, (smin, smax) = level.geometry(s, e)
        check(smin, smax)
        lo[s // cs], hi[s // cs] = smin, smax
        rows[s:e] = tree_sum_axis(level.values(s, e, *geometry), axis=1)

    run_chunked(nk, work, chunk=cs)
    smin, smax = float(lo.min()), float(hi.max())
    if not np.isfinite(rows).all():
        raise ValueError(f"integrand is not finite on the level with {nk} x {nl} "
                         f"K x L nodes (min separation {smin:.3g})")
    return tree_sum(rows), level.nodes, smin, smax


def _kernel_terms(kern, scale, K, L, counts):
    """Pair-kernel values: scale times kern(cos_alpha) times the bracket
    det(x, dx, y, dy), in the point-first column order of `_laplace_subsets`.

    The bracket determinant is expanded into per-side minors once per
    level, with each side's quadrature weights folded in, and the route's
    prefactor `scale` with K's; each (s, t) pair then costs one multiply-add
    through a matrix product.
    """
    (pk, fk, wk), (pl, fl, wl), _ = _sides(K, L, counts)
    subs, comps, signs = _laplace_subsets(fk.shape[1], fk.shape[2])
    mk = _minor_dets(fk, subs) * signs * (scale * wk)[:, None]
    ml = _minor_dets(fl, comps) * wl[:, None]
    return _pair_level(kern, pk, mk, pl, ml)


def _pair_level(kern, pk, mk, pl, ml) -> _Level:
    """One level of a pair kernel: per chunk of K rows, kern of the chunk's
    dot products c = cos alpha times the minor product mk @ ml.T.  The
    largest per-pair temporary is one double."""
    def values(s, e, dots):
        vals = kern(dots)
        vals *= mk[s:e] @ ml.T
        return vals

    return _Level(_geodesic(pk, pl), values, 8, (len(pk), len(pl)), len(mk) * len(ml))


def _join_terms(scale, K, L, counts):
    """join-full values: the u-rule-weighted det of the join map's Jacobian.

    The route's prefactor `scale` is folded into K's weights.  The join map
    reads cos alpha and alpha, which it forms from each block's dot
    products.  Each node of K x L x [0, 1] holds one d x d Jacobian; when
    one K row alone holds more than CHUNK_BYTES of them, its L nodes are
    taken in blocks.
    """
    (pk, fk, wk), (pl, fl, wl), (nu,) = _sides(K, L, counts)
    wk = scale * wk
    u, wu = ChartDim(0.0, 1.0, False).rule(nu)
    nt, d = fl.shape[:2]
    whole = [tuple(range(d))]
    pair_bytes = 8 * d * d * u.size

    def values(s, e, dots):
        cols = max(1, CHUNK_BYTES // ((e - s) * pair_bytes))
        vals = np.empty((e - s, nt))
        for t0 in range(0, nt, cols):
            t1 = min(t0 + cols, nt)
            c = np.clip(dots[:, t0:t1], -1.0, 1.0)
            jac = _join_batch(fk[s:e, :, 0], fk[s:e, :, 1:], fl[t0:t1, :, 0], fl[t0:t1, :, 1:],
                              c, np.arccos(c), u)
            dets = _minor_dets(jac.reshape(-1, d, d), whole).reshape(e - s, t1 - t0, u.size)
            vals[:, t0:t1] = tree_sum_axis(dets * wu, axis=2) * wl[t0:t1]
        return vals * wk[s:e, None]

    return _Level(_geodesic(pk, pl), values, pair_bytes, (len(pk), nt), len(pk) * nt * u.size)


def _refined_report(K, L, terms, check, grid0, tol, max_level, method) -> LinkingReport:
    """Level sums of one route refined from the base counts grid0 to tol,
    as a report.

    The terms put every level sum on the Lk scale, so the report takes the
    refinement's value, error and level values as they are, with each level
    sum's node count beside its value in the order taken; its separation
    range spans every chunk of every level.
    """
    levels = []

    def level_sum(g):
        levels.append(_level_sum(K, L, g, terms, check))
        return levels[-1][0]

    est = refine_until(grid0, level_sum, tol, max_level)
    _, counts, lows, highs = zip(*levels)
    return LinkingReport(
        raw_value=est.value, error_estimate=est.error_estimate,
        **_verdict(est.value, est.error_estimate, est.converged),
        min_alpha=min(lows), max_alpha=max(highs), method=method, converged=est.converged,
        levels_used=est.levels_used, node_counts=counts, level_values=est.level_values)


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
