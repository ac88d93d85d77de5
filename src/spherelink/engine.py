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
CLI method name: label, kernel, sign and separation check.  There is one
level loop, :func:`spherelink.quadrature.refine_until`, and one chunk loop,
:func:`_level_sum`: per chunk of K rows it forms the geodesic-distance
matrix to every L node, checks separation on that chunk before any kernel
or Jacobian is evaluated, and tree-sums the route's per-pair values.  Pair
kernels use a generalized Laplace expansion of the bracket determinant
(per-manifold minors combined by a matrix product), which keeps the
per-node cost flat even for surface pairs; join-full sums each pair's
join-map determinant against the u rule.  A dimension-0 side enters as
its signed points with +-1 weights.

Every evaluator shares the same deterministic quadrature contract (see
:mod:`spherelink.quadrature`): results are bit-identical for any worker
count.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable

import numpy as np

from . import kernels
from .catalog import OrientedSubmanifold
from .quadrature import (
    CHUNK,
    Estimate,
    ProductGrid,
    gauss_legendre,
    periodic_trapezoid,
    refine_until,
    run_chunked,
    tree_sum,
    tree_sum_axis,
)
from .spheregeom import SpherePoint, _vol_sphere_any, geodesic_distance

__all__ = [
    "DisjointnessError",
    "GridSpec",
    "LinkingReport",
    "sign_factor",
    "join_map",
    "evaluate_main_theorem",
    "evaluate_corollary",
    "evaluate_join_degree",
    "round_to_linking",
]

# pair-chunk sizing (elements of the alpha matrix per chunk)
_PAIR_CHUNK = 1 << 21
# default distance of max alpha from pi where -L matters (corollary, join-full)
_ANTIPODAL_MARGIN = 0.01


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
    raise ValueError(f"unknown sign rule {rule!r}")


@dataclass(frozen=True)
class _Route:
    """What one CLI method needs: report label, kernel, sign, separation."""

    label: str
    # (evaluator, n) -> kern(alpha, cos_alpha), resolved per call so that
    # wrappers installed on KernelEvaluator are seen; None for join-full
    kernel: Callable | None
    sign_rule: str | None
    antipodal: bool  # max alpha must also keep a margin from pi

    def prefactor(self, k: int, n: int) -> float:
        sign = sign_factor(self.sign_rule, k=k) if self.sign_rule else 1
        return sign / _vol_sphere_any(n)


_ROUTES = {
    "main": _Route("main_theorem", lambda ev, n: ev.kernel_ratio, None, False),
    "corollary": _Route("corollary",
                        lambda ev, n: partial(ev.convolution_fast, sin_power=n),
                        "corollary_prefactor", True),
    "join-reduced": _Route("join_degree_reduced", lambda ev, n: ev.kernel_ratio,
                           "join_reduced_net", False),
    "join-full": _Route("join_degree_full", None, None, True),
}


def _check_separation(route: _Route, amin: float, amax: float, min_alpha: float,
                      antipodal_margin: float = _ANTIPODAL_MARGIN):
    """Raise DisjointnessError unless the alpha range clears the route's limits."""
    if amin <= min_alpha:
        raise DisjointnessError(
            f"min geodesic separation {amin:.4f} rad <= threshold {min_alpha}; "
            "K and L are not safely disjoint"
        )
    if route.antipodal and amax >= np.pi - antipodal_margin:
        raise DisjointnessError(
            f"max geodesic separation {amax:.4f} rad reaches within "
            f"{antipodal_margin} of pi: K is not safely disjoint from -L"
        )


@dataclass(frozen=True)
class GridSpec:
    """Base node counts per chart dimension.

    `curve` applies to 1-dimensional manifolds, `surface` to each chart
    dimension of manifolds of dimension >= 2, `u` to the join parameter
    (read by the full join-degree variant only).  `k_nodes` / `l_nodes`
    override the per-dimension count for one side.
    """

    curve: int = 64
    surface: int = 32
    u: int = 32
    k_nodes: int | None = None
    l_nodes: int | None = None

    def nodes_for(self, m: OrientedSubmanifold, side: str) -> int:
        override = self.k_nodes if side == "k" else self.l_nodes
        if override is not None:
            return int(override)
        return self.curve if m.dim == 1 else self.surface

    def refined(self) -> "GridSpec":
        """The next refinement level: every count doubled."""
        return GridSpec(2 * self.curve, 2 * self.surface, 2 * self.u,
                        None if self.k_nodes is None else 2 * int(self.k_nodes),
                        None if self.l_nodes is None else 2 * int(self.l_nodes))


@dataclass(frozen=True)
class LinkingReport:
    """Result of one evaluator run.

    raw_value is the computed integral (for the join variants: the degree
    of the join map, whose negative is the linking number).  residual is
    the distance from raw_value to the nearest integer; `accepted` is the
    verdict of :func:`round_to_linking` at default thresholds.  min/max
    alpha are the geodesic separation extremes seen on the quadrature grid.
    level_values holds the prefactored value of every level integrated,
    coarsest first, beside node_counts (empty for join-full).
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


# ---------------------------------------------------------------------------
# join map
# ---------------------------------------------------------------------------

def _join_batch(x, tx, y, ty, u) -> np.ndarray:
    """Geodesic-sweep map from x toward -y with its exact Jacobian columns.

    x, y: (N, d) points with tangent columns tx (N, d, k), ty (N, d, l);
    u: (N, 1) fractions of the arc.  Returns (N, d, k + l + 2): the image
    f = x cos w - v sin w, where c = x.y = cos alpha, s = sin alpha,
    v = (y - c x) / s and w = u (pi - alpha), then the derivative of f
    along each column of tx, each column of ty and along u, by the chain
    rule: c' = x'.y + x.y', alpha' = -c'/s, s' = c alpha',
    w' = u' (pi - alpha) - u alpha', v' = (y' - c' x - c x')/s - v s'/s and
    f' = x' cos w - x sin w w' - v' sin w - v cos w w'.
    """
    n, d, k = tx.shape
    l = ty.shape[2]
    c = np.clip(np.einsum("nd,nd->n", x, y), -1.0, 1.0)[:, None]
    alpha = np.arccos(c)
    s = np.sin(alpha)
    eta = np.pi - alpha
    w = u * eta
    cw, sw = np.cos(w), np.sin(w)
    v = (y - c * x) / s
    dc = np.concatenate([np.einsum("nd,ndj->nj", y, tx),
                         np.einsum("nd,ndj->nj", x, ty), np.zeros((n, 1))], axis=1)
    dalpha = -dc / s
    dw = -u * dalpha
    dw[:, -1:] += eta
    # f' = x' (cos w + c sin w / s) - y' sin w / s + x a + v b
    a = sw / s * dc - sw * dw
    b = sw * c / s * dalpha - cw * dw
    out = np.empty((n, d, k + l + 2))
    out[:, :, 0] = x * cw - v * sw
    out[:, :, 1:] = x[:, :, None] * a[:, None, :] + v[:, :, None] * b[:, None, :]
    out[:, :, 1 : k + 1] += tx * (cw + c * sw / s)[:, :, None]
    out[:, :, k + 1 : k + l + 1] -= ty * (sw / s)[:, :, None]
    return out


def join_map(x: SpherePoint, y: SpherePoint, u: float) -> SpherePoint:
    """Point at parameter u on the geodesic arc from x to -y.

    u = 0 gives x, u = 1 gives -y.  Undefined for coincident or antipodal
    x, y (the arc direction degenerates with sin(alpha)).
    """
    pg = geodesic_distance(x, y)
    if pg.sin_alpha < 1e-8 or not 0.0 < pg.alpha < np.pi:
        raise ValueError(
            "join map needs 0 < alpha < pi; points are (nearly) coincident or antipodal"
        )
    none = np.empty((1, x.coords.size, 0))
    f = _join_batch(x.coords[None, :], none, y.coords[None, :], none,
                    np.array([[float(u)]]))[0, :, 0]
    return SpherePoint(f)


# ---------------------------------------------------------------------------
# shared pair machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _laplace_subsets(d: int, m: int):
    """Row subsets, complements and signs for expansion by the first m columns."""
    subs = list(combinations(range(d), m))
    base = m * (m - 1) // 2
    signs = np.array([(-1.0) ** (sum(s) - base) for s in subs])
    comps = [tuple(r for r in range(d) if r not in s) for s in subs]
    return subs, comps, signs


def _minor_dets(frames: np.ndarray, subsets) -> np.ndarray:
    """det of the rows `subset` of each (d, m) frame; shape (N, len(subsets)).

    Sizes up to 4 use closed forms on column slices (no submatrix copies);
    this is the inner loop of the bracket expansion, so it matters.
    """
    n, _, m = frames.shape
    out = np.empty((n, len(subsets)))
    cols = [frames[:, :, j] for j in range(m)]
    for i, s in enumerate(subsets):
        if m == 1:
            out[:, i] = cols[0][:, s[0]]
        elif m == 2:
            a, b = s
            out[:, i] = cols[0][:, a] * cols[1][:, b] - cols[0][:, b] * cols[1][:, a]
        elif m == 3:
            a, b, c = s
            c0, c1, c2 = cols[0], cols[1], cols[2]
            out[:, i] = (
                c0[:, a] * (c1[:, b] * c2[:, c] - c1[:, c] * c2[:, b])
                - c0[:, b] * (c1[:, a] * c2[:, c] - c1[:, c] * c2[:, a])
                + c0[:, c] * (c1[:, a] * c2[:, b] - c1[:, b] * c2[:, a])
            )
        elif m == 4:
            # expansion along the first two columns: pairs of 2x2 minors
            c0, c1, c2, c3 = cols[0], cols[1], cols[2], cols[3]

            def m01(i1, i2):
                return c0[:, s[i1]] * c1[:, s[i2]] - c0[:, s[i2]] * c1[:, s[i1]]

            def m23(i1, i2):
                return c2[:, s[i1]] * c3[:, s[i2]] - c2[:, s[i2]] * c3[:, s[i1]]

            out[:, i] = (
                m01(0, 1) * m23(2, 3)
                - m01(0, 2) * m23(1, 3)
                + m01(0, 3) * m23(1, 2)
                + m01(1, 2) * m23(0, 3)
                - m01(1, 3) * m23(0, 2)
                + m01(2, 3) * m23(0, 1)
            )
        else:
            out[:, i] = np.linalg.det(frames[:, s, :])
    return out


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


def _rules_for(m: OrientedSubmanifold, nodes: int):
    rules = []
    for cd in m.chart_domain:
        if cd.periodic:
            rules.append(periodic_trapezoid(cd.lo, cd.hi, nodes))
        else:
            rules.append(gauss_legendre(cd.lo, cd.hi, nodes))
    return rules


def _side_arrays(m: OrientedSubmanifold, nodes: int):
    """Points, base+tangent frames, weights and node count for one side."""
    if m.dim == 0:
        pts, signs = m.signed_points()
        frames = pts[:, :, None]
        return pts, frames, signs, pts.shape[0]
    grid = ProductGrid(_rules_for(m, nodes))
    coords, w = grid.points_weights()
    pts, tan = m.batch(coords)
    frames = np.concatenate([pts[:, :, None], tan], axis=2)
    return pts, frames, w, grid.total_points


def _level_sum(K, L, grid: GridSpec, terms, check, workers=None):
    """One quadrature level of a route: a chunked sum over K x L.

    terms(side_k, side_l, grid) receives both sides' `_side_arrays` and
    returns (values, rows, nodes): values(s, e, alpha, cos_alpha) gives the
    weighted per-pair values of K rows s:e against every L node, rows is
    the chunk height and nodes the level's quadrature node count.
    check(amin, amax) runs on each chunk's alpha range before its values
    are evaluated.  Returns (value, nodes, min_alpha, max_alpha).
    """
    side_k = _side_arrays(K, grid.nodes_for(K, "k"))
    side_l = _side_arrays(L, grid.nodes_for(L, "l"))
    values, cs, nodes = terms(side_k, side_l, grid)
    pk, pl = side_k[0], side_l[0]
    ns = pk.shape[0]
    rows = np.empty(ns)
    nchunks = (ns + cs - 1) // cs
    amins = np.full(nchunks, np.inf)
    amaxs = np.full(nchunks, -np.inf)

    def work(s, e):
        # a fresh array on purpose: clipping in place (out=) measured ~10%
        # slower on (2,3) pairs, with ~6x the page faults, as the allocator
        # returned chunk buffers to the system and mapped them again
        dots = np.clip(pk[s:e] @ pl.T, -1.0, 1.0)
        alpha = np.arccos(dots)
        ci = s // cs
        amins[ci] = float(alpha.min())
        amaxs[ci] = float(alpha.max())
        check(amins[ci], amaxs[ci])
        rows[s:e] = tree_sum_axis(values(s, e, alpha, dots), axis=1)

    run_chunked(ns, work, workers, chunk=cs)
    amin, amax = float(amins.min()), float(amaxs.max())
    if not np.isfinite(rows).all():
        raise ValueError(
            f"integrand is not finite on the level with {side_k[3]} x {side_l[3]} "
            f"K x L nodes (min alpha {amin:.3g} rad)"
        )
    return tree_sum(rows), nodes, amin, amax


def _kernel_terms(kern, side_k, side_l, grid):
    """Pair-kernel values: kern(alpha, cos_alpha) times the bracket.

    The bracket determinant is expanded into per-side minors once per
    level, with each side's quadrature weights folded in; each (s, t) pair
    then costs one multiply-add through a matrix product.
    """
    _, fk, wk, _ = side_k
    _, fl, wl, _ = side_l
    subs, comps, signs = _laplace_subsets(fk.shape[1], fk.shape[2])
    mk = _minor_dets(fk, subs) * signs * wk[:, None]
    ml = _minor_dets(fl, comps) * wl[:, None]

    def values(s, e, alpha, dots):
        vals = kern(alpha, dots)
        vals *= mk[s:e] @ ml.T
        return vals

    return values, max(1, _PAIR_CHUNK // ml.shape[0]), mk.shape[0] * ml.shape[0]


def _join_terms(side_k, side_l, grid):
    """join-full values: the u-rule-weighted det of the join map's Jacobian.

    Chunks hold about CHUNK nodes of K x L x [0, 1]; when one K row alone
    holds more, its L nodes are taken in blocks.
    """
    _, fk, wk, _ = side_k
    _, fl, wl, _ = side_l
    u, wu = gauss_legendre(0.0, 1.0, grid.u).nodes_weights()
    nt, nu = fl.shape[0], u.size

    def block(s, e, t0, t1):
        # nodes in (K row, L node, u) order
        r, c = e - s, t1 - t0
        fx = np.repeat(fk[s:e], c * nu, axis=0)
        fy = np.tile(np.repeat(fl[t0:t1], nu, axis=0), (r, 1, 1))
        uu = np.tile(u, r * c)[:, None]
        dets = np.linalg.det(_join_batch(fx[:, :, 0], fx[:, :, 1:], fy[:, :, 0], fy[:, :, 1:], uu))
        return tree_sum_axis(dets.reshape(r, c, nu) * wu, axis=2) * wl[t0:t1]

    def values(s, e, alpha, dots):
        cols = max(1, CHUNK // ((e - s) * nu))
        vals = np.concatenate([block(s, e, t, min(t + cols, nt)) for t in range(0, nt, cols)],
                              axis=1)
        return vals * wk[s:e, None]

    return values, max(1, CHUNK // (nt * nu)), fk.shape[0] * nt * nu


def _finish_report(est: Estimate, prefactor: float, ranges, method,
                   node_counts) -> LinkingReport:
    """Report of a refined estimate; ranges holds each level's (min, max)."""
    raw = prefactor * est.value
    err = abs(prefactor) * est.error_estimate
    nearest, residual, accepted = round_to_linking(raw, err)
    return LinkingReport(
        raw_value=raw,
        nearest_integer=nearest,
        residual=residual,
        error_estimate=err,
        min_alpha=min(r[0] for r in ranges),
        max_alpha=max(r[1] for r in ranges),
        method=method,
        converged=est.converged,
        accepted=accepted and est.converged,
        levels_used=est.levels_used,
        node_counts=tuple(node_counts),
        level_values=tuple(prefactor * v for v in est.level_values),
    )


def _evaluate(method, K, L, grid, tol, max_level, min_alpha, antipodal_margin,
              workers) -> LinkingReport:
    """Integral of one `_ROUTES` entry over K x L, refined to tol."""
    k, l, n = _check_pair(K, L)
    route = _ROUTES[method]
    if route.kernel is None:
        terms = _join_terms
    else:
        terms = partial(_kernel_terms, route.kernel(kernels.get_evaluator(k, l), n))
    check = partial(_check_separation, route, min_alpha=min_alpha,
                    antipodal_margin=antipodal_margin)
    counts, ranges = [], []

    def level_sum(g):
        value, nodes, amin, amax = _level_sum(K, L, g, terms, check, workers)
        counts.append(nodes)
        ranges.append((amin, amax))
        return value

    est = refine_until(grid or GridSpec(), level_sum, tol, max_level)
    return _finish_report(est, route.prefactor(k, n), ranges, route.label, counts)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def evaluate_main_theorem(K: OrientedSubmanifold, L: OrientedSubmanifold,
                          grid: GridSpec | None = None, tol: float = 1e-9,
                          max_level: int = 4, min_alpha: float = 0.01,
                          workers: int | None = None) -> LinkingReport:
    """Linking number by the direct geodesic-kernel integral over K x L."""
    return _evaluate("main", K, L, grid, tol, max_level, min_alpha,
                     _ANTIPODAL_MARGIN, workers)


def evaluate_corollary(K: OrientedSubmanifold, L: OrientedSubmanifold,
                       grid: GridSpec | None = None, tol: float = 1e-9,
                       max_level: int = 4, min_alpha: float = 0.01,
                       antipodal_margin: float = _ANTIPODAL_MARGIN,
                       workers: int | None = None) -> LinkingReport:
    """Convolution-kernel integral; equals Lk(K, L) + (-1)^n Lk(K, -L).

    Requires K disjoint from both L and the antipodal image -L (grid
    max alpha below pi - antipodal_margin).  When L's antipodal image
    cannot link K (for instance both manifolds sit strictly on one side of
    a great hypersphere), the rounded value is itself the linking number.
    """
    return _evaluate("corollary", K, L, grid, tol, max_level, min_alpha,
                     antipodal_margin, workers)


def evaluate_join_degree(K: OrientedSubmanifold, L: OrientedSubmanifold,
                         grid: GridSpec | None = None,
                         variant: str = "reduced", tol: float = 1e-9,
                         max_level: int = 4, min_alpha: float = 0.01,
                         workers: int | None = None) -> LinkingReport:
    """Degree of the join-sweep map K * L -> S^n; equals -Lk(K, L).

    variant "reduced" integrates the pullback with the join parameter
    integrated out, which is the main kernel times the join sign; variant
    "full" assembles det(f, df/ds, df/dt, df/du) at every node of
    K x L x [0, 1] from exact chain-rule derivatives of the join map and
    also needs max alpha at least 0.01 short of pi.
    """
    if variant not in ("reduced", "full"):
        raise ValueError(f"unknown join-degree variant {variant!r}")
    return _evaluate("join-" + variant, K, L, grid, tol, max_level, min_alpha,
                     _ANTIPODAL_MARGIN, workers)
