"""Linking-number evaluators.

Three independent routes to Lk(K, L) for disjoint closed oriented
submanifolds K^k, L^l of S^n with k + l = n - 1:

* ``evaluate_main_theorem`` -- the direct linking integral
  (1 / vol S^n) * integral over K x L of
  phi(k, l, alpha) / sin^n(alpha) * det(x, dx, y, dy);

* ``evaluate_corollary`` -- the antipodally-paired integral with the
  convolution kernel; its value is Lk(K, L) + (-1)^n Lk(K, -L), which
  reduces to Lk(K, L) whenever L's antipodal image does not link K
  (e.g. both manifolds inside an open hemisphere);

* ``evaluate_join_degree`` -- the degree of the map carrying the join
  K * L onto S^n along geodesic arcs from x to -y; the degree equals
  -Lk(K, L).  Variant "reduced" integrates the closed-form pullback
  integrand; variant "full" differentiates the join map by central
  finite differences and integrates the raw (n+1) x (n+1) determinant,
  serving as an internal cross-check of the whole pullback reduction.

Every evaluator shares the same deterministic quadrature contract (see
:mod:`spherelink.quadrature`): results are bit-identical for any worker
count.  Pair integrands are evaluated through a generalized Laplace
expansion of the bracket determinant (per-manifold minors combined by a
matrix product), which keeps the per-node cost flat even for surface
pairs.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from . import kernels
from .catalog import OrientedSubmanifold
from .quadrature import (
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
    "JoinMapFrame",
    "sign_factor",
    "join_map",
    "join_frame",
    "evaluate_main_theorem",
    "evaluate_corollary",
    "evaluate_join_degree",
    "round_to_linking",
    "convergence_table",
]

# pair-chunk sizing (elements of the alpha matrix per chunk)
_PAIR_CHUNK = 1 << 21
_FULL_CHUNK = 1 << 16
# past this alpha the reduced join kernel uses the near-pi series
_REDUCED_SWITCH = np.pi - 1e-3


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
class GridSpec:
    """Base node counts per chart dimension.

    `curve` applies to 1-dimensional manifolds, `surface` to each chart
    dimension of manifolds of dimension >= 2, `u` to the join parameter.
    `k_nodes` / `l_nodes` override the per-dimension count for one side.
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


@dataclass(frozen=True)
class LinkingReport:
    """Result of one evaluator run.

    raw_value is the computed integral (for the join variants: the degree
    of the join map, whose negative is the linking number).  residual is
    the distance from raw_value to the nearest integer; `accepted` is the
    verdict of :func:`round_to_linking` at default thresholds.  min/max
    alpha are the geodesic separation extremes seen on the quadrature grid.
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

    @property
    def linking_number(self) -> int:
        """Nearest integer to the linking number this run estimates."""
        if self.method.startswith("join_degree"):
            return -self.nearest_integer
        return self.nearest_integer


@dataclass(frozen=True)
class JoinMapFrame:
    """Diagnostic record of one join-map evaluation."""

    alpha: float
    u: float
    A: float
    B: float
    f: SpherePoint


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

def _join_batch(x: np.ndarray, y: np.ndarray, u) -> np.ndarray:
    """Vectorized geodesic-sweep map from x toward -y, fraction u of the arc."""
    ca = np.clip(np.sum(x * y, axis=-1, keepdims=True), -1.0, 1.0)
    alpha = np.arccos(ca)
    sa = np.sin(alpha)
    w = np.asarray(u) * (np.pi - alpha)
    return x * np.cos(w) - (y - x * ca) / sa * np.sin(w)


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
    f = _join_batch(x.coords[None, :], y.coords[None, :], float(u))[0]
    return SpherePoint(f)


def join_frame(x: SpherePoint, y: SpherePoint, u: float) -> JoinMapFrame:
    """Join-map evaluation bundled with its scalar invariants A, B."""
    pg = geodesic_distance(x, y)
    eta = np.pi - pg.alpha
    a_val = pg.sin_alpha * math.cos(u * eta) + pg.cos_alpha * math.sin(u * eta)
    b_val = math.sin(u * eta)
    return JoinMapFrame(alpha=pg.alpha, u=float(u), A=float(a_val), B=float(b_val),
                        f=join_map(x, y, u))


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
    d = m.ambient_n + 1
    if m.dim == 0:
        pts, signs = m.signed_points()
        frames = pts[:, :, None]
        return pts, frames, signs, pts.shape[0]
    grid = ProductGrid(_rules_for(m, nodes))
    coords, w = grid.points_weights()
    pts, tan = m.batch(coords)
    frames = np.concatenate([pts[:, :, None], tan], axis=2)
    return pts, frames, w, grid.total_points


def _alpha_stats(pk: np.ndarray, pl: np.ndarray):
    amin, amax = np.inf, -np.inf
    step = max(1, _PAIR_CHUNK // max(1, pl.shape[0]))
    for s in range(0, pk.shape[0], step):
        dots = np.clip(pk[s : s + step] @ pl.T, -1.0, 1.0)
        amin = min(amin, float(np.arccos(dots.max())))
        amax = max(amax, float(np.arccos(dots.min())))
    return amin, amax


def _pair_level_value(K, L, nk, nl, kern, workers=None):
    """One quadrature level of a pair integral with a distance kernel.

    Returns (value, total_nodes, min_alpha, max_alpha).  The bracket
    determinant is expanded into per-side minors once per level; each
    (s, t) pair then costs one multiply-add through a matrix product plus
    the kernel evaluation kern(alpha, cos_alpha) on the geodesic-distance
    matrix and the dot products it came from.
    """
    pk, fk, wk, count_k = _side_arrays(K, nk)
    pl, fl, wl, count_l = _side_arrays(L, nl)
    d = K.ambient_n + 1
    subs, comps, signs = _laplace_subsets(d, K.dim + 1)
    mk = _minor_dets(fk, subs) * signs
    ml = _minor_dets(fl, comps)

    ns = pk.shape[0]
    nt = pl.shape[0]
    rows = np.empty(ns)
    cs = _row_chunk(nt)
    nchunks = (ns + cs - 1) // cs
    amins = np.full(nchunks, np.inf)
    amaxs = np.full(nchunks, -np.inf)

    def work(s, e):
        dots = np.clip(pk[s:e] @ pl.T, -1.0, 1.0)
        alpha = np.arccos(dots)
        ci = s // cs
        amins[ci] = float(alpha.min())
        amaxs[ci] = float(alpha.max())
        vals = kern(alpha, dots)
        vals *= mk[s:e] @ ml.T
        vals *= wk[s:e, None]
        vals *= wl[None, :]
        rows[s:e] = tree_sum_axis(vals, axis=1)

    run_chunked(ns, work, workers, chunk=cs)
    amin, amax = float(amins.min()), float(amaxs.max())
    if not np.isfinite(rows).all():
        raise ValueError(
            f"pair integrand is not finite on the level with {nk} x {nl} nodes "
            f"per chart direction (min alpha {amin:.3g} rad)"
        )
    return tree_sum(rows), count_k * count_l, amin, amax


def _row_chunk(nt: int) -> int:
    return max(1, _PAIR_CHUNK // max(1, nt))


def _refine_pair(K, L, base_k, base_l, kern_at, tol, max_level, workers,
                 precheck):
    """Shared Richardson loop for the pair evaluators.

    kern_at(level) must return the kernel callable for that level (the
    join-reduced kernel refines its own u rule alongside).  `precheck`
    runs on the base-level alpha range before any kernel evaluation, and
    again on the alpha range of every level integrated.
    """
    pk0, _, _, _ = _side_arrays(K, base_k)
    pl0, _, _, _ = _side_arrays(L, base_l)
    precheck(*_alpha_stats(pk0, pl0))

    def level_value(level):
        scale = 2 ** level
        value, nodes, amin, amax = _pair_level_value(
            K, L, scale * base_k, scale * base_l, kern_at(level), workers)
        precheck(amin, amax)
        node_counts.append(nodes)
        return value, amin, amax

    node_counts = []
    v_prev, _, _ = level_value(0)
    v_cur, amin, amax = level_value(1)
    err = abs(v_cur - v_prev)
    level = 0
    while err >= tol and level < max_level:
        level += 1
        v_prev = v_cur
        v_cur, amin, amax = level_value(level + 1)
        err = abs(v_cur - v_prev)
    est = Estimate(value=v_cur, error_estimate=err, levels_used=level,
                   converged=bool(err < tol))
    return est, amin, amax, tuple(node_counts)


def _finish_report(est: Estimate, prefactor: float, amin, amax, method,
                   node_counts) -> LinkingReport:
    raw = prefactor * est.value
    err = abs(prefactor) * est.error_estimate
    nearest, residual, accepted = round_to_linking(raw, err)
    return LinkingReport(
        raw_value=raw,
        nearest_integer=nearest,
        residual=residual,
        error_estimate=err,
        min_alpha=amin,
        max_alpha=amax,
        method=method,
        converged=est.converged,
        accepted=accepted and est.converged,
        levels_used=est.levels_used,
        node_counts=node_counts,
    )


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def evaluate_main_theorem(K: OrientedSubmanifold, L: OrientedSubmanifold,
                          grid: GridSpec | None = None, tol: float = 1e-9,
                          max_level: int = 4, min_alpha: float = 0.01,
                          workers: int | None = None) -> LinkingReport:
    """Linking number by the direct geodesic-kernel integral over K x L."""
    k, l, n = _check_pair(K, L)
    grid = grid or GridSpec()
    ev = kernels.get_evaluator(k, l)

    def precheck(amin, amax):
        if amin <= min_alpha:
            raise DisjointnessError(
                f"min geodesic separation {amin:.4f} rad <= threshold {min_alpha}; "
                "K and L are not safely disjoint"
            )

    est, amin, amax, counts = _refine_pair(
        K, L, grid.nodes_for(K, "k"), grid.nodes_for(L, "l"),
        lambda level: ev.kernel_ratio, tol, max_level, workers, precheck)
    return _finish_report(est, 1.0 / _vol_sphere_any(n), amin, amax,
                          "main_theorem", counts)


def evaluate_corollary(K: OrientedSubmanifold, L: OrientedSubmanifold,
                       grid: GridSpec | None = None, tol: float = 1e-9,
                       max_level: int = 4, min_alpha: float = 0.01,
                       antipodal_margin: float = 0.01,
                       hemisphere: bool = False,
                       workers: int | None = None) -> LinkingReport:
    """Convolution-kernel integral; equals Lk(K, L) + (-1)^n Lk(K, -L).

    Requires K disjoint from both L and the antipodal image -L (grid
    max alpha below pi - antipodal_margin).  With ``hemisphere=True`` the
    caller asserts that L's antipodal image cannot link K (for instance
    both manifolds sit inside one open hemisphere), in which case the
    rounded value is itself the linking number.
    """
    k, l, n = _check_pair(K, L)
    grid = grid or GridSpec()
    ev = kernels.get_evaluator(k, l)

    def precheck(amin, amax):
        if amin <= min_alpha:
            raise DisjointnessError(
                f"min geodesic separation {amin:.4f} rad <= threshold {min_alpha}"
            )
        if amax >= np.pi - antipodal_margin:
            raise DisjointnessError(
                f"max geodesic separation {amax:.4f} rad reaches within "
                f"{antipodal_margin} of pi: K is not safely disjoint from -L"
            )

    kern = partial(ev.convolution_fast, sin_power=n)
    est, amin, amax, counts = _refine_pair(
        K, L, grid.nodes_for(K, "k"), grid.nodes_for(L, "l"),
        lambda level: kern, tol, max_level, workers, precheck)
    prefactor = sign_factor("corollary_prefactor", k=k) / _vol_sphere_any(n)
    return _finish_report(est, prefactor, amin, amax, "corollary", counts)


def _reduced_kernel(k: int, l: int, n: int, u_nodes: int):
    """Distance kernel of the reduced join-degree integrand.

    -(pi - alpha) <A^k B^l>_u / sin^n(alpha), with A = sin(eta (1 - u)),
    B = sin(eta u) for eta = pi - alpha; the u average uses Gauss-Legendre
    on [0, 1].  Past pi - 1e-3, where the quotient tends to 0/0, the u
    average is phi itself, so the direct kernel's near-pi series replaces it.
    """
    x, w = np.polynomial.legendre.leggauss(u_nodes)
    u = 0.5 * (x + 1.0)
    uw = 0.5 * w
    ev = kernels.get_evaluator(k, l)

    def kern(alpha, cos_alpha):
        eta = kernels._eps_from_pi(alpha)
        terms = np.sin(eta[..., None] * (1.0 - u)) ** k * np.sin(eta[..., None] * u) ** l
        terms *= uw
        g = tree_sum_axis(terms, axis=-1) * eta
        near = alpha > _REDUCED_SWITCH
        safe = np.where(near, 0.5 * np.pi, alpha)
        quotient = np.where(near, 0.0, g) / kernels.stable_sin(safe) ** n
        quotient[near] = ev.near_pi_ratio(eta[near])
        return -quotient

    return kern


def evaluate_join_degree(K: OrientedSubmanifold, L: OrientedSubmanifold,
                         grid: GridSpec | None = None,
                         variant: str = "reduced", tol: float = 1e-9,
                         max_level: int = 4, min_alpha: float = 0.01,
                         fd_step: float = 1e-5,
                         workers: int | None = None) -> LinkingReport:
    """Degree of the join-sweep map K * L -> S^n; equals -Lk(K, L).

    variant "reduced" integrates the analytically reduced integrand over
    K x L x [0, 1] (the u direction collapsed into an alpha-only kernel);
    variant "full" assembles det(f, df/ds, df/dt, df/du) at every node with
    finite-difference partials of step `fd_step`, whose truncation error
    dominates that route's accuracy.
    """
    k, l, n = _check_pair(K, L)
    grid = grid or GridSpec()
    if variant == "reduced":
        def precheck(amin, amax):
            if amin <= min_alpha:
                raise DisjointnessError(
                    f"min geodesic separation {amin:.4f} rad <= threshold {min_alpha}"
                )

        est, amin, amax, counts = _refine_pair(
            K, L, grid.nodes_for(K, "k"), grid.nodes_for(L, "l"),
            lambda level: _reduced_kernel(k, l, n, grid.u * 2 ** level),
            tol, max_level, workers, precheck)
        return _finish_report(est, 1.0 / _vol_sphere_any(n), amin, amax,
                              "join_degree_reduced", counts)
    if variant == "full":
        return _join_degree_full(K, L, grid, tol, max_level, min_alpha,
                                 fd_step, workers)
    raise ValueError(f"unknown join-degree variant {variant!r}")


def convergence_table(K: OrientedSubmanifold, L: OrientedSubmanifold,
                      method: str = "main", grid: GridSpec | None = None,
                      levels: int = 4, tol: float = 1e-9,
                      workers: int | None = None):
    """Per-level refinement study: one row per doubling of all factors.

    Row j holds the value on the grid refined j times, the Richardson
    difference against the previous level, and whether that difference is
    already below tol.  Used by the convergence CLI subcommand.
    """
    k, l, n = _check_pair(K, L)
    grid = grid or GridSpec()
    ev = kernels.get_evaluator(k, l)
    if method == "main":
        kern_at = lambda level: ev.kernel_ratio
        prefactor = 1.0 / _vol_sphere_any(n)
    elif method == "corollary":
        conv_kern = partial(ev.convolution_fast, sin_power=n)
        kern_at = lambda level: conv_kern
        prefactor = sign_factor("corollary_prefactor", k=k) / _vol_sphere_any(n)
    elif method == "join-reduced":
        kern_at = lambda level: _reduced_kernel(k, l, n, grid.u * 2 ** level)
        prefactor = 1.0 / _vol_sphere_any(n)
    else:
        raise ValueError(f"convergence table not supported for method {method!r}")

    base_k = grid.nodes_for(K, "k")
    base_l = grid.nodes_for(L, "l")
    rows = []
    prev = None
    for j in range(levels + 1):
        value, nodes, _, _ = _pair_level_value(
            K, L, base_k * 2 ** j, base_l * 2 ** j, kern_at(j), workers)
        value *= prefactor
        if j > 0:
            err = abs(value - prev)
            rows.append({"level": j, "nodes": nodes, "value": value,
                         "error_estimate": err, "converged": bool(err < tol)})
        prev = value
    return rows


def _join_degree_full(K, L, grid, tol, max_level, min_alpha, fd_step, workers):
    k, l, n = _check_pair(K, L)
    pk0, _, _, _ = _side_arrays(K, grid.nodes_for(K, "k"))
    pl0, _, _, _ = _side_arrays(L, grid.nodes_for(L, "l"))
    amin, amax = _alpha_stats(pk0, pl0)
    if amin <= min_alpha:
        raise DisjointnessError(
            f"min geodesic separation {amin:.4f} rad <= threshold {min_alpha}"
        )
    if amax >= np.pi - 0.01:
        raise DisjointnessError(
            "full join-degree variant needs separation from the antipodal "
            f"image (max alpha {amax:.4f} too close to pi); use the reduced variant"
        )

    # fixed-point factors (dimension 0 sides) are summed outside the grid
    k_fixed = K.dim == 0
    l_fixed = L.dim == 0
    k_pts, k_signs = K.signed_points() if k_fixed else (None, None)
    l_pts, l_signs = L.signed_points() if l_fixed else (None, None)

    rules = []
    if not k_fixed:
        rules += _rules_for(K, grid.nodes_for(K, "k"))
    if not l_fixed:
        rules += _rules_for(L, grid.nodes_for(L, "l"))
    rules.append(gauss_legendre(0.0, 1.0, grid.u))
    grid0 = ProductGrid(rules)

    def make_integrand(x_fixed, y_fixed):
        def integrand(nodes):
            ncols = []
            pos = 0
            if k_fixed:
                x = np.broadcast_to(x_fixed, (nodes.shape[0], n + 1))
                s_coords = None
            else:
                s_coords = nodes[:, pos : pos + k]
                pos += k
                x = K.batch(s_coords)[0]
            if l_fixed:
                y = np.broadcast_to(y_fixed, (nodes.shape[0], n + 1))
                t_coords = None
            else:
                t_coords = nodes[:, pos : pos + l]
                pos += l
                y = L.batch(t_coords)[0]
            u = nodes[:, -1:]
            ncols.append(_join_batch(x, y, u))
            if not k_fixed:
                for i in range(k):
                    h = np.zeros(k)
                    h[i] = fd_step
                    xp = K.batch(s_coords + h)[0]
                    xm = K.batch(s_coords - h)[0]
                    ncols.append((_join_batch(xp, y, u) - _join_batch(xm, y, u)) / (2 * fd_step))
            if not l_fixed:
                for j in range(l):
                    h = np.zeros(l)
                    h[j] = fd_step
                    yp = L.batch(t_coords + h)[0]
                    ym = L.batch(t_coords - h)[0]
                    ncols.append((_join_batch(x, yp, u) - _join_batch(x, ym, u)) / (2 * fd_step))
            ncols.append((_join_batch(x, y, u + fd_step) - _join_batch(x, y, u - fd_step)) / (2 * fd_step))
            return np.linalg.det(np.stack(ncols, axis=2))
        return integrand

    outer = []
    if k_fixed and l_fixed:
        outer = [(float(sk * sl), xp, yp)
                 for xp, sk in zip(k_pts, k_signs)
                 for yp, sl in zip(l_pts, l_signs)]
    elif k_fixed:
        outer = [(float(sk), xp, None) for xp, sk in zip(k_pts, k_signs)]
    elif l_fixed:
        outer = [(float(sl), None, yp) for yp, sl in zip(l_pts, l_signs)]
    else:
        outer = [(1.0, None, None)]

    total = 0.0
    err = 0.0
    converged = True
    levels = 0
    counts = []
    for sign, xp, yp in outer:
        est = refine_until(grid0, make_integrand(xp, yp), tol=tol,
                           max_level=max_level, workers=workers)
        total += sign * est.value
        err += est.error_estimate
        converged = converged and est.converged
        levels = max(levels, est.levels_used)
    counts = [grid0.total_points * (2 ** grid0.ndim) ** j for j in range(levels + 2)]
    est = Estimate(value=total, error_estimate=err, levels_used=levels,
                   converged=converged)
    return _finish_report(est, 1.0 / _vol_sphere_any(n), amin, amax,
                          "join_degree_full", tuple(counts))
