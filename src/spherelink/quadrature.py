"""Chart quadrature, the refinement loop and deterministic summation.

Chart sampling has one home here.  A chart factor, :class:`ChartDim`, owns
its 1-D rule: periodic factors take the uniform (periodic) trapezoid rule,
which is spectrally accurate for smooth periodic integrands, and open
factors take Gauss-Legendre, whose nodes are strictly interior, so chart
endpoints (e.g. the poles of a spherical chart) are never sampled.
:func:`product_rule` maps a chart domain and one node count per factor to
the lexicographic product of those rules, laid out by :func:`tensor_grid`.
Every route and the oracle lay out their chart and curve nodes through
these; only the catalog's construction-time sanity checks on outside input
keep layouts of their own (tensor grids too, of midpoints).

Refinement contract: ``refine_until(grid0, level_sums, tol, max_level,
domain)`` is the one refinement loop of the package.  A grid is a tuple of
node counts, one per tensor factor of the chart factors `domain` (the
engine's order: K's chart factors, then L's, then the join parameter ``u``
for join-full).  Each step integrates the base grid G and its probes G_i
(:func:`probes`: G with factor i refined once, a periodic factor doubled,
an open one extended to its Gauss-Kronrod rule :class:`Kronrod`), in one
call ``level_sums(grids)`` that takes the step's grids not yet summed, base
first and then the probes in factor order, and returns their values in
that order, so the caller sees a whole step at once; then it takes
Delta_i = v(G_i) - v(G).  Tensor-product errors add to leading order, so
the sum of |Delta_i| estimates the error of v(G) + sum Delta_i, which is
second order.  The loop stops once that sum is below ``tol``; otherwise it
doubles, in the base, the factors whose |Delta_i| >= tol / f (f factors;
at least one qualifies), an open one to its Gauss-Legendre rule at twice
its count, and steps again, reusing every level sum it has already taken.  ``max_level`` (a required
argument: the one default is the engine's ``MAX_LEVEL``) caps each base
factor at that many doublings, so no probe is finer than 2^(max_level + 1)
times its base count, plus one node on an open factor.  The
:class:`Estimate` lists every level sum in the order it was taken.
``tol``, the error estimate and the level values are one number on one
scale, the scale of ``level_sums``'s values: every engine route and the
oracle return them on the scale of Lk itself, so nothing is rescaled after
the loop.  ``tol`` must be >= 0: ``0`` grows every factor to the cap,
``inf`` stops after the first step, and a negative or NaN tolerance, like a
negative ``max_level``, raises ValueError.

A level sum need not pay for nodes it has integrated before.  The periodic
trapezoid rule is nested: its rule at 2m holds the rule at m as its even
nodes, each weight halved exactly.  Gauss-Legendre is not, but the
Gauss-Kronrod rule of 2m + 1 nodes (Laurie's algorithm, computed on the
first probe at m) keeps the m Gauss nodes and adds m + 1 between them, and
its difference from Gauss-Legendre is the standard error estimate of an
open factor.  So a grid grown from the base counts ``grid0`` splits into
disjoint tensor **blocks** (:func:`blocks`): one increment per factor, where
a periodic factor at m0 2^j contributes its m0 base nodes and, per
doubling, the nodes it adds (:class:`NewNodes`, the odd indices of its
rule), an open factor its whole Gauss-Legendre rule, and an open factor's
probe ``Kronrod(m)`` its Gauss nodes at their Kronrod weights
(:class:`GaussNodes`) and the m + 1 nodes it adds
(:class:`KronrodNodes`).  A block integrated with its own counts'
weights enters every finer grid scaled by 2^-(doublings since then), which
is exact, and a ``GaussNodes`` block is the block with the Gauss rule in its
place, reweighted node by node along that factor (:meth:`GaussNodes.ratio`)
from its marginal, so a caller that keeps each block's sum and marginals
pays for a probe's new nodes only, and its grid values move from a
whole-grid sum by rounding only.

Reproducibility contract: node order is lexicographic in factor order, and
every reduction is fixed by index ranges: a pairwise tree, or, for the
column sums of one chunk's rows, their order.  Partial
evaluation may be distributed over worker threads (``SPHERELINK_WORKERS``
caps the count, by default the CPUs the process may run on; a pool starts
no more threads than it has chunks to run at once), but the combination
tree never depends on the worker count, so results are bit-identical for
any parallelism level.  Inside :func:`worker_pool`, every
:func:`run_chunked` call of the thread that opened it shares one pool,
which keeps its threads between calls; a call from any other thread, a
pool worker included, runs its own pool, so nested calls cannot wait on
each other.  While a
call of :func:`run_chunked` runs its chunks on a worker pool, or on one
worker, numpy's bundled OpenBLAS is held at one thread: the workers are the
package's parallelism, and a per-chunk matrix product neither starts a BLAS
thread pool on top of them nor pays BLAS thread wake-ups on its own.  Only
a single chunk with more than one worker allowed keeps OpenBLAS's own
threads, which then use the cores the idle workers leave.  The previous
count is restored when the last capped call ends.
"""

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

__all__ = [
    "ChartDim",
    "Kronrod",
    "NewNodes",
    "GaussNodes",
    "KronrodNodes",
    "KronrodPart",
    "part_size",
    "product_rule",
    "tensor_grid",
    "Estimate",
    "tree_sum",
    "tree_sum_axis",
    "refine_until",
    "probes",
    "blocks",
    "worker_count",
    "worker_pool",
]

# No library call reads this: every caller of run_chunked passes its own
# chunk, the engine's bounded by its CHUNK_BYTES.  perfbench/tracing.py
# takes it as the default of its run_chunked wrapper.
CHUNK = 1 << 17


def worker_count() -> int:
    """Worker cap from SPHERELINK_WORKERS, defaulting to the CPUs this
    process may run on (its affinity mask where the platform has one, else
    the CPU count).

    Raises ValueError unless the variable is unset, blank or an integer >= 1.
    """
    raw = os.environ.get("SPHERELINK_WORKERS", "").strip()
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SPHERELINK_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None.

    Looked up on first use, never at import, through numpy's own extension
    module, whose dependencies include the bundled library.  A numpy linked
    to another BLAS, or built without the ``scipy_openblas`` symbols, gives
    None.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _BlasCap:
    """One OpenBLAS thread while any holder is inside :meth:`one_thread`.

    The thread count is process-wide, so holders are counted under a lock:
    the first to enter saves the count and sets 1, the last to leave
    restores it, however calls nest or overlap.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    @contextmanager
    def one_thread(self):
        api = _openblas_threads()
        if api is None:
            yield
            return
        get, put = api
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                put(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    put(self._saved)


_BLAS_CAP = _BlasCap()


@lru_cache(maxsize=256)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def _christoffel(sb: np.ndarray, x: np.ndarray):
    """At each x, sum_k p_k(x)^2 over the orthonormal polynomials p_0, ...,
    p_{n-1} of the n x n Jacobi matrix with zero diagonal and off-diagonal
    sb[1:] (sb[0]^2 the weight's mass), and the Newton step q / q' towards a
    root of q(x) = x p_{n-1} - sb[n-1] p_{n-2}, its characteristic
    polynomial up to a factor."""
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / sb[0])
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = p * p
    for k in range(len(sb)):
        q, dq = x * p - sb[k] * p_prev, p + x * d - sb[k] * d_prev
        if k + 1 == len(sb):
            return total, q / dq
        p_prev, p = p, q / sb[k + 1]
        d_prev, d = d, dq / sb[k + 1]
        total += p * p


@lru_cache(maxsize=256)
def _kronrod(m: int):
    """The Gauss-Kronrod extension of the Gauss-Legendre rule at m on
    [-1, 1]: its weights at :func:`_leggauss`'s m nodes, and its m + 1 new
    nodes, increasing, with their weights.

    Laurie's algorithm (Math. Comp. 66, 1997) extends the Legendre
    recurrence b_k = k^2 / (4 k^2 - 1) to the (2m + 1) x (2m + 1) Jacobi
    matrix whose Gauss rule is the Kronrod rule; the Legendre weight is
    symmetric, so both matrices have a zero diagonal, and the half of the
    algorithm that updates it drops out.  The matrix's eigenvalues at even
    indices are the new nodes, each polished by one Newton step, and every
    weight is the Christoffel number 1 / sum_k p_k(x)^2 of its orthonormal
    polynomials, which eigenvectors give less accurately.
    """
    b = np.zeros(2 * m + 1)
    k = np.arange(1, min((3 * m + 1) // 2, 2 * m) + 1)
    b[0], b[k] = 2.0, k**2 / (4.0 * k**2 - 1.0)
    s, t = np.zeros(m // 2 + 2), np.zeros(m // 2 + 2)
    t[1] = b[m]
    for i in range(m - 1):
        k = np.arange((i + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + m + 1] * s[k] - b[i - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for i in range(m - 1, 2 * m - 2):
        k = np.arange(i + 1 - m, (i - 1) // 2 + 1)
        j = m - 1 - i + k
        s[j + 1] = np.cumsum(b[i - k] * s[j + 2] - b[k + m + 1] * s[j + 1])
        if i % 2:
            b[(i + 1) // 2 + m + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    sb = np.sqrt(b)
    # one BLAS thread: at 2m + 1 = 65 the eigenproblem took 0.3 ms on one
    # thread and 5-8 ms on two, on a 2-vCPU host
    with _BLAS_CAP.one_thread():
        x = np.linalg.eigvalsh(np.diag(sb[1:], 1), UPLO="U")[::2]
    x -= _christoffel(sb, x)[1]
    return 1.0 / _christoffel(sb, _leggauss(m)[0])[0], x, 1.0 / _christoffel(sb, x)[0]


@dataclass(frozen=True)
class ChartDim:
    """One chart factor: the interval [lo, hi], periodic or open."""

    lo: float
    hi: float
    periodic: bool

    def rule(self, m: int):
        """Nodes and weights of m points: the periodic trapezoid rule on a
        periodic factor, Gauss-Legendre on an open one."""
        if m < 1:
            raise ValueError("node count must be positive")
        if not self.hi > self.lo:
            raise ValueError("interval must have positive length")
        if self.periodic:
            h = (self.hi - self.lo) / m
            return self.lo + h * np.arange(m), np.full(m, h)
        x, w = _leggauss(m)
        mid, half = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
        return mid + half * x, half * w

    def increment(self, part):
        """Nodes and weights of one increment of this factor: an int m is
        its whole rule at m; ``NewNodes(m)`` the nodes of the periodic rule
        at m that the rule at m / 2 lacks, sliced from ``rule(m)``; on an
        open factor, ``Kronrod(m)`` the whole Gauss-Kronrod rule of 2m + 1
        nodes in increasing order, ``GaussNodes(m)`` its m Gauss nodes,
        those of ``rule(m)``, at their Kronrod weights, and
        ``KronrodNodes(m)`` the m + 1 nodes it adds."""
        if isinstance(part, NewNodes):
            if not self.periodic or part.count % 2:
                raise ValueError(f"{part} needs a periodic factor at an even count")
            x, w = self.rule(part.count)
            return x[1::2], w[1::2]
        if not isinstance(part, KronrodPart):
            return self.rule(part)
        if self.periodic:
            raise ValueError(f"{part} needs an open factor")
        gx, _ = self.rule(part.m)
        gw, nx, nw = _kronrod(part.m)
        mid, half = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
        if isinstance(part, GaussNodes):
            return gx, half * gw
        if isinstance(part, KronrodNodes):
            return mid + half * nx, half * nw
        x, w = np.empty(2 * part.m + 1), np.empty(2 * part.m + 1)
        x[1::2], x[::2] = gx, mid + half * nx
        w[1::2], w[::2] = half * gw, half * nw
        return x, w


@dataclass(frozen=True)
class KronrodPart:
    """A part of an open factor's Gauss-Kronrod rule of 2m + 1 nodes, which
    extends its Gauss-Legendre rule at m: the whole rule, its Gauss nodes or
    its new nodes.  Each kind is a subclass, and parts of different kinds
    never compare equal."""

    m: int


class Kronrod(KronrodPart):
    """An open factor's Gauss-Kronrod rule of 2m + 1 nodes: the m nodes of
    its Gauss-Legendre rule at m, reweighted, and m + 1 more between them.
    As a grid count, the count of an open factor's probe."""


@dataclass(frozen=True)
class NewNodes:
    """The increment of a periodic factor at an even `count` that its rule
    at count / 2 lacks: the odd indices of its trapezoid rule."""

    count: int


class GaussNodes(KronrodPart):
    """The increment of ``Kronrod(m)`` that the Gauss-Legendre rule at m
    has: its m nodes at their Kronrod weights, which are the Gauss weights
    times :meth:`ratio`."""

    def ratio(self) -> np.ndarray:
        """Kronrod weight over Gauss weight at each of the m nodes."""
        return _kronrod(self.m)[0] / _leggauss(self.m)[1]


class KronrodNodes(KronrodPart):
    """The increment of ``Kronrod(m)`` that the Gauss-Legendre rule at m
    lacks: the m + 1 nodes between and beyond its Gauss nodes."""


def part_size(part) -> int:
    """The node count of a grid count or increment of one factor."""
    if isinstance(part, Kronrod):
        return 2 * part.m + 1
    if isinstance(part, GaussNodes):
        return part.m
    if isinstance(part, KronrodNodes):
        return part.m + 1
    if isinstance(part, NewNodes):
        return part.count // 2
    return part


def tensor_grid(factors) -> np.ndarray:
    """The flat tensor grid of 1-D arrays: shape (N, d), lexicographic with
    the first factor slowest, for any number d >= 1 of factors."""
    sizes = [len(a) for a in factors]
    total, before, cols = math.prod(sizes), 1, []
    for a, m in zip(factors, sizes):
        cols.append(np.tile(np.repeat(a, total // (before * m)), before))
        before *= m
    return np.column_stack(cols)


def _check_factors(domain, counts):
    """Raise ValueError unless `counts` holds one count per chart factor of
    `domain`."""
    if len(counts) != len(domain):
        raise ValueError(f"{len(domain)} chart factors need as many node counts, "
                         f"got {len(counts)}")


def product_rule(domain, counts):
    """Tensor product of each factor's rule at its own node count, or of
    one increment per factor (:meth:`ChartDim.increment`): flat coordinates
    (N, d) and weights (N,), lexicographic with the first factor slowest;
    each weight is the product of its factors' weights, taken in order."""
    _check_factors(domain, counts)
    nodes, weights = zip(*(cd.increment(m) for cd, m in zip(domain, counts)))
    return tensor_grid(nodes), reduce(np.multiply, tensor_grid(weights).T)


def probes(domain, counts: tuple) -> list[tuple]:
    """The grids one refinement step probes, for each factor i of the
    chart factors `domain` in order: counts with factor i refined once, a
    periodic factor doubled and an open one at m extended to Kronrod(m)."""
    return [counts[:i] + (2 * m if cd.periodic else Kronrod(m),) + counts[i + 1:]
            for i, (cd, m) in enumerate(zip(domain, counts))]


def _increments(cd: ChartDim, m0: int, m) -> list[tuple]:
    """One factor's increments at m grown from m0, each with the doublings
    since its own count: a periodic factor at m0 2^j is its base rule and
    the nodes each doubling added, an open factor's probe Kronrod(m') its
    Gauss nodes and the nodes it adds, any other factor or count its whole
    rule."""
    if isinstance(m, Kronrod):
        return [(GaussNodes(m.m), 0), (KronrodNodes(m.m), 0)]
    j = (m // m0).bit_length() - 1
    if cd.periodic and j >= 0 and m == m0 << j:
        return [(m0, j)] + [(NewNodes(m0 << i), j - i) for i in range(1, j + 1)]
    return [(m, 0)]


def blocks(domain, grid0, counts) -> list[tuple[tuple, int]]:
    """The disjoint tensor blocks of the grid `counts` of chart factors
    `domain`, grown from the base counts grid0: one increment per factor
    (:meth:`ChartDim.increment`), in lexicographic order with the first
    factor slowest, each with its doublings since its own counts.

    The grid's sum is the sum of its blocks' sums, each taken with its own
    increments' weights and scaled by 2^-doublings, which is exact: the
    trapezoid weights at 2m are those at m halved.  A probe of an open
    factor at m, Kronrod(m), splits into the base grid's blocks with that
    factor's increment m read as ``GaussNodes(m)``, whose sums are the base
    blocks' marginals along it reweighted by :meth:`GaussNodes.ratio`, and
    new blocks of the m + 1 nodes it adds, ``KronrodNodes(m)``, over
    the base grid's increments of every other factor.  Raises ValueError
    when grid0 or counts differ from domain in length.
    """
    _check_factors(domain, grid0)
    _check_factors(domain, counts)
    per = [_increments(cd, m0, m) for cd, m0, m in zip(domain, grid0, counts)]
    return [(tuple(p for p, _ in combo), sum(d for _, d in combo)) for combo in product(*per)]


@dataclass(frozen=True)
class Estimate:
    """Quadrature result with a per-factor error estimate.

    value is the last step's v(G) + sum Delta_i and error_estimate its
    sum |Delta_i|; levels_used counts the steps that grew the base grid;
    level_values holds every level sum taken, in the order taken, base
    first.
    """

    value: float
    error_estimate: float
    levels_used: int
    converged: bool = True
    level_values: tuple[float, ...] = ()


def tree_sum(values) -> float:
    """Pairwise-tree sum of a 1-D array in index order.

    Adjacent elements are combined level by level; an odd tail element is
    carried unchanged to the next level.  The pairing depends only on the
    array length, never on chunking or worker count.
    """
    return float(tree_sum_axis(np.ravel(values)))


def tree_sum_axis(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pairwise-tree sum along one axis: the one pairwise loop of the package.

    Adjacent elements are combined level by level and an odd tail element
    is carried unchanged, as :func:`tree_sum` describes.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = v.shape[-1]
    if n == 0:
        return np.zeros(v.shape[:-1])
    while n > 1:
        half = n // 2
        head = v[..., : 2 * half : 2] + v[..., 1 : 2 * half : 2]
        if n % 2:
            v = np.concatenate([head, v[..., -1:]], axis=-1)
        else:
            v = head
        n = v.shape[-1]
    return v[..., 0]


# the pool of the enclosing `worker_pool` block, per thread that opened one
_SHARED = threading.local()


@contextmanager
def worker_pool():
    """Let every :func:`run_chunked` call this thread makes inside the block
    share one worker pool, started at the first call that runs chunks in
    threads and shut down on exit.  Its threads outlive each call, so calls
    that follow each other start none and run on the same threads."""
    outer = getattr(_SHARED, "pool", None)
    _SHARED.pool = pool = []
    try:
        yield
    finally:
        _SHARED.pool = outer
        for executor in pool:
            # chunks still queued when a call raised are not run
            executor.shutdown(cancel_futures=True)


def run_chunked(total: int, work, workers: int | None, chunk: int):
    """Apply work(start, stop) over fixed chunks, optionally in threads.

    Chunk boundaries depend only on `total` and `chunk`, so any side effects
    keyed by chunk index land identically for every worker count, and the
    pool starts no more threads than there are chunks.  `workers` caps the
    threads, None meaning worker_count().  Inside a :func:`worker_pool`
    block opened by the calling thread, with `workers` None, the chunks run
    on that block's pool of worker_count() threads, which starts a thread
    only when no started one is idle; otherwise the call runs a pool of its
    own.  OpenBLAS runs one thread of its own for as long as the call does,
    unless several workers are allowed but there is one chunk to share: then
    its own threads take up the workers' idle cores.
    """
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    w = workers if workers is not None else worker_count()
    pooled = w > 1 and len(spans) > 1
    shared = getattr(_SHARED, "pool", None) if workers is None else None
    with _BLAS_CAP.one_thread() if pooled or w <= 1 else nullcontext():
        if pooled and shared is not None:
            if not shared:
                shared.append(ThreadPoolExecutor(max_workers=w))
            list(shared[0].map(lambda span: work(*span), spans))
        elif pooled:
            with ThreadPoolExecutor(max_workers=min(w, len(spans))) as pool:
                list(pool.map(lambda span: work(*span), spans))
        else:
            for s, e in spans:
                work(s, e)
    return len(spans)


def refine_until(grid0, level_sums, tol: float, max_level: int, domain) -> Estimate:
    """Grow the factors whose one-factor refinement still moves the value.

    grid0 is the tuple of base node counts, one per factor of the chart
    factors `domain`, and level_sums(grids) integrates a list of grids,
    returning their values in its order.  Each step takes the base G, each
    probe G_i of :func:`probes` and Delta_i = v(G_i) - v(G); it stops once
    sum |Delta_i| < tol, and otherwise doubles in the base every factor with
    |Delta_i| >= tol / f that is below its cap, max_level (>= 0, required,
    the run default being the engine's ``MAX_LEVEL``) doublings of grid0; an
    open factor at m, probed by Kronrod(m), grows to Gauss-Legendre at 2m.
    level_sums is called once per step, with the step's grids not yet
    summed, base first and then the probes in factor order: a level sum
    already taken, such as the probe a periodic factor's step grows into,
    is reused.  The Estimate's value is v(G) + sum Delta_i and its
    error_estimate sum |Delta_i|, both from the last step.  Never raises on
    non-convergence: a run that ends with every qualifying factor at its
    cap carries ``converged=False``.  A grid of no factors is one level
    sum with estimate 0.  Raises ValueError when grid0 and domain differ
    in length.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
    if not max_level >= 0:
        raise ValueError(f"max_level must be >= 0, got {max_level!r}")
    _check_factors(domain, grid0)
    base = tuple(grid0)
    caps = [m * 2**max_level for m in base]
    share = tol / max(len(base), 1)
    sums = {}
    steps = 0
    while True:
        grids = [base] + probes(domain, base)
        new = [g for g in grids if g not in sums]
        sums.update(zip(new, level_sums(new), strict=True))
        v = sums[base]
        deltas = [sums[g] - v for g in grids[1:]]
        err = math.fsum(abs(d) for d in deltas)
        grow = {i for i, d in enumerate(deltas) if abs(d) >= share and base[i] < caps[i]}
        if err < tol or not grow:
            break
        base = tuple(2 * m if i in grow else m for i, m in enumerate(base))
        steps += 1
    return Estimate(value=v + math.fsum(deltas), error_estimate=err, levels_used=steps,
                    converged=bool(err < tol), level_values=tuple(sums.values()))
