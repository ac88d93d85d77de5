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

Refinement contract: ``refine_until(grid0, level_sum, tol, max_level)`` is
the one refinement loop of the package.  A grid is a tuple of node counts,
one per tensor factor (the engine's order: K's chart factors, then L's,
then the join parameter ``u`` for join-full), and ``level_sum(counts)``
integrates it.  Each step integrates the base grid G and its probes G_i
(:func:`probes`: G with factor i doubled), and takes
Delta_i = v(G_i) - v(G).  Tensor-product errors add to leading order, so
the sum of |Delta_i| estimates the error of v(G) + sum Delta_i, which is
second order.  The loop stops once that sum is below ``tol``; otherwise it
doubles, in the base, the factors whose |Delta_i| >= tol / f (f factors;
at least one qualifies) and steps again, reusing every level sum it has
already taken.  ``max_level`` (a required argument: the one default is
the engine's ``MAX_LEVEL``) caps each base factor at that many doublings,
so no probe is finer than 2^(max_level + 1) times its base count.  The
:class:`Estimate` lists every level sum in the order it was taken.
``tol``, the error estimate and the level values are one number on one
scale, the scale of ``level_sum``'s values: every engine route and the
oracle return them on the scale of Lk itself, so nothing is rescaled after
the loop.  ``tol`` must be >= 0: ``0`` grows every factor to the cap,
``inf`` stops after the first step, and a negative or NaN tolerance, like a
negative ``max_level``, raises ValueError.

Reproducibility contract: node order is lexicographic in factor order, and
every reduction is a fixed pairwise tree keyed by index ranges.  Partial
evaluation may be distributed over worker threads (``SPHERELINK_WORKERS``
caps the count, by default the CPUs the process may run on; a pool starts
no more threads than it has chunks), but the combination tree never
depends on the worker count, so results are bit-identical for any
parallelism level.  While a
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

import numpy as np

__all__ = [
    "ChartDim",
    "product_rule",
    "tensor_grid",
    "Estimate",
    "tree_sum",
    "tree_sum_axis",
    "refine_until",
    "probes",
    "worker_count",
]

# Fixed evaluation chunk (number of nodes); constant so that the reduction
# tree is independent of memory pressure and worker count.
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


def tensor_grid(factors) -> np.ndarray:
    """The flat tensor grid of 1-D arrays: shape (N, d), lexicographic with
    the first factor slowest, for any number d >= 1 of factors."""
    sizes = [len(a) for a in factors]
    total, before, cols = math.prod(sizes), 1, []
    for a, m in zip(factors, sizes):
        cols.append(np.tile(np.repeat(a, total // (before * m)), before))
        before *= m
    return np.column_stack(cols)


def product_rule(domain, counts):
    """Tensor product of each factor's rule at its own node count: flat
    coordinates (N, d) and weights (N,), lexicographic with the first factor
    slowest; each weight is the product of its factors' weights, taken in
    order."""
    if len(counts) != len(domain):
        raise ValueError(f"{len(domain)} chart factors need as many node counts, "
                         f"got {len(counts)}")
    nodes, weights = zip(*(cd.rule(m) for cd, m in zip(domain, counts)))
    return tensor_grid(nodes), reduce(np.multiply, tensor_grid(weights).T)


def probes(counts: tuple) -> list[tuple]:
    """The grids one refinement step probes: counts with factor i doubled,
    for each factor i in order."""
    return [counts[:i] + (2 * m,) + counts[i + 1:] for i, m in enumerate(counts)]


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


def run_chunked(total: int, work, workers: int | None = None, chunk: int = CHUNK):
    """Apply work(start, stop) over fixed chunks, optionally in threads.

    Chunk boundaries depend only on `total` and `chunk`, so any side effects
    keyed by chunk index land identically for every worker count, and the
    pool starts no more threads than there are chunks.  OpenBLAS runs one
    thread of its own for as long as the call does, unless several workers
    are allowed but there is one chunk to share: then its own threads take
    up the workers' idle cores.
    """
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    w = workers if workers is not None else worker_count()
    pooled = w > 1 and len(spans) > 1
    with _BLAS_CAP.one_thread() if pooled or w <= 1 else nullcontext():
        if pooled:
            with ThreadPoolExecutor(max_workers=min(w, len(spans))) as pool:
                list(pool.map(lambda span: work(*span), spans))
        else:
            for s, e in spans:
                work(s, e)
    return len(spans)


def refine_until(grid0, level_sum, tol: float, max_level: int) -> Estimate:
    """Grow the factors whose one-factor doubling still moves the value.

    grid0 is the tuple of base node counts, one per factor, and
    level_sum(counts) integrates one grid.  Each step takes the base G, each
    probe G_i of :func:`probes` and Delta_i = v(G_i) - v(G); it stops once
    sum |Delta_i| < tol, and otherwise doubles in the base every factor with
    |Delta_i| >= tol / f that is below its cap, max_level (>= 0, required,
    the run default being the engine's ``MAX_LEVEL``) doublings of grid0.
    A level sum already taken, such as the probe a one-factor step grows
    into, is reused.  The Estimate's value is v(G) + sum Delta_i and its
    error_estimate sum |Delta_i|, both from the last step.  Never raises on
    non-convergence: a run that ends with every qualifying factor at its
    cap carries ``converged=False``.  A grid of no factors is one level
    sum with estimate 0.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
    if not max_level >= 0:
        raise ValueError(f"max_level must be >= 0, got {max_level!r}")
    base = tuple(grid0)
    caps = [m * 2**max_level for m in base]
    share = tol / max(len(base), 1)
    sums = {}

    def value(counts):
        if counts not in sums:
            sums[counts] = level_sum(counts)
        return sums[counts]

    steps = 0
    while True:
        v = value(base)
        deltas = [value(g) - v for g in probes(base)]
        err = math.fsum(abs(d) for d in deltas)
        grow = {i for i, d in enumerate(deltas) if abs(d) >= share and base[i] < caps[i]}
        if err < tol or not grow:
            break
        base = tuple(2 * m if i in grow else m for i, m in enumerate(base))
        steps += 1
    return Estimate(value=v + math.fsum(deltas), error_estimate=err, levels_used=steps,
                    converged=bool(err < tol), level_values=tuple(sums.values()))
