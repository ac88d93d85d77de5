"""Chart quadrature, the refinement loop and deterministic summation.

Chart sampling has one home here.  A chart factor, :class:`ChartDim`, owns
its 1-D rule: periodic factors take the uniform (periodic) trapezoid rule,
which is spectrally accurate for smooth periodic integrands, and open
factors take Gauss-Legendre, whose nodes are strictly interior, so chart
endpoints (e.g. the poles of a spherical chart) are never sampled.
:func:`product_rule` maps a chart domain and one node count, shared by
every factor, to the lexicographic product of those rules, laid out by
:func:`tensor_grid`.  Every route and the oracle lay out their chart and
curve nodes through these; only the catalog's construction-time sanity
checks on outside input keep layouts of their own (tensor grids too, of
midpoints).

Refinement contract: ``refine_until(grid0, level_sum, tol, max_level)`` is
the one Richardson loop of the package.  It calls ``level_sum(grid)`` on
``grid0``, ``grid0.refined()``, ... (any grid object with a ``refined()``
that doubles every node count; the engine's ``GridSpec`` is the only one),
stops once two successive level values differ by less than ``tol`` or after
``max_level`` extra doublings (a required argument: the one level-cap
default is the engine's ``MAX_LEVEL``), and returns every level's value in the
:class:`Estimate`.  ``tol``, the error estimate and the level values are
one number on one scale, the scale of ``level_sum``'s values: every engine
route and the oracle return them on the scale of Lk itself, so nothing is
rescaled after the loop.  ``tol`` must be >= 0: ``0`` runs every level,
``inf`` stops after level 1, and a negative or NaN tolerance, like a
negative ``max_level``, raises ValueError.

Reproducibility contract: node order is lexicographic in factor order, and
every reduction is a fixed pairwise tree keyed by index ranges.  Partial
evaluation may be distributed over worker threads (``SPHERELINK_WORKERS``
caps the count), but the combination tree never depends on the worker
count, so results are bit-identical for any parallelism level.  While a
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
    "worker_count",
]

# Fixed evaluation chunk (number of nodes); constant so that the reduction
# tree is independent of memory pressure and worker count.
CHUNK = 1 << 17


def worker_count() -> int:
    """Worker cap from SPHERELINK_WORKERS, defaulting to the CPU count.

    Raises ValueError unless the variable is unset, blank or an integer >= 1.
    """
    raw = os.environ.get("SPHERELINK_WORKERS", "").strip()
    if not raw:
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


def product_rule(domain, m: int):
    """Tensor product of each factor's rule at m nodes: flat coordinates
    (N, d) and weights (N,), lexicographic with the first factor slowest;
    each weight is the product of its factors' weights, taken in order."""
    nodes, weights = zip(*(cd.rule(m) for cd in domain))
    return tensor_grid(nodes), reduce(np.multiply, tensor_grid(weights).T)


@dataclass(frozen=True)
class Estimate:
    """Quadrature result with a one-step Richardson error estimate.

    level_values holds the value of every level integrated, coarsest first.
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
    keyed by chunk index land identically for every worker count.  OpenBLAS
    runs one thread of its own for as long as the call does, unless several
    workers are allowed but there is one chunk to share: then its own
    threads take up the workers' idle cores.
    """
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    w = workers if workers is not None else worker_count()
    pooled = w > 1 and len(spans) > 1
    with _BLAS_CAP.one_thread() if pooled or w <= 1 else nullcontext():
        if pooled:
            with ThreadPoolExecutor(max_workers=w) as pool:
                list(pool.map(lambda span: work(*span), spans))
        else:
            for s, e in spans:
                work(s, e)
    return len(spans)


def refine_until(grid0, level_sum, tol: float, max_level: int) -> Estimate:
    """Double every node count until the Richardson estimate drops below tol.

    level_sum(grid) integrates one level; grid0.refined() gives the next
    grid.  Levels 0 and 1 always run, then at most max_level more.
    max_level (>= 0) is required and has no default here: the run default
    is the engine's ``MAX_LEVEL``, which every route and the oracle pass
    on.  tol is compared with the last two level values as level_sum
    returns them, and the Estimate's error_estimate is exactly that
    difference.  Never raises on non-convergence; the returned Estimate
    carries ``converged=False`` when max_level was exhausted first.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
    if not max_level >= 0:
        raise ValueError(f"max_level must be >= 0, got {max_level!r}")
    grid = grid0.refined()
    values = [level_sum(grid0), level_sum(grid)]
    err = abs(values[1] - values[0])
    level = 0
    while err >= tol and level < max_level:
        level += 1
        grid = grid.refined()
        values.append(level_sum(grid))
        err = abs(values[-1] - values[-2])
    return Estimate(value=values[-1], error_estimate=err, levels_used=level,
                    converged=bool(err < tol), level_values=tuple(values))
