"""Tensor-product quadrature with deterministic summation.

Rules are chosen to match chart structure: periodic chart directions use
the uniform (periodic) trapezoid rule, which is spectrally accurate for
smooth periodic integrands; open directions use Gauss-Legendre, whose
nodes are strictly interior, so chart endpoints (e.g. the poles of a
spherical chart) are never sampled.

Refinement contract: ``refine_until(grid0, level_sum, tol, max_level)`` is
the one Richardson loop of the package.  It calls ``level_sum(grid)`` on
``grid0``, ``grid0.refined()``, ... (any grid object with a ``refined()``
that doubles every node count), stops once two successive level values
differ by less than ``tol`` or after ``max_level`` extra doublings, and
returns every level's value in the :class:`Estimate`.  ``tol`` must be
>= 0: ``0`` runs every level, ``inf`` stops after level 1, and a negative
or NaN tolerance raises ValueError.

Reproducibility contract: node order is lexicographic in factor order, and
every reduction is a fixed pairwise tree keyed by index ranges.  Partial
evaluation may be distributed over worker threads (``SPHERELINK_WORKERS``
caps the count), but the combination tree never depends on the worker
count, so results are bit-identical for any parallelism level.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule1D",
    "ProductGrid",
    "Estimate",
    "periodic_trapezoid",
    "gauss_legendre",
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


@lru_cache(maxsize=256)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


@dataclass(frozen=True)
class QuadratureRule1D:
    """One quadrature factor: rule kind, interval, node count."""

    kind: str  # "periodic_trapezoid" or "gauss_legendre"
    a: float
    b: float
    m: int

    def __post_init__(self):
        if self.kind not in ("periodic_trapezoid", "gauss_legendre"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("node count must be positive")
        if not self.b > self.a:
            raise ValueError("interval must have positive length")

    @property
    def periodic(self) -> bool:
        return self.kind == "periodic_trapezoid"

    def nodes_weights(self):
        if self.kind == "periodic_trapezoid":
            h = (self.b - self.a) / self.m
            return self.a + h * np.arange(self.m), np.full(self.m, h)
        x, w = _leggauss(self.m)
        mid, half = 0.5 * (self.b + self.a), 0.5 * (self.b - self.a)
        return mid + half * x, half * w

    def refined(self) -> "QuadratureRule1D":
        return QuadratureRule1D(self.kind, self.a, self.b, 2 * self.m)


def periodic_trapezoid(a: float, b: float, m: int) -> QuadratureRule1D:
    return QuadratureRule1D("periodic_trapezoid", a, b, m)


def gauss_legendre(a: float, b: float, m: int) -> QuadratureRule1D:
    return QuadratureRule1D("gauss_legendre", a, b, m)


class ProductGrid:
    """Tensor product of 1-D rules; nodes in lexicographic factor order."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.factor_counts = tuple(r.m for r in self.rules)
        self.total_points = int(np.prod(self.factor_counts)) if self.rules else 1

    @property
    def ndim(self) -> int:
        return len(self.rules)

    def points_weights(self):
        """Flat node coordinates (N, d) and weights (N,), lexicographic."""
        if not self.rules:
            return np.zeros((1, 0)), np.ones(1)
        nodes = []
        weights = []
        for r in self.rules:
            x, w = r.nodes_weights()
            nodes.append(x)
            weights.append(w)
        mesh = np.meshgrid(*nodes, indexing="ij")
        pts = np.column_stack([g.ravel() for g in mesh])
        wmesh = np.meshgrid(*weights, indexing="ij")
        wts = wmesh[0].ravel().copy()
        for g in wmesh[1:]:
            wts *= g.ravel()
        return pts, wts

    def refined(self) -> "ProductGrid":
        return ProductGrid(r.refined() for r in self.rules)


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
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        head = v[: 2 * half : 2] + v[1 : 2 * half : 2]
        if n % 2:
            v = np.concatenate([head, v[-1:]])
        else:
            v = head
        n = v.size
    return float(v[0])


def tree_sum_axis(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pairwise-tree sum along one axis, same pairing as :func:`tree_sum`."""
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
    keyed by chunk index land identically for every worker count.
    """
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    w = workers if workers is not None else worker_count()
    if w <= 1 or len(spans) <= 1:
        for s, e in spans:
            work(s, e)
    else:
        with ThreadPoolExecutor(max_workers=w) as pool:
            list(pool.map(lambda span: work(*span), spans))
    return len(spans)


def refine_until(grid0, level_sum, tol: float, max_level: int = 6) -> Estimate:
    """Double every node count until the Richardson estimate drops below tol.

    level_sum(grid) integrates one level; grid0.refined() gives the next
    grid.  Levels 0 and 1 always run, then at most max_level more.  Never
    raises on non-convergence; the returned Estimate carries
    ``converged=False`` when max_level was exhausted first.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
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
