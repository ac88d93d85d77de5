"""Independent ground truth for links of curves in S^3.

A disjoint pair of closed curves on S^3 is pushed through stereographic
projection (from a pole avoiding both curves) into ordinary 3-space, where
the classical double-line-integral counts the linking number:

    Lk = (1 / 4 pi) * integral of (x'(s) x y'(t)) . (x - y) / |x - y|^3.

The projection frame (q1, q2, q3) is completed so that det(q1, q2, q3, p)
= +1; with the point-first orientation of S^3 this makes the projection
orientation-preserving, so the Euclidean value needs no sign fix to match
the sphere-side evaluators.  Pole choice cannot affect the result, which
the tests exercise directly.

The double integral runs through the package's one refinement loop,
:func:`spherelink.quadrature.refine_until`, on a product of two periodic
trapezoid rules, each level summed over chunks of K rows of bounded size
by :func:`spherelink.quadrature.run_chunked`.  The minimum-distance and
velocity checks run on every integrated level, and the report's distance
range covers every node of every level.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .catalog import OrientedSubmanifold
from .engine import LinkingReport, _finish_report
from .quadrature import ProductGrid, periodic_trapezoid, refine_until, tree_sum, tree_sum_axis

__all__ = ["EuclideanCurve", "stereographic_project", "gauss_linking_integral",
           "find_pole", "POLE_CANDIDATES"]

# elements of the (rows, m, 3) difference array per chunk of K rows
_GAUSS_CHUNK = 1 << 20


@dataclass(frozen=True)
class EuclideanCurve:
    """Closed curve in R^3: vectorized map s -> (points, velocities)."""

    evaluate: callable
    period: float = 2 * np.pi

    def sample(self, m: int):
        s = np.arange(m) * (self.period / m)
        return self.evaluate(s)


def _candidate_poles():
    polest = []
    eye = np.eye(4)
    for i in range(4):
        polest.append(eye[i])
        polest.append(-eye[i])
    signs = [(1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1),
             (-1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
             (-1, 1, 1, -1), (-1, 1, -1, 1), (-1, -1, 1, 1), (1, -1, -1, -1)]
    for sg in signs:
        polest.append(np.asarray(sg, dtype=float) / 2.0)
    return np.array(polest)


# 20 well-spread unit vectors on S^3: the 8 signed axes plus 12 diagonals.
POLE_CANDIDATES = _candidate_poles()


def _curve_points(curve: OrientedSubmanifold, m: int):
    if curve.ambient_n != 3 or curve.dim != 1:
        raise ValueError("the oracle handles curves on S^3 only")
    s = np.arange(m) * (2 * np.pi / m)
    return curve.batch(s[:, None])


def find_pole(curves, samples: int = 512, min_distance: float = 0.05) -> np.ndarray:
    """Pick the candidate pole farthest from every sampled curve point."""
    pts = np.vstack([_curve_points(c, samples)[0] for c in curves])
    dots = np.clip(POLE_CANDIDATES @ pts.T, -1.0, 1.0)
    closest = np.arccos(dots.max(axis=1))  # geodesic distance to nearest point
    best = int(np.argmax(closest))
    if closest[best] <= min_distance:
        raise ValueError("no candidate pole is clear of the curves")
    return POLE_CANDIDATES[best]


def _projection_frame(pole: np.ndarray) -> np.ndarray:
    """Orthonormal (q1, q2, q3) with det(q1, q2, q3, pole) = +1, fixed rule."""
    drop = int(np.argmax(np.abs(pole)))
    qs = []
    for i in range(4):
        if i == drop:
            continue
        v = np.eye(4)[i] - np.dot(np.eye(4)[i], pole) * pole
        for q in qs:
            v = v - np.dot(v, q) * q
        v = v / np.linalg.norm(v)
        qs.append(v)
    frame = np.column_stack(qs)
    if np.linalg.det(np.column_stack([frame, pole])) < 0:
        frame = frame[:, [0, 2, 1]]
    return frame


def stereographic_project(curve: OrientedSubmanifold, pole,
                          min_distance: float = 0.05,
                          check_samples: int = 512) -> EuclideanCurve:
    """Project a curve on S^3 to R^3 from `pole`, velocities by chain rule."""
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    pts = _curve_points(curve, check_samples)[0]
    closest = float(np.arccos(np.clip(np.max(pts @ pole), -1.0, 1.0)))
    if closest <= min_distance:
        raise ValueError(
            f"pole passes within {closest:.4f} rad of the curve; pick another pole"
        )
    frame = _projection_frame(pole)

    def evaluate(s):
        p, t = curve.batch(np.asarray(s, dtype=float)[:, None])
        v = t[:, :, 0]
        w = p @ pole
        dw = v @ pole
        xi = p @ frame
        dxi = v @ frame
        denom = (1.0 - w)[:, None]
        pts3 = xi / denom
        vel3 = dxi / denom + xi * (dw[:, None] / denom**2)
        return pts3, vel3

    return EuclideanCurve(evaluate=evaluate)


def _gauss_level(K: EuclideanCurve, L: EuclideanCurve, grid: ProductGrid):
    """One level of the double integral; returns (value, min, max distance).

    K rows are taken in chunks of at most _GAUSS_CHUNK elements of the
    (rows, m, 3) difference array, and each row is tree-summed whole, so
    the value does not depend on the chunking.
    """
    (sk, wk), (sl, wl) = (rule.nodes_weights() for rule in grid.rules)
    x, dx = K.evaluate(sk)
    y, dy = L.evaluate(sl)
    if min(float(np.min(np.linalg.norm(dx, axis=1))),
           float(np.min(np.linalg.norm(dy, axis=1)))) <= 1e-8:
        raise ValueError("curve velocity vanishes on the sample grid")
    cs = max(1, _GAUSS_CHUNK // (3 * y.shape[0]))
    rows = np.empty(x.shape[0])
    dmins, dmaxs = {}, {}

    def work(s, e):
        diff = x[s:e, None, :] - y[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        cross = np.cross(dx[s:e, None, :], np.broadcast_to(dy[None, :, :], diff.shape))
        rows[s:e] = tree_sum_axis(np.sum(cross * diff, axis=2) / dist**3, axis=1)
        dmins[s], dmaxs[s] = float(dist.min()), float(dist.max())

    # called through the module, so that wrappers installed there see it
    quadrature.run_chunked(x.shape[0], work, chunk=cs)
    total = tree_sum(rows) * wk[0] * wl[0]
    return total / (4.0 * np.pi), min(dmins.values()), max(dmaxs.values())


def gauss_linking_integral(K: EuclideanCurve, L: EuclideanCurve,
                           m: int = 256, tol: float = 1e-9,
                           max_level: int = 4,
                           min_distance: float = 1e-3) -> LinkingReport:
    """Classical linking integral of two closed curves in R^3.

    Periodic-trapezoid tensor quadrature (spectrally accurate for smooth
    closed curves) with the node count doubled until the step-to-step
    change falls below tol.  min/max alpha in the report hold the observed
    Euclidean separation range, not geodesic angles.
    """
    grid = ProductGrid([periodic_trapezoid(0.0, K.period, m),
                        periodic_trapezoid(0.0, L.period, m)])
    counts, ranges = [], []

    def level_sum(g):
        value, dmin, dmax = _gauss_level(K, L, g)
        if dmin <= min_distance:
            raise ValueError(
                f"curves approach within {dmin:.2e} in R^3 (threshold {min_distance})"
            )
        counts.append(g.total_points)
        ranges.append((dmin, dmax))
        return value

    est = refine_until(grid, level_sum, tol, max_level)
    return _finish_report(est, 1.0, ranges, "gauss_oracle", counts)


def oracle_linking(K: OrientedSubmanifold, L: OrientedSubmanifold,
                   m: int = 256, tol: float = 1e-9,
                   max_level: int = 4) -> LinkingReport:
    """Project both S^3 curves from one shared admissible pole and integrate."""
    pole = find_pole([K, L])
    return gauss_linking_integral(
        stereographic_project(K, pole), stereographic_project(L, pole),
        m=m, tol=tol, max_level=max_level)
