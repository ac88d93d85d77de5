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

The double integral is one more ``terms`` of the engine's level sum,
:func:`spherelink.engine._level_sum`, on a product of two periodic
trapezoid rules of ``GridSpec.curve`` nodes each: a chunk's geometry is its
R^3 difference vectors and distances, and the minimum-distance check runs
on each chunk of every level before the integrand divides by them.  The
1 / 4 pi is folded into the velocities, so every level sum is on the scale
of Lk, as on the sphere routes.  The engine's
:func:`~spherelink.engine._refined_report` refines the ``GridSpec`` levels
and reports them, so the report's distance range covers every node of every
level.  The oracle has no geodesic threshold: its separation check is the
fixed R^3 distance ``_MIN_DISTANCE``.
"""

from dataclasses import dataclass

import numpy as np

from .catalog import OrientedSubmanifold
from .engine import MAX_LEVEL, TOL, GridSpec, LinkingReport, _Level, _refined_report
from .quadrature import ChartDim, product_rule

__all__ = ["EuclideanCurve", "stereographic_project", "gauss_linking_integral",
           "find_pole", "POLE_CANDIDATES", "CURVE_NODES"]


@dataclass(frozen=True)
class EuclideanCurve:
    """Closed curve in R^3: vectorized map s -> (points, velocities)."""

    evaluate: callable
    period: float = 2 * np.pi

    def sample(self, m: int):
        """Points and velocities at the m nodes of the periodic trapezoid rule."""
        return self.evaluate(ChartDim(0.0, self.period, True).rule(m)[0])


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
# curve samples a pole is checked against, and the geodesic clearance (rad)
# it must keep from every one of them
_POLE_SAMPLES = 512
_POLE_CLEARANCE = 0.05
# least R^3 distance between the projected curves the integral accepts
_MIN_DISTANCE = 1e-3
# default base node count per curve, of the Python API and the CLI alike
CURVE_NODES = 256


def _curve_points(curve: OrientedSubmanifold, m: int):
    if curve.ambient_n != 3 or curve.dim != 1:
        raise ValueError("the oracle handles curves on S^3 only")
    return curve.batch(product_rule(curve.chart_domain, m)[0])


def find_pole(curves) -> np.ndarray:
    """Pick the candidate pole farthest from every sampled curve point."""
    pts = np.vstack([_curve_points(c, _POLE_SAMPLES)[0] for c in curves])
    dots = np.clip(POLE_CANDIDATES @ pts.T, -1.0, 1.0)
    closest = np.arccos(dots.max(axis=1))  # geodesic distance to nearest point
    best = int(np.argmax(closest))
    if closest[best] <= _POLE_CLEARANCE:
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


def stereographic_project(curve: OrientedSubmanifold, pole) -> EuclideanCurve:
    """Project a curve on S^3 to R^3 from `pole`, velocities by chain rule."""
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    pts = _curve_points(curve, _POLE_SAMPLES)[0]
    closest = float(np.arccos(np.clip(np.max(pts @ pole), -1.0, 1.0)))
    if closest <= _POLE_CLEARANCE:
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


def _gauss_terms(K: EuclideanCurve, L: EuclideanCurve, grid: GridSpec) -> _Level:
    """One level of the double integral, as a `terms` of the engine's level sum.

    Each curve gets a periodic trapezoid rule of grid.curve nodes.  A
    chunk's geometry is the R^3 difference vectors x - y and their
    lengths, whose range is the separation checked.  Both sides' trapezoid
    weights and the 1 / 4 pi are folded into the velocities.
    """
    m = grid.curve
    (sk, wk), (sl, wl) = (ChartDim(0.0, c.period, True).rule(m) for c in (K, L))
    x, dx = K.evaluate(sk)
    y, dy = L.evaluate(sl)
    if min(float(np.min(np.linalg.norm(dx, axis=1))),
           float(np.min(np.linalg.norm(dy, axis=1)))) <= 1e-8:
        raise ValueError("curve velocity vanishes on the sample grid")
    dx = dx * wk[:, None]
    dy = dy * (wl / (4.0 * np.pi))[:, None]

    def geometry(s, e):
        diff = x[s:e, None, :] - y[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        return (diff, dist), (float(dist.min()), float(dist.max()))

    def values(s, e, diff, dist):
        cross = np.cross(dx[s:e, None, :], np.broadcast_to(dy, diff.shape))
        return np.sum(cross * diff, axis=2) / dist**3

    # the difference and cross-product vectors: three doubles each per pair
    return _Level(geometry, values, 48, (m, m), m * m)


def gauss_linking_integral(K: EuclideanCurve, L: EuclideanCurve,
                           m: int = CURVE_NODES, tol: float = TOL,
                           max_level: int = MAX_LEVEL) -> LinkingReport:
    """Classical linking integral of two closed curves in R^3.

    Periodic-trapezoid tensor quadrature (spectrally accurate for smooth
    closed curves) on m nodes per curve, doubled until the step-to-step
    change falls below tol.  min/max alpha in the report hold the observed
    Euclidean separation range, not geodesic angles; a range reaching
    _MIN_DISTANCE raises ValueError.
    """
    def check(dmin, dmax):
        if dmin <= _MIN_DISTANCE:
            raise ValueError(f"curves approach within {dmin:.2e} in R^3 "
                             f"(threshold {_MIN_DISTANCE})")

    return _refined_report(K, L, _gauss_terms, check, GridSpec(curve=m), tol, max_level,
                           "gauss_oracle")


def oracle_linking(K: OrientedSubmanifold, L: OrientedSubmanifold,
                   m: int = CURVE_NODES, tol: float = TOL,
                   max_level: int = MAX_LEVEL) -> LinkingReport:
    """Project both S^3 curves from one shared admissible pole and integrate."""
    pole = find_pole([K, L])
    return gauss_linking_integral(
        stereographic_project(K, pole), stereographic_project(L, pole),
        m=m, tol=tol, max_level=max_level)
