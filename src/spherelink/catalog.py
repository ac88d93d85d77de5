"""Parametrized oriented submanifolds of S^n with analytic tangent frames.

Every entry exposes a chart (interval per dimension, with periodicity
flags), a vectorized embedding `batch`, and a single-point `evaluate`
returning the base point with its ordered tangent columns.  Chart
coordinate order carries the orientation.

Orientation of the sphere charts: the hyperspherical chart used for great
and small round k-spheres is arranged (for k >= 3, by reversing the
azimuth direction) so that det(x, dx_1, ..., dx_k) > 0 in the coordinate
block, i.e. the chart realizes the point-first positive orientation.  With
that normalization the standard nested great spheres S^k (first k+1 axes)
and S^l (remaining axes) of S^n link exactly once with positive sign,
which is the calibration every other orientation decision is checked
against.

Dimension-zero entries are signed point pairs; integration over them is
signed summation with weight +-1 per point.

A curve built from user-supplied trigonometric coefficients carries the
orientation its parametrization induces; no normalization is applied.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import gcd

import numpy as np

from .spheregeom import SpherePoint, TangentColumns, _check_rotation

__all__ = [
    "ChartDim",
    "OrientedSubmanifold",
    "great_subsphere",
    "hopf_fiber",
    "clifford_torus_curve",
    "small_round_sphere",
    "fourier_curve",
    "rotated",
    "antipodal_image",
    "orientation_reversed",
    "alpha_range_scan",
    "build_entry",
    "catalog_schemas",
]


@dataclass(frozen=True)
class ChartDim:
    lo: float
    hi: float
    periodic: bool


class OrientedSubmanifold(ABC):
    """Contract: a closed oriented submanifold of S^ambient_n.

    `batch` maps chart coordinates (N, dim) to unit base points (N, n+1)
    and tangent columns (N, n+1, dim) in chart order.  For dim == 0 the
    manifold is a finite signed point set exposed via `signed_points`.
    """

    dim: int
    ambient_n: int
    chart_domain: tuple[ChartDim, ...]

    @abstractmethod
    def batch(self, coords: np.ndarray):
        """Vectorized embedding: (N, dim) -> points (N, n+1), tangents (N, n+1, dim)."""

    def signed_points(self):
        raise ValueError("not a zero-dimensional (signed point set) manifold")

    def evaluate(self, p) -> TangentColumns:
        """Embed one chart point, returning the base and tangent columns."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (self.dim,):
            raise ValueError(f"chart point must have {self.dim} coordinates")
        pts, tan = self.batch(p[None, :])
        return TangentColumns(base=SpherePoint(pts[0]), columns=tan[0])

    def _validate(self, samples_per_dim: int = 9):
        """Dense-grid sanity check: unit norm, tangency, full tangent rank."""
        if self.dim == 0:
            pts, signs = self.signed_points()
            if float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))) > 1e-12:
                raise ValueError("point-set entry has a non-unit point")
            if not np.all(np.abs(signs) == 1):
                raise ValueError("point-set signs must be +-1")
            return
        axes = []
        for cd in self.chart_domain:
            span = cd.hi - cd.lo
            frac = np.arange(samples_per_dim) / samples_per_dim if cd.periodic \
                else (np.arange(samples_per_dim) + 0.5) / samples_per_dim
            axes.append(cd.lo + span * frac)
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.column_stack([g.ravel() for g in mesh])
        pts, tan = self.batch(coords)
        if float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))) > 1e-12:
            raise ValueError("embedding leaves the unit sphere (|x| != 1)")
        radial = np.einsum("nd,ndk->nk", pts, tan)
        if float(np.max(np.abs(radial))) > 1e-9:
            raise ValueError("tangent columns are not orthogonal to the base point")
        sv = np.linalg.svd(tan, compute_uv=False)
        if float(np.min(sv[:, -1])) < 1e-8:
            raise ValueError("rank-deficient tangent frame on the validation grid")


# ---------------------------------------------------------------------------
# hyperspherical chart
# ---------------------------------------------------------------------------

def _azimuth_sign(k: int) -> float:
    # The standard nested chart has det(x, dx...) of sign (+,+,-,-,+,+,...)
    # as k runs 1,2,3,4,...; reversing the azimuth for k in {3,4,7,8,...}
    # makes every chart positively oriented.
    return -1.0 if k >= 3 and k % 4 in (3, 0) else 1.0


def _sphere_chart(k: int, coords: np.ndarray, azi: float):
    """Chart of unit S^k in R^{k+1}: polar angles in (0, pi), azimuth periodic.

    Returns points (N, k+1) and the Jacobian columns (N, k+1, k).
    """
    n = coords.shape[0]
    pts = np.empty((n, k + 1))
    jac = np.zeros((n, k + 1, k))
    if k == 1:
        a = azi * coords[:, 0]
        pts[:, 0] = np.cos(a)
        pts[:, 1] = np.sin(a)
        jac[:, 0, 0] = -azi * np.sin(a)
        jac[:, 1, 0] = azi * np.cos(a)
        return pts, jac
    inner_pts, inner_jac = _sphere_chart(k - 1, coords[:, 1:], azi)
    s0, c0 = np.sin(coords[:, 0]), np.cos(coords[:, 0])
    pts[:, :k] = s0[:, None] * inner_pts
    pts[:, k] = c0
    jac[:, :k, 0] = c0[:, None] * inner_pts
    jac[:, k, 0] = -s0
    jac[:, :k, 1:] = s0[:, None, None] * inner_jac
    return pts, jac


def _sphere_chart_domain(k: int) -> tuple[ChartDim, ...]:
    return tuple([ChartDim(0.0, np.pi, False)] * (k - 1) + [ChartDim(0.0, 2 * np.pi, True)])


class _SignedPoints(OrientedSubmanifold):
    dim = 0
    chart_domain = ()

    def __init__(self, points: np.ndarray, signs: np.ndarray, ambient_n: int):
        self.ambient_n = ambient_n
        self._points = np.asarray(points, dtype=float)
        self._signs = np.asarray(signs, dtype=float)
        self._validate()

    def batch(self, coords):
        raise ValueError("signed point sets have no chart; use signed_points()")

    def signed_points(self):
        return self._points, self._signs


class _GreatSubsphere(OrientedSubmanifold):
    def __init__(self, k: int, axes, ambient_n: int):
        axes = tuple(int(a) for a in axes)
        if len(axes) != k + 1:
            raise ValueError(f"need {k + 1} axes for a great {k}-sphere")
        if len(set(axes)) != len(axes):
            raise ValueError("axes must be distinct")
        if min(axes) < 0 or max(axes) > ambient_n:
            raise ValueError(f"axes out of range 0..{ambient_n}")
        if k > ambient_n - 1:
            raise ValueError("a great subsphere must have dim <= n - 1")
        self.dim = k
        self.ambient_n = ambient_n
        self.axes = axes
        self.chart_domain = _sphere_chart_domain(k)
        self._azi = _azimuth_sign(k)
        self._validate()

    def batch(self, coords):
        pts_k, jac_k = _sphere_chart(self.dim, coords, self._azi)
        n = coords.shape[0]
        d = self.ambient_n + 1
        pts = np.zeros((n, d))
        jac = np.zeros((n, d, self.dim))
        for i, ax in enumerate(self.axes):
            pts[:, ax] = pts_k[:, i]
            jac[:, ax, :] = jac_k[:, i, :]
        return pts, jac


class _HopfFiber(OrientedSubmanifold):
    dim = 1
    ambient_n = 3
    chart_domain = (ChartDim(0.0, 2 * np.pi, True),)

    def __init__(self, base):
        b = np.asarray(base, dtype=float)
        if b.shape != (4,):
            raise ValueError("hopf fiber base must be 4 reals (z1, z2)")
        if abs(float(np.linalg.norm(b)) - 1.0) > 1e-10:
            raise ValueError("hopf fiber base must be a unit vector")
        self.base = b
        self._validate()

    def batch(self, coords):
        t = coords[:, 0]
        a1, b1, a2, b2 = self.base
        c, s = np.cos(t), np.sin(t)
        pts = np.column_stack([a1 * c - b1 * s, a1 * s + b1 * c,
                               a2 * c - b2 * s, a2 * s + b2 * c])
        jac = np.column_stack([-a1 * s - b1 * c, a1 * c - b1 * s,
                               -a2 * s - b2 * c, a2 * c - b2 * s])[:, :, None]
        return pts, jac


class _CliffordTorusCurve(OrientedSubmanifold):
    dim = 1
    ambient_n = 3
    chart_domain = (ChartDim(0.0, 2 * np.pi, True),)

    def __init__(self, p: int, q: int, phase: float = 0.0):
        if (p, q) == (0, 0):
            raise ValueError("(p, q) = (0, 0) does not define a curve")
        if gcd(abs(p), abs(q)) != 1:
            raise ValueError("need gcd(|p|, |q|) = 1 for an embedded curve")
        self.p, self.q, self.phase = int(p), int(q), float(phase)
        self._validate()

    def batch(self, coords):
        s = coords[:, 0]
        r = 1.0 / np.sqrt(2.0)
        p, q, ph = self.p, self.q, self.phase
        pts = r * np.column_stack([np.cos(p * s), np.sin(p * s),
                                   np.cos(q * s + ph), np.sin(q * s + ph)])
        jac = r * np.column_stack([-p * np.sin(p * s), p * np.cos(p * s),
                                   -q * np.sin(q * s + ph), q * np.cos(q * s + ph)])[:, :, None]
        return pts, jac


class _SmallRoundSphere(OrientedSubmanifold):
    def __init__(self, k: int, center, angular_radius: float, frame):
        center = np.asarray(center, dtype=float)
        frame = np.asarray(frame, dtype=float)
        d = center.size
        if frame.shape != (k + 1, d):
            raise ValueError(f"frame must be {k + 1} vectors of length {d}")
        if not 0.0 < angular_radius <= np.pi / 2:
            raise ValueError("angular radius must lie in (0, pi/2]")
        if abs(float(np.linalg.norm(center)) - 1.0) > 1e-10:
            raise ValueError("center must be a unit vector")
        g = frame @ frame.T
        if float(np.max(np.abs(g - np.eye(k + 1)))) > 1e-10:
            raise ValueError("frame must be orthonormal")
        if float(np.max(np.abs(frame @ center))) > 1e-10:
            raise ValueError("frame must be orthogonal to the center")
        self.dim = k
        self.ambient_n = d - 1
        self.center = center
        self.angular_radius = float(angular_radius)
        self.frame = frame
        if k == 0:
            self.chart_domain = ()
            c, s = np.cos(self.angular_radius), np.sin(self.angular_radius)
            self._points = np.vstack([c * center + s * frame[0],
                                      c * center - s * frame[0]])
            self._signs = np.array([1.0, -1.0])
        else:
            self.chart_domain = _sphere_chart_domain(k)
            self._azi = _azimuth_sign(k)
        self._validate()

    def signed_points(self):
        if self.dim != 0:
            return super().signed_points()
        return self._points, self._signs

    def batch(self, coords):
        if self.dim == 0:
            raise ValueError("signed point sets have no chart; use signed_points()")
        pts_k, jac_k = _sphere_chart(self.dim, coords, self._azi)
        c, s = np.cos(self.angular_radius), np.sin(self.angular_radius)
        pts = c * self.center[None, :] + s * (pts_k @ self.frame)
        jac = s * np.einsum("nij,id->ndj", jac_k, self.frame)
        return pts, jac


class _FourierCurve(OrientedSubmanifold):
    dim = 1
    ambient_n = 3
    chart_domain = (ChartDim(0.0, 2 * np.pi, True),)

    def __init__(self, cos_coeffs, sin_coeffs):
        cc = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
        sc = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
        if cc.shape[1] != 4 or sc.shape != cc.shape:
            raise ValueError("coefficient arrays must both have shape (J+1, 4)")
        self.cos_coeffs = cc
        self.sin_coeffs = sc
        s = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        c = self._series(s)[0]
        if float(np.min(np.linalg.norm(c, axis=1))) < 1e-6:
            raise ValueError("trigonometric series passes too close to the origin")
        self._validate()

    def _series(self, s):
        j = np.arange(self.cos_coeffs.shape[0])
        cos_js = np.cos(np.outer(s, j))
        sin_js = np.sin(np.outer(s, j))
        c = cos_js @ self.cos_coeffs + sin_js @ self.sin_coeffs
        dc = (-sin_js * j) @ self.cos_coeffs + (cos_js * j) @ self.sin_coeffs
        return c, dc

    def batch(self, coords):
        c, dc = self._series(coords[:, 0])
        norm = np.linalg.norm(c, axis=1, keepdims=True)
        pts = c / norm
        radial = np.sum(c * dc, axis=1, keepdims=True)
        jac = (dc / norm - c * radial / norm**3)[:, :, None]
        return pts, jac


class _Rotated(OrientedSubmanifold):
    def __init__(self, inner: OrientedSubmanifold, rotation):
        r = _check_rotation(rotation)
        if r.shape[0] != inner.ambient_n + 1:
            raise ValueError("rotation dimension does not match the manifold")
        self.inner = inner
        self.rotation = r
        self.dim = inner.dim
        self.ambient_n = inner.ambient_n
        self.chart_domain = inner.chart_domain

    def batch(self, coords):
        pts, jac = self.inner.batch(coords)
        return pts @ self.rotation.T, np.einsum("ed,ndk->nek", self.rotation, jac)

    def signed_points(self):
        pts, signs = self.inner.signed_points()
        return pts @ self.rotation.T, signs


class _AntipodalImage(OrientedSubmanifold):
    """Pointwise negation; tangent columns negate too, which is exactly the
    orientation transfer of the antipodal map (its differential is -I)."""

    def __init__(self, inner: OrientedSubmanifold):
        self.inner = inner
        self.dim = inner.dim
        self.ambient_n = inner.ambient_n
        self.chart_domain = inner.chart_domain

    def batch(self, coords):
        pts, jac = self.inner.batch(coords)
        return -pts, -jac

    def signed_points(self):
        pts, signs = self.inner.signed_points()
        # The antipodal map in R^{d} restricted to a 0-sphere swaps/negates;
        # transferring the orientation keeps each point's sign attached.
        return -pts, signs


class _Reflected(OrientedSubmanifold):
    """Orientation reversal: reflect the first chart coordinate."""

    def __init__(self, inner: OrientedSubmanifold):
        self.inner = inner
        self.dim = inner.dim
        self.ambient_n = inner.ambient_n
        self.chart_domain = inner.chart_domain

    def batch(self, coords):
        c = np.array(coords, dtype=float)
        cd = self.chart_domain[0]
        c[:, 0] = cd.lo + cd.hi - c[:, 0]
        pts, jac = self.inner.batch(c)
        jac = jac.copy()
        jac[:, :, 0] = -jac[:, :, 0]
        return pts, jac

    def signed_points(self):
        pts, signs = self.inner.signed_points()
        return pts, -signs


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def great_subsphere(k: int, axes, ambient_n: int) -> OrientedSubmanifold:
    """Unit k-sphere of the coordinate block `axes`, positively oriented.

    The order of `axes` orients the block; with the blocks (0..k) and
    (k+1..n) the two subspheres link once with sign +1.  For k = 0 the
    result is the signed point pair {+e, -e}.
    """
    if k == 0:
        axes = tuple(int(a) for a in axes)
        if len(axes) != 1 or not 0 <= axes[0] <= ambient_n:
            raise ValueError("a 0-sphere takes exactly one valid axis")
        d = ambient_n + 1
        pts = np.zeros((2, d))
        pts[0, axes[0]] = 1.0
        pts[1, axes[0]] = -1.0
        return _SignedPoints(pts, np.array([1.0, -1.0]), ambient_n)
    return _GreatSubsphere(k, axes, ambient_n)


def hopf_fiber(base) -> OrientedSubmanifold:
    """Orbit of (z1, z2) under the diagonal circle action on S^3."""
    return _HopfFiber(base)


def clifford_torus_curve(p: int, q: int, phase: float = 0.0) -> OrientedSubmanifold:
    """(p, q) curve on the square torus |z1| = |z2| = 1/sqrt(2) in S^3."""
    return _CliffordTorusCurve(p, q, phase)


def small_round_sphere(k: int, center, angular_radius: float, frame) -> OrientedSubmanifold:
    """Geodesic k-sphere of the given angular radius about `center`.

    `frame` is an orthonormal (k+1)-frame orthogonal to the center; at
    angular radius pi/2 the result is the great subsphere of the frame's
    span, and the chart orientation matches that limit.
    """
    return _SmallRoundSphere(k, center, angular_radius, frame)


def fourier_curve(cos_coeffs, sin_coeffs) -> OrientedSubmanifold:
    """Closed curve c(s)/|c(s)| on S^3 from a truncated trigonometric series.

    c(s) = sum_j cos_coeffs[j] cos(js) + sin_coeffs[j] sin(js) in R^4.
    Rejected if the series passes near the origin anywhere on a dense grid.
    """
    return _FourierCurve(cos_coeffs, sin_coeffs)


def rotated(m: OrientedSubmanifold, rotation) -> OrientedSubmanifold:
    """The manifold carried by an orientation-preserving ambient isometry."""
    return _Rotated(m, rotation)


def antipodal_image(m: OrientedSubmanifold) -> OrientedSubmanifold:
    """The pointwise negation -M with the transferred orientation."""
    return _AntipodalImage(m)


def orientation_reversed(m: OrientedSubmanifold) -> OrientedSubmanifold:
    """Same point set, opposite orientation."""
    return _Reflected(m)


def alpha_range_scan(k_manifold, l_manifold, samples_per_dim: int = 32):
    """Geodesic-distance range between two entries over a dense chart scan."""
    pk = _scan_points(k_manifold, samples_per_dim)
    pl = _scan_points(l_manifold, samples_per_dim)
    dots = np.clip(pk @ pl.T, -1.0, 1.0)
    return float(np.arccos(np.max(dots))), float(np.arccos(np.min(dots)))


def _scan_points(m: OrientedSubmanifold, samples_per_dim: int):
    if m.dim == 0:
        return m.signed_points()[0]
    axes = []
    for cd in m.chart_domain:
        span = cd.hi - cd.lo
        frac = (np.arange(samples_per_dim) + 0.5) / samples_per_dim
        axes.append(cd.lo + span * frac)
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.column_stack([g.ravel() for g in mesh])
    return m.batch(coords)[0]


# ---------------------------------------------------------------------------
# JSON entry construction (CLI surface)
# ---------------------------------------------------------------------------

def build_entry(entry: dict, ambient_n: int) -> OrientedSubmanifold:
    """Construct a catalog entry from its JSON description."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ValueError("catalog entry must be an object with a 'kind' field")
    kind = entry["kind"]

    def field(name, conv):
        value = entry[name]
        try:
            return conv(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"catalog entry {kind!r} field {name!r} is malformed: {value!r}") from exc

    def ints(value):
        return [int(a) for a in value]

    def floats(value):
        return np.asarray(value, dtype=float)

    def givens(value):
        return [(ints(g["plane"]), float(g["angle"])) for g in value]

    try:
        if kind == "great_subsphere":
            m = great_subsphere(field("k", int), field("axes", ints), ambient_n)
        elif kind == "hopf_fiber":
            _require_n(kind, ambient_n, 3)
            m = hopf_fiber(field("base", floats))
        elif kind == "clifford_torus_curve":
            _require_n(kind, ambient_n, 3)
            m = clifford_torus_curve(field("p", int), field("q", int),
                                     field("phase", float) if "phase" in entry else 0.0)
        elif kind == "small_round_sphere":
            m = small_round_sphere(field("k", int), field("center", floats),
                                   field("angular_radius", float), field("frame", floats))
        elif kind == "fourier_curve":
            _require_n(kind, ambient_n, 3)
            m = fourier_curve(field("cos_coeffs", floats), field("sin_coeffs", floats))
        elif kind == "rotated":
            from .spheregeom import compose_givens
            inner = build_entry(entry["base"], ambient_n)
            r = compose_givens(ambient_n + 1, field("givens", givens))
            m = rotated(inner, r)
        elif kind == "antipodal_image":
            m = antipodal_image(build_entry(entry["base"], ambient_n))
        elif kind == "orientation_reversed":
            m = orientation_reversed(build_entry(entry["base"], ambient_n))
        else:
            raise ValueError(f"unknown catalog kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"catalog entry {kind!r} is missing field {exc}") from exc
    if m.ambient_n != ambient_n:
        raise ValueError(
            f"entry {kind!r} lives in S^{m.ambient_n}, spec says S^{ambient_n}"
        )
    return m


def _require_n(kind: str, ambient_n: int, expected: int):
    if ambient_n != expected:
        raise ValueError(f"{kind} requires ambient_n = {expected}")


def catalog_schemas() -> dict:
    """Parameter schema per catalog kind, for the CLI listing."""
    return {
        "great_subsphere": {"k": "int >= 0", "axes": "list of k+1 distinct axis indices"},
        "hopf_fiber": {"base": "unit 4-vector (z1, z2) as reals"},
        "clifford_torus_curve": {"p": "int", "q": "int (gcd(|p|,|q|) = 1)",
                                 "phase": "float, default 0"},
        "small_round_sphere": {"k": "int >= 0", "center": "unit vector",
                               "angular_radius": "float in (0, pi/2]",
                               "frame": "orthonormal (k+1) x (n+1) rows, orthogonal to center"},
        "fourier_curve": {"cos_coeffs": "(J+1) x 4 array", "sin_coeffs": "(J+1) x 4 array"},
        "rotated": {"base": "catalog entry", "givens": "list of {plane: [i, j], angle}"},
        "antipodal_image": {"base": "catalog entry"},
        "orientation_reversed": {"base": "catalog entry"},
    }
