"""Parametrized oriented submanifolds of S^n with analytic tangent frames.

Every entry exposes a chart (one :class:`spherelink.quadrature.ChartDim`
per dimension: an interval, periodic or open, that owns its quadrature
rule) and a vectorized embedding `batch` returning base points with their
ordered tangent columns.  Chart coordinate order carries the orientation.

Each geometry has one class.  Round k-spheres are one class: a small
sphere of angular radius r about a center, and a great subsphere as the
round sphere of radius pi/2 (the unit sphere of its frame's span).  Curves
in S^3 are one class, c(s)/|c(s)| for a trigonometric series c in R^4:
Hopf fibers (the circle-action orbits, degree 1) and (p, q) torus curves
(degree max(|p|, |q|)) are such series with fixed coefficients, and a
user-supplied series carries the orientation its parametrization induces.
Rotation, antipodal image and orientation reversal wrap any entry.

Orientation of the sphere charts: the hyperspherical chart used for round
k-spheres is arranged (for k >= 3, by reversing the azimuth direction) so
that det(x, dx_1, ..., dx_k) > 0 in the coordinate block, i.e. the chart
realizes the point-first positive orientation.  With that normalization the
standard nested great spheres S^k (first k+1 axes) and S^l (remaining axes)
of S^n link exactly once with positive sign, which is the calibration every
other orientation decision is checked against.

Dimension-zero entries are signed point pairs; integration over them is
signed summation with weight +-1 per point.

One kind table (`_KINDS`) describes every JSON catalog kind: its required
ambient dimension, its fields with their converters and descriptions, and
the factory they feed.  `build_entry` and `catalog_schemas` both read it.
Its number fields, and the command line's, go through one strict integer
converter (`_int`) and one strict number converter (`_float`): a boolean, a
string, a non-integral value for an integer or a non-finite number (NaN,
Infinity, 1e999) is a malformed field, never truncated or coerced.
"""

import numbers
from abc import ABC, abstractmethod
from math import gcd, isfinite
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import ChartDim, tensor_grid
from .spheregeom import _check_rotation, compose_givens

__all__ = [
    "OrientedSubmanifold",
    "great_subsphere",
    "hopf_fiber",
    "clifford_torus_curve",
    "small_round_sphere",
    "fourier_curve",
    "rotated",
    "antipodal_image",
    "orientation_reversed",
    "build_entry",
    "catalog_schemas",
]

# Samples per chart dimension of the construction-time sanity check, and
# the most points it takes in all: 9^k up to k = 4, fewer per factor above.
_VALIDATION_SAMPLES = 9
_VALIDATION_POINTS = _VALIDATION_SAMPLES ** 4


def _validation_samples(dim: int) -> int:
    """Samples per chart factor of the sanity check: 9, lowered for dim >= 5
    until the grid holds at most _VALIDATION_POINTS points; at least 1."""
    m = _VALIDATION_SAMPLES
    while m > 1 and m ** dim > _VALIDATION_POINTS:
        m -= 1
    return m


class OrientedSubmanifold(ABC):
    """Contract: a closed oriented submanifold of S^ambient_n.

    `batch` maps chart coordinates (N, dim) to unit base points (N, n+1)
    and tangent columns (N, n+1, dim) in chart order.  Both are views of
    one frame array (dim + 1, n + 1, N), laid out column by column with the
    nodes last: the point column, then each tangent column.  Given `out`,
    an array of that shape, `batch` writes the frames there in place.  For
    dim == 0 the manifold is a finite signed point set exposed via
    `signed_points`.

    `span` is an orthonormal (n+1) x r basis, as columns, of a subspace that
    holds every point and tangent column; the default is the whole space.
    """

    dim: int
    ambient_n: int
    chart_domain: tuple[ChartDim, ...]

    @property
    def span(self) -> np.ndarray:
        """Orthonormal columns whose span holds every point and tangent
        column: the identity unless the kind declares a smaller one."""
        return np.eye(self.ambient_n + 1)

    @abstractmethod
    def batch(self, coords: np.ndarray, out: np.ndarray | None = None):
        """Vectorized embedding: (N, dim) -> points (N, n+1), tangents
        (N, n+1, dim), views of the frame array `out` (or a new one)."""

    def signed_points(self):
        raise ValueError("not a zero-dimensional (signed point set) manifold")

    def _validate(self):
        """Dense-grid sanity check: unit norm, tangency, full tangent rank,
        and a span of orthonormal columns that holds every frame column."""
        if self.dim == 0:
            pts, signs = self.signed_points()
            if float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))) > 1e-12:
                raise ValueError("point-set entry has a non-unit point")
            if not np.all(np.abs(signs) == 1):
                raise ValueError("point-set signs must be +-1")
            return
        m = _validation_samples(self.dim)
        axes = []
        for cd in self.chart_domain:
            span = cd.hi - cd.lo
            frac = np.arange(m) / m if cd.periodic else (np.arange(m) + 0.5) / m
            axes.append(cd.lo + span * frac)
        pts, tan = self.batch(tensor_grid(axes))
        if float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))) > 1e-12:
            raise ValueError("embedding leaves the unit sphere (|x| != 1)")
        radial = np.einsum("nd,ndk->nk", pts, tan)
        if float(np.max(np.abs(radial))) > 1e-9:
            raise ValueError("tangent columns are not orthogonal to the base point")
        sv = np.linalg.svd(tan, compute_uv=False)
        if float(np.min(sv[:, -1])) < 1e-8:
            raise ValueError("rank-deficient tangent frame on the validation grid")
        b = self.span
        if float(np.max(np.abs(b.T @ b - np.eye(b.shape[1])))) > 1e-12:
            raise ValueError("span columns are not orthonormal")
        # each frame column's distance from the span, against its own norm
        f = np.concatenate([pts[:, :, None], tan], axis=2)
        off = np.linalg.norm(f - (b @ b.T) @ f, axis=1)
        if float(np.max(off / np.maximum(1.0, np.linalg.norm(f, axis=1)))) > 1e-12:
            raise ValueError("a point or tangent column leaves the declared span")


def _frame_array(m: OrientedSubmanifold, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """`out`, or else a new frame array (dim + 1, ambient_n + 1, n) of m."""
    return np.empty((m.dim + 1, m.ambient_n + 1, n)) if out is None else out


def _frame_views(f: np.ndarray):
    """The points (N, n+1) and tangent columns (N, n+1, dim) of the frame
    array f, as views of it: what `batch` returns."""
    return f[0].T, f[1:].transpose(2, 1, 0)


# ---------------------------------------------------------------------------
# hyperspherical chart
# ---------------------------------------------------------------------------

def _azimuth_sign(k: int) -> float:
    # The standard nested chart has det(x, dx...) of sign (+,+,-,-,+,+,...)
    # as k runs 1,2,3,4,...; reversing the azimuth for k in {3,4,7,8,...}
    # makes every chart positively oriented.
    return -1.0 if k >= 3 and k % 4 in (3, 0) else 1.0


def _sphere_chart(k: int, coords: np.ndarray, azi: float) -> np.ndarray:
    """Chart of unit S^k in R^{k+1}: polar angles in (0, pi), azimuth periodic.

    Returns the frames (k+1, k+1, N) laid out column by column with the
    nodes last: the point, then the Jacobian column of each coordinate in
    order.  The chart is the recursion x = (sin t x', cos t) of the polar
    angle t (the first coordinate) over the chart x' of S^{k-1} in the
    rest, whose Jacobian columns scale by sin t beside the new column
    (cos t x', -sin t).  It runs in place in one array, from the azimuth's
    circle outwards, one polar angle at a time.
    """
    f = np.zeros((k + 1, k + 1, coords.shape[0]))
    a = azi * coords[:, k - 1]
    np.cos(a, out=f[0, 0])
    np.sin(a, out=f[0, 1])
    np.multiply(f[0, 0], azi, out=f[k, 1])
    np.multiply(f[0, 1], -azi, out=f[k, 0])
    for i in reversed(range(k - 1)):
        j = k - i  # rows 0 .. j-1 hold the chart of S^{j-1}
        s, c = np.sin(coords[:, i]), np.cos(coords[:, i])
        np.multiply(f[0, :j], c, out=f[i + 1, :j])
        np.negative(s, out=f[i + 1, j])
        f[i + 2:, :j] *= s
        f[0, :j] *= s
        f[0, j] = c
    return f


def _sphere_chart_domain(k: int) -> tuple[ChartDim, ...]:
    return tuple([ChartDim(0.0, np.pi, False)] * (k - 1) + [ChartDim(0.0, 2 * np.pi, True)])


# ---------------------------------------------------------------------------
# the three geometries: signed points, round spheres, trigonometric curves
# ---------------------------------------------------------------------------

class _SignedPoints(OrientedSubmanifold):
    dim = 0
    chart_domain = ()

    def __init__(self, points: np.ndarray, signs: np.ndarray, ambient_n: int):
        self.ambient_n = ambient_n
        self._points = np.asarray(points, dtype=float)
        self._signs = np.asarray(signs, dtype=float)
        self._validate()

    def batch(self, coords, out=None):
        raise ValueError("signed point sets have no chart; use signed_points()")

    def signed_points(self):
        return self._points, self._signs


class _RoundSphere(OrientedSubmanifold):
    """The round k-sphere c * center + s * (unit S^k @ frame).

    With (c, s) = (cos r, sin r) it is the sphere of angular radius r about
    `center`; a great subsphere is the radius pi/2, passed as (0, 1).
    """

    def __init__(self, k: int, center: np.ndarray, c: float, s: float, frame: np.ndarray):
        self.dim = k
        self.ambient_n = center.size - 1
        self.center = center
        self.frame = frame
        self._c = c
        self._s = s
        self.chart_domain = _sphere_chart_domain(k)
        self._azi = _azimuth_sign(k)
        self._validate()

    @property
    def span(self):
        # the frame's rows, after the center unless c = 0 (a great subsphere)
        return self.frame.T if self._c == 0 else np.column_stack([self.center, self.frame.T])

    def batch(self, coords, out=None):
        # every column of the chart's frames carried into R^{n+1} by one matmul
        f = np.matmul(self.frame.T, _sphere_chart(self.dim, coords, self._azi), out=out)
        f *= self._s
        f[0] += self._c * self.center[:, None]
        return _frame_views(f)


def _round_sphere(k: int, center: np.ndarray, c: float, s: float,
                  frame: np.ndarray) -> OrientedSubmanifold:
    """The round sphere of `_RoundSphere`; for k = 0 its signed point pair,
    +1 at c * center + s * frame[0] and -1 at c * center - s * frame[0]."""
    if k == 0:
        return _SignedPoints(np.vstack([c * center + s * frame[0], c * center - s * frame[0]]),
                             np.array([1.0, -1.0]), center.size - 1)
    return _RoundSphere(k, center, c, s, frame)


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

    def batch(self, coords, out=None):
        c, dc = self._series(coords[:, 0])
        norm = np.linalg.norm(c, axis=1, keepdims=True)
        radial = np.sum(c * dc, axis=1, keepdims=True)
        f = _frame_array(self, len(coords), out)
        np.divide(c, norm, out=f[0].T)
        np.subtract(dc / norm, c * radial / norm**3, out=f[1].T)
        return _frame_views(f)


def _complex_orbit(z1: complex, z2: complex, m1: int, m2: int) -> OrientedSubmanifold:
    """The curve s -> (z1 e^{i m1 s}, z2 e^{i m2 s}) of C^2 = R^4 as a
    trigonometric series: z e^{i m s} = z cos(|m| s) + sign(m) i z sin(|m| s)."""
    cc = np.zeros((max(abs(m1), abs(m2)) + 1, 4))
    sc = np.zeros_like(cc)
    for block, (z, m) in enumerate(((z1, m1), (z2, m2))):
        w = np.sign(m) * 1j * z
        cc[abs(m), 2 * block:2 * block + 2] = z.real, z.imag
        sc[abs(m), 2 * block:2 * block + 2] = w.real, w.imag
    return _FourierCurve(cc, sc)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

class _Wrapper(OrientedSubmanifold):
    """An entry derived from `inner`, on inner's chart."""

    def __init__(self, inner: OrientedSubmanifold):
        self.inner = inner
        self.dim = inner.dim
        self.ambient_n = inner.ambient_n
        self.chart_domain = inner.chart_domain

    @property
    def span(self):
        # negation and reflection keep inner's subspace
        return self.inner.span


class _Rotated(_Wrapper):
    def __init__(self, inner: OrientedSubmanifold, rotation):
        r = _check_rotation(rotation)
        if r.shape[0] != inner.ambient_n + 1:
            raise ValueError("rotation dimension does not match the manifold")
        super().__init__(inner)
        self.rotation = r

    @property
    def span(self):
        # an orthonormal basis of the rotated span: a rotation is accepted
        # within 1e-10 of orthogonal, its product with inner's span not
        return np.linalg.qr(self.rotation @ self.inner.span)[0]

    def batch(self, coords, out=None):
        inner = _frame_array(self.inner, len(coords))
        self.inner.batch(coords, out=inner)
        return _frame_views(np.matmul(self.rotation, inner, out=out))

    def signed_points(self):
        pts, signs = self.inner.signed_points()
        return pts @ self.rotation.T, signs


class _AntipodalImage(_Wrapper):
    """Pointwise negation; tangent columns negate too, which is exactly the
    orientation transfer of the antipodal map (its differential is -I)."""

    def batch(self, coords, out=None):
        f = _frame_array(self, len(coords), out)
        self.inner.batch(coords, out=f)
        return _frame_views(np.negative(f, out=f))

    def signed_points(self):
        pts, signs = self.inner.signed_points()
        # The antipodal map in R^{d} restricted to a 0-sphere swaps/negates;
        # transferring the orientation keeps each point's sign attached.
        return -pts, signs


class _Reflected(_Wrapper):
    """Orientation reversal: reflect the first chart coordinate."""

    def batch(self, coords, out=None):
        c = np.array(coords, dtype=float)
        cd = self.chart_domain[0]
        c[:, 0] = cd.lo + cd.hi - c[:, 0]
        f = _frame_array(self, len(c), out)
        self.inner.batch(c, out=f)
        np.negative(f[1], out=f[1])
        return _frame_views(f)

    def signed_points(self):
        pts, signs = self.inner.signed_points()
        return pts, -signs


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def great_subsphere(k: int, axes, ambient_n: int) -> OrientedSubmanifold:
    """Unit k-sphere of the coordinate block `axes`, positively oriented.

    This is the round sphere of angular radius pi/2 whose frame is the
    coordinate vectors of `axes`.  The order of `axes` orients the block;
    with the blocks (0..k) and (k+1..n) the two subspheres link once with
    sign +1.  For k = 0 the result is the signed point pair {+e, -e}.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    axes = tuple(int(a) for a in axes)
    if k == 0:
        if len(axes) != 1 or not 0 <= axes[0] <= ambient_n:
            raise ValueError("a 0-sphere takes exactly one valid axis")
    else:
        if len(axes) != k + 1:
            raise ValueError(f"need {k + 1} axes for a great {k}-sphere")
        if len(set(axes)) != len(axes):
            raise ValueError("axes must be distinct")
        if min(axes) < 0 or max(axes) > ambient_n:
            raise ValueError(f"axes out of range 0..{ambient_n}")
        if k > ambient_n - 1:
            raise ValueError("a great subsphere must have dim <= n - 1")
    eye = np.eye(ambient_n + 1)
    return _round_sphere(k, np.zeros(ambient_n + 1), 0.0, 1.0, eye[list(axes)])


def hopf_fiber(base) -> OrientedSubmanifold:
    """Orbit of (z1, z2) under the diagonal circle action on S^3.

    The orbit t -> (z1 e^{it}, z2 e^{it}) is a degree-1 trigonometric-series
    curve.
    """
    b = np.asarray(base, dtype=float)
    if b.shape != (4,):
        raise ValueError("hopf fiber base must be 4 reals (z1, z2)")
    if abs(float(np.linalg.norm(b)) - 1.0) > 1e-10:
        raise ValueError("hopf fiber base must be a unit vector")
    return _complex_orbit(complex(b[0], b[1]), complex(b[2], b[3]), 1, 1)


def clifford_torus_curve(p: int, q: int, phase: float = 0.0) -> OrientedSubmanifold:
    """(p, q) curve on the square torus |z1| = |z2| = 1/sqrt(2) in S^3.

    The curve s -> (e^{ips}, e^{i(qs + phase)}) / sqrt(2) is a
    trigonometric-series curve of degree max(|p|, |q|).
    """
    if (p, q) == (0, 0):
        raise ValueError("(p, q) = (0, 0) does not define a curve")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("need gcd(|p|, |q|) = 1 for an embedded curve")
    r = 1.0 / np.sqrt(2.0)
    phase = float(phase)
    return _complex_orbit(complex(r, 0.0), complex(r * np.cos(phase), r * np.sin(phase)),
                          int(p), int(q))


def small_round_sphere(k: int, center, angular_radius: float, frame) -> OrientedSubmanifold:
    """Geodesic k-sphere of the given angular radius about `center`.

    `frame` is an orthonormal (k+1)-frame orthogonal to the center; at
    angular radius pi/2 the result is the great subsphere of the frame's
    span, and the chart orientation matches that limit.  For k = 0 the
    result is the signed point pair at angular_radius from the center along
    +frame[0] (sign +1) and -frame[0] (sign -1).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
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
    angular_radius = float(angular_radius)
    return _round_sphere(k, center, np.cos(angular_radius), np.sin(angular_radius), frame)


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


# ---------------------------------------------------------------------------
# JSON entry construction (CLI surface)
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """One JSON catalog kind.

    fields maps each field name, in schema order, to its converter and its
    description; a field named in `optional` may be left out, and then
    takes the factory's default.  The factory is called as
    factory(ambient_n, **converted fields).  A field whose converter is
    `build_entry` holds a nested entry, built in the same sphere.
    """

    ambient_n: int | None
    fields: dict
    factory: Callable
    optional: tuple = ()


def _int(value) -> int:
    """A JSON integer: an integral number, 3.0 included; a bool, a string
    or 1.5 raises ValueError."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite JSON number as a float; a bool, a string, NaN or an infinity
    (which Python's JSON reader makes of NaN, Infinity and 1e999) raises
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _ints(value):
    return [_int(a) for a in value]


def _floats(value):
    """A JSON number or (nested) list of numbers as a float array."""
    if isinstance(value, (list, tuple)):
        return np.array([_floats(v) for v in value], dtype=float)
    return _float(value)


def _givens(value):
    return [(_ints(g["plane"]), _float(g["angle"])) for g in value]


def build_entry(entry: dict, ambient_n: int) -> OrientedSubmanifold:
    """Construct a catalog entry from its JSON description."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ValueError("catalog entry must be an object with a 'kind' field")
    kind = entry["kind"]
    kind_def = _KINDS.get(kind) if isinstance(kind, str) else None
    if kind_def is None:
        raise ValueError(f"unknown catalog kind {kind!r}")
    if kind_def.ambient_n is not None and ambient_n != kind_def.ambient_n:
        raise ValueError(f"{kind} requires ambient_n = {kind_def.ambient_n}")

    def field(name, conv):
        value = entry[name]
        if conv is build_entry:
            return build_entry(value, ambient_n)
        try:
            return conv(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"catalog entry {kind!r} field {name!r} is malformed: {value!r}") from exc

    try:
        m = kind_def.factory(ambient_n, **{name: field(name, conv)
                                           for name, (conv, _) in kind_def.fields.items()
                                           if name in entry or name not in kind_def.optional})
    except KeyError as exc:
        raise ValueError(f"catalog entry {kind!r} is missing field {exc}") from exc
    if m.ambient_n != ambient_n:
        raise ValueError(
            f"entry {kind!r} lives in S^{m.ambient_n}, spec says S^{ambient_n}"
        )
    return m


_BASE = {"base": (build_entry, "catalog entry")}

_KINDS = {
    "great_subsphere": _Kind(
        None,
        {"k": (_int, "int >= 0"), "axes": (_ints, "list of k+1 distinct axis indices")},
        lambda n, k, axes: great_subsphere(k, axes, n)),
    "hopf_fiber": _Kind(
        3,
        {"base": (_floats, "unit 4-vector (z1, z2) as reals")},
        lambda n, base: hopf_fiber(base)),
    "clifford_torus_curve": _Kind(
        3,
        {"p": (_int, "int"), "q": (_int, "int (gcd(|p|,|q|) = 1)"),
         "phase": (_float, "float, default 0")},
        lambda n, **f: clifford_torus_curve(**f),
        optional=("phase",)),
    "small_round_sphere": _Kind(
        None,
        {"k": (_int, "int >= 0"), "center": (_floats, "unit vector"),
         "angular_radius": (_float, "float in (0, pi/2]"),
         "frame": (_floats, "orthonormal (k+1) x (n+1) rows, orthogonal to center")},
        lambda n, **f: small_round_sphere(**f)),
    "fourier_curve": _Kind(
        3,
        {"cos_coeffs": (_floats, "(J+1) x 4 array"), "sin_coeffs": (_floats, "(J+1) x 4 array")},
        lambda n, **f: fourier_curve(**f)),
    "rotated": _Kind(
        None,
        {**_BASE, "givens": (_givens, "list of {plane: [i, j], angle}")},
        lambda n, base, givens: rotated(base, compose_givens(n + 1, givens))),
    "antipodal_image": _Kind(None, _BASE, lambda n, base: antipodal_image(base)),
    "orientation_reversed": _Kind(None, _BASE, lambda n, base: orientation_reversed(base)),
}


def catalog_schemas() -> dict:
    """Parameter schema per catalog kind, for the CLI listing."""
    return {kind: {name: desc for name, (_, desc) in spec.fields.items()}
            for kind, spec in _KINDS.items()}
