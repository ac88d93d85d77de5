"""Ambient-space primitives for the round unit sphere S^n in R^{n+1}.

Points are unit vectors in R^{n+1}.  The sphere is oriented by the
point-first convention: a tangent basis A_1, ..., A_n at p is positive
exactly when (p, A_1, ..., A_n) is a positive basis of R^{n+1}.  That
convention is baked into the column order of :func:`bracket_form` and is
normative for every orientation decision elsewhere in the package.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpherePoint",
    "TangentColumns",
    "PairGeometry",
    "geodesic_distance",
    "alpha_extremes",
    "bracket_form",
    "sphere_volume",
    "antipode",
    "apply_rotation",
    "givens_rotation",
    "compose_givens",
]

_UNIT_TOL = 1e-12
_TANGENT_TOL = 1e-9
_ROTATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A point of S^n, stored as a unit vector in R^{n+1}.

    The constructor renormalizes, so small drift in the input is absorbed;
    a vector too close to zero is rejected.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("a sphere point needs an ambient vector of length >= 2")
        norm = float(np.linalg.norm(c))
        if norm < 1e-8:
            raise ValueError("cannot normalize a (near-)zero vector onto the sphere")
        c = c / norm
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def ambient_dim(self) -> int:
        """Length of the coordinate vector, n + 1."""
        return self.coords.size

    @property
    def n(self) -> int:
        """Dimension of the sphere the point lives on."""
        return self.coords.size - 1


@dataclass(frozen=True, eq=False)
class TangentColumns:
    """A base point together with ordered tangent vectors at that point.

    The columns are partial derivatives of some chart, in chart order; they
    need not be unit length or orthogonal.  Column order carries the
    orientation.  `tol` is the tangency tolerance (looser values are
    appropriate for numerically differentiated embeddings).
    """

    base: SpherePoint
    columns: np.ndarray
    tol: float = field(default=_TANGENT_TOL)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.base.ambient_dim:
            raise ValueError(
                "columns must be a (%d, k) array" % self.base.ambient_dim
            )
        radial = cols.T @ self.base.coords
        if cols.shape[1] and float(np.max(np.abs(radial))) > self.tol:
            raise ValueError(
                "columns are not tangent to the sphere at the base point "
                f"(max radial component {np.max(np.abs(radial)):.3e})"
            )
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def k(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class PairGeometry:
    """Geodesic separation of two sphere points, with cached trig values."""

    alpha: float
    cos_alpha: float
    sin_alpha: float


def geodesic_distance(x: SpherePoint, y: SpherePoint) -> PairGeometry:
    """Geodesic distance alpha = arccos(x . y) on the unit sphere.

    The dot product is clamped to [-1, 1] so numerically degenerate inputs
    (coincident or antipodal points) cannot produce NaN.
    """
    if x.ambient_dim != y.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {x.ambient_dim} vs {y.ambient_dim}"
        )
    c = float(np.clip(np.dot(x.coords, y.coords), -1.0, 1.0))
    alpha = float(np.arccos(c))
    return PairGeometry(alpha=alpha, cos_alpha=c, sin_alpha=float(np.sin(alpha)))


def alpha_extremes(dots) -> tuple[float, float]:
    """(min, max) geodesic distance over an array of dot products x . y:
    arccos of its largest and of its smallest entry, each clamped to
    [-1, 1].  Both are NaN when any entry is NaN."""
    return (float(np.arccos(np.clip(np.max(dots), -1.0, 1.0))),
            float(np.arccos(np.clip(np.min(dots), -1.0, 1.0))))


def bracket_form(x: TangentColumns, y: TangentColumns) -> float:
    """Determinant with columns (x, dx_1..dx_k, y, dy_1..dy_l).

    This is the orientation-sensitive (n+1) x (n+1) determinant pairing two
    tangent frames; the column order above is the normative one.  The two
    frames must jointly fill the ambient space: (k+1) + (l+1) = n+1.
    """
    d = x.base.ambient_dim
    if y.base.ambient_dim != d:
        raise ValueError("ambient dimension mismatch between frames")
    ncols = 1 + x.k + 1 + y.k
    if ncols != d:
        raise ValueError(
            f"column count {ncols} does not fill ambient dimension {d}; "
            "need dim K + dim L = n - 1"
        )
    m = np.column_stack([x.base.coords, x.columns, y.base.coords, y.columns])
    return float(np.linalg.det(m))


def _gamma_half_integer(two_z: int) -> float:
    # Gamma(two_z / 2) for integer two_z >= 1, by the recurrence
    # Gamma(z + 1) = z Gamma(z) seeded with Gamma(1/2) = sqrt(pi), Gamma(1) = 1.
    g = float(np.sqrt(np.pi)) if two_z % 2 == 1 else 1.0
    z = 0.5 if two_z % 2 == 1 else 1.0
    while 2 * z < two_z:
        g *= z
        z += 1.0
    return g


def _vol_sphere_any(n: int) -> float:
    # 2 pi^((n+1)/2) / Gamma((n+1)/2); accepts n = 0 (two points, volume 2)
    # for internal use, the public wrapper restricts to n >= 1.
    return 2.0 * np.pi ** ((n + 1) / 2) / _gamma_half_integer(n + 1)


def sphere_volume(n: int) -> float:
    """n-dimensional volume of the unit sphere S^n (n >= 1).

    vol S^1 = 2 pi, vol S^2 = 4 pi, vol S^3 = 2 pi^2, vol S^4 = 8 pi^2 / 3,
    vol S^5 = pi^3, ...
    """
    if int(n) != n or n <= 0:
        raise ValueError(f"sphere dimension must be a positive integer, got {n}")
    return _vol_sphere_any(int(n))


def antipode(x: SpherePoint) -> SpherePoint:
    """The antipodal point -x."""
    return SpherePoint(-x.coords)


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("rotation must be a square matrix")
    d = r.shape[0]
    if float(np.max(np.abs(r.T @ r - np.eye(d)))) > _ROTATION_TOL:
        raise ValueError("matrix is not orthogonal within 1e-10")
    if abs(float(np.linalg.det(r)) - 1.0) > _ROTATION_TOL:
        raise ValueError("matrix does not have determinant +1 within 1e-10")
    return r


def apply_rotation(r: np.ndarray, x: SpherePoint) -> SpherePoint:
    """Apply an orientation-preserving isometry R (orthogonal, det +1)."""
    r = _check_rotation(r)
    if r.shape[0] != x.ambient_dim:
        raise ValueError("rotation dimension does not match the point")
    return SpherePoint(r @ x.coords)


def givens_rotation(dim: int, plane: tuple[int, int], angle: float) -> np.ndarray:
    """Rotation by `angle` in the coordinate plane (i, j) of R^dim."""
    i, j = plane
    if i == j or not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"invalid rotation plane {plane} for dimension {dim}")
    r = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def compose_givens(dim: int, planes_angles) -> np.ndarray:
    """Compose a list of (plane, angle) Givens rotations, applied in order.

    The result of composing rotations G_1, ..., G_m is G_m ... G_2 G_1, i.e.
    G_1 acts first.  Always orthogonal with determinant +1 by construction.
    """
    r = np.eye(dim)
    for plane, angle in planes_angles:
        r = givens_rotation(dim, tuple(plane), float(angle)) @ r
    return r
