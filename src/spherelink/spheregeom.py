"""Ambient-space helpers for the round unit sphere S^n in R^{n+1}.

Points are unit vectors in R^{n+1}.  The routes read three things from
here: the geodesic distance range of an array of dot products x . y,
sphere volumes, and rotations (Givens compositions and the check that a
matrix is one).  The point-first orientation convention the routes follow
is stated where the bracket is formed, in
:func:`spherelink.engine._laplace_subsets`.
"""

import numpy as np

__all__ = [
    "alpha_extremes",
    "sphere_volume",
    "givens_rotation",
    "compose_givens",
]

_ROTATION_TOL = 1e-10


def alpha_extremes(dots) -> tuple[float, float]:
    """(min, max) geodesic distance over an array of dot products x . y:
    arccos of its largest and of its smallest entry, each clamped to
    [-1, 1].  Both are NaN when any entry is NaN."""
    return (float(np.arccos(np.clip(np.max(dots), -1.0, 1.0))),
            float(np.arccos(np.clip(np.min(dots), -1.0, 1.0))))


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
