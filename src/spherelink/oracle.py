"""Independent ground truth: the Gauss linking integral, written on S^n.

Disjoint closed oriented K^k, L^l in S^n (k + l = n - 1) are carried by
stereographic projection, from one pole p clear of both, into R^n, where the
classical Gauss integral counts their linking number:

    Lk = sign / vol S^{n-1} * integral over K x L of
         det(X - Y, dX, dY) / |X - Y|^n,

with ``sign = sign_factor("stereographic", l=l)`` (derived there).  Every
order is covered, zero-dimensional sides (signed points) included.  Nothing
is projected: by multilinearity the integrand is one on the sphere.  Take Q
with det[Q | p] = +1, X = Q^T x / (1 - p.x) and
dX = (Q^T t + X p.t) / (1 - p.x) for a tangent column t.

1. det(X - Y, dX, dY) = (-1)^(k+1) det[(1; X), (0; dX), (1; Y), (0; dY)],
   an (n+1)-square bracket: subtract the first column from (1; Y), expand
   along the top row and move Y - X to the front.
2. Scale each K column by 1 - p.x and each L column by 1 - p.y.  Then
   (1 - p.x)(1; X) = JR(x - p) and (1 - p.x)(0; dX) = JRt + (p.t)(1; X),
   with R = [p | Q]^T, J = diag(-1, 1, ..., 1) and det(JR) = (-1)^(n+1);
   the term (p.t)(1; X), a multiple of the first column, drops out.
3. |X - Y|^n = (2 (1 - x.y))^(n/2) / ((1 - p.x) (1 - p.y))^(n/2).

The sign's (-1)^(l+1) times the (-1)^(k+1) of step 1 and the (-1)^(n+1)
of step 2 is +1, so

    Lk = 1 / vol S^{n-1} * integral over K x L of det(x - p, dx, y - p, dy)
         (1 - p.x)^((l-k-1)/2) (1 - p.y)^((k-l-1)/2) (2 (1 - x.y))^(-n/2).

The oracle stays independent of the routes where it counts: Gauss's kernel
(2 (1 - x.y))^(-n/2), not phi / sin^n, on a bracket of x - p, not x.
Everything else it shares with them, the span its sides' minors are taken
in included.  It is the entry "oracle" of the engine's route table
(``spherelink.engine._ROUTES``), which holds what it differs in: the pole
as each side's shift, found by :func:`spherelink.spheregeom.find_pole` on
both sides' nodes on the first refinement step's grids, the base and its
probes, which every run integrates (a coarse base grid alone can overstate
a candidate's clearance), embedded as that step's side blocks so that each
node enters once; the factor (1 - p.x)^(n/2 - dim - 1) and the prefactor
1 / vol S^{n-1} that go with it; the Gauss kernel; the separation
threshold, held at ``engine.MIN_ALPHA``; and ``CURVE_NODES`` curve nodes
by default.  So :func:`oracle_linking` is one call of the engine's
evaluator, :func:`~spherelink.engine._evaluate`, and its level sums are
the routes' own.  Each side takes the minors of its frames in a span,
:func:`~spherelink.engine._minor_side` as on every route, here the span of
[B | p] with B the side's
:attr:`~spherelink.catalog.OrientedSubmanifold.span`, made orthonormal by
:func:`~spherelink.engine._pole_span` (10 and 15 minors a node for a small
(2,3) pair, not 35 of the whole space); its point column is x - p, its
weights carry its factor, K's its prefactor and the bracket matrix of the
two spans (:func:`~spherelink.engine._span_bracket`), and a node within
0.05 rad of the pole is refused.  The chunks, the separation check before
any kernel is formed, the geodesic min/max alpha of the report and the
refinement from the ``GridSpec`` base counts one factor at a time are
those of every route.
"""

from .catalog import OrientedSubmanifold
from .engine import _ROUTES, MAX_LEVEL, TOL, GridSpec, LinkingReport, _evaluate

__all__ = ["oracle_linking", "CURVE_NODES"]

# default base node count per curve, of the Python API and the CLI alike
CURVE_NODES = _ROUTES["oracle"].curve


def oracle_linking(K: OrientedSubmanifold, L: OrientedSubmanifold,
                   grid: GridSpec | None = None, tol: float = TOL,
                   max_level: int = MAX_LEVEL, m: int = CURVE_NODES) -> LinkingReport:
    """Lk(K, L) by the Gauss integral of the stereographic images in R^n,
    integrated in its form on S^n (see the module docstring).

    grid holds the base node counts, as for the engine's evaluators; without
    one, curves take m nodes (GridSpec(curve=m)).  One pole serves every
    level, the candidate farthest from both sides' nodes on the grids of the
    first refinement step; each level refuses a node within 0.05 rad of it,
    and a chunk whose geodesic separation reaches the engine's MIN_ALPHA
    raises DisjointnessError before its kernel is formed.
    """
    return _evaluate("oracle", K, L, grid or GridSpec(curve=m), tol, max_level)
