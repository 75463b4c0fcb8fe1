"""Reduction from rational-simplex integer feasibility to Sigma membership.

A divisor D of negative degree lies outside the Sigma region of L exactly
when some lattice point p satisfies p >= D, and the set of such p is the
simplicial ball of radius -deg(D)/(n+1) around the projection of D.  Any
rational simplex S in R^n can therefore be turned into a membership
instance: map S affinely onto a standard simplicial ball, carry Z^n along
to a sub-lattice of A_n, and clear denominators.  Integer points of S then
correspond exactly to lattice points >= D, so

    S contains an integer point  <=>  not sigma_contains(L, D).

Both sides are closed conditions, so the correspondence is exact on
boundaries too.  The brute-force scanner below is the independent oracle
used to validate the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import LatticeBasis, _charge, _hnf_rows, as_fraction, solve_rational

__all__ = [
    "RationalSimplex",
    "reduce_simplex_to_membership",
    "simplex_has_integer_point",
]


@dataclass
class RationalSimplex:
    """A full-dimensional simplex in R^n given by n+1 rational vertices."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(
            tuple(as_fraction(x) for x in v) for v in self.vertices
        )
        if not verts:
            raise ValueError("empty vertex list")
        dim = len(verts[0])
        if dim < 1 or len(verts) != dim + 1:
            raise ValueError("need n+1 vertices of dimension n")
        if any(len(v) != dim for v in verts):
            raise ValueError("inconsistent vertex dimensions")
        # edge rows scaled by the lcm of their denominators: an integer
        # matrix of rank dim exactly when the simplex is not degenerate
        edges = []
        for i in range(1, dim + 1):
            row = [verts[i][j] - verts[0][j] for j in range(dim)]
            den = math.lcm(*(x.denominator for x in row))
            edges.append([int(x * den) for x in row])
        if len(_hnf_rows(edges)[0]) < dim:
            raise ValueError("degenerate simplex: vertices affinely dependent")
        self.vertices = verts

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def centroid(self):
        k = len(self.vertices)
        return tuple(
            sum(v[j] for v in self.vertices) / k for j in range(self.dim)
        )

    def scaled(self, factor) -> "RationalSimplex":
        f = as_fraction(factor)
        return RationalSimplex(
            tuple(tuple(f * x for x in v) for v in self.vertices)
        )

    def contains(self, point) -> bool:
        """Exact closed-simplex membership via barycentric coordinates.

        A point of another length than the vertices raises ValueError.
        """
        point = tuple(point)
        if len(point) != self.dim:
            raise ValueError("point %r has %d coordinates, expected %d"
                             % (point, len(point), self.dim))
        k = self.dim + 1
        M = [[self.vertices[j][i] for j in range(k)] for i in range(self.dim)]
        M.append([Fraction(1)] * k)
        rhs = [as_fraction(x) for x in point] + [Fraction(1)]
        lam = solve_rational(M, rhs)
        return all(v >= 0 for v in lam)

    @classmethod
    def from_json_obj(cls, obj) -> "RationalSimplex":
        """Vertices as lists of ints, "p/q" strings or [p, q] pairs."""
        if not (isinstance(obj, list) and all(isinstance(v, list) for v in obj)):
            raise ValueError("a simplex is a list of vertex lists")
        return cls(obj)

    def to_json_dict(self):
        return {
            "vertices": [[str(x) for x in v] for v in self.vertices],
            "dim": self.dim,
        }


def reduce_simplex_to_membership(S: RationalSimplex):
    """Turn integer feasibility of S into a Sigma membership instance.

    Returns (L, D) with S containing an integer point if and only if
    sigma_contains(L, D) is false.  Construction: translate the centroid
    to the origin, map the translated vertices onto the vertices of the
    standard simplex of the zero-sum hyperplane (vertex i has coordinate n
    at position i and -1 elsewhere), push Z^n through the same map, scale
    by the common denominator N to land in integer coordinates, and read
    off D = N*f(centroid) - N*(1,...,1), which has degree -N*(n+1) and
    projects back onto the scaled simplex centre.
    """
    n = S.dim
    c = S.centroid()
    verts = S.vertices
    # columns of W: translated vertices 1..n; columns of B: their images
    W = [[verts[i + 1][j] - c[j] for i in range(n)] for j in range(n)]
    b = [
        tuple(n if i == j else -1 for j in range(n + 1))
        for i in range(n + 1)
    ]
    # F = B * W^{-1}, built column by column: F e_i solves W y = e_i, then
    # maps through B
    Winv_cols = []
    for i in range(n):
        rhs = [Fraction(1) if r == i else Fraction(0) for r in range(n)]
        Winv_cols.append(solve_rational(W, rhs))
    F_cols = []
    for i in range(n):
        y = Winv_cols[i]
        col = tuple(
            sum(b[k + 1][j] * y[k] for k in range(n)) for j in range(n + 1)
        )
        F_cols.append(col)
    x = tuple(
        sum(F_cols[i][j] * c[i] for i in range(n)) for j in range(n + 1)
    )
    denoms = [v.denominator for col in F_cols for v in col]
    denoms.extend(v.denominator for v in x)
    N = math.lcm(*denoms)
    rows = [tuple(int(N * v) for v in col) for col in F_cols]
    L = LatticeBasis(rows)
    D = tuple(int(N * v) - N for v in x)
    return L, D


def simplex_has_integer_point(S: RationalSimplex):
    """Brute-force oracle: scan the bounding box for a point of Z^n in S.

    The box's size is charged to the active node_budget block before the
    scan.
    """
    n = S.dim
    lo = []
    hi = []
    size = 1
    for j in range(n):
        coords = [v[j] for v in S.vertices]
        a = math.ceil(min(coords))
        b = math.floor(max(coords))
        lo.append(a)
        hi.append(b)
        size *= max(b - a + 1, 0)
    _charge("integer point scan: %d box points" % size, size)
    if size == 0:
        return False

    def rec(j, point):
        if j == n:
            return S.contains(point)
        return any(
            rec(j + 1, point + [v]) for v in range(lo[j], hi[j] + 1)
        )

    return rec(0, [])
