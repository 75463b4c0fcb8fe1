"""Extremal point enumeration, genus invariants, reflection/uniformity
classification and the canonical point construction.

Extremal points are the local degree minima of the Sigma region.  For a
graph or regular-digraph Laplacian lattice they all arise, up to lattice
translation, from vertex orders: each order pi contributes the vector
whose k-th coordinate is minus the number of arcs into k from vertices
placed earlier, shifted by the all-ones vector.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .core import BudgetExceeded, LatticeBasis, degree, project_H0
from .geometry import is_extremal, verify_critical
from .graphs import RegularDigraph, laplacian_lattice


class Permutation:
    """A vertex order: images[i] is the vertex in position i."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n")
        self.images = images

    def __iter__(self):
        return iter(self.images)

    def __len__(self):
        return len(self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)

    def reversed_order(self) -> "Permutation":
        """Full positional reversal; the exact pairing partner for the
        degree-sum identity (see reflection_pairing)."""
        return Permutation(self.images[::-1])

    @staticmethod
    def all_orders(k: int):
        for p in itertools.permutations(range(k)):
            yield Permutation(p)


def nu_of_permutation(Q, pi):
    """The order vector of pi for Laplacian matrix Q.

    Coordinate k is minus the total arc multiplicity into k from vertices
    earlier in the order; since Q[j][k] is minus that multiplicity for
    j != k, this is a plain running sum over Q entries.
    """
    order = tuple(pi)
    k = len(order)
    if len(Q) != k or any(len(r) != k for r in Q):
        raise ValueError("Laplacian size does not match the order")
    nu = [0] * k
    for pos, v in enumerate(order):
        nu[v] = sum(Q[order[i]][v] for i in range(pos))
    return tuple(nu)


@dataclass(frozen=True)
class ExtremalClass:
    representative: tuple  # lexicographically least known member
    degree: int
    members: tuple  # distinct known members of the class, sorted

    def to_json_dict(self):
        return {
            "representative": list(self.representative),
            "degree": self.degree,
            "members": [list(m) for m in self.members],
        }


@dataclass(frozen=True)
class ExtremalSet:
    """All extremal classes of a lattice, one entry per class modulo L."""

    lattice: LatticeBasis
    classes: tuple
    source: str  # "graphical", "digraph", "scan", "extension"
    # zero-sum generator family (Laplacian rows, or an A2 digraph basis)
    # anchoring the simplicial decomposition; None for bare scans
    q_rows: Optional[tuple] = None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def representatives(self):
        return tuple(c.representative for c in self.classes)

    @property
    def degrees(self):
        return tuple(c.degree for c in self.classes)

    @property
    def g_min(self) -> int:
        return min(-c.degree + 1 for c in self.classes)

    @property
    def g_max(self) -> int:
        return max(-c.degree + 1 for c in self.classes)

    @property
    def uniform(self) -> bool:
        return self.g_min == self.g_max

    def critical_points(self):
        """Degree-0 projections of the class representatives."""
        return tuple(project_H0(c.representative) for c in self.classes)

    @cached_property
    def _reflection_list(self):
        """Every (t, pairing) with -Crit = Crit + t modulo the lattice,
        sorted by t; see _reflections."""
        frac = self.lattice.fractional_part
        return _reflections([frac(c) for c in self.critical_points()], frac)

    @property
    def reflection_vector(self) -> Optional[tuple]:
        """The least reflection translation t, reduced modulo the HNF rows
        of self.lattice, or None if the lattice is not reflection invariant."""
        refl = self._reflection_list
        return refl[0][0] if refl else None

    def to_json_dict(self):
        out = {
            "classes": [c.to_json_dict() for c in self.classes],
            "degrees": list(self.degrees),
            "class_count": self.class_count,
            "g_min": self.g_min,
            "g_max": self.g_max,
            "uniform": self.uniform,
            "source": self.source,
        }
        if self.reflection_vector is not None:
            out["reflection_vector"] = [str(t) for t in self.reflection_vector]
        return out


def _group_into_classes(L: LatticeBasis, vectors):
    """Group vectors by coset; one ExtremalClass per coset, lex-min rep."""
    buckets = {}
    for v in vectors:
        buckets.setdefault(L.reduce(v), set()).add(tuple(v))
    classes = []
    for key in sorted(buckets):
        members = tuple(sorted(buckets[key]))
        classes.append(
            ExtremalClass(
                representative=members[0],
                degree=degree(members[0]),
                members=members,
            )
        )
    classes.sort(key=lambda c: c.representative)
    return tuple(classes)


def extremal_set_graphical(G, node_budget=2_000_000) -> ExtremalSet:
    """Extremal classes of a Laplacian lattice via order enumeration.

    For undirected multigraphs every order vector (plus all-ones) is
    extremal, and each class is checked to be; for regular digraphs some
    may fail and are filtered out, which still yields the complete class
    list because every critical point arises from some order.
    """
    Q = G.laplacian_rows()
    L = laplacian_lattice(G)
    k = G.vertex_count
    one = (1,) * k
    vectors = []
    for order in itertools.permutations(range(k)):
        nu = nu_of_permutation(Q, order)
        vectors.append(tuple(a + b for a, b in zip(nu, one)))
    classes = _group_into_classes(L, vectors)
    directed = isinstance(G, RegularDigraph)
    if directed:
        classes = tuple(
            c for c in classes if is_extremal(L, c.representative, node_budget)
        )
        source = "digraph"
    else:
        for c in classes:
            if not is_extremal(L, c.representative, node_budget):
                raise RuntimeError(
                    "order enumeration produced a non-extremal class "
                    "representative %r" % (c.representative,)
                )
        source = "graphical"
    if not classes:
        raise RuntimeError("no extremal classes found; lattice input invalid?")
    return ExtremalSet(lattice=L, classes=classes, source=source,
                       q_rows=tuple(tuple(r) for r in Q))


def _covering_upper_bound(L: LatticeBasis) -> Fraction:
    """A sound upper bound on the covering radius of L.

    Corner bound: every point translates into the fundamental
    parallelepiped of the HNF rows, and the distance to the origin at any
    point of that parallelepiped is at most the max over its corners of
    the max coordinate (convexity of the max).  Independently, the index
    V of L makes V * (full zero-sum lattice) a sub-lattice of L, whose
    covering radius is V*n/(n+1).
    """
    n = L.n
    best = Fraction(0)
    for subset in itertools.product((0, 1), repeat=n):
        corner = [0] * L.dim
        for take, row in zip(subset, L.hnf):
            if take:
                for j in range(L.dim):
                    corner[j] += row[j]
        best = max(best, Fraction(max(corner)))
    index_bound = Fraction(L.picard_cardinality() * n, n + 1)
    return min(best, index_bound)


def extremal_set_general(L: LatticeBasis, node_budget=2_000_000) -> ExtremalSet:
    """Extremal classes by direct degree-band scan; intended for n <= 3.

    Any extremal vector has degree in [1 - g_upper, n]: its degree is
    (n+1)(1 - h) for the height h of the matching critical point, with
    1/(n+1) <= h <= Cov(L), and g_upper = (n+1)*Cov_ub - n for a sound
    covering bound Cov_ub.  Scanning one canonical representative per
    class and degree decides everything, since extremality is invariant
    under lattice translation.
    """
    if L.n > 3:
        raise BudgetExceeded("general extremal scan is limited to n <= 3")
    cov_ub = _covering_upper_bound(L)
    g_upper = (L.n + 1) * cov_ub - L.n
    floor = 1 - int(g_upper)
    found = []
    for d in range(L.n, floor - 1, -1):
        for rep in L.class_representatives(d):
            if is_extremal(L, rep, node_budget):
                found.append(rep)
    if not found:
        raise RuntimeError("scan found no extremal classes; bound bug?")
    classes = _group_into_classes(L, found)
    return ExtremalSet(lattice=L, classes=classes, source="scan")


# -- classification -------------------------------------------------------------


def _reflections(points, canon):
    """Every translation t with -P = P + t, with its pairing, sorted by t.

    points are distinct canonical forms (canon(p) == p) of the set P;
    canon is L.fractional_part for classes modulo L, or the identity for
    an exact set.  pairing[i] = j means canon(-(p_i + t)) = p_j.  Every
    valid t carries -p_0 onto some p_q, so t = canon(-(p_0 + p_q)) for
    one of only len(points) candidates.  A candidate is valid when every
    canon(-(p_i + t)) lies in P; the index map is then injective, so a
    bijection, and an involution because -(p_j + t) = p_i.  Symmetric
    sets can admit several valid t.
    """
    if not points:
        return []
    index_of = {p: i for i, p in enumerate(points)}
    out = []
    for q in points:
        t = canon(tuple(-(a + b) for a, b in zip(points[0], q)))
        pairing = {}
        for i, p in enumerate(points):
            j = index_of.get(canon(tuple(-(a + b) for a, b in zip(p, t))))
            if j is None:
                break
            pairing[i] = j
        else:
            out.append((t, pairing))
    out.sort(key=itemgetter(0))
    return out


def _basis_and_reflections(extremal: ExtremalSet, L: Optional[LatticeBasis]):
    """L (extremal.lattice when None) and the (t, pairing) list of extremal.

    L may be any basis of extremal.lattice; another lattice raises
    ValueError.  Each t is reduced modulo L's HNF rows, which in rank 3+
    can differ between two bases of one lattice.
    """
    if L is None:
        L = extremal.lattice
    elif L is not extremal.lattice and not extremal.lattice.same_lattice(L):
        raise ValueError("extremal data does not belong to the given lattice")
    refl = extremal._reflection_list
    if L.hnf != extremal.lattice.hnf:
        refl = sorted(((L.fractional_part(t), p) for t, p in refl),
                      key=itemgetter(0))
    return L, refl


def reflection_pairing(extremal: ExtremalSet, L: LatticeBasis):
    """(t, pairing) for a reflection-invariant lattice, else (None, None).

    pairing[i] = j means negation carries class i onto class j shifted by
    t; the map is an involution on class indices.  When several t are
    valid the lexicographically least one is reported.  L may be any
    basis of extremal.lattice; another lattice raises ValueError.
    """
    _, refl = _basis_and_reflections(extremal, L)
    if not refl:
        return None, None
    t, pairing = refl[0]
    return t, dict(pairing)


def _resolve_q_rows(L: LatticeBasis, extremal: ExtremalSet):
    """A zero-sum generator family for the simplicial decomposition.

    Graph and digraph extremal sets carry their Laplacian rows.  For bare
    lattices we can synthesise one in rank 1 (the generator and its
    negative) and rank 2 (the digraph basis, which every full-rank
    sub-lattice of A_2 admits).  Higher-rank bare scans have no canonical
    family, so the strong reflection test is unavailable there.
    """
    if extremal.q_rows is not None:
        return extremal.q_rows
    if L.n == 1:
        g = L.hnf[0]
        return (g, tuple(-x for x in g))
    if L.n == 2:
        from .a2 import digraph_basis

        return digraph_basis(L)
    return None


def voronoi_cell_vertices(L: LatticeBasis, extremal: ExtremalSet,
                          q_rows=None, node_budget=2_000_000):
    """Critical points that are vertices of the origin's Voronoi cell.

    Read off the simplicial decomposition induced by the zero-sum
    generator family q_rows: every order of the generators spans a
    simplex of partial sums, and when the order's min-vector is extremal
    its critical point belongs to the cells of exactly those partial
    sums.  Collecting the translates by the negated partial sums yields
    the vertices incident to the origin.  A direct metric test (every
    critical translate at distance exactly h from the origin) would be
    wrong here: a lattice point can be tight on a facet shared with a
    partial sum without the simplex being incident to the origin.
    """
    if q_rows is None:
        q_rows = _resolve_q_rows(L, extremal)
    if q_rows is None:
        raise ValueError(
            "no generator family available; supply q_rows for rank > 2 scans"
        )
    k = L.dim
    if len(q_rows) != k or any(len(r) != k for r in q_rows):
        raise ValueError("q_rows must be %d vectors of length %d" % (k, k))
    if any(sum(r) != 0 for r in q_rows):
        raise ValueError("q_rows must be zero-sum")
    if tuple(sum(col) for col in zip(*q_rows)) != (0,) * k:
        raise ValueError("q_rows must have zero column sums")
    for r in q_rows:
        if not L.contains(r):
            raise ValueError("q_rows entry %r is not a lattice vector" % (r,))
    keys = {}
    for cls in extremal.classes:
        c = project_H0(cls.representative)
        ok, _ = verify_critical(L, c, node_budget)
        if not ok:
            raise RuntimeError(
                "class representative %r is not critical" % (cls.representative,)
            )
        keys[L.reduce(cls.representative)] = Fraction(k - cls.degree, k)
    one = (1,) * k
    out = set()
    for order in itertools.permutations(range(k)):
        nu = nu_of_permutation(q_rows, order)
        h = keys.get(L.reduce(tuple(a + b for a, b in zip(nu, one))))
        if h is None:
            continue
        c = project_H0(nu)
        partial = [0] * k
        for step in range(k):
            vertex = tuple(ci - pi for ci, pi in zip(c, partial))
            if max(vertex) != h:
                raise RuntimeError("partial sum not tight at its own order")
            out.add(vertex)
            row = q_rows[order[step]]
            for j in range(k):
                partial[j] += row[j]
    return frozenset(out)


def classify(extremal: ExtremalSet, L: Optional[LatticeBasis] = None,
             node_budget=2_000_000):
    """Uniformity and reflection flags for an extremal set.

    Returns {"uniform", "reflection_invariant",
    "strongly_reflection_invariant", "t"} where t is the reflection
    translation as a tuple of exact rationals (None if not reflection
    invariant), reduced modulo the HNF rows of L.  The strong flag tests
    the exact set equality -V = V + t on the critical vertices V of the
    origin's cell; it is None when no generator family anchors the cell
    (bare scans in rank 3+).  L may be any basis of extremal.lattice;
    another lattice raises ValueError.
    """
    L, refl = _basis_and_reflections(extremal, L)
    t = refl[0][0] if refl else None
    strong = False  # strongly invariant implies reflection invariant
    if t is not None:
        q_rows = _resolve_q_rows(L, extremal)
        if q_rows is None:
            strong = None
        else:
            cell = voronoi_cell_vertices(L, extremal, q_rows=q_rows,
                                         node_budget=node_budget)
            strong = bool(_reflections(sorted(cell), lambda v: v))
    return {
        "uniform": extremal.uniform,
        "reflection_invariant": t is not None,
        "strongly_reflection_invariant": strong,
        "t": t,
    }


def canonical_point(extremal: ExtremalSet, L: Optional[LatticeBasis] = None):
    """The canonical divisor-like point K of a reflection-invariant lattice.

    Pair each class with its reflection partner, keep the pairs of maximal
    degree sum, and take K = -(most frequent exact member sum) over those
    pairs, ties broken by the lexicographically least sum.  The frequency
    rule makes the choice basis-independent, and on Laplacian lattices it
    recovers (vertex degree - 2) on the nose: member sums concentrate on
    the order/reversed-order pairing.  L may be any basis of
    extremal.lattice; another lattice raises ValueError.
    """
    _, refl = _basis_and_reflections(extremal, L)
    best = None  # (-count, sum) minimised; counts never mix across t
    for _, pairing in refl:
        pair_degree = {
            i: extremal.classes[i].degree + extremal.classes[pairing[i]].degree
            for i in pairing
        }
        top = max(pair_degree.values())
        counter = Counter()
        for i, j in pairing.items():
            if pair_degree[i] != top:
                continue
            for a in extremal.classes[i].members:
                for b in extremal.classes[j].members:
                    counter[tuple(x + y for x, y in zip(a, b))] += 1
        for s, cnt in counter.items():
            key = (-cnt, s)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("lattice is not reflection invariant; no pairing")
    return tuple(-x for x in best[1])
