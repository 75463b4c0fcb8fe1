"""Extremal point enumeration, genus invariants, reflection/uniformity
classification and the canonical point construction.

Extremal points are the minimal elements of the Sigma region.  For a
graph or regular-digraph Laplacian lattice they all arise, up to lattice
translation, from vertex orders: each order pi contributes the vector
whose k-th coordinate is minus the number of arcs into k from vertices
placed earlier, shifted by the all-ones vector.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, sub
from typing import Optional

from .core import (LatticeBasis, _charge, as_ints, degree, node_budget,
                   project_H0)
from .geometry import is_extremal, sigma_contains
# bound here so the benchmark's tracer can wrap it; no code here calls it
from .geometry import verify_critical  # noqa: F401
from .graphs import Multigraph, laplacian_lattice


def nu_of_permutation(Q, pi):
    """The order vector of pi for Laplacian matrix Q.

    pi lists the vertices 0..k-1, each once, in order, and Q is k x k;
    anything else raises ValueError (entries go through as_ints, so 2.0
    is read as 2).
    """
    order = as_ints(pi, "vertex order")
    k = len(order)
    if sorted(order) != list(range(k)):
        raise ValueError("not a permutation of 0..n")
    if len(Q) != k or any(len(r) != k for r in Q):
        raise ValueError("Laplacian size does not match the order")
    return _nu(Q, order)


def _nu(Q, order):
    """nu_of_permutation for an order of 0..k-1 and a k x k Q, unchecked.

    Coordinate k is minus the total arc multiplicity into k from vertices
    earlier in the order; since Q[j][k] is minus that multiplicity for
    j != k, this is a running sum of the Q rows of the vertices placed.
    """
    nu = [0] * len(order)
    placed = [0] * len(order)
    for v in order:
        nu[v] = placed[v]
        placed = list(map(add, placed, Q[v]))
    return tuple(nu)


def _rooted_orders(k):
    """The (k - 1)! orders of 0..k-1 that start at vertex 0.

    With zero row and column sums, rotating an order (v0, ..., v_{k-1}) to
    (v1, ..., v0) turns its order vector nu into nu - Q[v0]: v0's entry
    becomes the sum of the other rows at v0, which is -Q[v0][v0].  Q[v0]
    is a lattice vector, so every order is a rotation of a rooted one
    whose vector lies in the same class.
    """
    return ((0,) + rest for rest in itertools.permutations(range(1, k)))


@dataclass(frozen=True)
class ExtremalClass:
    """One extremal class modulo the lattice, given by a representative.

    Minimality in Sigma depends only on the class, so every vector of the
    class is extremal; the representative is the lexicographically least
    vector the builder met in it.
    """

    representative: tuple
    degree: int

    def to_json_dict(self):
        return {
            "representative": list(self.representative),
            "degree": self.degree,
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
        sorted by t; see _reflections.

        The search runs on k * Crit modulo k * L with k = dim: every
        k * project_H0(rep) = k * rep - deg(rep) * (1, ..., 1) is
        integral, and x = y modulo L exactly when k * x = k * y modulo
        k * L, whose HNF is k times L's.  So each canonical form is an
        integer reduce, and only the valid t are carried back to
        fractional_part form, before the sort.  Its HNF and its
        reductions, one per class for the points and then those of
        _reflections, share one node_budget block.
        """
        L = self.lattice
        k = L.dim
        with node_budget():
            kL = LatticeBasis([[k * x for x in row] for row in L.hnf])
            _charge("reflection search: class points", self.class_count)
            points = [kL.reduce([k * a - c.degree for a in c.representative])
                      for c in self.classes]
            out = [(L.fractional_part([Fraction(x, k) for x in t]), pairing)
                   for t, pairing in _reflections(points, kL.reduce)]
        return sorted(out, key=itemgetter(0))

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
    """One ExtremalClass per coset met, sorted by representative.

    vectors is streamed: only the least vector of each coset is kept, and
    it becomes the class representative.
    """
    least = {}
    for v in vectors:
        v = tuple(v)
        key = L.reduce(v)
        if key not in least or v < least[key]:
            least[key] = v
    return tuple(ExtremalClass(v, degree(v)) for v in sorted(least.values()))


def extremal_set_graphical(G) -> ExtremalSet:
    """Extremal classes of a Laplacian lattice via order enumeration.

    For undirected multigraphs every order vector (plus all-ones) is a
    minimal element of Sigma (Baker-Norine); for other regular digraphs
    some are not and are filtered out with is_extremal, which still yields
    every class because each minimal class arises from an order.  A
    Multigraph, the symmetric regular digraph, skips the filter.  The k!
    order vectors are charged to one node_budget block before the walk,
    which the lattice's HNF and the filter then draw on.  They are read
    as the k rotations of each rooted order (see _rooted_orders):
    rotating by j subtracts the rows of the j vertices moved to the end,
    and only the least of the k vectors, which share a class, is reduced.
    """
    k = G.vertex_count
    with node_budget():
        _charge("order enumeration: %d! orders" % k, math.factorial(k))
        Q = G.laplacian_rows()
        L = laplacian_lattice(G)
        vectors = (min(itertools.accumulate(  # the order's k rotations
            order[:-1], lambda nu, v: tuple(map(sub, nu, Q[v])),
            initial=tuple(a + 1 for a in _nu(Q, order))))
            for order in _rooted_orders(k))
        classes = _group_into_classes(L, vectors)
        source = "graphical"
        if not isinstance(G, Multigraph):
            classes = tuple(c for c in classes
                            if is_extremal(L, c.representative))
            source = "digraph"
    return ExtremalSet(lattice=L, classes=classes, source=source,
                       q_rows=tuple(tuple(r) for r in Q))


def extremal_set_general(L: LatticeBasis) -> ExtremalSet:
    """Extremal classes by a descending degree scan, for any rank.

    Every point of positive degree is in Sigma, and a minimal v needs
    every v - e_i outside it, so an extremal point has degree at most 1.
    Sigma is a union of classes (D is in it exactly when the class of -D
    holds no effective divisor) and is closed upwards, so once a degree
    level holds no point of Sigma no lower level does.  The scan therefore
    walks the levels d = 1, 0, -1, ... with one canonical representative
    per class, keeps the set of representatives in Sigma, and stops at the
    first level with none in Sigma, which is level -g_max.  Level 1 is kept
    whole with no coset walk.  Below it, upward closure is tested before
    each walk: a representative with some reduce(rep + e_i) not kept at
    level d + 1 lies outside Sigma, and only the others get a
    sigma_contains walk.  Minimality is decided from the level below, with
    no further coset walk: a kept v of degree d is minimal exactly when no
    v - e_i is in Sigma, that is when no reduce(v - e_i) is kept at level
    d - 1.  So every kept representative of the last non-empty level is
    minimal.  Each level charges its index many class tests before it is
    walked, to one node_budget block that the walks share.
    """
    index = L.picard_cardinality()
    steps = range(L.dim)
    found = []
    above = None
    with node_budget():
        for d in itertools.count(1, -1):
            _charge("extremal scan: %d class tests" % index, index)
            reps = L.class_representatives(d)
            if above is None:
                level = set(reps)  # every point of positive degree is in Sigma
            else:
                # upward closure: rep is in Sigma only if every rep + e_i is
                level = {rep for rep in reps
                         if all(L.reduce(_unit_step(rep, i, 1)) in above
                                for i in steps)
                         and sigma_contains(L, rep)}
                # level d decides which representatives of level d + 1 are
                # minimal
                found.extend(
                    v for v in above
                    if not any(L.reduce(_unit_step(v, i, -1)) in level
                               for i in steps))
            if not level:
                break
            above = level
    classes = _group_into_classes(L, found)
    return ExtremalSet(lattice=L, classes=classes, source="scan")


def _unit_step(v, i, s):
    """v + s * e_i."""
    return v[:i] + (v[i] + s,) + v[i + 1:]


# -- classification -------------------------------------------------------------


def _reflections(points, canon):
    """Every translation t with -P = P + t, with its pairing.

    points are distinct canonical forms (canon(p) == p) of the set P of
    classes modulo a lattice, and canon is that lattice's reduce (an
    exact set is tested by _point_symmetric).  pairing[i] = j means
    canon(-(p_i + t)) = p_j.  Every valid t carries -p_0 onto some p_q,
    so t = canon(-(p_0 + p_q)) for one of only len(points) candidates,
    and the t come in the order of their q.  A candidate is valid when
    every canon(-(p_i + t)) lies in P; the index map is then injective,
    so a bijection, and an involution because -(p_j + t) = p_i.
    Symmetric sets can admit several valid t.  Each candidate charges its
    canon calls, at most len(points) + 1, once it is decided.
    """
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
        _charge("reflection search: %d reductions" % (i + 2), i + 2)
    return out


def _basis(extremal: ExtremalSet, L: Optional[LatticeBasis]):
    """L, or extremal.lattice when L is None.

    L may be any basis of extremal.lattice (the HNF is unique, so each
    reflection t is reduced modulo L's rows too); another lattice raises
    ValueError.
    """
    if L is None:
        return extremal.lattice
    if not extremal.lattice.same_lattice(L):
        raise ValueError("extremal data does not belong to the given lattice")
    return L


def reflection_pairing(extremal: ExtremalSet, L: LatticeBasis):
    """(t, pairing) for a reflection-invariant lattice, else (None, None).

    pairing[i] = j means negation carries class i onto class j shifted by
    t; the map is an involution on class indices.  When several t are
    valid the lexicographically least one is reported.  L may be any
    basis of extremal.lattice; another lattice raises ValueError.  The
    reflection search, made once per set, is charged to the active
    node_budget block (see ExtremalSet._reflection_list).
    """
    _basis(extremal, L)
    refl = extremal._reflection_list
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


def voronoi_cell_vertices(L: LatticeBasis, extremal: ExtremalSet):
    """Critical points that are vertices of the origin's Voronoi cell.

    Read off the simplicial decomposition induced by the zero-sum
    generator family q_rows (see _resolve_q_rows): every order of the
    generators spans a simplex of partial sums, and when the order's
    min-vector is extremal its critical point belongs to the cells of
    exactly those partial sums.  Collecting the translates by the negated
    partial sums yields the vertices incident to the origin.  A direct
    metric test (every critical translate at distance exactly h from the
    origin) would be wrong here: a lattice point can be tight on a facet
    shared with a partial sum without the simplex being incident to the
    origin.  The walk runs in integers on the vertices scaled by k = dim,
    over the rooted orders only (a rotated order spans the same vertices),
    charges its k! vertex steps to the active node_budget block before it
    starts, and divides by k once at the end.

    The classes must be L's extremal classes, as the library's builders
    return them; criticality is not re-checked.  A class that no order
    reaches, or whose order has a partial sum that is not tight, raises
    ValueError naming it; a non-extremal class that an order reaches (a
    digraph's order vector can be one) adds its vertices unnoticed.
    """
    q_rows = _resolve_q_rows(L, extremal)
    if q_rows is None:
        raise ValueError("no generator family available for rank > 2 "
                         "scans without q_rows")
    return frozenset(tuple(Fraction(x, L.dim) for x in v)
                     for v in _cell_walk(L, extremal, q_rows))


def _cell_walk(L: LatticeBasis, extremal: ExtremalSet, q_rows):
    """voronoi_cell_vertices times k = dim: k * project_H0(nu) = k * nu -
    deg(nu) * (1, ..., 1) and k * (partial sums) are integers, and the
    tightness test max(vertex) == h = (k - deg(cls)) / k scales to k - deg.

    Each rooted order's k vertices are those of its k rotations: rotating
    by one starts the list at the second vertex, keeps the degree (the
    rows sum to zero) and the class, and closes the list because the rows
    add up to zero.  So the rooted orders alone reach every class and
    every vertex that all k! orders reach.
    """
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
    _charge("Voronoi cell walk: %d! vertex steps" % k, math.factorial(k))
    keys = {L.reduce(cls.representative): cls for cls in extremal.classes}
    k_rows = [tuple(k * x for x in r) for r in q_rows]
    reached = set()
    out = set()
    for order in _rooted_orders(k):
        nu = _nu(q_rows, order)
        key = L.reduce(tuple(a + 1 for a in nu))
        cls = keys.get(key)
        if cls is None:
            continue
        reached.add(key)
        d = sum(nu)
        vertex = tuple(k * a - d for a in nu)
        for v in order:
            if max(vertex) != k - cls.degree:
                raise ValueError("a partial sum of q_rows is not tight at "
                                 "the order of class %r"
                                 % (cls.representative,))
            out.add(vertex)
            vertex = tuple(map(sub, vertex, k_rows[v]))
    for key, cls in keys.items():
        if key not in reached:
            raise ValueError("no order of q_rows reaches class %r"
                             % (cls.representative,))
    return out


def _point_symmetric(points):
    """True when -P = P + t for some t, for a finite set P of vectors.

    v -> -v - t would reverse the lexicographic order of P, so it would
    carry min(P) to max(P): the only candidate is t = -(min(P) + max(P)).
    It holds when the map sends every point into P, which makes it a
    bijection of the finite P.
    """
    ends = tuple(map(add, min(points), max(points)))  # -t
    return all(tuple(map(sub, ends, v)) in points for v in points)


def classify(extremal: ExtremalSet, L: Optional[LatticeBasis] = None):
    """Uniformity and reflection flags for an extremal set.

    Returns {"uniform", "reflection_invariant",
    "strongly_reflection_invariant", "t"} where t is the reflection
    translation as a tuple of exact rationals (None if not reflection
    invariant), reduced modulo the HNF rows of L.  The strong flag tests
    the exact set equality -V = V + t on the critical vertices V of the
    origin's cell; it is None when no generator family anchors the cell
    (bare scans in rank 3+).  The test runs in integers on the cell
    scaled by k = dim, which keeps the order and the set equality, after
    the walk's k! vertex steps are charged.  The reflection search and the
    cell walk share one node_budget block.  L may be any basis of
    extremal.lattice; another lattice raises ValueError.
    """
    L = _basis(extremal, L)
    with node_budget():
        t = extremal.reflection_vector
        strong = False  # strongly invariant implies reflection invariant
        if t is not None:
            q_rows = _resolve_q_rows(L, extremal)
            strong = None if q_rows is None else _point_symmetric(
                _cell_walk(L, extremal, q_rows))
    return {
        "uniform": extremal.uniform,
        "reflection_invariant": t is not None,
        "strongly_reflection_invariant": strong,
        "t": t,
    }


def canonical_point(extremal: ExtremalSet, L: Optional[LatticeBasis] = None):
    """The canonical divisor-like point K of a reflection-invariant lattice.

    K is a class modulo the lattice; this picks one vector of it.  When
    q_rows is symmetric (a multigraph Laplacian, or an extension of one)
    K is (vertex degree - 2), read off the diagonal: every order vector
    and its reversed order sum to -K (Baker-Norine), so no reflection
    search is made.  Otherwise each class is paired with its reflection
    partner, the pairs of maximal degree sum are kept, and K = -(most
    frequent representative sum) over those pairs, ties broken by the
    lexicographically least sum; that reflection search is charged to the
    active node_budget block.  L may be any basis of extremal.lattice;
    another lattice raises ValueError.
    """
    _basis(extremal, L)
    Q = extremal.q_rows
    if Q is not None and list(zip(*Q)) == [tuple(r) for r in Q]:
        return tuple(row[i] - 2 for i, row in enumerate(Q))
    keys = []  # (-count, sum), minimised; counts never mix across t
    reps = extremal.representatives
    for _, pairing in extremal._reflection_list:
        sums = [tuple(map(add, reps[i], reps[j])) for i, j in pairing.items()]
        top = max(map(sum, sums))  # the maximal degree sum of a pair
        counts = Counter(s for s in sums if sum(s) == top)
        keys.extend((-cnt, s) for s, cnt in counts.items())
    if not keys:
        raise ValueError("lattice is not reflection invariant; no pairing")
    return tuple(-x for x in min(keys)[1])
