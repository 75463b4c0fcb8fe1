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
from operator import itemgetter
from typing import Optional, Sequence

from .core import BudgetExceeded, LatticeBasis, as_ints, degree, project_H0
from .geometry import is_extremal, sigma_contains
# bound here so the benchmark's tracer can wrap it; no code here calls it
from .geometry import verify_critical  # noqa: F401
from .graphs import RegularDigraph, laplacian_lattice


class Permutation:
    """A vertex order: images[i] is the vertex in position i."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = as_ints(images, "vertex order")
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
        sorted by t; see _reflections.

        The search runs on k * Crit modulo k * L with k = dim: every
        k * project_H0(rep) = k * rep - deg(rep) * (1, ..., 1) is
        integral, and x = y modulo L exactly when k * x = k * y modulo
        k * L, whose HNF is k times L's.  So each canonical form is an
        integer reduce, and only the valid t are carried back to
        fractional_part form, before the sort.
        """
        L = self.lattice
        k = L.dim
        kL = LatticeBasis([[k * x for x in row] for row in L.hnf])
        points = [kL.reduce([int(k * x) for x in p])
                  for p in self.critical_points()]
        out = [(L.fractional_part([Fraction(x, k) for x in t]), pairing)
               for t, pairing in _reflections(points, kL.reduce)]
        out.sort(key=itemgetter(0))
        return out

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

    For undirected multigraphs every order vector (plus all-ones) is a
    minimal element of Sigma (Baker-Norine); for regular digraphs some are
    not and are filtered out with is_extremal, which still yields every
    class because each minimal class arises from an order.  The k! orders
    are charged against node_budget before the walk.
    """
    k = G.vertex_count
    if math.factorial(k) > node_budget:
        raise BudgetExceeded("order enumeration: %d! orders exceed the node "
                             "budget %d" % (k, node_budget))
    Q = G.laplacian_rows()
    L = laplacian_lattice(G)
    vectors = [tuple(a + 1 for a in nu_of_permutation(Q, order))
               for order in itertools.permutations(range(k))]
    classes = _group_into_classes(L, vectors)
    if isinstance(G, RegularDigraph):
        classes = tuple(
            c for c in classes if is_extremal(L, c.representative, node_budget)
        )
        source = "digraph"
    else:
        source = "graphical"
    return ExtremalSet(lattice=L, classes=classes, source=source,
                       q_rows=tuple(tuple(r) for r in Q))


def extremal_set_general(L: LatticeBasis, node_budget=2_000_000) -> ExtremalSet:
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
    minimal.  Each level charges its index many class tests against
    node_budget before it is walked.
    """
    index = L.picard_cardinality()
    steps = range(L.dim)
    tests = 0
    found = []
    above = None
    for d in itertools.count(1, -1):
        tests += index
        if tests > node_budget:
            raise BudgetExceeded("extremal scan: %d class tests exceed the "
                                 "node budget %d" % (tests, node_budget))
        reps = L.class_representatives(d)
        if above is None:
            level = set(reps)  # every point of positive degree is in Sigma
        else:
            # upward closure: rep is in Sigma only if every rep + e_i is
            level = {rep for rep in reps
                     if all(L.reduce(_unit_step(rep, i, 1)) in above
                            for i in steps)
                     and sigma_contains(L, rep, node_budget)}
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

    points are distinct canonical forms (canon(p) == p) of the set P;
    canon is a lattice's reduce for classes modulo that lattice, or the
    identity for an exact set.  pairing[i] = j means canon(-(p_i + t)) =
    p_j.  Every valid t carries -p_0 onto some p_q, so t = canon(-(p_0 +
    p_q)) for one of only len(points) candidates, and the t come in the
    order of their q.  A candidate is valid when every canon(-(p_i + t))
    lies in P; the index map is then injective, so a bijection, and an
    involution because -(p_j + t) = p_i.  Symmetric sets can admit
    several valid t.
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
    return out


def _basis_and_reflections(extremal: ExtremalSet, L: Optional[LatticeBasis]):
    """L (extremal.lattice when None) and the (t, pairing) list of extremal.

    L may be any basis of extremal.lattice (the HNF is unique, so each t
    is reduced modulo L's rows too); another lattice raises ValueError.
    """
    if L is None:
        L = extremal.lattice
    elif not extremal.lattice.same_lattice(L):
        raise ValueError("extremal data does not belong to the given lattice")
    return L, extremal._reflection_list


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
                          q_rows=None):
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

    The classes must be L's extremal classes, as the library's builders
    return them; criticality is not re-checked.  A class that no order
    reaches, or whose order has a partial sum that is not tight, raises
    ValueError naming it; a non-extremal class that an order reaches (a
    digraph's order vector can be one) adds its vertices unnoticed.
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
    keys = {L.reduce(cls.representative): cls for cls in extremal.classes}
    reached = set()
    one = (1,) * k
    out = set()
    for order in itertools.permutations(range(k)):
        nu = nu_of_permutation(q_rows, order)
        key = L.reduce(tuple(a + b for a, b in zip(nu, one)))
        cls = keys.get(key)
        if cls is None:
            continue
        reached.add(key)
        h = Fraction(k - cls.degree, k)
        c = project_H0(nu)
        partial = [0] * k
        for step in range(k):
            vertex = tuple(ci - pi for ci, pi in zip(c, partial))
            if max(vertex) != h:
                raise ValueError("a partial sum of q_rows is not tight at "
                                 "the order of class %r"
                                 % (cls.representative,))
            out.add(vertex)
            row = q_rows[order[step]]
            for j in range(k):
                partial[j] += row[j]
    for key, cls in keys.items():
        if key not in reached:
            raise ValueError("no order of q_rows reaches class %r"
                             % (cls.representative,))
    return frozenset(out)


def classify(extremal: ExtremalSet, L: Optional[LatticeBasis] = None):
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
            cell = voronoi_cell_vertices(L, extremal, q_rows=q_rows)
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
