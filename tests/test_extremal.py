import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from rrlattice import extremal, geometry
from rrlattice.a2 import extend_family, random_a2_lattice
from rrlattice.core import BudgetExceeded, LatticeBasis, degree, project_H0
from rrlattice.extremal import (ExtremalClass, ExtremalSet, Permutation,
                                canonical_point, classify,
                                extremal_set_general, extremal_set_graphical,
                                nu_of_permutation, reflection_pairing,
                                voronoi_cell_vertices)
from rrlattice.graphs import (Multigraph, RegularDigraph, canonical_divisor,
                              connected_simple_graphs, laplacian_lattice,
                              random_connected_multigraph)

import oracles
from test_rank import NONUNIFORM


def test_permutation_type():
    pi = Permutation((1, 0, 2))
    assert pi.reversed_order() == Permutation((2, 0, 1))
    assert len(list(Permutation.all_orders(3))) == 6
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_entries_must_be_integers():
    # (0, 1.7, 2) was accepted as (0, 1, 2)
    with pytest.raises(ValueError):
        Permutation((0, 1.7, 2))
    pi = Permutation((0, 2.0, Fraction(2, 2)))
    assert pi.images == (0, 2, 1)
    assert all(type(x) is int for x in pi)


def test_nu_matches_closed_form(m322):
    Q = m322.laplacian_rows()
    for pi in Permutation.all_orders(3):
        assert nu_of_permutation(Q, pi) == \
            oracles.nu_closed_form(Q, tuple(pi))


def test_nu_frozen_skew56():
    Q = ((7, -7, 0), (-3, 11, -8), (-4, -4, 8))
    assert nu_of_permutation(Q, (1, 0, 2)) == (-3, 0, -8)
    assert nu_of_permutation(Q, (0, 1, 2)) == (0, -7, -8)


def test_k3_extremal_set(k3_extremal):
    ex = k3_extremal
    assert ex.class_count == 2
    assert ex.representatives == ((-1, 0, 1), (-1, 1, 0))
    assert ex.degrees == (0, 0)
    assert ex.g_min == ex.g_max == 1
    assert ex.uniform


def test_p3_extremal_set(p3):
    ex = extremal_set_graphical(p3)
    assert ex.class_count == 1
    assert ex.g_min == ex.g_max == 0
    assert canonical_point(ex) == (-1, 0, -1)
    assert canonical_divisor(p3) == (-1, 0, -1)


def test_m322_extremal_set(m322_extremal, m322_lattice):
    ex = m322_extremal
    assert ex.class_count == 2
    assert ex.representatives == ((-4, -1, 1), (-4, 1, -1))
    assert ex.g_min == ex.g_max == 5
    assert canonical_point(ex, m322_lattice) == (3, 3, 2)


def test_order_identities_on_corpus(small_corpus):
    # every order pairs with its reversal to minus the degree vector, and
    # every nu has degree minus the edge count
    for name, G in small_corpus[:10]:
        Q = G.laplacian_rows()
        delta = G.degree_sequence()
        k = G.vertex_count
        for pi in Permutation.all_orders(k):
            nu = nu_of_permutation(Q, pi)
            assert degree(nu) == -G.edge_count, name
            nu_bar = nu_of_permutation(Q, pi.reversed_order())
            assert tuple(a + b for a, b in zip(nu, nu_bar)) == \
                tuple(-d for d in delta), name


def test_class_count_bounds(small_corpus):
    for name, G in small_corpus[:10]:
        ex = extremal_set_graphical(G)
        n = G.n
        fact = 1
        for i in range(2, n + 2):
            fact *= i
        assert ex.class_count <= fact, name
    k4 = Multigraph.complete(4)
    assert extremal_set_graphical(k4).class_count == 6


def test_every_graphical_class_is_extremal(corpus):
    # extremal_set_graphical keeps every order class of a multigraph
    # without testing it: each order vector is minimal in Sigma
    # (Baker-Norine); checked on the 4- and 5-vertex simple graphs and the
    # seeded multigraphs of the corpus
    checked = 0
    for name, G in corpus:
        if name.startswith("simple") and G.vertex_count < 4:
            continue
        ex = extremal_set_graphical(G)
        for c in ex.classes:
            assert geometry.is_extremal(ex.lattice, c.representative), name
            checked += 1
    assert checked == 190


def test_scan_route_matches_graphical(k3, p3, m322):
    for G in (k3, p3, m322):
        L = laplacian_lattice(G)
        a = extremal_set_graphical(G)
        b = extremal_set_general(L)
        assert a.class_count == b.class_count
        assert sorted(L.reduce(r) for r in a.representatives) == \
            sorted(L.reduce(r) for r in b.representatives)
        assert (a.g_min, a.g_max) == (b.g_min, b.g_max)


def test_scan_matches_graphical_at_rank_four_and_five():
    # the scan has no rank limit; its (class, degree) pairs are those of
    # the order enumeration on every 5-vertex simple graph and on seeded
    # 6-vertex multigraphs
    rng = random.Random(6)
    graphs = list(connected_simple_graphs(5))
    while len(graphs) < 27:
        G = random_connected_multigraph(rng, 6, 8)
        if G.vertex_count == 6:
            graphs.append(G)
    for G in graphs:
        L = laplacian_lattice(G)
        pairs = [sorted((L.reduce(c.representative), c.degree)
                        for c in ex.classes)
                 for ex in (extremal_set_general(L), extremal_set_graphical(G))]
        assert pairs[0] == pairs[1], G


def test_skew56_scan(skew56_lattice):
    L = skew56_lattice
    ex = extremal_set_general(L)
    assert ex.class_count == 1
    assert ex.representatives == ((0, 35, -47),)
    assert ex.g_min == ex.g_max == 13
    flags = classify(ex, L)
    assert flags["uniform"]
    assert flags["reflection_invariant"]
    assert flags["strongly_reflection_invariant"] is False
    K = canonical_point(ex, L)
    assert degree(K) == 24
    assert L.reduce(K) == L.reduce((9, 9, 6))


def _random_rank3_lattice(rng):
    while True:
        rows = []
        for _ in range(3):
            v = [rng.randint(-3, 3) for _ in range(3)]
            rows.append(tuple(v) + (-sum(v),))
        try:
            L = LatticeBasis(rows)
        except ValueError:
            continue
        if L.picard_cardinality() <= 40:
            return L


def test_scan_matches_band_scan_oracle(skew56_lattice):
    # the descending scan stops at the first level without a point of
    # Sigma; the oracle walks the whole band under a covering bound
    rng = random.Random(10)
    a2 = [random_a2_lattice(rng) for _ in range(40)]
    rank3 = [_random_rank3_lattice(rng) for _ in range(20)]
    digraphs = [laplacian_lattice(G) for G in NONUNIFORM]
    nonuniform = 0
    for L in a2 + rank3 + digraphs + [skew56_lattice]:
        a = extremal_set_general(L)
        b = oracles.extremal_set_band_scan(L)
        assert a.classes == b.classes, L.hnf
        assert (a.g_min, a.g_max) == (b.g_min, b.g_max), L.hnf
        nonuniform += not a.uniform
    assert nonuniform >= 10


def test_scan_walks_levels_one_to_minus_g_max(skew56_lattice, monkeypatch):
    # index 56 and g_max 13: levels 1 down to -12 hold extremal points and
    # level -13 holds no point of Sigma, so the scan costs 15 * 56 class
    # tests where the covering band took 6,272
    L = skew56_lattice
    expected = extremal_set_general(L)
    requested = []
    walk = LatticeBasis.class_representatives

    def spy(self, deg):
        requested.append(deg)
        return walk(self, deg)

    monkeypatch.setattr(LatticeBasis, "class_representatives", spy)
    assert extremal_set_general(L) == expected
    assert requested == list(range(1, -14, -1))
    assert extremal_set_general(L, node_budget=1000) == expected
    with pytest.raises(BudgetExceeded, match="504 class tests"):
        extremal_set_general(L, node_budget=500)


def _random_lattice(rng, n, max_index):
    """A random rank-n lattice of index at most max_index."""
    while True:
        rows = []
        for _ in range(n):
            v = [rng.randint(-3, 3) for _ in range(n)]
            rows.append(tuple(v) + (-sum(v),))
        try:
            L = LatticeBasis(rows)
        except ValueError:
            continue
        if L.picard_cardinality() <= max_index:
            return L


def test_scan_matches_descending_scan_oracle(skew56_lattice):
    # the scan reads minimality off the level below; the oracle tests each
    # kept representative with is_extremal
    rng = random.Random(13)
    a2 = [random_a2_lattice(rng) for _ in range(30)]
    rank3 = [_random_lattice(rng, 3, 40) for _ in range(12)]
    rank4 = [_random_lattice(rng, 4, 24) for _ in range(6)]
    digraphs = [laplacian_lattice(G) for G in NONUNIFORM]
    nonuniform = 0
    for L in a2 + rank3 + rank4 + digraphs + [skew56_lattice]:
        a = extremal_set_general(L)
        b = oracles.extremal_set_descending_scan(L)
        assert a.classes == b.classes, L.hnf
        assert (a.g_min, a.g_max) == (b.g_min, b.g_max), L.hnf
        nonuniform += L in a2 and not a.uniform
    assert nonuniform >= 10


def test_scan_makes_one_sigma_walk_per_class_and_level(skew56_lattice,
                                                       monkeypatch):
    # level 1 is kept whole with no Sigma test; on levels 0 down to -13 at
    # index 56 a class is tested only when every rep + e_i was kept on the
    # level above (upward closure), 365 of the 14 * 56 classes; the level
    # below decides minimality, so is_extremal is never called
    calls = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    originals = {name: getattr(geometry, name)
                 for name in ("sigma_contains", "is_extremal")}
    for module in (geometry, extremal):
        for name, fn in originals.items():
            monkeypatch.setattr(module, name, spy(name, fn))
    ex = extremal_set_general(skew56_lattice)
    assert ex.representatives == ((0, 35, -47),)
    assert calls == {"sigma_contains": 365}


def test_reflection_pairing_k3(k3_extremal, k3_lattice):
    t, pairing = reflection_pairing(k3_extremal, k3_lattice)
    assert t is not None
    # an involution on class indices
    assert sorted(pairing) == list(range(k3_extremal.class_count))
    for i, j in pairing.items():
        assert pairing[j] == i


def test_voronoi_cell_k3(k3_lattice, k3_extremal):
    V = voronoi_cell_vertices(k3_lattice, k3_extremal)
    want = {(1, 0, -1), (1, -1, 0), (0, 1, -1),
            (0, -1, 1), (-1, 1, 0), (-1, 0, 1)}
    assert {tuple(int(x) for x in v) for v in V} == want


def test_voronoi_cell_rejects_classes_that_are_not_extremal(k3_lattice,
                                                           k3_extremal):
    # criticality is the caller's precondition and is not re-checked; a
    # class that no order of the generator family reaches is named;
    # (1, 1, 1) and (0, 0, 0) are not extremal classes of K3
    stray = ExtremalClass(representative=(1, 1, 1), degree=3,
                          members=((1, 1, 1),))
    origin = ExtremalClass(representative=(0, 0, 0), degree=0,
                           members=((0, 0, 0),))
    replaced = dataclasses.replace(
        k3_extremal, classes=(stray,) + k3_extremal.classes[1:])
    added = dataclasses.replace(
        k3_extremal, classes=k3_extremal.classes + (origin,))
    with pytest.raises(ValueError, match=r"class \(1, 1, 1\)"):
        voronoi_cell_vertices(k3_lattice, replaced)
    with pytest.raises(ValueError, match=r"class \(0, 0, 0\)"):
        voronoi_cell_vertices(k3_lattice, added)
    # the builder's own set answers as before
    assert len(voronoi_cell_vertices(k3_lattice, k3_extremal)) == 6


def test_voronoi_cell_rejects_a_family_that_is_not_tight(k3_lattice,
                                                         k3_extremal):
    # lattice vectors with zero column sums, but not Laplacian rows
    q_rows = ((2, -1, -1), (2, -1, -1), (-4, 2, 2))
    with pytest.raises(ValueError, match=r"not tight .* class \(-1, 1, 0\)"):
        voronoi_cell_vertices(k3_lattice, k3_extremal, q_rows=q_rows)


def test_every_extremal_class_is_critical(corpus, l2_lattice):
    # voronoi_cell_vertices takes the critical points of every class
    # without running verify_critical on them: extremal classes project to
    # the local maxima of h (Amini-Manjunath)
    sets = [extremal_set_graphical(G) for _, G in corpus]
    sets += [extremal_set_graphical(G) for G in NONUNIFORM]
    rng = random.Random(97)
    sets += [extremal_set_general(random_a2_lattice(rng)) for _ in range(30)]
    sets += [extremal_set_general(_random_lattice(rng, 3, 40))
             for _ in range(10)]
    L, ex = l2_lattice, extremal_set_general(l2_lattice)
    for _ in range(2):
        L, ex = extend_family(L, ex)
        sets.append(ex)
    assert {ex.source for ex in sets} == {"graphical", "digraph", "scan",
                                          "extension"}
    for ex in sets:
        k = ex.lattice.dim
        for cls in ex.classes:
            ok, data = geometry.verify_critical(
                ex.lattice, project_H0(cls.representative))
            assert ok, (ex.lattice.hnf, cls.representative)
            assert data.h_value == Fraction(k - cls.degree, k)


def test_classify_m322(m322_extremal, m322_lattice):
    flags = classify(m322_extremal, m322_lattice)
    assert flags == {
        "uniform": True,
        "reflection_invariant": True,
        "strongly_reflection_invariant": True,
        "t": flags["t"],
    }
    # t is congruent to the projection of K modulo the lattice
    t = flags["t"]
    K = (3, 3, 2)
    piK = tuple(Fraction(x) - Fraction(degree(K), 3) for x in K)
    diff = tuple(a - b for a, b in zip(t, piK))
    assert all(x.denominator == 1 for x in diff)
    assert m322_lattice.contains(tuple(int(x) for x in diff))


def test_canonical_equals_degree_formula(small_corpus):
    for name, G in small_corpus[:12]:
        ex = extremal_set_graphical(G)
        L = laplacian_lattice(G)
        assert canonical_point(ex, L) == canonical_divisor(G), name


def test_nonuniform_digraph_exists_and_classifies():
    # directed triangle plus a reverse arc pattern with unequal genus ends
    rng = random.Random(2024)
    found = None
    for _ in range(200):
        k = 3
        mat = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if i != j:
                    mat[i][j] = rng.randint(0, 3)
        try:
            D = RegularDigraph(k, mat)
        except ValueError:
            continue
        try:
            ex = extremal_set_graphical(D)
        except ValueError:
            continue
        if ex.g_min < ex.g_max:
            found = (D, ex)
            break
    assert found is not None
    _, ex = found
    assert not ex.uniform
    assert ex.g_min >= 0


def test_extremal_set_json(k3_extremal):
    obj = k3_extremal.to_json_dict()
    assert obj["class_count"] == 2
    assert obj["g_min"] == obj["g_max"] == 1
    assert len(obj["classes"]) == 2
