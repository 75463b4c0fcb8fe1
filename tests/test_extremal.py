import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlattice import extremal, geometry
from rrlattice.a2 import extend_family, random_a2_lattice
from rrlattice.core import (BudgetExceeded, LatticeBasis, degree, node_budget,
                            project_H0)
from rrlattice.extremal import (ExtremalClass, ExtremalSet, canonical_point,
                                classify, extremal_set_general,
                                extremal_set_graphical, nu_of_permutation,
                                reflection_pairing, voronoi_cell_vertices)
from rrlattice.graphs import (Multigraph, RegularDigraph, canonical_divisor,
                              connected_simple_graphs, laplacian_lattice,
                              random_connected_multigraph)
from rrlattice.rank import verify_weak_rr

import oracles
from test_rank import NONUNIFORM


def test_permutation_type(k3):
    Q = k3.laplacian_rows()
    assert nu_of_permutation(Q, (1, 0, 2)[::-1]) == \
        nu_of_permutation(Q, (2, 0, 1))
    with pytest.raises(ValueError):
        nu_of_permutation(Q, (0, 0, 1))


def test_permutation_entries_must_be_integers(k3):
    Q = k3.laplacian_rows()
    # (0, 1.7, 2) was accepted as (0, 1, 2)
    with pytest.raises(ValueError):
        nu_of_permutation(Q, (0, 1.7, 2))
    nu = nu_of_permutation(Q, (0, 2.0, Fraction(2, 2)))
    assert nu == nu_of_permutation(Q, (0, 2, 1))
    assert all(type(x) is int for x in nu)


@pytest.mark.parametrize("pi", [(0, 0, 1), (0, 1.5, 2), (0, 1, 5), (0, 1)])
def test_nu_rejects_what_is_not_an_order(k3, pi):
    # (0, 0, 1) gave (2, -2, 0), (0, 1.5, 2) a TypeError and (0, 1, 5) an
    # IndexError
    with pytest.raises(ValueError):
        nu_of_permutation(k3.laplacian_rows(), pi)


def test_nu_matches_closed_form(m322):
    Q = m322.laplacian_rows()
    for pi in itertools.permutations(range(3)):
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
        for pi in itertools.permutations(range(k)):
            nu = nu_of_permutation(Q, pi)
            assert degree(nu) == -G.edge_count, name
            nu_bar = nu_of_permutation(Q, pi[::-1])
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


def test_scan_matches_band_scan_oracle(skew56_lattice):
    # the descending scan stops at the first level without a point of
    # Sigma; the oracle walks the whole band under a covering bound
    rng = random.Random(10)
    a2 = [random_a2_lattice(rng) for _ in range(40)]
    rank3 = [_random_lattice(rng, 3, 40) for _ in range(20)]
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
    # 15 levels of 56 class tests and the sigma_contains walks: 2,466 units
    with node_budget(2466):
        assert extremal_set_general(L) == expected
    with pytest.raises(BudgetExceeded,
                       match=r"^extremal scan: 56 class tests exceed the "
                             r"work budget 2465 \(2410 units spent"), \
            node_budget(2465):
        extremal_set_general(L)


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
    stray = ExtremalClass(representative=(1, 1, 1), degree=3)
    origin = ExtremalClass(representative=(0, 0, 0), degree=0)
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
    stray = dataclasses.replace(k3_extremal, q_rows=q_rows)
    with pytest.raises(ValueError, match=r"not tight .* class \(-1, 1, 0\)"):
        voronoi_cell_vertices(k3_lattice, stray)


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


def test_rank_one_scan_classifies_on_its_generator_pair():
    # a bare rank-1 lattice takes (g, -g) as its generator family
    L = LatticeBasis([(3, -3)])
    ex = extremal_set_general(L)
    assert classify(ex, L) == {
        "uniform": True,
        "reflection_invariant": True,
        "strongly_reflection_invariant": True,
        "t": (0, 0),
    }
    cell = voronoi_cell_vertices(L, ex)
    assert cell == oracles.voronoi_cell_vertices_fraction(
        L, ex, q_rows=((3, -3), (-3, 3)))
    assert cell == {(Fraction(-3, 2), Fraction(3, 2)),
                    (Fraction(3, 2), Fraction(-3, 2))}


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


def test_only_digraph_order_classes_are_filtered(monkeypatch):
    # every order class of an undirected multigraph is extremal, so only
    # the digraphs pay for is_extremal walks
    calls = []
    real = extremal.is_extremal
    monkeypatch.setattr(extremal, "is_extremal",
                        lambda *a: calls.append(a) or real(*a))
    assert extremal_set_graphical(Multigraph.complete(4)).source == \
        "graphical"
    assert calls == []
    for G in NONUNIFORM:
        calls.clear()
        assert extremal_set_graphical(G).source == "digraph"
        assert calls


def _lift(members):
    return tuple(tuple(v + (0,) for v in ms) for ms in members)


def _scan_members(ex):
    # a scan keeps one reduced vector per class
    return tuple((c.representative,) for c in ex.classes)


def _symmetric(rows):
    return list(zip(*rows)) == [tuple(r) for r in rows]


@pytest.fixture(scope="module")
def member_cases(corpus):
    """(label, set, member lists, K relation): each set with the member
    lists its builder kept before classes became representatives, and
    whether canonical_point must return the member rule's K or only a
    congruent vector."""
    cases = []
    for name, G in corpus:
        ex = extremal_set_graphical(G)
        members = oracles.order_class_members(G, ex)
        cases.append((name, ex, members, "equal"))
        # (K, 0) becomes the lifted Laplacian's (K + e_n, -1)
        cases.append((name + "+1", extend_family(ex.lattice, ex)[1],
                      _lift(members), "congruent"))
    rng = random.Random(24)
    for i in range(40):
        ex = extremal_set_general(random_a2_lattice(rng))
        cases.append(("a2_%d" % i, ex, _scan_members(ex), "equal"))
        up = extend_family(ex.lattice, ex)[1]
        # a symmetric digraph basis lifts to a multigraph Laplacian
        cases.append(("a2_%d+1" % i, up, _lift(_scan_members(ex)),
                      "congruent" if _symmetric(up.q_rows) else "equal"))
    for i in range(40):
        ex = extremal_set_general(_random_lattice(rng, 3, 40))
        cases.append(("rank3_%d" % i, ex, _scan_members(ex), "equal"))
    # the criterion-7 chain
    ex = extremal_set_general(LatticeBasis([(2, -2, 0), (-1, 3, -2)]))
    members = _scan_members(ex)
    for step in range(3):
        cases.append(("chain_%d" % step, ex, members, "equal"))
        ex, members = extend_family(ex.lattice, ex)[1], _lift(members)
    for i, G in enumerate(NONUNIFORM):
        ex = extremal_set_graphical(G)
        cases.append(("nonuniform_%d" % i, ex,
                      oracles.order_class_members(G, ex), "congruent"))
    drng = random.Random(2025)
    digraphs = 0
    while digraphs < 40:
        mat = [[0 if i == j else drng.randint(0, 3) for j in range(3)]
               for i in range(3)]
        try:
            G = RegularDigraph(3, mat)
        except ValueError:
            continue
        ex = extremal_set_graphical(G)
        cases.append(("digraph_%d" % digraphs, ex,
                      oracles.order_class_members(G, ex), "congruent"))
        digraphs += 1
    return cases


def test_canonical_point_matches_the_member_rule(member_cases):
    # K is read off representatives, or off a symmetric q_rows' diagonal;
    # the member rule took the most frequent sum of the members kept
    relations = Counter()
    for label, ex, members, relation in member_cases:
        try:
            want = oracles.canonical_point_by_members(ex, members)
        except ValueError:
            with pytest.raises(ValueError):
                canonical_point(ex)
            relations["not reflection invariant"] += 1
            continue
        K = canonical_point(ex)
        if relation == "equal":
            assert K == want, label
        else:
            assert ex.lattice.reduce(K) == ex.lattice.reduce(want), label
        relations[relation] += 1
    # every relation occurs, and the seeded sets reach enough of each
    assert relations["equal"] >= 150
    assert relations["congruent"] >= 80
    assert relations["not reflection invariant"] >= 1


def test_weak_rr_sharp_bound_matches_the_member_test(member_cases):
    # the class test rep_i + rep_j + K in L against "some kept members sum
    # to -K" with the member rule's K; they agree on every set here
    for label, ex, members, _ in member_cases:
        L = ex.lattice
        t, pairing = reflection_pairing(ex, L)
        if t is None:
            continue
        K = canonical_point(ex)
        g = ex.g_max
        rng = random.Random(len(label))
        samples = []
        for _ in range(12):
            body = [rng.randint(-g, g) for _ in range(L.dim - 1)]
            body.append(rng.randint(-g, 3 * g) - sum(body))
            samples.append(tuple(body))
        report = verify_weak_rr(L, ex, K, D_samples=samples)
        assert report["ok"], (label, report["violations"][:3])
        old_K = oracles.canonical_point_by_members(ex, members)
        assert report["sharp_lower_applies"] == \
            oracles.pairing_is_exact_by_members(members, pairing, old_K), \
            label


def test_building_the_k8_set_keeps_no_member_lists():
    # 8! = 40,320 order vectors fall into 7! = 5,040 classes; the builder
    # streams them and keeps one vector per class
    tracemalloc.start()
    try:
        ex = extremal_set_graphical(Multigraph.complete(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ex.class_count == 5040
    assert peak < 5 * 2**20, peak


def test_integer_cell_walk_matches_the_fraction_walk(corpus):
    # the cell scaled by k = dim, divided back, against the Fraction walk;
    # classify's flags, t included, against its strong test on that walk
    sets = [(name, extremal_set_graphical(G)) for name, G in corpus]
    sets += [("nonuniform_%d" % i, extremal_set_graphical(G))
             for i, G in enumerate(NONUNIFORM)]
    rng = random.Random(25)
    sets += [("multi_%d" % i,
              extremal_set_graphical(random_connected_multigraph(rng, 6, 10)))
             for i in range(40)]
    sets += [("a2_%d" % i, extremal_set_general(random_a2_lattice(rng)))
             for i in range(60)]
    sets += [("K%d" % n, extremal_set_graphical(Multigraph.complete(n)))
             for n in (6, 7)]
    strong = Counter()
    for label, ex in sets:
        L = ex.lattice
        cell = voronoi_cell_vertices(L, ex)
        assert cell == oracles.voronoi_cell_vertices_fraction(L, ex), label
        assert all(type(x) is Fraction for v in cell for x in v), label
        flags = classify(ex, L)
        assert flags == oracles.classify_by_fraction_cell(ex, L), label
        strong[flags["strongly_reflection_invariant"]] += 1
    # both strong outcomes occur (every set here has a generator family)
    assert set(strong) == {True, False}, strong


def test_cell_walk_is_charged_before_any_order(monkeypatch):
    # K5: 5! = 120 vertex steps (the 4! rooted orders, 5 vertices each),
    # refused at 119 before any order vector is computed, answered at 120
    ex = extremal_set_graphical(Multigraph.complete(5))
    L = ex.lattice
    want_cell = voronoi_cell_vertices(L, ex)
    want_flags = classify(ex, L)
    orders = []
    nu = extremal._nu

    def counted(Q, order):
        orders.append(order)
        return nu(Q, order)

    monkeypatch.setattr(extremal, "_nu", counted)
    # classify above left the reflection search cached on ex, so the cell
    # walk is all that either call charges
    for walk in (lambda: voronoi_cell_vertices(L, ex), lambda: classify(ex, L)):
        with pytest.raises(BudgetExceeded,
                           match=r"Voronoi cell walk: 5! vertex steps exceed "
                                 r"the work budget 119 \(0 units spent "
                                 r"before\)$"), node_budget(120 - 1):
            walk()
        assert orders == []
    with node_budget(120):
        assert voronoi_cell_vertices(L, ex) == want_cell
    assert len(orders) == 24
    assert all(order[0] == 0 for order in orders)
    with node_budget(120):
        assert classify(ex, L) == want_flags
    assert len(orders) == 48


def _random_regular_digraph(rng, max_vertices=5, cycles=3):
    """A sum of directed cycles, so every in-degree equals the out-degree;
    the first cycle passes through every vertex, which connects them."""
    k = rng.randint(2, max_vertices)
    mat = [[0] * k for _ in range(k)]
    for c in range(cycles):
        cycle = rng.sample(range(k), k if c == 0 else rng.randint(2, k))
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            mat[i][j] += 1
    return RegularDigraph(k, mat)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.data())
def test_rotating_an_order_subtracts_its_first_row(seed, directed, data):
    # zero row and column sums: moving v0 to the end fires Q[v0], a lattice
    # vector, so the rotated order's vector lies in the same class
    rng = random.Random(seed)
    G = (_random_regular_digraph(rng) if directed
         else random_connected_multigraph(rng, 6, 10))
    Q = G.laplacian_rows()
    pi = tuple(data.draw(st.permutations(range(G.vertex_count))))
    nu = nu_of_permutation(Q, pi)
    assert nu_of_permutation(Q, pi[1:] + pi[:1]) == \
        tuple(a - b for a, b in zip(nu, Q[pi[0]]))


def test_rooted_orders_build_the_all_orders_set(corpus):
    # the least of each rooted order's k rotations, against every one of
    # the k! order vectors
    rng = random.Random(26)
    graphs = [G for _, G in corpus] + list(NONUNIFORM)
    graphs += [random_connected_multigraph(rng, 6, 10) for _ in range(40)]
    graphs += [_random_regular_digraph(rng) for _ in range(40)]
    graphs += [Multigraph.complete(n) for n in (6, 7, 8)]
    sources = Counter()
    for G in graphs:
        got = extremal_set_graphical(G).to_json_dict()
        assert got == oracles.extremal_set_all_orders(G).to_json_dict(), G
        sources[got["source"]] += 1
    assert sources["digraph"] >= 40, sources
