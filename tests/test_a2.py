import random
from collections import Counter

import pytest

import rrlattice.a2 as a2
from rrlattice.core import LatticeBasis, degree
from rrlattice.a2 import (_absorb, _multi_tree_data, _tree_edge_order,
                          classify_a2, digraph_basis, digraph_of_basis,
                          extend_family, is_multi_tree_lattice,
                          random_a2_lattice)
from rrlattice.extremal import (canonical_point, classify,
                                extremal_set_general, extremal_set_graphical)
from rrlattice.geometry import is_extremal
from rrlattice.graphs import laplacian_lattice
from rrlattice.rank import rank_bruteforce, verify_riemann_roch

import oracles


def test_digraph_basis_skew56(skew56_lattice):
    basis = digraph_basis(skew56_lattice)
    assert basis == ((7, -7, 0), (-3, 11, -8), (-4, -4, 8))
    dg = digraph_of_basis(basis)
    assert laplacian_rows_match(dg, basis)


def laplacian_rows_match(dg, basis):
    return tuple(dg.laplacian_rows()) == tuple(basis)


def test_digraph_basis_cone_invariants():
    rng = random.Random(61)
    for _ in range(40):
        L = random_a2_lattice(rng)
        rows = digraph_basis(L)
        assert len(rows) == 3
        assert tuple(a + b + c for a, b, c in zip(*rows)) == (0, 0, 0)
        for i, r in enumerate(rows):
            assert sum(r) == 0
            assert r[i] >= 0
            assert all(r[j] <= 0 for j in range(3) if j != i)
        # rows 0 and 1 regenerate the lattice
        assert LatticeBasis(rows[:2]).same_lattice(L)


def random_cone_vector(rng, i, span):
    """A nonzero zero-sum vector with coordinate i >= 0, the others <= 0."""
    while True:
        v = [-rng.randint(0, span) for _ in range(3)]
        v[i] = 0
        v[i] = -sum(v)
        if v[i]:
            return tuple(v)


def test_absorb_matches_one_step_loop():
    rng = random.Random(67)
    checked = 0
    while checked < 300:
        a, b = rng.sample(range(3), 2)
        b0 = random_cone_vector(rng, a, rng.choice((3, 12, 60)))
        b1 = random_cone_vector(rng, b, rng.choice((3, 12, 60)))
        if b0[0] * b1[1] == b0[1] * b1[0]:
            continue  # parallel: not a basis
        checked += 1
        assert _absorb(b0, b1, a, b) == oracles.absorb_one_step(b0, b1, a, b)


def test_digraph_basis_thin_lattice():
    # the one-step loop needs about 3.3 million additions here
    L = LatticeBasis([(1, 10**7, -10**7 - 1), (-1, 3, -2)])
    rows = digraph_basis(L)
    assert rows == ((3333335, -2, -3333333), (-1, 3, -2),
                    (-3333334, -1, 3333335))
    assert LatticeBasis(rows[:2]).same_lattice(L)


def test_multi_tree_detection(multitree_lattice, skew56_lattice, k3_lattice):
    assert is_multi_tree_lattice(multitree_lattice)
    assert not is_multi_tree_lattice(skew56_lattice)
    assert not is_multi_tree_lattice(k3_lattice)
    # relabeled variant: centre at a different coordinate
    assert is_multi_tree_lattice(LatticeBasis([(2, -2, 0), (0, -3, 3)]))


def test_multi_tree_detection_large_index():
    # index 10,000,003: the test must not scan multiples up to the index
    assert not is_multi_tree_lattice(
        LatticeBasis([(1, 10**7, -10**7 - 1), (-1, 3, -2)]))
    assert is_multi_tree_lattice(
        LatticeBasis([(4000, 0, -4000), (0, 4000, -4000)]))


def test_tree_edge_order_matches_scan():
    rng = random.Random(29)
    checked = 0
    while checked < 30:
        L = random_a2_lattice(rng, span=5)
        if L.picard_cardinality() > 40:
            continue
        checked += 1
        vs = [(1, -1, 0), (1, 0, -1), (0, 1, -1), (0, -1, 1)]
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        vs.append((a, b, -a - b))
        for v in vs:
            assert _tree_edge_order(L, v) == \
                oracles.element_order_scan(L.rows, v)


def test_multi_tree_gets_tree_basis(multitree_lattice):
    basis = digraph_basis(multitree_lattice)
    assert basis == ((3, 0, -3), (0, 2, -2), (-3, -2, 5))


def test_classify_a2_frozen(k3_lattice, skew56_lattice, multitree_lattice):
    assert classify_a2(k3_lattice) == {
        "strong": True, "critical_classes": 2, "multi_tree": False}
    assert classify_a2(skew56_lattice) == {
        "strong": False, "critical_classes": 1, "multi_tree": False}
    assert classify_a2(multitree_lattice) == {
        "strong": True, "critical_classes": 1, "multi_tree": True}


def test_digraph_basis_is_built_once_per_lattice(monkeypatch):
    # digraph_basis, classify and classify_a2 share one built basis and
    # one multi-tree scan per LatticeBasis
    calls = Counter()

    def spy(name):
        fn = getattr(a2, name)

        def counted(L):
            calls[name] += 1
            return fn(L)
        return counted

    for name in ("_build_digraph_basis", "_find_multi_tree"):
        monkeypatch.setattr(a2, name, spy(name))
    once = {"_build_digraph_basis": 1, "_find_multi_tree": 1}
    for rows in ([(7, -7, 0), (-3, 11, -8)], [(3, 0, -3), (0, 2, -2)]):
        L = LatticeBasis(rows)
        first = digraph_basis(L)
        assert digraph_basis(L) == first
        classify(extremal_set_general(L), L)
        classify_a2(L)
        assert calls == once
        calls.clear()
        # a new basis object of the same lattice starts cold
        assert digraph_basis(LatticeBasis(rows)) == first
        assert calls == once
        calls.clear()


def test_classify_a2_same_on_cold_and_warm_cache():
    rng = random.Random(73)
    for _ in range(20):
        L = random_a2_lattice(rng)
        cold = classify_a2(LatticeBasis(L.rows))
        classify(extremal_set_general(L), L)  # warms the digraph data
        assert classify_a2(L) == cold
        assert classify_a2(L) == cold


def test_multi_tree_data_is_read_only(multitree_lattice):
    L = LatticeBasis(multitree_lattice.rows)
    centre, mult = _multi_tree_data(L)
    assert (centre, dict(mult)) == (2, {0: 3, 1: 2})
    with pytest.raises(TypeError):
        mult[0] = 5
    assert digraph_basis(L) == ((3, 0, -3), (0, 2, -2), (-3, -2, 5))
    assert _multi_tree_data(L) == (2, {0: 3, 1: 2})


def test_classify_a2_matches_strong_criterion():
    rng = random.Random(67)
    for _ in range(30):
        L = random_a2_lattice(rng)
        info = classify_a2(L)
        assert info["strong"] == (
            info["critical_classes"] == 2 or info["multi_tree"])


def test_every_a2_lattice_reflection_invariant():
    rng = random.Random(71)
    for _ in range(15):
        L = random_a2_lattice(rng)
        ex = extremal_set_general(L)
        flags = classify(ex, L)
        assert flags["reflection_invariant"]
        # uniformity is NOT implied: rank-2 lattices of non-symmetric
        # regular digraphs have g_min < g_max


def test_classify_a2_agrees_with_general_classifier():
    rng = random.Random(73)
    for _ in range(10):
        L = random_a2_lattice(rng)
        info = classify_a2(L)
        ex = extremal_set_general(L)
        flags = classify(ex, L)
        assert info["strong"] == flags["strongly_reflection_invariant"]
        assert info["critical_classes"] == ex.class_count


def test_extend_family_chain(l2_lattice):
    L2 = l2_lattice
    ex2 = extremal_set_general(L2)
    K2 = canonical_point(ex2, L2)
    assert K2 == (0, -4, 6)
    assert L2.picard_cardinality() == 4

    L3, ex3 = extend_family(L2, ex2)
    assert L3.dim == 4
    assert ex3.q_rows == ((2, -2, 0, 0), (-1, 3, -2, 0),
                          (-1, -1, 3, -1), (0, 0, -1, 1))
    assert L3.picard_cardinality() == 4
    K3x = canonical_point(ex3, L3)
    assert K3x == (0, -4, 6, 0)
    flags3 = classify(ex3, L3)
    assert flags3["uniform"] and flags3["reflection_invariant"]
    assert flags3["strongly_reflection_invariant"] is False

    L4, ex4 = extend_family(L3, ex3)
    assert L4.dim == 5
    assert L4.picard_cardinality() == 4
    assert canonical_point(ex4, L4) == (0, -4, 6, 0, 0)
    flags4 = classify(ex4, L4)
    assert flags4["uniform"] and flags4["reflection_invariant"]
    assert flags4["strongly_reflection_invariant"] is False

    # extremal classes lift coordinatewise: (v, 0) plus the appended
    # generator q lands in a lifted class (q is a lattice vector, so the
    # class of the padded representative itself)
    lifted = {L3.reduce(r) for r in ex3.representatives}
    q = L3.rows[-1]
    for v in ex2.representatives:
        padded = tuple(v) + (0,)
        shifted = tuple(a + b for a, b in zip(padded, q))
        assert L3.reduce(padded) in lifted
        assert L3.reduce(shifted) == L3.reduce(padded)
    assert len(lifted) == ex2.class_count


def test_extension_rank_correspondence(l2_lattice):
    L2 = l2_lattice
    ex2 = extremal_set_general(L2)
    L3, _ = extend_family(L2, ex2)
    rng = random.Random(79)
    for _ in range(10):
        body = [rng.randint(-3, 4) for _ in range(2)]
        D2 = tuple(body) + (rng.randint(-3, 4),)
        D3 = D2 + (0,)
        assert rank_bruteforce(L2, D2).rank == \
            rank_bruteforce(L3, D3).rank


def test_extension_satisfies_rr(l2_lattice):
    L2 = l2_lattice
    ex2 = extremal_set_general(L2)
    K2 = canonical_point(ex2, L2)
    rep = verify_riemann_roch(L2, ex2, K2)
    assert rep["ok"]
    L3, ex3 = extend_family(L2, ex2)
    rep3 = verify_riemann_roch(L3, ex3, canonical_point(ex3, L3))
    assert rep3["ok"]


def test_random_a2_lattice_contract():
    rng = random.Random(83)
    for _ in range(25):
        L = random_a2_lattice(rng)
        assert L.n == 2
        assert L.picard_cardinality() >= 1


def test_digraph_basis_passes_certificate(multitree_lattice, skew56_lattice):
    # digraph_basis returns its rows unchecked; this is the certificate it
    # used to run on every build
    rng = random.Random(89)
    lattices = [random_a2_lattice(rng) for _ in range(200)]
    lattices += [multitree_lattice, skew56_lattice]
    for L in lattices:
        basis = digraph_basis(L)
        oracles.certify_digraph_basis(L.rows, basis)
        assert laplacian_lattice(digraph_of_basis(basis)).same_lattice(L)


def test_extend_family_lifted_classes_are_extremal(l2_lattice):
    # extend_family lifts each class as (v, 0) without a Sigma walk
    L, ex = l2_lattice, extremal_set_general(l2_lattice)
    count = ex.class_count
    for _ in range(3):
        L, ex = extend_family(L, ex)
        assert ex.class_count == count
        for cls in ex.classes:
            assert is_extremal(L, cls.representative), cls
