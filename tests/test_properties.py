"""Property-based checks over randomly drawn divisors and graphs."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rrlattice.core import LatticeBasis, degree
from rrlattice.chipfire import Configuration, fire_script
from rrlattice.extremal import extremal_set_graphical, nu_of_permutation
from rrlattice.geometry import sigma_contains, simplicial_distance
from rrlattice.graphs import Multigraph, laplacian_lattice
from rrlattice.rank import linear_system_nonempty, rank_bruteforce

LATTICES = [
    LatticeBasis([(2, -1, -1), (-1, 2, -1)]),       # triangle
    LatticeBasis([(5, -3, -2), (-3, 5, -2)]),       # multiplicity 3,2,2
    LatticeBasis([(3, 0, -3), (0, 2, -2)]),         # multi-tree
    LatticeBasis([(2, -2, 0), (-1, 3, -2)]),        # non-graphical
]

lattices = st.sampled_from(LATTICES)
coords = st.integers(min_value=-6, max_value=6)


def zero_sum(dim):
    return st.tuples(*([coords] * (dim - 1))).map(
        lambda b: b + (-sum(b),))


divisors3 = st.tuples(coords, coords, coords)


@given(L=lattices, D=divisors3)
@settings(max_examples=60, deadline=None)
def test_reduce_canonical(L, D):
    r = L.reduce(D)
    assert degree(r) == degree(D)
    assert L.contains(tuple(a - b for a, b in zip(D, r)))
    assert L.reduce(r) == r


@given(L=lattices, D=divisors3, idx=st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_sigma_translation_invariant(L, D, idx):
    row = L.rows[idx]
    shifted = tuple(a + b for a, b in zip(D, row))
    assert sigma_contains(L, D) == sigma_contains(L, shifted)


@given(L=lattices, D=st.tuples(
    st.integers(-4, 6), st.integers(-4, 6), st.integers(-4, 6)),
    i=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_rank_monotone_one_chip(L, D, i):
    r = rank_bruteforce(L, D).rank
    up = list(D)
    up[i] += 1
    r_up = rank_bruteforce(L, tuple(up)).rank
    assert r_up in (r, r + 1)


@given(L=lattices, D=st.tuples(
    st.integers(-3, 7), st.integers(-3, 7), st.integers(-3, 7)))
@settings(max_examples=40, deadline=None)
def test_rank_witness_contract(L, D):
    res = rank_bruteforce(L, D)
    if res.rank == -1:
        ok, _ = linear_system_nonempty(L, D)
        assert not ok
        return
    E = res.witness
    assert E is not None and all(x >= 0 for x in E)
    assert degree(E) == res.rank + 1
    shifted = tuple(d - e for d, e in zip(D, E))
    ok, _ = linear_system_nonempty(L, shifted)
    assert not ok


@given(p=zero_sum(3), q=zero_sum(3), r=zero_sum(3), t=zero_sum(3))
@settings(max_examples=100, deadline=None)
def test_distance_axioms(p, q, r, t):
    dpq = simplicial_distance(p, q)
    assert dpq >= 0 and (dpq == 0) == (p == q)
    assert dpq <= simplicial_distance(p, r) + simplicial_distance(r, q)
    pt = tuple(a + b for a, b in zip(p, t))
    qt = tuple(a + b for a, b in zip(q, t))
    assert simplicial_distance(pt, qt) == dpq
    assert simplicial_distance(p, q, "down") == \
        simplicial_distance(q, p, "up")


mults = st.integers(min_value=1, max_value=4)


@given(a=mults, b=mults, c=mults)
@settings(max_examples=30, deadline=None)
def test_order_identities_random_triangle(a, b, c):
    G = Multigraph.from_edges(3, [(0, 1, a), (0, 2, b), (1, 2, c)])
    Q = G.laplacian_rows()
    delta = G.degree_sequence()
    m = G.edge_count
    for pi in itertools.permutations(range(3)):
        nu = nu_of_permutation(Q, pi)
        assert degree(nu) == -m
        nu_bar = nu_of_permutation(Q, pi[::-1])
        assert tuple(x + y for x, y in zip(nu, nu_bar)) == \
            tuple(-d for d in delta)
    # complete multigraph: the class count hits the n! ceiling
    ex = extremal_set_graphical(G)
    assert ex.class_count == 2
    assert ex.g_min == ex.g_max == G.genus


@given(a=mults, b=mults, c=mults,
       chips=st.tuples(st.integers(-4, 6), st.integers(-4, 6),
                       st.integers(-4, 6)),
       script=st.lists(st.integers(0, 2), max_size=8))
@settings(max_examples=40, deadline=None)
def test_chipfire_script_properties(a, b, c, chips, script):
    G = Multigraph.from_edges(3, [(0, 1, a), (0, 2, b), (1, 2, c)])
    L = laplacian_lattice(G)
    cfg = Configuration(G, chips)
    end = fire_script(cfg, script)
    assert end.degree == cfg.degree
    diff = tuple(x - y for x, y in zip(cfg.chips, end.chips))
    assert L.contains(diff)


@given(a=mults, b=mults)
@settings(max_examples=20, deadline=None)
def test_multitree_strongly_invariant(a, b):
    # a two-path star lattice is a multi-tree; the classifier must say
    # strongly reflection invariant no matter the multiplicities
    from rrlattice.a2 import classify_a2, is_multi_tree_lattice
    L = LatticeBasis([(a, -a, 0), (0, b, -b)])
    relabeled = LatticeBasis([(a, 0, -a), (0, -b, b)])
    for lat in (L, relabeled):
        assert is_multi_tree_lattice(lat)
        assert classify_a2(lat)["strong"]
