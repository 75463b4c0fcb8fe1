import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlattice.core import BudgetExceeded, LatticeBasis, degree
from rrlattice.extremal import extremal_set_general, extremal_set_graphical
from rrlattice.graphs import (Multigraph, RegularDigraph, canonical_divisor,
                              laplacian_lattice)
from rrlattice.rank import (default_divisor_samples, linear_system_nonempty,
                            rank_bruteforce, rank_extremal,
                            verify_riemann_roch, verify_weak_rr)

import oracles


def test_linear_system_nonempty(k3_lattice):
    ok, pt = linear_system_nonempty(k3_lattice, (-1, 1, 1))
    assert ok and pt == (1, 0, 0)
    ok, pt = linear_system_nonempty(k3_lattice, (-1, 0, 0))
    assert not ok and pt is None
    ok, pt = linear_system_nonempty(k3_lattice, (0, 0, 0))
    assert ok and pt == (0, 0, 0)


def test_rank_frozen_k3(k3_lattice):
    r = rank_bruteforce(k3_lattice, (0, 0, 0))
    assert r.rank == 0 and r.witness == (0, 0, 1)
    assert rank_bruteforce(k3_lattice, (2, 0, 0)).rank == 1
    assert rank_bruteforce(k3_lattice, (-1, 0, 0)).rank == -1
    assert rank_bruteforce(k3_lattice, (1, -1, 0)).rank == -1


def test_rank_frozen_m322(m322_lattice, m322_extremal):
    K = (3, 3, 2)
    for method in ("bruteforce", "extremal"):
        if method == "bruteforce":
            r = rank_bruteforce(m322_lattice, K)
        else:
            r = rank_extremal(m322_lattice, K, m322_extremal)
        assert r.rank == 4  # g - 1
    D = (6, 0, 0)
    rD = rank_bruteforce(m322_lattice, D).rank
    rKD = rank_bruteforce(
        m322_lattice, tuple(k - d for k, d in zip(K, D))).rank
    assert rD - rKD == degree(D) - 5 + 1


def test_rank_matches_naive_oracle(k3_lattice, m322_lattice):
    rng = random.Random(41)
    for L in (k3_lattice, m322_lattice):
        for _ in range(12):
            body = [rng.randint(-4, 5) for _ in range(2)]
            D = tuple(body) + (rng.randint(-4, 5),)
            if degree(D) > 10:
                continue
            assert rank_bruteforce(L, D).rank == \
                oracles.naive_rank(L.rows, D)


def test_rank_is_a_class_invariant(m322_lattice):
    L = m322_lattice
    D = (4, 1, -2)
    base = rank_bruteforce(L, D).rank
    for row in L.rows:
        shifted = tuple(d + r for d, r in zip(D, row))
        assert rank_bruteforce(L, shifted).rank == base


def test_witness_contract(m322_lattice):
    # the witness is an effective divisor of degree rank+1 with |D-E| empty
    D = (3, 1, 0)
    res = rank_bruteforce(m322_lattice, D)
    E = res.witness
    assert E is not None
    assert all(x >= 0 for x in E)
    assert degree(E) == res.rank + 1
    shifted = tuple(d - e for d, e in zip(D, E))
    ok, _ = linear_system_nonempty(m322_lattice, shifted)
    assert not ok


def test_methods_agree_on_small_corpus(small_corpus):
    rng = random.Random(43)
    for name, G in small_corpus[:8]:
        L = laplacian_lattice(G)
        ex = extremal_set_graphical(G)
        g = ex.g_max
        for _ in range(12):
            body = [rng.randint(-g - 1, g + 2)
                    for _ in range(G.vertex_count - 1)]
            d = rng.randint(-g, 2 * g + 2)
            D = tuple(body) + (d - sum(body),)
            a = rank_bruteforce(L, D).rank
            b = rank_extremal(L, D, ex).rank
            assert a == b, (name, D)


def test_budget_exceeded(k3_lattice):
    with pytest.raises(BudgetExceeded):
        rank_bruteforce(k3_lattice, (30, 0, 0), budget=24)


def test_verify_riemann_roch(k3_lattice, k3_extremal, m322_lattice,
                             m322_extremal):
    rep = verify_riemann_roch(k3_lattice, k3_extremal, (0, 0, 0))
    assert rep["ok"] and rep["genus"] == 1 and not rep["violations"]
    rep = verify_riemann_roch(m322_lattice, m322_extremal, (3, 3, 2),
                              method="both")
    assert rep["ok"] and rep["genus"] == 5
    assert rep["checked"] >= 190


def test_verify_riemann_roch_catches_wrong_K(k3_lattice, k3_extremal):
    rep = verify_riemann_roch(k3_lattice, k3_extremal, (1, 0, -1))
    assert not rep["ok"] and rep["violations"]


def test_weak_rr_on_nonuniform_digraph():
    # circulant-ish digraph whose two genus invariants differ: 3 vs 5
    D = RegularDigraph(3, [[0, 3, 1], [1, 0, 3], [3, 1, 0]])
    ex = extremal_set_graphical(D)
    assert (ex.g_min, ex.g_max) == (3, 5)
    assert not ex.uniform
    L = laplacian_lattice(D)
    from rrlattice.extremal import canonical_point
    K = canonical_point(ex, L)
    assert K == (2, 2, 2)
    rep = verify_weak_rr(L, ex, K)
    assert rep["ok"]
    assert rep["sharp_lower_applies"]
    assert rep["g_min"] == 3 and rep["g_max"] == 5
    with pytest.raises(ValueError):
        verify_riemann_roch(L, ex, K)  # equality needs uniformity


def test_default_samples_deterministic(m322_lattice, m322_extremal):
    a = default_divisor_samples(m322_lattice, m322_extremal, seed=5,
                                random_count=60)
    b = default_divisor_samples(m322_lattice, m322_extremal, seed=5,
                                random_count=60)
    assert a == b
    assert len(a) >= 200
    c = default_divisor_samples(m322_lattice, m322_extremal, seed=6,
                                random_count=60)
    assert a != c


@pytest.mark.parametrize("D", [(0.9, 0.9, 0.9), (1, 1), (1, 1, 1, 1)])
def test_divisors_are_validated(k3_lattice, k3_extremal, D):
    # a non-integral entry used to be truncated, a short divisor to be
    # cut down by zip or to raise IndexError
    with pytest.raises(ValueError):
        rank_bruteforce(k3_lattice, D)
    with pytest.raises(ValueError):
        rank_extremal(k3_lattice, D, k3_extremal)
    with pytest.raises(ValueError):
        linear_system_nonempty(k3_lattice, D)


def test_integral_non_int_entries_are_accepted(k3_lattice, k3_extremal):
    D = (2.0, Fraction(0), 0)
    assert rank_bruteforce(k3_lattice, D).rank == 1
    assert rank_extremal(k3_lattice, D, k3_extremal).rank == 1


def test_effective_cache_lives_on_the_lattice(m322_lattice):
    L = LatticeBasis(m322_lattice.rows)
    assert linear_system_nonempty(L, (1, -1, 0)) == (False, None)
    assert linear_system_nonempty(L, (4, 2, -3)) == (True, (2, 0, 1))
    # a reduced divisor that is effective is its own witness, uncached
    assert linear_system_nonempty(L, (5, 0, -2)) == (True, (0, 3, 0))
    assert L._caches["effective"] == {(0, 6, -6): None, (0, 14, -11): (2, 0, 1)}


def test_rank_extremal_within_node_budget():
    # 10 extremal classes, genus 9; the per-class l1 search used to spend
    # more than the default 2,000,000 nodes on this divisor
    G = Multigraph(5, ((0, 3, 1, 0, 1), (3, 0, 0, 3, 1), (1, 0, 0, 2, 2),
                       (0, 3, 2, 0, 0), (1, 1, 2, 0, 0)))
    L = laplacian_lattice(G)
    ex = extremal_set_graphical(G)
    assert (ex.class_count, ex.g_max) == (10, 9)
    D = (4, 4, 2, -3, 3)
    r = rank_extremal(L, D, ex)
    assert r.rank == 2 == rank_bruteforce(L, D, budget=40).rank


NONUNIFORM = (
    RegularDigraph(3, [[0, 3, 1], [1, 0, 3], [3, 1, 0]]),
    RegularDigraph(4, [[0, 2, 1, 1], [1, 0, 1, 2], [2, 1, 0, 0],
                       [1, 1, 1, 0]]),
)


def test_rank_extremal_frozen_nonuniform():
    # (D, rank, witness) as the per-class searches without a shared bound
    # computed them
    frozen = (
        [((5, 0, 1), 2, (0, 0, 3)), ((4, -4, 3), 0, (0, 0, 1)),
         ((-1, -4, -2), -1, (0, 0, 0))],
        [((5, 0, 1, 4), 5, (0, 0, 3, 3)), ((-1, 2, 4, -3), 0, (0, 0, 0, 1)),
         ((-4, 3, -1, -4), -1, (0, 0, 0, 0))],
    )
    for G, cases in zip(NONUNIFORM, frozen):
        L = laplacian_lattice(G)
        ex = extremal_set_graphical(G)
        for D, rank, witness in cases:
            r = rank_extremal(L, D, ex)
            assert (r.rank, r.witness) == (rank, witness)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(NONUNIFORM))), st.data())
def test_rank_extremal_matches_bruteforce_nonuniform(which, data):
    # class degrees differ, so the bound shared between classes varies
    G = NONUNIFORM[which]
    L = laplacian_lattice(G)
    ex = extremal_set_graphical(G)
    assert not ex.uniform
    D = tuple(data.draw(st.integers(-4, 6)) for _ in range(L.dim))
    r = rank_extremal(L, D, ex)
    assert r.rank == rank_bruteforce(L, D, budget=40).rank
    E = r.witness
    assert all(x >= 0 for x in E) and degree(E) == r.rank + 1
    ok, _ = linear_system_nonempty(L, tuple(d - e for d, e in zip(D, E)))
    assert not ok
