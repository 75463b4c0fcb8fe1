import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlattice import rank as rank_module
from rrlattice.core import BudgetExceeded, LatticeBasis, degree, node_budget
from rrlattice.extremal import (canonical_point, extremal_set_general,
                                extremal_set_graphical, reflection_pairing)
from rrlattice.graphs import (Multigraph, RegularDigraph, canonical_divisor,
                              laplacian_lattice)
from rrlattice.rank import (_charge_samples, _compositions,
                            default_divisor_samples,
                            linear_system_nonempty, rank_bruteforce,
                            rank_extremal, verify_riemann_roch,
                            verify_weak_rr)

import oracles
from conftest import corpus_graphs


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
    # the most frequent representative sum; the class of (2, 2, 2), which
    # the order vectors' most frequent sum gave
    assert K == (6, -1, 1)
    assert L.reduce(K) == L.reduce((2, 2, 2))
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


def test_sample_check_is_charged_before_any_rank(m322_lattice, m322_extremal,
                                                 monkeypatch):
    # two ranks per sample, one coset search per class each; the default
    # plan is the 16 classes of each degree 0 .. 8 plus 50 random divisors,
    # and it is counted without being built
    count = len(default_divisor_samples(m322_lattice, m322_extremal))
    assert count == 16 * 9 + 50
    calls = []

    def no_samples(*args):
        calls.append("samples")
        return []

    for name in ("rank_extremal", "rank_bruteforce"):
        monkeypatch.setattr(rank_module, name,
                            lambda *args: calls.append("rank"))
    monkeypatch.setattr(rank_module, "default_divisor_samples", no_samples)
    classes = m322_extremal.class_count
    searches = 2 * count * classes
    # the reflection search, once cached, charges nothing more
    reflection_pairing(m322_extremal, m322_lattice)
    for verify in (verify_riemann_roch, verify_weak_rr):
        with pytest.raises(BudgetExceeded, match="%d coset searches for 194 "
                           "samples" % searches), node_budget(searches - 1):
            verify(m322_lattice, m322_extremal, (3, 3, 2))
        with pytest.raises(BudgetExceeded, match="3 samples"), \
                node_budget(6 * classes - 1):
            verify(m322_lattice, m322_extremal, (3, 3, 2),
                   D_samples=[(1, 0, 0)] * 3)
        assert calls == []
        with node_budget(searches):
            assert verify(m322_lattice, m322_extremal,
                          (3, 3, 2))["checked"] == 0
        assert calls == ["samples"]
        calls.clear()


# reflection invariant, not uniform (g_min 3, g_max 4)
RINU = LatticeBasis([(-2, 2, 2, -2), (2, 0, 1, -3), (-2, 1, -2, 3)])


def test_weak_rr_reports_each_violation_in_full():
    # K + e_0 is not the canonical point, so the two-sided bound fails
    ex = extremal_set_general(RINU)
    K = canonical_point(ex, RINU)
    assert K == (-2, 0, -5, 12)
    rep = verify_weak_rr(RINU, ex, (K[0] + 1,) + K[1:])
    assert not rep["ok"] and rep["checked"] == 120
    assert len(rep["violations"]) == 10
    for bad in rep["violations"]:
        assert set(bad) == {"D", "rank_D", "rank_K_minus_D", "middle",
                            "lower", "upper", "sharp_lower_applies"}
        D = tuple(bad["D"])
        assert bad["rank_D"] == rank_bruteforce(RINU, D).rank
        assert bad["middle"] == (bad["rank_K_minus_D"] - bad["rank_D"]
                                 + degree(D))
        assert (bad["lower"], bad["upper"]) == (0, 3)
        assert not bad["lower"] <= bad["middle"] <= bad["upper"]
        assert bad["sharp_lower_applies"] is False


def test_charged_sample_count_is_the_default_plan(corpus, skew56_lattice):
    # the plan is counted, not built, by _charge_samples
    cases = [(laplacian_lattice(G), extremal_set_graphical(G))
             for _, G in corpus]
    for L in (RINU, skew56_lattice, LatticeBasis([(3, -3)])):
        cases.append((L, extremal_set_general(L)))
    for L, ex in cases:
        count = len(default_divisor_samples(L, ex))
        searches = 2 * count * ex.class_count
        # the plan is checked against what the block has left, and
        # nothing is spent: the searches charge their own nodes
        with node_budget(searches + 5) as meter:
            meter.spent = 5
            assert _charge_samples(L, ex, None) is None
            assert meter.spent == 5
        with pytest.raises(BudgetExceeded, match="^sample check: %d coset "
                           "searches for %d samples" % (searches, count)), \
                node_budget(searches + 4) as meter:
            meter.spent = 5
            _charge_samples(L, ex, None)


@pytest.mark.parametrize("verify", [verify_riemann_roch, verify_weak_rr])
def test_unknown_method_raises_without_samples(k3_lattice, k3_extremal,
                                               verify):
    # with no samples to rank, "bogus" used to report ok: True
    with pytest.raises(ValueError, match="unknown rank method"):
        verify(k3_lattice, k3_extremal, (0, 0, 0), D_samples=[],
               method="bogus")


@pytest.mark.parametrize("verify", [verify_riemann_roch, verify_weak_rr])
def test_method_disagreement_names_the_divisor_ranked(k3_lattice,
                                                      k3_extremal, verify):
    # with a class dropped, rank_extremal misses the obstruction of K - D
    # for D = (0, 1, -1), and of D itself for D = (0, -1, 1); K is 0
    ex = dataclasses.replace(k3_extremal, classes=k3_extremal.classes[1:])
    report = verify(k3_lattice, ex, (0, 0, 0),
                    D_samples=[(0, 1, -1), (0, -1, 1), (1, 0, 0)],
                    method="both")
    assert report["checked"] == 3
    assert not report["ok"]
    assert report["violations"] == [
        {"D": [0, 1, -1], "method_disagreement":
            "rank mismatch at (0, -1, 1): bruteforce -1, extremal 0"},
        {"D": [0, -1, 1], "method_disagreement":
            "rank mismatch at (0, -1, 1): bruteforce -1, extremal 0"},
    ]


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


def test_rank_extremal_stops_at_rank_minus_one(monkeypatch):
    G = Multigraph.complete(4)
    L = laplacian_lattice(G)
    ex = extremal_set_graphical(G)
    D = (-1, 1, 0, 0)
    assert rank_bruteforce(L, D).rank == -1
    calls = []
    search = LatticeBasis.coset_min_l1

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return search(self, *args, **kwargs)

    monkeypatch.setattr(LatticeBasis, "coset_min_l1", counted)
    r = rank_extremal(L, D, ex)
    assert (r.rank, r.witness) == (-1, (0, 0, 0, 0))
    # the first class already reaches deg_plus 0; the other five are
    # left unsearched
    assert len(calls) == 1 < ex.class_count


def test_rank_extremal_of_negative_degree_makes_no_search(monkeypatch):
    # no effective divisor has negative degree, so the rank is -1 with the
    # zero witness before any coset search
    G = Multigraph.complete(4)
    L = laplacian_lattice(G)
    ex = extremal_set_graphical(G)
    divisors = [(-3, 1, 0, 0), (-1, 0, 0, 0), (5, -9, 2, 1)]
    assert [rank_bruteforce(L, D).rank for D in divisors] == [-1, -1, -1]
    calls = []
    search = LatticeBasis.coset_min_l1

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return search(self, *args, **kwargs)

    monkeypatch.setattr(LatticeBasis, "coset_min_l1", counted)
    for D in divisors:
        r = rank_extremal(L, D, ex)
        assert (r.rank, r.witness, r.method) == (-1, (0, 0, 0, 0), "extremal")
    assert calls == []


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


@pytest.mark.parametrize("which", range(len(NONUNIFORM)))
def test_rank_extremal_matches_bruteforce_on_grid_nonuniform(which):
    # every D in [-4, 6]^(n+1) of degree 2 or 3; with the l-infinity
    # extremality test, 74 of these ranks were wrong on NONUNIFORM[1],
    # (-3, -4, 5, 5) among them (rank 0 in place of -1)
    G = NONUNIFORM[which]
    L = laplacian_lattice(G)
    ex = extremal_set_graphical(G)
    for D in itertools.product(range(-4, 7), repeat=L.dim):
        if degree(D) in (2, 3):
            assert rank_extremal(L, D, ex).rank == \
                rank_bruteforce(L, D, budget=40).rank, D


def test_nonuniform_digraph_keeps_every_minimal_class():
    # the class of (0, 0, 12, -15) arises from a vertex order and is
    # minimal in Sigma; the l-infinity test filtered it out
    G = NONUNIFORM[1]
    L = laplacian_lattice(G)
    ex = extremal_set_graphical(G)
    assert ex.class_count == 4 and (ex.g_min, ex.g_max) == (4, 5)
    assert L.reduce((0, 0, 12, -15)) in {L.reduce(r)
                                          for r in ex.representatives}
    assert rank_extremal(L, (-3, -4, 5, 5), ex).rank == -1


RANK3_LATTICES = (
    ((-1, 1, 2, -2), (-2, -2, 1, 3), (3, -3, -3, 3)),
    ((-1, 3, -3, 1), (-2, 0, 1, 1), (-3, 0, -3, 6)),
    ((3, -3, 1, -1), (-2, -1, -3, 6), (0, -3, -1, 4)),
    ((-2, 1, 3, -2), (-3, 0, 1, 2), (3, -1, -1, -1)),
)


@pytest.mark.parametrize("rows", RANK3_LATTICES)
def test_rank_extremal_matches_bruteforce_rank3_scan(rows):
    # bare lattices whose scan dropped minimal classes under the
    # l-infinity test: 6, 8, 1 and 1 of these 300 ranks were wrong
    L = LatticeBasis(rows)
    ex = extremal_set_general(L)
    rng = random.Random(1)
    for _ in range(300):
        D = tuple(rng.randint(-8, 8) for _ in range(L.dim))
        assert rank_extremal(L, D, ex).rank == \
            rank_bruteforce(L, D, budget=40).rank, D


def test_compositions_match_the_recursive_oracle():
    for total in range(9):
        for parts in range(1, 7):
            assert list(_compositions(total, parts)) == \
                list(oracles._compositions(total, parts)), (total, parts)


@functools.lru_cache(maxsize=None)
def _bruteforce_cases():
    """(lattice, genus) for every corpus Laplacian, both NONUNIFORM
    digraphs (upper genus) and one rank-3 lattice (upper genus)."""
    cases = [(laplacian_lattice(G), G.genus) for _, G in corpus_graphs()]
    for G in NONUNIFORM:
        cases.append((laplacian_lattice(G), extremal_set_graphical(G).g_max))
    L = LatticeBasis(RANK3_LATTICES[0])
    cases.append((L, extremal_set_general(L).g_max))
    return tuple(cases)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank_bruteforce_matches_the_ascending_scan(data):
    cases = _bruteforce_cases()
    L, g = cases[data.draw(st.integers(0, len(cases) - 1))]
    d = data.draw(st.integers(-3, 3 * g))
    body = [data.draw(st.integers(-g - 1, g + 1)) for _ in range(L.dim - 1)]
    D = tuple(body) + (d - sum(body),)
    r = rank_bruteforce(L, D, budget=40)
    ref = oracles.rank_bruteforce_ascending(L, D, budget=40)
    assert (r.rank, r.witness) == (ref.rank, ref.witness), D


def test_rank_bruteforce_scans_one_level_in_full(monkeypatch):
    # K5, g = 6, deg D = 18, rank 12: only level 12 is scanned in full, so
    # no tested divisor D - E has degree above 18 - 12; the ascending scan
    # tests every E of degree 0..13 (6,321 tests, up to degree 18)
    L = laplacian_lattice(Multigraph.complete(5))
    tested = []

    def spy(L, D):
        tested.append(degree(D))
        return linear_system_nonempty(L, D)

    monkeypatch.setattr(rank_module, "linear_system_nonempty", spy)
    r = rank_bruteforce(L, (4, 4, 4, 3, 3), budget=40)
    assert (r.rank, r.witness) == (12, (0, 1, 2, 2, 8))
    assert max(tested) <= 6
    assert len(tested) <= 1991


def _spy_on_tests(monkeypatch, limit=1000):
    """The divisors rank_bruteforce tests for effectiveness, recorded as
    it goes; a test past the limit fails at once rather than running on."""
    tested = []

    def spy(L, D):
        tested.append(D)
        if len(tested) > limit:
            raise AssertionError("more than %d effectiveness tests" % limit)
        return linear_system_nonempty(L, D)

    monkeypatch.setattr(rank_module, "linear_system_nonempty", spy)
    return tested


def test_rank_bruteforce_stops_once_the_level_covers_pic(monkeypatch):
    # the same K5 divisor: level 12 holds 1,820 compositions, but its
    # witnesses cover the 125 classes of degree 6 after 325 of them, so
    # 496 tests in all where the full level scan made 1,991
    L = laplacian_lattice(Multigraph.complete(5))
    assert L.picard_cardinality() == 125
    tested = _spy_on_tests(monkeypatch)
    r = rank_bruteforce(L, (4, 4, 4, 3, 3), budget=40)
    assert (r.rank, r.witness) == (12, (0, 1, 2, 2, 8))
    assert len(tested) == 496


def _root_lattice(n):
    """A_n: the whole zero-sum lattice in n + 1 coordinates, index 1."""
    return LatticeBasis([tuple(int(j == i) - int(j == i + 1)
                               for j in range(n + 1)) for i in range(n)])


def test_rank_bruteforce_answers_a8_from_one_test(monkeypatch):
    # Pic of A_8 is trivial, so the first divisor tested in level 24 covers
    # it; without the exit the level's C(32, 8) = 10,518,300 compositions
    # are all tested, none of them charged to a budget
    L = _root_lattice(8)
    assert L.picard_cardinality() == 1
    tested = _spy_on_tests(monkeypatch)
    r = rank_bruteforce(L, (24,) + (0,) * 8)
    assert (r.rank, r.witness) == (24, (0,) * 8 + (25,))
    assert len(tested) == 1


def _index_lattice(n, m, tail):
    """Rows e_i - e_n (i < n - 1) and (tail, m, -sum(tail) - m): the
    pivot block is triangular with diagonal (1, ..., 1, m), so the
    index is m."""
    rows = [tuple(int(j == i) - int(j == n) for j in range(n + 1))
            for i in range(n - 1)]
    rows.append(tuple(tail) + (m, -sum(tail) - m))
    return LatticeBasis(rows)


@functools.lru_cache(maxsize=None)
def _exit_cases():
    """(lattice, largest degree drawn) where whole levels are covered:
    A_2 to A_4, rank-3 and rank-4 lattices of index 2 to 6, and the
    corpus graphs on at most 4 vertices."""
    cases = [(_root_lattice(n), 10) for n in (2, 3, 4)]
    for m in range(2, 7):
        cases.append((_index_lattice(3, m, (m - 1, 1)), 10))
        cases.append((_index_lattice(4, m, (1, -1, m // 2)), 8))
    cases += [(laplacian_lattice(G), 3 * G.genus)
              for _, G in corpus_graphs() if G.vertex_count <= 4]
    return tuple(cases)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rank_bruteforce_with_the_exit_matches_the_ascending_scan(data):
    cases = _exit_cases()
    L, top = cases[data.draw(st.integers(0, len(cases) - 1))]
    # counted down from the top, where most levels are covered
    d = top - data.draw(st.integers(0, top + 3))
    body = [data.draw(st.integers(-4, 4)) for _ in range(L.dim - 1)]
    D = tuple(body) + (d - sum(body),)
    r = rank_bruteforce(L, D, budget=40)
    ref = oracles.rank_bruteforce_ascending(L, D, budget=40)
    assert (r.rank, r.witness) == (ref.rank, ref.witness), D
