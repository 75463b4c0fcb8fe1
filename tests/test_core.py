import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlattice.core import (BudgetExceeded, LatticeBasis, LatticeBox,
                            deg_minus, deg_plus, degree,
                            enumerate_lattice_points, lattice_contains,
                            picard_cardinality, project_H0)

import oracles


def random_basis(rng, dim, span=8):
    while True:
        rows = []
        for _ in range(dim - 1):
            body = [rng.randint(-span, span) for _ in range(dim - 1)]
            body.append(-sum(body))
            rows.append(tuple(body))
        try:
            return LatticeBasis(rows)
        except ValueError:
            continue


def test_constructor_validation():
    with pytest.raises(ValueError):
        LatticeBasis([(1, -1, 0)])            # not full rank in A_2
    with pytest.raises(ValueError):
        LatticeBasis([(1, 0, 0), (0, 1, -1)])  # row not zero-sum
    with pytest.raises(ValueError):
        LatticeBasis([(1, -1, 0), (2, -2, 0)])  # dependent rows
    L = LatticeBasis([(2, -1, -1), (-1, 2, -1)])
    assert L.n == 2 and L.dim == 3


def test_degree_helpers():
    assert degree((3, -1, 2)) == 4
    assert deg_plus((3, -1, 2)) == 5
    assert deg_minus((3, -1, 2)) == 1
    assert project_H0((3, -1, 2)) == (
        pytest.approx(3 - 4 / 3), pytest.approx(-1 - 4 / 3),
        pytest.approx(2 - 4 / 3))


def test_reduce_is_canonical_coset_form(k3_lattice):
    L = k3_lattice
    for v in [(0, 0, 0), (5, -2, -3), (-1, 4, -3), (7, 7, -14)]:
        r = L.reduce(v)
        assert degree(r) == degree(v)
        assert L.contains(tuple(a - b for a, b in zip(v, r)))
        assert L.reduce(r) == r


def test_membership_matches_sympy():
    rng = random.Random(5)
    for _ in range(12):
        L = random_basis(rng, 3)
        for _ in range(15):
            body = [rng.randint(-12, 12) for _ in range(2)]
            v = tuple(body) + (-sum(body),)
            assert L.contains(v) == oracles.lattice_member(L.rows, v)


def test_hnf_spans_the_same_lattice():
    rng = random.Random(7)
    for _ in range(8):
        L = random_basis(rng, 3)
        H = oracles.sympy_hnf(L.rows)
        zero_sum = [tuple(r) for r in H if any(r)]
        assert LatticeBasis(zero_sum).same_lattice(L)


def test_picard_factors_match_sympy_snf():
    rng = random.Random(11)
    for _ in range(10):
        L = random_basis(rng, 3)
        assert sorted(L.picard_factors()) == \
            sorted(oracles.sympy_invariant_factors(L.rows))
        card = 1
        for f in L.picard_factors():
            card *= f
        assert card == L.picard_cardinality() == picard_cardinality(L)


def test_class_representatives_enumerate_picard(k3_lattice, m322_lattice):
    for L in (k3_lattice, m322_lattice):
        reps = list(L.class_representatives(0))
        assert len(reps) == L.picard_cardinality()
        assert len({L.reduce(r) for r in reps}) == len(reps)
        assert all(degree(r) == 0 for r in reps)
        assert all(L.reduce(r) == r for r in reps)


def test_iter_coset_matches_box_scan():
    rng = random.Random(13)
    for _ in range(6):
        L = random_basis(rng, 3, span=4)
        base = (rng.randint(-3, 3), rng.randint(-3, 3), 0)
        base = base[:2] + (-base[0] - base[1],)
        lo, hi = (-6, -6, -6), (6, 6, 6)
        got = sorted(L.iter_coset_in_bounds(base, lo, hi))
        want = oracles.coset_points_in_box(L.rows, base, lo, hi)
        assert got == want


def test_find_effective_matches_naive():
    rng = random.Random(17)
    for _ in range(10):
        L = random_basis(rng, 3, span=5)
        for _ in range(10):
            body = [rng.randint(-6, 6) for _ in range(2)]
            D = tuple(body) + (rng.randint(-6, 6),)
            found = L.find_effective_in_coset(D)
            naive = oracles.naive_effective_in_coset(L.rows, D, 12)
            assert (found is None) == (naive is None)
            if found is not None:
                assert all(x >= 0 for x in found)
                assert L.contains(tuple(a - b for a, b in zip(found, D)))


def test_coset_minimisers_match_scans():
    rng = random.Random(19)
    for _ in range(8):
        L = random_basis(rng, 3, span=4)
        body = [rng.randint(-5, 5) for _ in range(2)]
        base = tuple(body) + (-sum(body),)
        val, arg = L.coset_min_max_coord(base)
        pts = oracles.coset_points_in_box(
            L.rows, base, [-40] * 3, [40] * 3)
        assert val == min(max(p) for p in pts)
        v1, a1 = L.coset_min_l1(base)
        assert v1 == min(sum(abs(x) for x in p) for p in pts)
        assert sum(abs(x) for x in a1) == v1


def test_enumerate_lattice_points_sorted(k3_lattice):
    box = LatticeBox((-3, -3, -3), (3, 3, 3))
    pts = enumerate_lattice_points(k3_lattice, box)
    assert pts == sorted(pts)
    assert (0, 0, 0) in pts
    assert all(k3_lattice.contains(p) for p in pts)
    assert pts == oracles.coset_points_in_box(
        k3_lattice.rows, (0, 0, 0), box.lower, box.upper)


def test_budget_exceeded():
    L = LatticeBasis([(7, -7, 0), (-3, 11, -8)])
    with pytest.raises(BudgetExceeded):
        list(L.iter_coset_in_bounds((0, 0, 0), (-60,) * 3, (60,) * 3,
                                    node_budget=5))


def test_lattice_contains_helper(k3_lattice):
    assert lattice_contains(k3_lattice, (2, -1, -1))
    assert not lattice_contains(k3_lattice, (1, -1, 0))


# -- the branch-and-bound kernel against a box scan ----------------------------


@st.composite
def small_lattices(draw):
    """A rank-2, 3 or 4 lattice of small index: an upper triangular body
    with a positive diagonal, mixed by unimodular row operations."""
    n = draw(st.sampled_from((2, 3, 4)))
    body = [[0] * n for _ in range(n)]
    for i in range(n):
        body[i][i] = draw(st.integers(1, 3 if n < 4 else 2))
        for j in range(i + 1, n):
            body[i][j] = draw(st.integers(-2, 2))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-1, 1))
        body[a] = [x + c * y for x, y in zip(body[a], body[b])]
    return LatticeBasis([tuple(r + [-sum(r)]) for r in body])


@st.composite
def lattice_and_base(draw, rational=False):
    L = draw(small_lattices())
    span = 3 if L.n < 4 else 2  # the scans cost (2 * value + 1) ** n
    if not rational:
        # any degree: the l1 objective does not need a zero-sum base
        return L, tuple(draw(st.integers(-span, span)) for _ in range(L.dim))
    body = [Fraction(draw(st.integers(-2 * span, 2 * span)),
                     draw(st.integers(1, 4)))
            for _ in range(L.n)]
    return L, tuple(body + [-sum(body)])


@settings(max_examples=60, deadline=None)
@given(lattice_and_base())
def test_coset_min_l1_matches_box_scan(case):
    L, base = case
    val, arg = L.coset_min_l1(base)
    # every vector of norm <= val lies in the box [-val, val]
    pts = oracles.coset_points_in_box_pointwise(
        L.rows, base, [-val] * L.dim, [val] * L.dim)
    assert (val, arg) == min((sum(abs(x) for x in p), p) for p in pts)


@settings(max_examples=60, deadline=None)
@given(lattice_and_base(rational=True))
def test_coset_min_max_coord_matches_box_scan(case):
    L, base = case
    val, arg = L.coset_min_max_coord(base)
    # a zero-sum vector with max <= val has every coordinate >= -n * val
    pts = oracles.coset_points_in_box_pointwise(
        L.rows, base, [-L.n * val] * L.dim, [val] * L.dim)
    assert (val, arg) == min((max(p), p) for p in pts)


@settings(max_examples=20, deadline=None)
@given(lattice_and_base(), st.integers(-2, 2))
def test_coset_min_l1_cap(case, slack):
    L, base = case
    val, arg = L.coset_min_l1(base)
    got = L.coset_min_l1(base, cap=val + slack)
    assert got == (None if slack < 0 else (val, arg))


@settings(max_examples=20, deadline=None)
@given(lattice_and_base(), lattice_and_base(rational=True))
def test_kernel_budget(case, rational_case):
    # a leaf is n levels deep, so a budget of n - 1 nodes never suffices
    L, base = case
    with pytest.raises(BudgetExceeded):
        L.coset_min_l1(base, node_budget=L.n - 1)
    L, base = rational_case
    with pytest.raises(BudgetExceeded):
        L.coset_min_max_coord(base, node_budget=L.n - 1)


def test_pointwise_scan_matches_coefficient_scan():
    rng = random.Random(23)
    for _ in range(6):
        L = random_basis(rng, 3, span=4)
        body = [rng.randint(-3, 3) for _ in range(2)]
        base = tuple(body) + (rng.randint(-3, 3),)
        lo, hi = (-5, -5, -5), (5, 5, 5)
        assert oracles.coset_points_in_box_pointwise(L.rows, base, lo, hi) \
            == oracles.coset_points_in_box(L.rows, base, lo, hi)


def test_free_column_is_last():
    rng = random.Random(29)
    for dim in (2, 3, 4, 5):
        for _ in range(10):
            L = random_basis(rng, dim, span=3)
            assert L.free_col == L.n
            assert L.pivot_cols == tuple(range(L.n))
