import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrlattice
from rrlattice.core import (BudgetExceeded, LatticeBasis, deg_minus, deg_plus,
                            degree, picard_cardinality, project_H0,
                            solve_rational)

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


def test_basis_rows_must_be_integers():
    # not truncated to the rows ((1, -1, 0), (0, 1, -1))
    with pytest.raises(ValueError):
        LatticeBasis([(1.5, -1.5, 0), (0, 1, -1)])
    L = LatticeBasis([(2.0, Fraction(-4, 2), 0), (0, 1, -1)])
    assert L.rows == ((2, -2, 0), (0, 1, -1))
    assert all(type(x) is int for r in L.rows for x in r)


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


@pytest.mark.parametrize("call", [
    lambda L: L.find_effective_in_coset((3, 0)),
    lambda L: L.find_effective_in_coset((Fraction(1, 2), 0, Fraction(5, 2))),
    lambda L: L.find_effective_in_coset((1.5, 0, 1.5)),
    lambda L: L.coset_min_l1((1.5, 0, 0)),
    lambda L: L.coset_min_l1((1, 0)),
    lambda L: L.reduce((5,)),
    lambda L: L.reduce((5, 0, 0, 0)),
    lambda L: L.coords((1, -1)),
    lambda L: L.fractional_part((None, 0, 0)),
    lambda L: L.coset_min_max_coord((1, -1)),
    lambda L: L.coset_min_max_coord((float("inf"), float("-inf"), 0)),
], ids=["effective_short", "effective_fraction", "effective_float",
        "l1_float", "l1_short", "reduce_short", "reduce_long",
        "coords_short", "fractional_none", "max_coord_short",
        "max_coord_inf"])
def test_coset_kernels_reject_points_of_another_shape(call):
    # each was answered on a truncated or rational point, or failed with
    # IndexError, AttributeError, TypeError or OverflowError
    L = LatticeBasis([(2, -1, -1), (-1, 2, -1)])
    with pytest.raises(ValueError):
        call(L)


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
    # every rank from 1 to 6, against sympy's Smith form and determinant
    rng = random.Random(2026)
    for dim in range(2, 8):
        for _ in range(20):
            L = random_basis(rng, dim)
            assert list(L.picard_factors()) == \
                oracles.sympy_invariant_factors(L.rows), L.rows
            assert L.picard_cardinality() == oracles.sympy_index(L.rows)


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


def test_budget_exceeded():
    L = LatticeBasis([(7, -7, 0), (-3, 11, -8)])
    with pytest.raises(BudgetExceeded):
        list(L.iter_coset_in_bounds((0, 0, 0), (-60,) * 3, (60,) * 3,
                                    node_budget=5))


def test_solve_rational_exact():
    M = [[2, 1, 0], [1, 3, 1], [0, 1, Fraction(1, 2)]]
    b = [1, 0, Fraction(-2, 3)]
    x = solve_rational(M, b)
    assert all(type(t) is Fraction for t in x)
    assert [sum(m * t for m, t in zip(row, x)) for row in M] == b
    assert solve_rational([[0, 2], [3, 0]], [4, 9]) == [3, 2]  # needs a swap


def test_solve_rational_singular():
    with pytest.raises(ValueError):
        solve_rational([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ValueError):
        solve_rational([[0, 0], [0, 1]], [0, 1])


def test_package_exports_resolve():
    names = rrlattice.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(rrlattice, name) is not None, name


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


@settings(max_examples=60, deadline=None)
@given(lattice_and_base())
def test_find_effective_is_lexicographically_least(case):
    # the rank witnesses and the effectiveness cache store this exact point
    L, D = case
    total = sum(D)
    pts = oracles.coset_points_in_box_pointwise(
        L.rows, D, [0] * L.dim, [max(total, 0)] * L.dim)
    assert L.find_effective_in_coset(D) == (min(pts) if pts else None)


@settings(max_examples=60, deadline=None)
@given(lattice_and_base(rational=True), st.data())
def test_iter_coset_fraction_bounds_open_free_coordinate(case, data):
    L, base = case
    frac = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3))
    lo = [data.draw(frac) for _ in range(L.n)]
    hi = [t + data.draw(st.integers(0, 4)) for t in lo]
    got = list(L.iter_coset_in_bounds(base, lo + [None], hi + [None]))
    # the free coordinate is fixed by the sum, so the pivot box bounds it
    total = sum(base)
    free_lo, free_hi = total - sum(hi), total - sum(lo)
    want = oracles.coset_points_in_box_pointwise(
        L.rows, base, lo + [free_lo], hi + [free_hi])
    assert got == sorted(want)


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


@settings(max_examples=80, deadline=None)
@given(small_lattices(), st.data())
def test_hnf_is_invariant_under_unimodular_row_operations(L, data):
    rows = [list(r) for r in L.rows]
    for _ in range(data.draw(st.integers(1, 6))):
        a, b = data.draw(st.permutations(range(L.n)))[:2]
        op = data.draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add":
            c = data.draw(st.integers(-3, 3))
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
        elif op == "swap":
            rows[a], rows[b] = rows[b], rows[a]
        else:
            rows[a] = [-x for x in rows[a]]
    M = LatticeBasis(rows)
    assert M.hnf == L.hnf
    assert M.same_lattice(L) and L.same_lattice(M)
    for r, col in enumerate(L.pivot_cols):
        piv = L.hnf[r][col]
        assert piv > 0
        assert all(0 <= L.hnf[i][col] < piv for i in range(r))


def test_hnf_does_not_depend_on_the_basis():
    # reducing above the pivots bottom-up gave (1, 0, -10, 9) for the
    # first basis and (1, 0, -58, 57) for the second
    rows = ((-3, -2, 2, 3), (0, 3, 2, -5), (2, 3, -2, -3))
    other = (tuple(x + 2 * y for x, y in zip(rows[0], rows[1])),) + rows[1:]
    for basis in (rows, other):
        assert LatticeBasis(basis).hnf[0] == (1, 0, 6, -7)
    assert not LatticeBasis(rows).same_lattice(
        LatticeBasis(((-3, -2, 2, 3), (0, 3, 2, -5), (4, 6, -4, -6))))


# Two rank-4 searches that need more than the default 2,000,000 nodes
# unless the bound drops below each leaf; the expected answers are those of
# a box walk over [-v, v]^5, v the minimal norm.
L1_PAST_THE_OLD_BUDGET = [
    (((-1, 4, -3, 4, -4), (4, -4, -4, -4, 8), (4, 4, 3, 2, -13),
      (3, 3, 2, -2, -6)), (5, -2, -8, 8, 8), (11, (0, 9, 1, 0, 1))),
    (((-4, -3, 2, -3, 8), (-4, 3, -1, 3, -1), (0, 4, 4, 3, -11),
      (3, 2, -3, -4, 2)), (-3, -6, -6, 7, 6), (8, (3, 0, -1, -1, -3))),
]


@pytest.mark.parametrize("rows, base, expected", L1_PAST_THE_OLD_BUDGET)
def test_coset_min_l1_rank4_within_default_budget(rows, base, expected):
    assert LatticeBasis(rows).coset_min_l1(base) == expected
    val = expected[0]
    pts = oracles.coset_points_in_box_pointwise(
        rows, base, [-val] * len(base), [val] * len(base))
    assert min((sum(abs(x) for x in p), p) for p in pts) == expected
