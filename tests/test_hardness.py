import random
from fractions import Fraction

import pytest

from rrlattice.core import degree
from rrlattice.geometry import sigma_contains
from rrlattice.hardness import (RationalSimplex, reduce_simplex_to_membership,
                                simplex_has_integer_point)

import oracles


def F(s):
    return Fraction(s)


def test_simplex_validation():
    with pytest.raises(ValueError):
        RationalSimplex(((0, 0), (1, 0)))              # too few vertices
    with pytest.raises(ValueError):
        RationalSimplex(((0, 0), (1, 0), (2, 0)))      # degenerate
    with pytest.raises(ValueError):                    # degenerate,
        RationalSimplex(((F("1/2"), F("1/3")), (1, F("2/3")),
                         (F("3/2"), 1)))               # rational edges
    S = RationalSimplex(((0, 0), (1, 0), (0, 1)))
    assert S.dim == 2
    assert S.centroid() == (F("1/3"), F("1/3"))


def test_degenerate_exactly_when_edges_lose_rank():
    # sympy's rank of the edge vectors v_i - v_0 is the reference
    rng = random.Random(31)
    degenerate = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        verts = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(dim)] for _ in range(dim + 1)]
        if rng.random() < 0.3:  # a vertex at the middle of an edge
            verts[-1] = [(x + y) / 2 for x, y in zip(verts[0], verts[-2])]
        edges = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
        flat = oracles.sympy_rank(edges) < dim
        degenerate += flat
        if flat:
            with pytest.raises(ValueError, match="degenerate"):
                RationalSimplex(verts)
        else:
            assert RationalSimplex(verts).dim == dim
    assert 50 <= degenerate <= 250


def test_containment_closed():
    S = RationalSimplex(((0, 0), (1, 0), (0, 1)))
    assert S.contains((0, 0))
    assert S.contains((F("1/2"), F("1/2")))   # boundary edge
    assert S.contains((F("1/4"), F("1/4")))
    assert not S.contains((F("3/4"), F("3/4")))
    assert not S.contains((-F("1/8"), 0))


@pytest.mark.parametrize("point", [(1, 1, 99), (1,), ()])
def test_contains_rejects_a_point_of_another_length(point):
    # (1, 1, 99) was cut to (1, 1) and answered True; (1,) raised IndexError
    S = RationalSimplex(((0, 0), (3, 0), (0, 3)))
    with pytest.raises(ValueError, match="coordinates"):
        S.contains(point)


def test_json_roundtrip():
    S = RationalSimplex(((F("1/2"), F("1/2")), (F("3/4"), F("1/2")),
                         (F("1/2"), F("3/4"))))
    obj = S.to_json_dict()
    back = RationalSimplex.from_json_obj(obj["vertices"])
    assert back == S
    assert RationalSimplex.from_json_obj([[0, 0], ["1/2", 0], [[0, 2], 1]]) \
        == RationalSimplex(((0, 0), (F("1/2"), 0), (0, 1)))


def test_reduction_divisor_invariants():
    rng = random.Random(89)
    for _ in range(15):
        dim = rng.choice((2, 3))
        S = random_simplex(rng, dim)
        if S is None:
            continue
        L, D = reduce_simplex_to_membership(S)
        assert L.dim == dim + 1
        assert degree(D) < 0
        assert degree(D) % (dim + 1) == 0


def random_simplex(rng, dim, denom_bound=4, span=3):
    verts = []
    for _ in range(dim + 1):
        verts.append(tuple(
            Fraction(rng.randint(-span, span), rng.randint(1, denom_bound))
            for _ in range(dim)))
    try:
        return RationalSimplex(tuple(verts))
    except ValueError:
        return None


def test_standard_simplex_has_integer_points():
    S = RationalSimplex(((0, 0), (1, 0), (0, 1)))
    assert simplex_has_integer_point(S)
    L, D = reduce_simplex_to_membership(S)
    assert not sigma_contains(L, D)


def test_tiny_simplex_misses_integer_points():
    S = RationalSimplex(((F("1/2"), F("1/2")), (F("5/8"), F("1/2")),
                         (F("1/2"), F("5/8"))))
    assert not simplex_has_integer_point(S)
    L, D = reduce_simplex_to_membership(S)
    assert sigma_contains(L, D)


def test_boundary_integer_vertex_counts():
    # integer point exactly on a vertex: closed containment keeps it
    S = RationalSimplex(((1, 1), (F("3/2"), 1), (1, F("3/2"))))
    assert simplex_has_integer_point(S)
    L, D = reduce_simplex_to_membership(S)
    assert not sigma_contains(L, D)


def test_scaling_preserves_equivalence():
    S = RationalSimplex(((F("1/3"), F("1/3")), (F("2/3"), F("1/3")),
                         (F("1/3"), F("2/3"))))
    for factor in (1, 2):
        T = S.scaled(factor)
        L, D = reduce_simplex_to_membership(T)
        assert simplex_has_integer_point(T) == (not sigma_contains(L, D))


def test_random_agreement():
    rng = random.Random(97)
    done = 0
    while done < 30:
        dim = rng.choice((2, 3))
        S = random_simplex(rng, dim)
        if S is None:
            continue
        L, D = reduce_simplex_to_membership(S)
        assert simplex_has_integer_point(S) == (not sigma_contains(L, D)), \
            S.vertices
        done += 1
