"""The reflection search against the all-pairs oracle, and its contract:
one cached search per extremal set, no writes to the set, and a lattice
check on every caller-supplied basis."""

import random

import pytest

from rrlattice.a2 import (digraph_basis, digraph_of_basis, extend_family,
                          random_a2_lattice)
from rrlattice.core import LatticeBasis
from rrlattice.extremal import (canonical_point, classify, extremal_set_general,
                                extremal_set_graphical, reflection_pairing,
                                voronoi_cell_vertices)
from rrlattice.graphs import Multigraph, RegularDigraph
from rrlattice.rank import verify_riemann_roch, verify_weak_rr

import oracles
from conftest import corpus_graphs


def other_basis(L):
    """A second basis of L, by one unimodular row operation per row."""
    rows = [list(r) for r in L.rows]
    for i in range(1, len(rows)):
        rows[i - 1] = [a + 2 * b for a, b in zip(rows[i - 1], rows[i])]
    return LatticeBasis(rows)


def check_against_oracle(ex, L):
    crit = [L.fractional_part(c) for c in ex.critical_points()]
    want = oracles.reflections_all_pairs(crit, L.fractional_part)
    if L is ex.lattice:
        assert ex._reflection_list == want
        assert ex.reflection_vector == (want[0][0] if want else None)
    assert reflection_pairing(ex, L) == (want[0] if want else (None, None))
    flags = classify(ex, L)
    assert flags["t"] == (want[0][0] if want else None)
    if want and (ex.q_rows is not None or L.n <= 2):
        cell = voronoi_cell_vertices(L, ex)
        assert flags["strongly_reflection_invariant"] == \
            oracles.strongly_invariant_all_pairs(cell)
    elif want:
        assert flags["strongly_reflection_invariant"] is None
    else:
        assert flags["strongly_reflection_invariant"] is False


def random_rank3_lattices(rng, count, max_index=30):
    out = []
    while len(out) < count:
        rows = []
        for _ in range(3):
            body = [rng.randint(-3, 3) for _ in range(3)]
            rows.append(tuple(body + [-sum(body)]))
        try:
            L = LatticeBasis(rows)
        except ValueError:
            continue
        if 2 <= L.picard_cardinality() <= max_index:
            out.append(L)
    return out


def test_reflections_match_oracle_rank2():
    rng = random.Random(4101)
    for _ in range(40):
        L = random_a2_lattice(rng)
        ex = extremal_set_graphical(digraph_of_basis(digraph_basis(L)))
        check_against_oracle(ex, ex.lattice)
        check_against_oracle(ex, L)
    for _ in range(8):
        L = random_a2_lattice(rng, span=5)
        check_against_oracle(extremal_set_general(L), L)


def test_reflections_match_oracle_rank3():
    # both bases: t is reported modulo the HNF rows of the basis passed in
    for L in random_rank3_lattices(random.Random(4102), 12):
        ex = extremal_set_general(L)
        check_against_oracle(ex, L)
        check_against_oracle(ex, other_basis(L))


def test_reflections_match_oracle_graphs():
    # the three graphs on 5 vertices with 14-24 classes would take most of
    # the time in the cubic oracle
    for _, G in corpus_graphs():
        ex = extremal_set_graphical(G)
        if ex.class_count <= 12:
            check_against_oracle(ex, ex.lattice)


def test_reflections_match_oracle_digraphs():
    rng = random.Random(4103)
    found = 0
    while found < 12:
        k = rng.choice((3, 4))
        mat = [[0 if i == j else rng.randint(0, 3) for j in range(k)]
               for i in range(k)]
        try:
            D = RegularDigraph(k, mat)
        except ValueError:
            continue
        ex = extremal_set_graphical(D)
        check_against_oracle(ex, ex.lattice)
        found += 1
    L = LatticeBasis([(2, -2, 0), (-1, 3, -2)])
    ex = extremal_set_general(L)
    for _ in range(2):
        L, ex = extend_family(L, ex)
        check_against_oracle(ex, L)


def test_classify_leaves_extremal_set_unchanged(m322):
    ex = extremal_set_graphical(m322)
    before = ex.to_json_dict()
    classify(ex)
    canonical_point(ex)
    assert ex.to_json_dict() == before
    L = random_rank3_lattices(random.Random(4104), 1)[0]
    ex = extremal_set_general(L)
    before = ex.to_json_dict()
    classify(ex, other_basis(L))
    assert ex.to_json_dict() == before


def test_other_lattice_raises(k3_extremal, m322_lattice):
    for fn in (classify, canonical_point, reflection_pairing):
        with pytest.raises(ValueError, match="does not belong"):
            fn(k3_extremal, m322_lattice)
    for verify in (verify_riemann_roch, verify_weak_rr):
        with pytest.raises(ValueError, match="does not belong"):
            verify(m322_lattice, k3_extremal, (1, 1, 1), D_samples=[])


def test_integer_search_matches_fractional_part_search():
    # the all-pairs oracle is cubic in the class count, too slow for the
    # 120 and 720 classes of K6 and K7
    for k in (6, 7):
        ex = extremal_set_graphical(Multigraph.complete(k))
        assert ex._reflection_list == oracles.reflections_fractional_part(ex)


def test_fractional_part_runs_once_per_valid_t(monkeypatch):
    calls = []
    frac = LatticeBasis.fractional_part

    def counted(self, x):
        calls.append(x)
        return frac(self, x)

    monkeypatch.setattr(LatticeBasis, "fractional_part", counted)
    # K4 (6 classes, one t), m322 (one t) and a lattice with no t
    nri = LatticeBasis([(2, 0, 1, -3), (1, 2, 1, -4), (2, -1, -2, 1)])
    for ex in (extremal_set_graphical(Multigraph.complete(4)),
               extremal_set_graphical(
                   Multigraph.from_edges(3, [(0, 1, 3), (0, 2, 2),
                                             (1, 2, 2)])),
               extremal_set_general(nri)):
        calls.clear()
        refl = ex._reflection_list
        assert len(calls) == len(refl)
        assert len(refl) == (0 if ex.lattice is nri else 1)
