import json
import random
import time

import pytest

from rrlattice.core import degree
from rrlattice.extremal import extremal_set_graphical
from rrlattice.graphs import (Multigraph, RegularDigraph,
                              canonical_divisor, connected_simple_graphs,
                              graph_from_json_dict, graph_from_text,
                              laplacian_lattice, random_connected_multigraph,
                              spanning_tree_count)

import oracles
from oracles import acyclic_orientations_unique_source, cyclic_order_count


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph.from_edges(3, [(0, 1, 1)])          # disconnected
    with pytest.raises(ValueError):
        Multigraph.from_edges(3, [(0, 0, 1), (0, 1, 1), (1, 2, 1)])  # loop
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, [(0, 1, 0)])          # zero multiplicity
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, [(0, 3, 1)])          # index out of range


def test_multigraph_basics(m322):
    assert m322.vertex_count == 3
    assert m322.n == 2
    assert m322.edge_count == 7
    assert m322.genus == 5
    assert m322.degree_sequence() == (5, 5, 4)
    rows = m322.laplacian_rows()
    assert rows == ((5, -3, -2), (-3, 5, -2), (-2, -2, 4))
    assert all(sum(r) == 0 for r in rows)


def test_builders():
    assert Multigraph.complete(4).edge_count == 6
    assert Multigraph.path(4).edge_count == 3
    assert Multigraph.cycle(4).edge_count == 4
    assert Multigraph.cycle(4).genus == 1


def test_laplacian_lattice_and_canonical(k3, m322):
    L = laplacian_lattice(k3)
    assert L.rows == ((2, -1, -1), (-1, 2, -1))
    assert canonical_divisor(k3) == (0, 0, 0)
    assert canonical_divisor(m322) == (3, 3, 2)
    assert degree(canonical_divisor(m322)) == 2 * m322.genus - 2


def test_spanning_tree_counts(k3, m322):
    assert spanning_tree_count(k3) == 3
    assert spanning_tree_count(m322) == 16
    assert spanning_tree_count(Multigraph.complete(4)) == 16
    assert spanning_tree_count(Multigraph.complete(5)) == 125
    assert spanning_tree_count(Multigraph.path(4)) == 1


def test_tree_count_equals_picard(corpus):
    for name, G in corpus:
        L = laplacian_lattice(G)
        assert L.picard_cardinality() == spanning_tree_count(G), name
        assert spanning_tree_count(G) == oracles.sympy_tree_count(G), name


def test_acyclic_orientation_and_cyclic_order_counts(k3, m322):
    # K3: two cyclic orders of three vertices
    assert acyclic_orientations_unique_source(k3) == 2
    assert cyclic_order_count(k3) == 2
    # multiplicities do not change the counts, adjacency does
    assert acyclic_orientations_unique_source(m322) == 2
    assert cyclic_order_count(m322) == 2
    p4 = Multigraph.path(4)
    assert acyclic_orientations_unique_source(p4) == \
        cyclic_order_count(p4) == 1
    k4 = Multigraph.complete(4)
    assert acyclic_orientations_unique_source(k4) == \
        cyclic_order_count(k4) == 6


def test_connected_simple_graph_counts():
    assert len(list(connected_simple_graphs(2))) == 1
    assert len(list(connected_simple_graphs(3))) == 2
    assert len(list(connected_simple_graphs(4))) == 6
    assert len(list(connected_simple_graphs(5))) == 21


def test_random_multigraph_contract():
    rng = random.Random(3)
    for _ in range(25):
        G = random_connected_multigraph(rng, 4, 10)
        assert 2 <= G.vertex_count <= 4
        assert G.edge_count <= 10
        assert G.genus >= 0


def test_regular_digraph():
    D = RegularDigraph.from_arcs(3, [(0, 1, 2), (1, 2, 2), (2, 0, 2),
                                     (1, 0, 1), (2, 1, 1), (0, 2, 1)])
    rows = D.laplacian_rows()
    assert all(sum(r) == 0 for r in rows)
    assert D.degree_sequence() == (3, 3, 3)
    with pytest.raises(ValueError):
        # out-degree 2 but in-degree 1 at vertex 0
        RegularDigraph.from_arcs(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1),
                                     (2, 0, 1)])


def test_parsing_roundtrip(m322):
    obj = m322.to_json_dict()
    G = graph_from_json_dict(json.loads(json.dumps(obj)))
    assert G.edge_list() == m322.edge_list()
    text = "vertices 3\n0 1 3\n0 2 2\n1 2 2\n"
    assert graph_from_text(text).edge_list() == m322.edge_list()
    assert graph_from_text("0 1\n1 2").edge_count == 2


def test_arcs_roundtrip():
    D = RegularDigraph.from_arcs(3, [(0, 1, 3), (0, 2, 1), (1, 0, 1),
                                     (1, 2, 3), (2, 0, 3), (2, 1, 1)])
    obj = D.to_json_dict()
    assert sorted(obj) == ["arcs", "vertices"]
    E = graph_from_json_dict(json.loads(json.dumps(obj)))
    assert type(E) is RegularDigraph
    assert E.arc_mult == D.arc_mult


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_connected_simple_graphs_match_canonical_key_oracle(k):
    # the same graphs with the same labels in the same order: the
    # benchmark's rank sweep runs on these labels, and the l1 kernel's
    # cost on one graph swings with the labelling
    assert [G.edge_mult for G in connected_simple_graphs(k)] == \
        oracles.connected_simple_graphs_by_key(k)


def test_multiplicities_must_be_integers():
    # not truncated to 1 and 2: a multiplicity must be an integer
    with pytest.raises(ValueError):
        graph_from_json_dict({"vertices": 3,
                              "edges": [[0, 1, 1.5], [1, 2, 2.7]]})
    with pytest.raises(ValueError):
        Multigraph(2, [[0, 1.5], [1.5, 0]])
    with pytest.raises(ValueError):
        RegularDigraph.from_arcs(2, [(0, 1, 1.5), (1, 0, 1.5)])
    G = graph_from_json_dict({"vertices": 3, "edges": [[0, 1, 2.0], [1, 2, 1]]})
    assert G.edge_mult == ((0, 2, 0), (2, 0, 1), (0, 1, 0))
    assert all(type(x) is int for row in G.edge_mult for x in row)
    D = RegularDigraph.from_arcs(2, [(0, 1, 2.0), (1, 0, 2)])
    assert all(type(x) is int for row in D.arc_mult for x in row)


TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

# Malformed graph input, as items for from_edges/from_arcs or as a matrix
# for the constructor: each raises ValueError, never TypeError.
BAD_INPUTS = [
    ("items", 3, [(0, 1.5)]),
    ("items", 3, [(0, 1, "a")]),
    ("items", 3, [None]),
    ("items", 3, [(0,)]),
    ("items", 2.5, [(0, 1)]),
    ("items", "3", [(0, 1), (1, 2)]),
    ("matrix", 2.5, TRIANGLE),
    ("matrix", "3", TRIANGLE),
    ("matrix", None, TRIANGLE),
    ("matrix", 3, None),
    ("matrix", 3, [[0, 1, 1], 1, [1, 1, 0]]),
]


@pytest.mark.parametrize("cls", [Multigraph, RegularDigraph])
@pytest.mark.parametrize("form, k, data", BAD_INPUTS)
def test_bad_graph_input_raises_value_error(cls, form, k, data):
    if form == "matrix":
        build = cls
    else:
        build = cls.from_edges if cls is Multigraph else cls.from_arcs
    with pytest.raises(ValueError):
        build(k, data)


@pytest.mark.parametrize("cls", [Multigraph, RegularDigraph])
def test_integral_float_vertex_count(cls):
    # read as its int, like a multiplicity of 2.0
    G = cls(3.0, TRIANGLE)
    assert type(G.vertex_count) is int
    assert repr(G) == repr(cls(3, TRIANGLE))


def test_graph_from_text_without_edges():
    with pytest.raises(ValueError, match="no edges"):
        graph_from_text("")
    with pytest.raises(ValueError, match="no edges"):
        graph_from_text("# only a comment\n")


def test_multigraph_is_the_symmetric_regular_digraph(m322):
    assert isinstance(Multigraph.complete(4), RegularDigraph)
    D = RegularDigraph(3, m322.edge_mult)
    assert not isinstance(D, Multigraph)
    assert D.laplacian_rows() == m322.laplacian_rows()
    assert laplacian_lattice(D).hnf == laplacian_lattice(m322).hnf
    assert canonical_divisor(D) == canonical_divisor(m322)
    ED, EG = extremal_set_graphical(D), extremal_set_graphical(m322)
    assert (ED.classes, ED.q_rows) == (EG.classes, EG.q_rows)
    assert len(ED.classes) == 2
    assert (ED.source, EG.source) == ("digraph", "graphical")


def test_too_few_items_rejected_before_the_matrix():
    # one edge cannot connect 100,000 vertices; the 10^10-entry matrix is
    # never built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="connected"):
        graph_from_json_dict({"vertices": 100_000, "edges": [[0, 1, 1]]})
    with pytest.raises(ValueError, match="connected"):
        RegularDigraph.from_arcs(100_000, [(0, 1), (1, 0)])
    assert time.perf_counter() - start < 1.0
