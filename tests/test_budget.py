"""The node_budget block: one work meter per outermost call.

A public function that charges opens a block of DEFAULT_NODE_BUDGET units
when none is active, its nested calls share it, and an explicit
``with node_budget(n)`` bounds everything inside it.
"""

import inspect
import random

import pytest

import rrlattice
from rrlattice import extremal
from rrlattice.chipfire import Configuration, fire_script, winnable
from rrlattice.core import BudgetExceeded, LatticeBasis, node_budget
from rrlattice.extremal import (canonical_point, classify,
                                extremal_set_general, extremal_set_graphical)
from rrlattice.geometry import h_distance
from rrlattice.graphs import Multigraph, laplacian_lattice
from rrlattice.rank import (default_divisor_samples, rank_bruteforce,
                            rank_extremal)

from conftest import corpus_graphs
from test_rank import NONUNIFORM

# indeg - 1 of the order 0, ..., 6 on K7: no effective divisor in its
# class, found by a walk of 563 nodes (test_core pins the count)
K7 = laplacian_lattice(Multigraph.complete(7))
K7_D = tuple(range(-1, 6))
K7_NODES = 563


def test_walks_in_one_block_share_its_budget():
    # each walk fits the budget alone; the second one in the same block
    # is refused, and outside any block each gets the default budget
    with node_budget(K7_NODES):
        assert K7.find_effective_in_coset(K7_D) is None
    with node_budget(K7_NODES) as meter:
        assert K7.find_effective_in_coset(K7_D) is None
        assert meter.spent == K7_NODES
        with pytest.raises(BudgetExceeded, match=r"^coset enumeration: 1 "
                           r"nodes exceed the work budget 563 \(563 units"):
            K7.find_effective_in_coset(K7_D)
    assert K7.find_effective_in_coset(K7_D) is None
    assert K7.find_effective_in_coset(K7_D) is None


def test_a_nested_block_cannot_raise_the_outer_budget():
    with node_budget(2 * K7_NODES - 1) as outer:
        with node_budget(10**9) as inner:
            assert inner.budget == 2 * K7_NODES - 1
            assert K7.find_effective_in_coset(K7_D) is None
        # the inner block's units count against the outer one
        assert outer.spent == K7_NODES
        with pytest.raises(BudgetExceeded, match="work budget 562 "), \
                node_budget(10**9):
            K7.find_effective_in_coset(K7_D)
    # node_budget() joins the active block instead of opening one
    with node_budget(K7_NODES) as outer:
        with node_budget() as joined:
            assert joined is outer
            assert K7.find_effective_in_coset(K7_D) is None
        with pytest.raises(BudgetExceeded):
            K7.find_effective_in_coset(K7_D)


def test_no_public_name_takes_a_budget_parameter():
    # the budget is the block's; rank_bruteforce's degree cap is not a
    # work budget and keeps its name
    checked = 0
    for name in rrlattice.__all__:
        obj = getattr(rrlattice, name)
        funcs = [obj] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            funcs += [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
        for f in funcs:
            params = inspect.signature(f).parameters
            assert "node_budget" not in params, (name, f)
            assert "box_budget" not in params, (name, f)
            checked += 1
    assert checked > 60
    assert "node_budget" in rrlattice.__all__


def _outputs():
    """Library answers over a corpus, built from scratch on each call."""
    out = []
    rng = random.Random(7)
    graphs = [G for _, G in corpus_graphs()] + list(NONUNIFORM)
    for G in graphs:
        ex = extremal_set_graphical(G)
        L = ex.lattice
        out.append(ex.to_json_dict())
        flags = classify(ex)
        out.append(flags)
        if flags["reflection_invariant"]:
            out.append(canonical_point(ex))
        for D in default_divisor_samples(L, ex):
            out.append((rank_bruteforce(L, D, budget=40),
                        rank_extremal(L, D, ex)))
        for _ in range(3):
            x = [rng.randint(-9, 9) for _ in range(L.n)]
            out.append(h_distance(L, x + [-sum(x)]))
        if isinstance(G, Multigraph):
            for _ in range(5):
                chips = [rng.randint(-2, G.genus + 2)
                         for _ in range(G.vertex_count)]
                out.append(winnable(Configuration(G, chips)))
    for rows in ([(7, -7, 0), (-3, 11, -8)], [(2, -2, 0), (-1, 3, -2)],
                 [(-2, 2, 2, -2), (2, 0, 1, -3), (-2, 1, -2, 3)]):
        ex = extremal_set_general(LatticeBasis(rows))
        out += [ex.to_json_dict(), classify(ex)]
    return out


def test_outputs_are_the_same_inside_a_large_block():
    outside = _outputs()
    with node_budget(10**12):
        inside = _outputs()
    assert inside == outside


def test_reflection_search_is_charged_before_the_cell_walk(monkeypatch):
    # K8: 5,040 class points and 22,847 reductions in the search; the HNF
    # of k * L, already in HNF form, makes no row operation
    ex = extremal_set_graphical(Multigraph.complete(8))
    walked = []
    monkeypatch.setattr(extremal, "_nu", lambda *args: walked.append(args))
    with pytest.raises(BudgetExceeded, match="^reflection search: "), \
            node_budget(20_000):
        classify(ex)
    assert walked == []
    with node_budget(10**9) as meter:
        assert ex.reflection_vector is not None
    assert meter.spent == 5040 + 22_847
    # the search ran once; classify now charges only the cell walk
    with pytest.raises(BudgetExceeded, match="^Voronoi cell walk: 8! "), \
            node_budget(20_000):
        classify(ex)


def test_hnf_charges_its_row_operations():
    # the path on 40 vertices: one row operation per column in the first
    # pass, then every row above each pivot in the second
    rows = Multigraph.path(40).laplacian_rows()[:-1]
    with node_budget(10**9) as meter:
        L = LatticeBasis(rows)
    assert meter.spent == 38 + 38 * 39 // 2
    with pytest.raises(BudgetExceeded, match="^HNF row operations exceed "
                       "the work budget %d " % (meter.spent - 1)), \
            node_budget(meter.spent - 1):
        LatticeBasis(rows)
    assert L.picard_cardinality() == 1


def test_large_lattices_build_at_the_default_budget():
    # the path on 200 vertices: its HNF makes 19,899 row operations, and
    # winnable makes a second HNF for the firing script
    G = Multigraph.path(200)
    assert laplacian_lattice(G).picard_cardinality() == 1
    cfg = Configuration(G, (-1,) + (0,) * 198 + (1,))
    ok, script = winnable(cfg)
    assert ok and fire_script(cfg, script).chips == (0,) * 200
