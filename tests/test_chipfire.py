import random
from fractions import Fraction

import pytest

from rrlattice.chipfire import (Configuration, _script_from_lattice_vector,
                                fire, fire_script, kc_minus, winnable)
from rrlattice.graphs import Multigraph, laplacian_lattice
from rrlattice.rank import rank_bruteforce


def test_configuration_validation(k3):
    with pytest.raises(ValueError):
        Configuration(k3, (1, 2))
    cfg = Configuration(k3, (3, 0, 0))
    assert cfg.degree == 3
    assert cfg.is_effective
    assert not Configuration(k3, (-1, 1, 1)).is_effective


def test_chips_must_be_integers(k3):
    # (1.5, 0, 0) was stored as (1, 0, 0), which winnable then cleared
    with pytest.raises(ValueError):
        Configuration(k3, (1.5, 0, 0))
    cfg = Configuration(k3, (2.0, Fraction(-2, 2), 0))
    assert cfg.chips == (2, -1, 0)
    assert all(type(c) is int for c in cfg.chips)


def test_fire_frozen(k3, m322):
    assert fire(Configuration(k3, (3, 0, 0)), 0).chips == (1, 1, 1)
    assert fire(Configuration(m322, (7, 0, 0)), 0).chips == (2, 3, 2)
    with pytest.raises(ValueError):
        fire(Configuration(k3, (0, 0, 0)), 3)


def test_fire_conserves_degree(k3, m322):
    rng = random.Random(47)
    for G in (k3, m322):
        chips = tuple(rng.randint(-3, 5) for _ in range(3))
        cfg = Configuration(G, chips)
        for v in range(3):
            assert fire(cfg, v).degree == cfg.degree


def test_fire_script_and_inverse(k3):
    cfg = Configuration(k3, (4, -1, 0))
    end = fire_script(cfg, [0, 0, 1])
    assert end.degree == cfg.degree
    # firing every vertex once is the identity
    assert fire_script(cfg, [0, 1, 2]).chips == cfg.chips


def test_winnable_worked_example(k3):
    cfg = Configuration(k3, (-1, 1, 1))
    ok, script = winnable(cfg)
    assert ok
    assert script == [1, 2]
    assert fire_script(cfg, script).chips == (1, 0, 0)


def test_unwinnable(k3):
    ok, script = winnable(Configuration(k3, (-1, 0, 0)))
    assert not ok and script is None


def test_kc_minus(m322):
    cfg = Configuration(m322, (1, 0, 0))
    kc = kc_minus(cfg)
    assert kc.chips == (2, 3, 2)
    assert kc_minus(kc).chips == cfg.chips


def test_winnable_iff_rank_nonnegative(small_corpus):
    rng = random.Random(53)
    for name, G in small_corpus[:8]:
        L = laplacian_lattice(G)
        g = G.genus
        for _ in range(10):
            chips = tuple(rng.randint(-2, g + 2)
                          for _ in range(G.vertex_count))
            cfg = Configuration(G, chips)
            ok, script = winnable(cfg)
            r = rank_bruteforce(L, chips).rank
            assert ok == (r >= 0), (name, chips)
            if cfg.degree > g:
                assert ok, (name, chips)
            if ok:
                end = fire_script(cfg, script)
                assert end.is_effective, (name, chips)


def test_reachability_is_lattice_difference(m322):
    L = laplacian_lattice(m322)
    rng = random.Random(59)
    cfg = Configuration(m322, (4, -1, 2))
    for _ in range(10):
        script = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        end = fire_script(cfg, script)
        diff = tuple(a - b for a, b in zip(cfg.chips, end.chips))
        assert L.contains(diff)


def test_script_counts_are_the_integer_solution(corpus):
    # _script_from_lattice_vector takes the rational solve as integral
    # without checking it: delta lies in the lattice and the reduced
    # Laplacian of a connected graph is nonsingular
    rng = random.Random(101)
    for name, G in corpus:
        rows = G.laplacian_rows()
        k = G.vertex_count
        for _ in range(5):
            fired = [rng.randint(-4, 4) for _ in range(k)]
            delta = tuple(sum(c * row[j] for c, row in zip(fired, rows))
                          for j in range(k))
            counts = _script_from_lattice_vector(G, delta)
            assert all(type(c) is int for c in counts), name
            assert min(counts) == 0, name
            assert tuple(sum(c * row[j] for c, row in zip(counts, rows))
                         for j in range(k)) == delta, name
            # unique up to the all-ones kernel
            low = min(fired)
            assert counts == [c - low for c in fired], name
