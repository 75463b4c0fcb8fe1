"""Acceptance suite: ten exact-arithmetic criteria, one test per criterion.

Every check is exact (integer or Fraction); there are no tolerances.  Each
test finishes by printing a single PASS line (run with -s to see them;
under plain pytest the per-test PASSED/FAILED verdicts carry the same
information).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rrlattice.a2 import (
    classify_a2,
    digraph_basis,
    digraph_of_basis,
    extend_family,
    is_multi_tree_lattice,
    random_a2_lattice,
)
from rrlattice.chipfire import Configuration, fire_script, winnable
from rrlattice.core import LatticeBasis, degree
from rrlattice.extremal import (
    canonical_point,
    classify,
    extremal_set_general,
    extremal_set_graphical,
    nu_of_permutation,
    reflection_pairing,
)
from rrlattice.geometry import (
    duality_probe,
    h_distance,
    sigma_contains,
    simplicial_distance,
)
from rrlattice.graphs import (
    Multigraph,
    canonical_divisor,
    laplacian_lattice,
    spanning_tree_count,
)
from rrlattice.hardness import (
    RationalSimplex,
    reduce_simplex_to_membership,
    simplex_has_integer_point,
)
from rrlattice.rank import (
    default_divisor_samples,
    rank_bruteforce,
    rank_extremal,
    verify_riemann_roch,
)

from oracles import (acyclic_orientations_unique_source, cyclic_order_count,
                     sympy_tree_count)


@pytest.fixture(scope="module")
def graph_data(corpus):
    out = []
    for name, G in corpus:
        L = laplacian_lattice(G)
        out.append((name, G, L, extremal_set_graphical(G),
                    canonical_divisor(G)))
    return out


def band_samples(L, extremal, seed, minimum=200):
    """Divisor sample with every degree inside [-g, 3g], at least minimum
    entries: all class representatives of degree 0 .. 2g-2 plus seeded
    random divisors (spread keeps them non-trivial even at genus 0)."""
    g = extremal.g_max
    samples = list(default_divisor_samples(L, extremal, seed=seed,
                                           random_count=0))
    rng = random.Random(seed + 1)
    spread = max(g, 3)
    while len(samples) < minimum + 10:
        d = rng.randint(-g, 3 * g)
        body = [rng.randint(-spread, spread) for _ in range(L.dim - 1)]
        body.append(d - sum(body))
        samples.append(tuple(body))
    return samples


def test_criterion_01_riemann_roch_bruteforce(graph_data):
    graphs = 0
    divisors = 0
    for name, G, L, ex, K in graph_data:
        g = ex.g_max
        samples = band_samples(L, ex, seed=20240817)
        assert len(samples) >= 200, name
        assert all(-g <= degree(D) <= 3 * g for D in samples), name
        report = verify_riemann_roch(L, ex, K, D_samples=samples,
                                     method="bruteforce", budget=40)
        assert report["ok"], (name, report["violations"][:3])
        assert report["checked"] == len(samples)
        graphs += 1
        divisors += report["checked"]
    print("PASS: criterion 1 - Riemann-Roch equality by brute force on "
          "%d graphs, %d divisors, 0 violations" % (graphs, divisors))


def test_criterion_02_rank_oracle_equivalence(graph_data):
    compared = 0
    for name, G, L, ex, K in graph_data:
        for D in band_samples(L, ex, seed=907):
            rb = rank_bruteforce(L, D, budget=40)
            re = rank_extremal(L, D, ex)
            assert rb.rank == re.rank, (name, D, rb.rank, re.rank)
            compared += 1
    print("PASS: criterion 2 - rank_extremal == rank_bruteforce on "
          "%d divisors, 100%% agreement" % compared)


def test_criterion_03_canonical_and_genus_formulas(graph_data):
    for name, G, L, ex, K in graph_data:
        assert ex.uniform, name
        m, n = G.edge_count, G.n
        assert ex.g_min == ex.g_max == m - n == G.genus, name
        assert canonical_point(ex, L) == \
            tuple(d - 2 for d in G.degree_sequence()), name
        assert K == tuple(d - 2 for d in G.degree_sequence()), name
        assert L.picard_cardinality() == sympy_tree_count(G), name
    m322 = Multigraph.from_edges(3, [(0, 1, 3), (0, 2, 2), (1, 2, 2)])
    ex2 = extremal_set_graphical(m322)
    assert ex2.g_min == ex2.g_max == 5
    assert canonical_point(ex2) == (3, 3, 2)
    assert laplacian_lattice(m322).picard_cardinality() == 16 \
        == spanning_tree_count(m322)
    print("PASS: criterion 3 - K = degree-2 and g = m - n on all %d "
          "graphs; reference graph gives g=5, K=(3,3,2), |Pic|=16"
          % len(graph_data))


def test_criterion_04_order_identities(graph_data):
    checked = 0
    for name, G, L, ex, K in graph_data:
        Q = G.laplacian_rows()
        delta = G.degree_sequence()
        m = G.edge_count
        for pi in itertools.permutations(range(G.vertex_count)):
            nu = nu_of_permutation(Q, pi)
            assert degree(nu) == -m, (name, pi)
            nu_bar = nu_of_permutation(Q, pi[::-1])
            assert tuple(a + b for a, b in zip(nu, nu_bar)) == \
                tuple(-d for d in delta), (name, pi)
            checked += 1
    print("PASS: criterion 4 - order-sum and degree identities hold for "
          "%d (graph, order) pairs" % checked)


def test_criterion_05_critical_class_counting(graph_data):
    for name, G, L, ex, K in graph_data:
        cc = ex.class_count
        n = G.n
        assert cc == acyclic_orientations_unique_source(G, 0), name
        assert cc == cyclic_order_count(G), name
        assert cc <= math.factorial(n), name
        complete = all(G.edge_mult[i][j] > 0
                       for i in range(G.vertex_count)
                       for j in range(i + 1, G.vertex_count))
        if complete:
            assert cc == math.factorial(n), name
    print("PASS: criterion 5 - critical class count = unique-source "
          "acyclic orientations = cyclic orders on %d graphs, with the "
          "n! bound tight exactly on complete multigraphs"
          % len(graph_data))


def test_criterion_06_a2_classification():
    rng = random.Random(20240818)
    for _ in range(100):
        L = random_a2_lattice(rng)
        rows = digraph_basis(L)
        assert all(sum(r) == 0 for r in rows)
        assert all(rows[i][i] >= 0 for i in range(3))
        assert all(rows[i][j] <= 0 for i in range(3) for j in range(3)
                   if i != j)
        assert all(sum(r[j] for r in rows) == 0 for j in range(3))
        assert LatticeBasis(rows[:2]).same_lattice(L)
        ex = extremal_set_graphical(digraph_of_basis(rows))
        t, _ = reflection_pairing(ex, L)
        assert t is not None, L.rows
        flags = classify_a2(L)
        assert flags["strong"] == (flags["critical_classes"] == 2
                                   or flags["multi_tree"]), L.rows
        assert flags["multi_tree"] == is_multi_tree_lattice(L)
    sec = LatticeBasis([(7, -7, 0), (-3, 11, -8)])
    ex = extremal_set_general(sec)
    flags = classify(ex, sec)
    assert flags["uniform"]
    assert flags["reflection_invariant"]
    assert not flags["strongly_reflection_invariant"]
    K = canonical_point(ex, sec)
    report = verify_riemann_roch(sec, ex, K,
                                 D_samples=band_samples(sec, ex, seed=3),
                                 method="extremal")
    assert report["ok"], report["violations"][:3]
    print("PASS: criterion 6 - 100 random rank-2 lattices classified "
          "(digraph basis certified, all reflection invariant, strong "
          "criterion exact); worked example is uniform, satisfies "
          "Riemann-Roch on %d divisors, not strongly invariant"
          % report["checked"])


def test_criterion_07_nongraphical_extension_chain():
    L = LatticeBasis([(2, -2, 0), (-1, 3, -2)])
    ex = extremal_set_general(L)
    K = canonical_point(ex, L)
    assert K == (0, -4, 6)
    pic = L.picard_cardinality()
    chain = [(L, ex, K)]
    for _ in range(2):
        L_prev, ex_prev, K_prev = chain[-1]
        L_up, ex_up = extend_family(L_prev, ex_prev)
        K_up = canonical_point(ex_up, L_up)
        assert K_up == K_prev + (0,)
        assert L_up.picard_cardinality() == pic
        # extremal classes lift as (v, 0), and adding the new generator q
        # stays inside the lifted class
        q = L_up.rows[-1]
        lifted = {L_up.reduce(r) for r in ex_up.representatives}
        for v in ex_prev.representatives:
            padded = v + (0,)
            assert L_up.reduce(padded) in lifted
            shifted = tuple(a + b for a, b in zip(padded, q))
            assert L_up.reduce(shifted) == L_up.reduce(padded)
        assert len(lifted) == ex_prev.class_count == ex_up.class_count
        chain.append((L_up, ex_up, K_up))
    rng = random.Random(11)
    g = ex.g_max
    for (L_lo, ex_lo, _), (L_hi, _, _) in zip(chain, chain[1:]):
        report = verify_riemann_roch(
            L_lo, ex_lo, canonical_point(ex_lo, L_lo),
            D_samples=band_samples(L_lo, ex_lo, seed=5, minimum=60),
            method="both")
        assert report["ok"], report["violations"][:3]
        for _ in range(30):
            D = [rng.randint(-g, g) for _ in range(L_lo.dim - 1)]
            D.append(rng.randint(-g, 3 * g) - sum(D))
            D = tuple(D)
            assert rank_bruteforce(L_hi, D + (0,)).rank == \
                rank_bruteforce(L_lo, D).rank, D
    top = chain[-1]
    report = verify_riemann_roch(
        top[0], top[1], top[2],
        D_samples=band_samples(top[0], top[1], seed=5, minimum=60),
        method="both")
    assert report["ok"], report["violations"][:3]
    print("PASS: criterion 7 - rank-2 family extends to 4 and 5 "
          "coordinates: K lifts by zero-padding, |Pic| stays %d, ranks "
          "agree on 30 random divisors per step, classes lift with the "
          "new generator" % pic)


def random_simplex(rng, dim):
    while True:
        verts = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(dim))
            for _ in range(dim + 1))
        try:
            return RationalSimplex(verts)
        except ValueError:
            continue


def test_criterion_08_hardness_reduction():
    rng = random.Random(20240819)
    agree = 0
    for i in range(100):
        S = random_simplex(rng, 2 + (i % 2))
        L, D = reduce_simplex_to_membership(S)
        assert simplex_has_integer_point(S) == (not sigma_contains(L, D)), \
            S.vertices
        agree += 1
    print("PASS: criterion 8 - integer feasibility matches the "
          "complement of region membership on %d random simplices in "
          "dimensions 2 and 3" % agree)


def test_criterion_09_chipfiring_semantics(graph_data):
    rng = random.Random(4242)
    for name, G, L, ex, K in graph_data:
        g = ex.g_max
        nverts = G.vertex_count
        for _ in range(4):
            chips = tuple(rng.randint(-3, 5) for _ in range(nverts))
            cfg = Configuration(G, chips)
            script = [rng.randrange(nverts) for _ in range(rng.randint(0, 6))]
            end = fire_script(cfg, script)
            assert end.degree == cfg.degree, name
            diff = tuple(a - b for a, b in zip(cfg.chips, end.chips))
            assert L.contains(diff), name
            # converse: any lattice difference is realised by a script
            coeffs = [rng.randint(-3, 3) for _ in range(L.n)] + [0]
            delta = tuple(
                sum(c * row[j] for c, row in zip(coeffs, G.laplacian_rows()))
                for j in range(nverts))
            lift = -min(coeffs)
            planned = []
            for v, c in enumerate(coeffs):
                planned.extend([v] * (c + lift))
            reached = fire_script(cfg, planned)
            assert reached.chips == tuple(
                a - b for a, b in zip(cfg.chips, delta)), name
        for _ in range(6):
            d = rng.randint(-2, g + 3)
            body = [rng.randint(-2, 3) for _ in range(nverts - 1)]
            chips = tuple(body + [d - sum(body)])
            cfg = Configuration(G, chips)
            ok, script = winnable(cfg)
            assert ok == (rank_bruteforce(L, chips).rank >= 0), (name, chips)
            if ok:
                assert fire_script(cfg, script).is_effective, (name, chips)
            if cfg.degree > g:
                assert ok, (name, chips)
    print("PASS: criterion 9 - degree conservation, script/lattice "
          "reachability, winnability == nonnegative rank, and the "
          "degree > g guarantee hold on all %d graphs" % len(graph_data))


def test_criterion_10_geometry_suite(graph_data):
    rng = random.Random(77)

    def point(dim, lo=-9, hi=9):
        body = [rng.randint(lo, hi) for _ in range(dim - 1)]
        return tuple(body + [-sum(body)])

    triples = 0
    for _ in range(1000):
        dim = rng.choice((3, 4))
        p, q, r = point(dim), point(dim), point(dim)
        dpq = simplicial_distance(p, q)
        assert dpq >= 0 and (dpq == 0) == (p == q)
        assert dpq <= simplicial_distance(p, r) + simplicial_distance(r, q)
        shift = point(dim)
        assert simplicial_distance(
            tuple(a + s for a, s in zip(p, shift)),
            tuple(b + s for b, s in zip(q, shift))) == dpq
        assert simplicial_distance(p, q, "down") == \
            simplicial_distance(q, p, "up")
        # additivity along a ray
        v = point(dim, -3, 3)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        mid = tuple(pi + a * vi for pi, vi in zip(p, v))
        far = tuple(pi + (a + b) * vi for pi, vi in zip(p, v))
        assert simplicial_distance(p, mid) + simplicial_distance(mid, far) \
            == simplicial_distance(p, far)
        triples += 1

    pts = 0
    for name, G, L, ex, K in graph_data:
        bound = Fraction(G.edge_count, G.vertex_count)
        for _ in range(100):
            body = [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                    for _ in range(L.dim - 1)]
            x = tuple(body + [-sum(body)])
            val, _ = h_distance(L, x)
            assert val <= bound, (name, x, val)
            pts += 1

    probes = 0
    for L in (laplacian_lattice(Multigraph.complete(3)),
              laplacian_lattice(Multigraph.from_edges(
                  3, [(0, 1, 3), (0, 2, 2), (1, 2, 2)]))):
        ex = extremal_set_general(L)
        cov = Fraction(ex.g_max + L.n, L.n + 1)
        samples = []
        for _ in range(40):
            body = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(2)]
            samples.append(tuple(body + [-sum(body)]))
        for t in (Fraction(0), cov / 2, cov):
            report = duality_probe(L, ex, t, samples)
            assert report["all_covered"], t
            assert not report["any_interior_overlap"], t
            probes += 1
    print("PASS: criterion 10 - distance axioms on %d triples, lattice "
          "distance bound at %d rational points, and %d covering/packing "
          "probes with full coverage and no interior overlap"
          % (triples, pts, probes))
