"""The three benchmark workloads: seeded inputs, queries and answer checks.

A workload is built once per episode (the set-up that ``setup_s`` times)
and then hands out rounds of queries.  Every round has the same fixed
composition, so a run that stops between rounds always measures the same
mix whatever the seed.  Queries call the library through module
attributes (``rank.rank_bruteforce``, not a name imported here), so the
tracer's wrappers see every call.

Checks run after the timed phase.  A check gets the query and its answer
and returns True when the answer is right.
"""

from __future__ import annotations

import random
from fractions import Fraction

import rrlattice.a2 as a2
import rrlattice.chipfire as chipfire
import rrlattice.core as core
import rrlattice.extremal as extremal
import rrlattice.geometry as geometry
import rrlattice.graphs as graphs
import rrlattice.rank as rank

# rank_bruteforce's default degree budget (24) is below deg(K - D) = 3g - 2
# once g >= 9; the acceptance suite passes 40 explicitly, and so do we.
RANK_BUDGET = 40


class Query:
    """One timed unit of work: ``fn(*args)`` plus what its check needs."""

    __slots__ = ("kind", "fn", "args", "expect")

    def __init__(self, kind, fn, args, expect=None):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.expect = expect

    def run(self):
        return self.fn(*self.args)


def _divisor_of_degree(rng, dim, d, g):
    """A divisor of degree d, entries spread as in the acceptance suite's
    band samples (the spread keeps genus-0 samples non-trivial)."""
    spread = max(g, 3)
    body = [rng.randint(-spread, spread) for _ in range(dim - 1)]
    body.append(d - sum(body))
    return tuple(body)


def _multigraph_of_genus(rng, k, g):
    """A random connected multigraph on k vertices with genus exactly g:
    a random spanning tree plus g random extra edges."""
    mat = [[0] * k for _ in range(k)]
    edges = [(rng.randrange(v), v) for v in range(1, k)]
    for _ in range(g):
        edges.append(tuple(rng.sample(range(k), 2)))
    for i, j in edges:
        mat[i][j] += 1
        mat[j][i] += 1
    return graphs.Multigraph(k, mat)


# -- rr_sweep ------------------------------------------------------------------


class RRSweep:
    """Riemann-Roch sweep on graph Laplacian lattices.

    Graphs: every connected simple graph on 4 and 5 vertices, labelled as
    ``connected_simple_graphs`` gives them, plus one seeded random
    multigraph of each shape in MULTIGRAPH_SHAPES (the acceptance corpus
    families: <= 4 vertices, <= 10 edges).  A round draws one divisor per
    graph; a query computes r(D) and r(K - D) both ways.

    Query cost is heavy-tailed, so the inputs are stratified to keep the
    cost of a run from swinging with the seed.  The simple graphs keep
    their labels, because the l1 kernel's cost on one graph swings by up
    to 20x with the vertex labelling.  The multigraphs have fixed (vertex
    count, genus) shapes.  The band [-g, 3g] of degrees is cut into four
    quarters, and graph j takes its degree from quarter (round + j) mod 4.
    """

    MULTIGRAPH_SHAPES = ((2, 2), (2, 5), (3, 1), (3, 3), (3, 5),
                         (4, 1), (4, 2), (4, 3), (4, 4), (4, 5))

    def __init__(self, rng):
        self.rng = rng
        gs = graphs.connected_simple_graphs(4) + graphs.connected_simple_graphs(5)
        gs += [_multigraph_of_genus(rng, k, g) for k, g in self.MULTIGRAPH_SHAPES]
        self.items = []
        for G in gs:
            L = graphs.laplacian_lattice(G)
            ex = extremal.extremal_set_graphical(G)
            self.items.append((L, ex, graphs.canonical_divisor(G), ex.g_max))
        self.made = 0

    def round(self):
        rng = self.rng
        out = []
        for j, (L, ex, K, g) in enumerate(self.items):
            quarter = (self.made + j) % 4
            d = -g + quarter * g + rng.randint(0, g)
            D = _divisor_of_degree(rng, L.dim, d, g)
            out.append(Query("rr", _rr_query, (L, ex, K, D), g))
        self.made += 1
        rng.shuffle(out)
        return out

    def check(self, q, ans):
        L, ex, K, D = q.args
        g = q.expect
        re_D, re_KD, rb_D, rb_KD = ans
        return (re_D == rb_D and re_KD == rb_KD
                and re_D - re_KD == core.degree(D) - g + 1)


def _rr_query(L, ex, K, D):
    KD = tuple(k - x for k, x in zip(K, D))
    return (
        rank.rank_extremal(L, D, ex).rank,
        rank.rank_extremal(L, KD, ex).rank,
        rank.rank_bruteforce(L, D, budget=RANK_BUDGET).rank,
        rank.rank_bruteforce(L, KD, budget=RANK_BUDGET).rank,
    )


# -- winnability -----------------------------------------------------------------


def _indeg_minus_one(G, order):
    """indeg_A - 1 for the acyclic orientation A of a vertex order: a
    maximal unwinnable configuration of degree g - 1 (Baker-Norine)."""
    pos = {v: i for i, v in enumerate(order)}
    k = G.vertex_count
    return tuple(
        sum(G.edge_mult[u][v] for u in range(k) if pos[u] < pos[v]) - 1
        for v in range(k)
    )


class Winnability:
    """Chip-firing winnability and definition-based rank on graphs.

    A round holds, for seeded vertex orders of K7, K8 and K9 (COMPLETE
    gives how many of each), the configuration indeg - 1 of each order
    (unwinnable) and the same plus one chip (winnable); random chip
    vectors on seeded multigraphs (<= 5 vertices, <= 14 edges); and
    definition-based rank queries, r(D) and r(K - D) by rank_bruteforce,
    for D in the band 0 <= deg D <= 2g - 2 of multigraphs of genus 6 and 8.

    The counts per round put the median query among the unwinnable K7
    queries, whose cost varies least.  With more of the cheap chip-vector
    and rank queries, the median would fall where their cost range meets
    the winnable K7 queries', and swing with the seed.
    """

    COMPLETE = ((7, 3), (8, 2), (9, 1))  # (vertex count, orders per round)
    CHIP_GRAPHS = 6
    CHIPS_PER_ROUND = 1
    # (vertex count, genus) of the rank-sweep multigraphs; fixed shapes
    # keep the cost of a round from swinging with the seed
    RANK_SHAPES = ((4, 6), (4, 8), (5, 6), (5, 8))
    RANKS_PER_ROUND = 4

    def __init__(self, rng):
        self.rng = rng
        self.complete = [(graphs.Multigraph.complete(n), per)
                         for n, per in self.COMPLETE]
        self.chip_graphs = [graphs.random_connected_multigraph(rng, 5, 14)
                            for _ in range(self.CHIP_GRAPHS)]
        self.rank_items = []
        for k, g in self.RANK_SHAPES:
            G = _multigraph_of_genus(rng, k, g)
            self.rank_items.append((graphs.laplacian_lattice(G),
                                    graphs.canonical_divisor(G), g))

    def round(self):
        rng = self.rng
        out = []
        for G, per in self.complete:
            for _ in range(per):
                order = list(range(G.vertex_count))
                rng.shuffle(order)
                chips = _indeg_minus_one(G, order)
                out.append(Query("unwinnable", _win_query,
                                 (chipfire.Configuration(G, chips),), False))
                plus = list(chips)
                plus[rng.randrange(G.vertex_count)] += 1
                out.append(Query("winnable", _win_query,
                                 (chipfire.Configuration(G, plus),), True))
        for _ in range(self.CHIPS_PER_ROUND):
            G = rng.choice(self.chip_graphs)
            chips = tuple(rng.randint(-3, 5) for _ in range(G.vertex_count))
            out.append(Query("chips", _win_query,
                             (chipfire.Configuration(G, chips),)))
        for _ in range(self.RANKS_PER_ROUND):
            L, K, g = rng.choice(self.rank_items)
            D = _divisor_of_degree(rng, L.dim, rng.randint(0, 2 * g - 2), g)
            out.append(Query("rank", _rank_query, (L, K, D), g))
        rng.shuffle(out)
        return out

    def check(self, q, ans):
        if q.kind == "rank":
            L, K, D = q.args
            r_D, r_KD = ans
            return r_D - r_KD == core.degree(D) - q.expect + 1
        cfg, = q.args
        ok, script = ans
        if ok and not chipfire.fire_script(cfg, script).is_effective:
            return False
        if q.expect is not None and ok != q.expect:
            return False
        return ok == _dhar_winnable(cfg.graph.edge_mult, cfg.chips)


def _dhar_winnable(mult, chips, q=0):
    """Winnability by q-reduction with Dhar's burning algorithm, a route
    independent of the library's coset search: a divisor is winnable
    exactly when its q-reduced form is nonnegative at q (Baker-Norine).

    First every vertex but q is brought out of debt, farthest first:
    firing all vertices closer to q than BFS distance k moves chips only
    along the edges from distance k - 1 to distance k.  Then, while
    Dhar's fire from q leaves an unburnt set, that set fires.
    """
    k = len(mult)
    D = list(chips)
    dist = {q: 0}
    frontier = [q]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(k):
                if mult[u][v] and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    for level in range(max(dist.values()), 0, -1):
        while min(D[v] for v in range(k) if dist[v] == level) < 0:
            _fire(mult, D, [v for v in range(k) if dist[v] < level])
    while True:
        burnt = {q}
        grew = True
        while grew:
            grew = False
            for v in range(k):
                if v not in burnt and sum(mult[v][u] for u in burnt) > D[v]:
                    burnt.add(v)
                    grew = True
        if len(burnt) == k:
            return D[q] >= 0
        _fire(mult, D, [v for v in range(k) if v not in burnt])


def _fire(mult, D, group):
    """Fire every vertex of group once: chips cross the cut only."""
    inside = set(group)
    for u in group:
        for v in range(len(mult)):
            if v not in inside and mult[u][v]:
                D[u] -= mult[u][v]
                D[v] += mult[u][v]


def _win_query(cfg):
    return chipfire.winnable(cfg)


def _rank_query(L, K, D):
    KD = tuple(k - x for k, x in zip(K, D))
    return (rank.rank_bruteforce(L, D, budget=RANK_BUDGET).rank,
            rank.rank_bruteforce(L, KD, budget=RANK_BUDGET).rank)


# -- lattice_scan ----------------------------------------------------------------


def _rank3_lattice(rng, lo, hi, span=3):
    """A random rank-3 lattice of index in [lo, hi); entries of the
    zero-sum basis rows lie in [-span, span]."""
    while True:
        rows = []
        for _ in range(3):
            body = [rng.randint(-span, span) for _ in range(3)]
            rows.append(tuple(body + [-sum(body)]))
        try:
            L = core.LatticeBasis(rows)
        except ValueError:
            continue
        if lo <= L.picard_cardinality() < hi:
            return L


def _rank2_lattice(rng, lo, hi):
    """A random_a2_lattice of index in [lo, hi)."""
    while True:
        L = a2.random_a2_lattice(rng)
        if lo <= L.picard_cardinality() < hi:
            return L


def _degree0_point(rng, dim):
    body = [Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            for _ in range(dim - 1)]
    return tuple(body + [-sum(body)])


class LatticeScan:
    """Bare lattices with no graph behind them.

    A round holds one rank-2 lattice (``random_a2_lattice``) from each
    index stratum in RANK2_STRATA and one rank-3 lattice from each stratum
    in RANK3_STRATA, each rank-3 lattice with H_POINTS seeded rational
    degree-0 points for h_distance.  Stratifying by index keeps the cost
    of a round from swinging with the seed, since scan cost grows with the
    index.  Rank-2 lattices put the time in the scan and rank-3 lattices
    in h_distance.  With twice as many rank-2 lattices, the scan takes
    about two thirds of the time and h_distance about a quarter, and the
    median query is a rank-2 one, not a sample from the gap between the
    two cost ranges.  The lattices for
    POOL_ROUNDS rounds are built during set-up.
    """

    RANK2_STRATA = ((12, 18), (18, 24), (24, 30), (30, 36), (36, 42), (42, 48))
    RANK3_STRATA = ((12, 22), (22, 32), (32, 44))
    H_POINTS = 8
    POOL_ROUNDS = 12

    def __init__(self, rng):
        self.rng = rng
        self.pool = [self._make_round_inputs() for _ in range(self.POOL_ROUNDS)]
        self.next = 0

    def _make_round_inputs(self):
        rng = self.rng
        out = [("a2", _rank2_lattice(rng, lo, hi), ()) for lo, hi in self.RANK2_STRATA]
        for lo, hi in self.RANK3_STRATA:
            L = _rank3_lattice(rng, lo, hi)
            pts = tuple(_degree0_point(rng, L.dim) for _ in range(self.H_POINTS))
            out.append(("a3", L, pts))
        return out

    def round(self):
        if self.next < len(self.pool):
            inputs = self.pool[self.next]
        else:
            # a program fast enough to exhaust the pool gets fresh
            # lattices, built outside the timed region
            inputs = self._make_round_inputs()
        self.next += 1
        out = [Query(kind, _scan_query, (L, pts)) for kind, L, pts in inputs]
        self.rng.shuffle(out)
        return out

    def check(self, q, ans):
        L, pts = q.args
        ex, flags, K, a2_flags, hs = ans
        cc = ex.class_count
        if flags["reflection_invariant"] != (K is not None):
            return False
        if L.n == 2:
            if not flags["reflection_invariant"]:
                return False  # every rank-2 lattice is reflection invariant
            if a2_flags["critical_classes"] != cc:
                return False
            if a2_flags["strong"] != (cc == 2 or a2_flags["multi_tree"]):
                return False
        cov = Fraction(ex.g_max + L.n, L.n + 1)
        for x, (h, nearest) in zip(pts, hs):
            if not L.contains(nearest) or h > cov:
                return False
            if h != max(a - b for a, b in zip(x, nearest)):
                return False
        return True


def _scan_query(L, pts):
    ex = extremal.extremal_set_general(L)
    flags = extremal.classify(ex, L)
    K = extremal.canonical_point(ex, L) if flags["reflection_invariant"] else None
    a2_flags = a2.classify_a2(L) if L.n == 2 else None
    hs = [geometry.h_distance(L, x) for x in pts]
    return ex, flags, K, a2_flags, hs


WORKLOADS = {
    "rr_sweep": RRSweep,
    "winnability": Winnability,
    "lattice_scan": LatticeScan,
}


def build(name, seed, episode):
    """Set up a workload; inputs depend only on (name, seed, episode)."""
    rng = random.Random("%s:%d:%d" % (name, seed, episode))
    return WORKLOADS[name](rng)
