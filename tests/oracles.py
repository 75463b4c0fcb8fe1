"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the dumb way (exhaustive box
scans, sympy normal forms, closed-form loops, orientation and order
enumeration) and shares no code with
src/rrlattice beyond the input types, except the earlier forms of twelve
library algorithms kept as references (is_extremal_linf,
rank_bruteforce_ascending, extremal_set_band_scan,
extremal_set_descending_scan, extremal_set_all_orders,
reflections_fractional_part,
canonical_point_by_members, pairing_is_exact_by_members,
script_counts_rational, voronoi_cell_vertices_fraction,
classify_by_fraction_cell and tree_edge_order_by_coords), which run on
the library's own kernels.
Expected values frozen into the unit tests were produced by these
routines.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import sympy
from sympy.matrices.normalforms import hermite_normal_form, \
    smith_normal_form


def lattice_member(rows, v):
    """Exact membership of v in the integer row span, via sympy."""
    M = sympy.Matrix([list(r) for r in rows]).T
    b = sympy.Matrix([list(v)]).T
    try:
        sol, params = M.gauss_jordan_solve(b)
    except ValueError:
        return False
    if params.rows:
        sol = sol.subs({p: 0 for p in params})
    return all(x.is_integer for x in sol)


def element_order_scan(rows, v):
    """Least t >= 1 with t*v in the row span, by trying t = 1, 2, ... up
    to the index; None if none works.  The rows are zero-sum, so the index
    is |det| of the rows without their last column."""
    index = sympy_index(rows)
    for t in range(1, index + 1):
        if index % t == 0 and lattice_member(rows, [t * x for x in v]):
            return t
    return None


def absorb_one_step(b0, b1, a, b, max_steps=100_000):
    """Cone normalisation one vector addition at a time.

    b0 lies in cone C_a and b1 in C_b, where C_i holds the zero-sum
    vectors with coordinate i >= 0 and the other two <= 0.  Replace b0 or
    b1 by s = b0 + b1, whichever cone s falls in, until -s lies in the
    third cone.  The step count grows with the ratio of the two lengths.
    """
    def in_cone(v, i):
        return v[i] >= 0 and all(v[j] <= 0 for j in range(3) if j != i)

    for _ in range(max_steps):
        s = tuple(x + y for x, y in zip(b0, b1))
        if in_cone(tuple(-x for x in s), 3 - a - b):
            return b0, b1
        if in_cone(s, a):
            b0 = s
        elif in_cone(s, b):
            b1 = s
        else:
            raise RuntimeError("b0+b1 escaped the three admissible cones")
    raise RuntimeError("cone normalisation did not terminate")


def certify_digraph_basis(lattice_rows, rows):
    """Raise AssertionError unless rows is a digraph basis of the lattice.

    A digraph basis of a rank-2 lattice is three zero-sum rows with zero
    column sums, row i in cone C_i (coordinate i > 0, the other two
    <= 0, so a Laplacian row), whose first two rows generate the lattice:
    equal index, and each of them a member.
    """
    assert len(rows) == 3 and all(len(r) == 3 for r in rows), rows
    assert all(sum(r) == 0 for r in rows), "rows must be zero-sum"
    assert tuple(sum(col) for col in zip(*rows)) == (0, 0, 0), \
        "columns must sum to zero"
    for i, r in enumerate(rows):
        assert r[i] > 0 and all(r[j] <= 0 for j in range(3) if j != i), \
            "row %d = %r is not a Laplacian row in cone C_%d" % (i, r, i)
    assert sympy_index(rows[:2]) == sympy_index(lattice_rows), \
        "rows span a lattice of another index"
    assert all(lattice_member(lattice_rows, r) for r in rows[:2]), \
        "rows do not lie in the lattice"


def sympy_hnf(rows):
    M = sympy.Matrix([list(r) for r in rows])
    H = hermite_normal_form(M.T)
    return H.T.tolist()


def sympy_index(rows):
    """|det| of the zero-sum rows without their last column: the index of
    their span inside the zero-sum lattice."""
    return abs(int(sympy.Matrix([list(r[:-1]) for r in rows]).det()))


def sympy_tree_count(G):
    """Spanning trees of G by the matrix-tree theorem: the determinant of
    the Laplacian without its first row and column."""
    Q = G.laplacian_rows()
    return int(sympy.Matrix([list(r[1:]) for r in Q[1:]]).det())


def sympy_rank(rows):
    return sympy.Matrix([list(r) for r in rows]).rank()


def sympy_invariant_factors(rows):
    M = sympy.Matrix([list(r) for r in rows])
    # drop the forced zero column (rows sum to 0) to make M square
    S = smith_normal_form(M[:, :-1])
    diag = [int(S[i, i]) for i in range(min(S.shape))]
    return [abs(d) for d in diag if d not in (0, 1)]


def coset_points_in_box(rows, base, lo, hi):
    """All points of base + rowspan inside the box, by scanning integer
    coefficient vectors (coefficients bounded via the box diameter)."""
    n = len(rows)
    dim = len(base)
    width = max(h - l for l, h in zip(lo, hi)) + max(
        abs(x) for x in base) + 1
    growth = max(max(abs(x) for x in r) for r in rows)
    bound = width * n * growth + 1
    # crude but safe coefficient bound for the tiny instances we scan
    bound = min(bound, 40)
    out = []
    for coeffs in product(range(-bound, bound + 1), repeat=n):
        p = list(base)
        for c, r in zip(coeffs, rows):
            if c:
                for i in range(dim):
                    p[i] += c * r[i]
        if all(l <= x <= h for l, x, h in zip(lo, p, hi)):
            out.append(tuple(p))
    return sorted(set(out))


def coset_points_in_box_pointwise(rows, base, lo, hi):
    """All points of base + rowspan inside the box, by scanning the box.

    base may be rational.  Every integer zero-sum p with base + p in the
    box is tested for membership: p lies in the row span exactly when its
    coefficients p[:n] * M^-1 are integers, M being the square block of
    the first n columns of the rows.  The cost is the box volume, not a
    coefficient range, so rank-4 lattices stay cheap.
    """
    n = len(rows)
    M = sympy.Matrix([list(r[:n]) for r in rows])
    det = int(M.det())
    adj = [[int(x) for x in row] for row in M.adjugate().tolist()]
    ranges = [range(math.ceil(Fraction(l) - Fraction(b)),
                    math.floor(Fraction(h) - Fraction(b)) + 1)
              for l, b, h in zip(lo, base, hi)]
    out = []
    for head in product(*ranges[:n]):
        last = -sum(head)
        if last not in ranges[n]:
            continue
        p = head + (last,)
        if not all(sum(p[i] * adj[i][j] for i in range(n)) % det == 0
                   for j in range(n)):
            continue
        out.append(tuple(Fraction(b) + x for b, x in zip(base, p)))
    return sorted(out)


def naive_effective_in_coset(rows, D, coeff_bound=10):
    """Some point >= 0 in D + rowspan, by scanning coefficients."""
    n = len(rows)
    dim = len(D)
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        p = list(D)
        for c, r in zip(coeffs, rows):
            if c:
                for i in range(dim):
                    p[i] += c * r[i]
        if all(x >= 0 for x in p):
            return tuple(p)
    return None


def naive_sigma_contains(rows, D, coeff_bound=10):
    """D in Sigma(L) iff no lattice point dominates D."""
    n = len(rows)
    dim = len(D)
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        p = [0] * dim
        for c, r in zip(coeffs, rows):
            if c:
                for i in range(dim):
                    p[i] += c * r[i]
        if all(a >= b for a, b in zip(p, D)):
            return False
    return True


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def naive_rank(rows, D, coeff_bound=10, cap=20):
    """Divisor rank by definition: largest s such that |D - E| is
    nonempty for every effective E of degree s."""
    dim = len(D)
    if naive_effective_in_coset(rows, D, coeff_bound) is None:
        return -1
    s = 0
    while s <= cap:
        for E in _compositions(s + 1, dim):
            shifted = tuple(d - e for d, e in zip(D, E))
            if naive_effective_in_coset(rows, shifted, coeff_bound) is None:
                return s
        s += 1
    raise RuntimeError("rank exceeded the oracle cap")


def rank_bruteforce_ascending(L, D, budget=24):
    """rank_bruteforce as it was written first, on the library's
    linear_system_nonempty: enumerate effective E by ascending degree
    s = 0, 1, ... and return s - 1 at the first E with |D - E| empty;
    that E is the witness.  Every level below the rank is scanned in
    full."""
    from operator import sub

    from rrlattice.core import BudgetExceeded, as_divisor, degree
    from rrlattice.rank import (RankResult, _compositions,
                                linear_system_nonempty)

    D = as_divisor(D, L.dim)
    d = degree(D)
    if d > budget:
        raise BudgetExceeded(
            "rank_bruteforce: degree %d exceeds budget %d" % (d, budget)
        )
    rD = L.reduce(D)
    for s in range(d + 1):
        for E in _compositions(s, L.dim):
            ok, _ = linear_system_nonempty(L, tuple(map(sub, rD, E)))
            if not ok:
                return RankResult(rank=s - 1, witness=E, method="bruteforce")
    # every E of degree deg(D) + 1 leaves a negative degree, so the first
    # of them, (0, ..., 0, s), is the witness
    s = max(d + 1, 0)
    return RankResult(rank=s - 1, witness=(0,) * (L.dim - 1) + (s,),
                      method="bruteforce")


def script_counts_rational(G, delta):
    """Firing counts c with sum_i c_i * row_i(Q) = delta, min count zero,
    as chipfire first found them: the last count pinned to zero and the
    reduced Laplacian system solved over the rationals by the library's
    solve_rational.  The solution must be integral, as delta lies in the
    lattice."""
    from rrlattice.core import solve_rational

    k = G.vertex_count
    rows = G.laplacian_rows()
    M = [[rows[j][i] for j in range(k - 1)] for i in range(k - 1)]
    sol = solve_rational(M, delta[:k - 1])
    if any(x.denominator != 1 for x in sol):
        raise ValueError("delta %r is not in the Laplacian lattice" % (delta,))
    counts = [int(x) for x in sol] + [0]
    low = min(counts)
    return [c - low for c in counts]


def naive_h_distance(rows, q, coeff_bound=6):
    """min over lattice points p of max_j (q_j - p_j), scanned."""
    n = len(rows)
    dim = len(q)
    best = None
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        p = [0] * dim
        for c, r in zip(coeffs, rows):
            if c:
                for i in range(dim):
                    p[i] += c * r[i]
        d = max(Fraction(qq) - pp for qq, pp in zip(q, p))
        if best is None or d < best:
            best = d
    return best


def nu_closed_form(rows, order):
    """nu of an order via the closed form: the entry at order[k] is the
    sum of the Laplacian entries q[order[i]][order[k]], i < k (those
    entries are minus the arc multiplicities, so this accumulates minus
    the flow into order[k] from the earlier vertices)."""
    dim = len(order)
    nu = [0] * dim
    for k in range(dim):
        j = order[k]
        nu[j] = sum(rows[order[i]][j] for i in range(k))
    return tuple(nu)


def tropical_nu_degree(rows, order):
    """deg nu via min-plus style accumulation, an independent route."""
    return sum(nu_closed_form(rows, order))


def reflections_all_pairs(points, canon):
    """Every t with -P = P + t, sorted, each with its class pairing.

    points are the canonical forms of the set P and canon maps a point to
    its canonical form (L.fractional_part for classes modulo L).  Tries
    all len(points)**2 candidates t = canon(-(p_a + p_b)), compares whole
    shifted sets, and then builds the index map and checks that it is an
    involution.
    """
    neg_set = {canon(tuple(-x for x in c)) for c in points}
    candidates = {canon(tuple(-(a + b) for a, b in zip(ca, cb)))
                  for ca in points for cb in points}
    index_of = {c: i for i, c in enumerate(points)}
    out = []
    for t in sorted(candidates):
        shifted = {canon(tuple(a + b for a, b in zip(c, t))) for c in points}
        if shifted != neg_set:
            continue
        pairing = {}
        for i, c in enumerate(points):
            j = index_of.get(canon(tuple(-(a + b) for a, b in zip(c, t))))
            if j is None:
                break
            pairing[i] = j
        else:
            if all(pairing[pairing[i]] == i for i in pairing):
                out.append((t, pairing))
    return out


def reflections_fractional_part(extremal):
    """Every (t, pairing) with -Crit = Crit + t modulo the lattice, sorted
    by t: the reflection search on L.fractional_part canonical forms.

    Every valid t carries -p_0 onto some p_q, so only the candidates
    t = frac(-(p_0 + p_q)) are tried, each by mapping every point; each
    canonical form is a Fraction pass through L.coords.
    """
    frac = extremal.lattice.fractional_part
    points = [frac(c) for c in extremal.critical_points()]
    index_of = {p: i for i, p in enumerate(points)}
    out = []
    for q in points:
        t = frac(tuple(-(a + b) for a, b in zip(points[0], q)))
        pairing = {}
        for i, p in enumerate(points):
            j = index_of.get(frac(tuple(-(a + b) for a, b in zip(p, t))))
            if j is None:
                break
            pairing[i] = j
        else:
            out.append((t, pairing))
    out.sort(key=lambda entry: entry[0])
    return out


def extremal_set_all_orders(G):
    """The order enumeration over all k! orders, with no budget: the
    library's extremal_set_graphical before it read each order as a
    rotation of one that starts at vertex 0.

    Every order vector (plus all-ones) is grouped by class, the least one
    met becomes the representative, and a digraph's classes are filtered
    by is_extremal.
    """
    from rrlattice.extremal import ExtremalClass, ExtremalSet
    from rrlattice.geometry import is_extremal
    from rrlattice.graphs import Multigraph, laplacian_lattice

    Q = G.laplacian_rows()
    L = laplacian_lattice(G)
    least = {}
    for order in permutations(range(G.vertex_count)):
        v = tuple(a + 1 for a in nu_closed_form(Q, order))
        key = L.reduce(v)
        if key not in least or v < least[key]:
            least[key] = v
    classes = tuple(ExtremalClass(v, sum(v)) for v in sorted(least.values()))
    if isinstance(G, Multigraph):
        source = "graphical"
    else:
        classes = tuple(c for c in classes
                        if is_extremal(L, c.representative))
        source = "digraph"
    return ExtremalSet(lattice=L, classes=classes, source=source,
                       q_rows=tuple(tuple(r) for r in Q))


def order_class_members(G, extremal):
    """The member lists an order enumeration keeps: every order vector
    (plus all-ones) of G that falls in a class of extremal, sorted, one
    tuple per class in extremal's class order."""
    Q = G.laplacian_rows()
    L = extremal.lattice
    index_of = {L.reduce(c.representative): i
                for i, c in enumerate(extremal.classes)}
    members = [set() for _ in extremal.classes]
    for order in permutations(range(G.vertex_count)):
        v = tuple(a + 1 for a in nu_closed_form(Q, order))
        i = index_of.get(L.reduce(v))
        if i is not None:
            members[i].add(v)
    return tuple(tuple(sorted(m)) for m in members)


def canonical_point_by_members(extremal, members):
    """The canonical point as the most frequent exact member sum.

    members[i] lists known vectors of class i.  Each class is paired with
    its reflection partner, the pairs of maximal degree sum are kept, and
    K = -(most frequent member sum) over those pairs, ties broken by the
    lexicographically least sum; ValueError when no reflection exists.
    """
    best = None
    for _, pairing in extremal._reflection_list:
        pair_degree = {
            i: extremal.classes[i].degree + extremal.classes[pairing[i]].degree
            for i in pairing
        }
        top = max(pair_degree.values())
        counter = {}
        for i, j in pairing.items():
            if pair_degree[i] != top:
                continue
            for a in members[i]:
                for b in members[j]:
                    s = tuple(x + y for x, y in zip(a, b))
                    counter[s] = counter.get(s, 0) + 1
        for s, cnt in counter.items():
            key = (-cnt, s)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("lattice is not reflection invariant; no pairing")
    return tuple(-x for x in best[1])


def pairing_is_exact_by_members(members, pairing, K):
    """True when every paired class has known members summing exactly to
    -K."""
    target = tuple(-x for x in K)
    return all(
        any(tuple(x + y for x, y in zip(a, b)) == target
            for a in members[i] for b in members[j])
        for i, j in pairing.items())


def strongly_invariant_all_pairs(vertex_set):
    """-V = V + t exactly for some t, trying every t = -(u + w), u, w in V."""
    neg = {tuple(-x for x in v) for v in vertex_set}
    for u in sorted(vertex_set):
        for w in sorted(vertex_set):
            t = tuple(-(a + b) for a, b in zip(u, w))
            if {tuple(a + b for a, b in zip(v, t)) for v in vertex_set} == neg:
                return True
    return False


def voronoi_cell_vertices_fraction(L, extremal, q_rows=None):
    """The Voronoi cell walk in Fraction arithmetic, unscaled, over all k!
    orders and with no budget: the library's voronoi_cell_vertices before
    it ran on the cell scaled by k = dim and on the rooted orders only.

    Read off the simplicial decomposition induced by the zero-sum
    generator family q_rows: every order of the generators spans a
    simplex of partial sums, and when the order's min-vector is extremal
    its critical point belongs to the cells of exactly those partial
    sums.  Collecting the translates by the negated partial sums yields
    the vertices incident to the origin.
    """
    import itertools

    from rrlattice.core import project_H0
    from rrlattice.extremal import _resolve_q_rows

    if q_rows is None:
        q_rows = _resolve_q_rows(L, extremal)
    if q_rows is None:
        raise ValueError(
            "no generator family available; supply q_rows for rank > 2 scans"
        )
    k = L.dim
    if len(q_rows) != k or any(len(r) != k for r in q_rows):
        raise ValueError("q_rows must be %d vectors of length %d" % (k, k))
    if any(sum(r) != 0 for r in q_rows):
        raise ValueError("q_rows must be zero-sum")
    if tuple(sum(col) for col in zip(*q_rows)) != (0,) * k:
        raise ValueError("q_rows must have zero column sums")
    for r in q_rows:
        if not L.contains(r):
            raise ValueError("q_rows entry %r is not a lattice vector" % (r,))
    keys = {L.reduce(cls.representative): cls for cls in extremal.classes}
    reached = set()
    one = (1,) * k
    out = set()
    for order in itertools.permutations(range(k)):
        nu = nu_closed_form(q_rows, order)
        key = L.reduce(tuple(a + b for a, b in zip(nu, one)))
        cls = keys.get(key)
        if cls is None:
            continue
        reached.add(key)
        h = Fraction(k - cls.degree, k)
        c = project_H0(nu)
        partial = [0] * k
        for step in range(k):
            vertex = tuple(ci - pi for ci, pi in zip(c, partial))
            if max(vertex) != h:
                raise ValueError("a partial sum of q_rows is not tight at "
                                 "the order of class %r"
                                 % (cls.representative,))
            out.add(vertex)
            row = q_rows[order[step]]
            for j in range(k):
                partial[j] += row[j]
    for key, cls in keys.items():
        if key not in reached:
            raise ValueError("no order of q_rows reaches class %r"
                             % (cls.representative,))
    return frozenset(out)


def classify_by_fraction_cell(extremal, L=None):
    """The library's classify before its strong test ran in integers: a
    translation search on the Fraction vertices V of
    voronoi_cell_vertices_fraction.  A valid t carries -min(V) onto some
    w in V, so the len(V) candidates t = -(min(V) + w) are tried, each by
    mapping every vertex.  (reflections_all_pairs would try len(V)**2
    candidates, too many for the 5,040 vertices of K7's cell.)"""
    from rrlattice.extremal import _basis, _resolve_q_rows

    L = _basis(extremal, L)
    refl = extremal._reflection_list
    t = refl[0][0] if refl else None
    strong = False  # strongly invariant implies reflection invariant
    if t is not None:
        q_rows = _resolve_q_rows(L, extremal)
        if q_rows is None:
            strong = None
        else:
            cell = voronoi_cell_vertices_fraction(L, extremal, q_rows=q_rows)
            low = min(cell)
            for w in sorted(cell):
                shift = tuple(-(a + b) for a, b in zip(low, w))
                if all(tuple(-(a + b) for a, b in zip(v, shift)) in cell
                       for v in cell):
                    strong = True
                    break
    return {
        "uniform": extremal.uniform,
        "reflection_invariant": t is not None,
        "strongly_reflection_invariant": strong,
        "t": t,
    }


def tree_edge_order_by_coords(L, v):
    """Least t >= 1 with t*v in L: the lcm of the denominators of v's
    Fraction coordinates over the HNF rows (L.coords)."""
    return math.lcm(*(c.denominator for c in L.coords(v)))


def sigma_contains_box(rows, D):
    """D in Sigma(L) iff no lattice point p >= D.  Such a p has degree 0,
    so it lies in the box D_i <= p_i <= D_i - deg(D), which is scanned
    point by point."""
    d = sum(D)
    if d > 0:
        return True
    return not coset_points_in_box_pointwise(
        rows, (0,) * len(D), D, [x - d for x in D])


def is_minimal_in_sigma(rows, v):
    """v in Sigma and no v - e_i in Sigma, by box scans."""
    if not sigma_contains_box(rows, v):
        return False
    return not any(
        sigma_contains_box(rows, tuple(x - (j == i) for j, x in enumerate(v)))
        for i in range(len(v)))


def is_extremal_linf(L, v):
    """The l-infinity test that served as the library's extremality test,
    on the library's sigma_contains: v in Sigma and no neighbour v + off,
    off in {-1, 0, 1}^(n+1) of negative sum, in Sigma.  It accepts only minimal elements of Sigma,
    but it rejects some of them (a neighbour off the axes can lie in
    Sigma while no v - e_i does)."""
    from rrlattice.geometry import sigma_contains

    if not sigma_contains(L, v):
        return False
    for off in product((-1, 0, 1), repeat=len(v)):
        if sum(off) >= 0:
            continue
        if sigma_contains(L, tuple(a + b for a, b in zip(v, off))):
            return False
    return True


def _covering_upper_bound(L):
    """A sound upper bound on the covering radius of L.

    Corner bound: every point translates into the fundamental
    parallelepiped of the HNF rows, and the distance to the origin at any
    point of that parallelepiped is at most the max over its corners of
    the max coordinate (convexity of the max).  Independently, the index
    V of L makes V * (full zero-sum lattice) a sub-lattice of L, whose
    covering radius is V*n/(n+1).
    """
    n = L.n
    best = Fraction(0)
    for subset in product((0, 1), repeat=n):
        corner = [0] * L.dim
        for take, row in zip(subset, L.hnf):
            if take:
                for j in range(L.dim):
                    corner[j] += row[j]
        best = max(best, Fraction(max(corner)))
    index_bound = Fraction(L.picard_cardinality() * n, n + 1)
    return min(best, index_bound)


def extremal_set_band_scan(L):
    """The degree-band scan that served as the library's bare-lattice
    extremal enumeration, on the library's is_extremal.

    Any minimal element of Sigma has degree in [1 - g_upper, n]: its
    degree is (n+1)(1 - h) for the height h of the matching critical
    point, with 1/(n+1) <= h <= Cov(L), and g_upper = (n+1)*Cov_ub - n for
    a sound covering bound Cov_ub.  Scanning one canonical representative
    per class and degree decides everything, since minimality is
    invariant under lattice translation.  The index times band-width
    class tests are charged to the active node_budget block before the
    scan.
    """
    from rrlattice.core import BudgetExceeded, _charge
    from rrlattice.extremal import ExtremalSet, _group_into_classes
    from rrlattice.geometry import is_extremal

    if L.n > 3:
        raise BudgetExceeded("general extremal scan is limited to n <= 3")
    cov_ub = _covering_upper_bound(L)
    g_upper = (L.n + 1) * cov_ub - L.n
    floor = 1 - int(g_upper)
    tests = L.picard_cardinality() * (L.n - floor + 1)
    _charge("extremal scan: %d class tests" % tests, tests)
    found = []
    for d in range(L.n, floor - 1, -1):
        for rep in L.class_representatives(d):
            if is_extremal(L, rep):
                found.append(rep)
    if not found:
        raise RuntimeError("scan found no extremal classes; bound bug?")
    classes = _group_into_classes(L, found)
    return ExtremalSet(lattice=L, classes=classes, source="scan")


def extremal_set_descending_scan(L):
    """The descending degree scan that served as the library's bare-lattice
    extremal enumeration, testing each kept representative with the
    library's is_extremal.

    Every point of positive degree is in Sigma, and a minimal v needs
    every v - e_i outside it, so an extremal point has degree at most 1.
    Sigma is a union of classes (D is in it exactly when the class of -D
    holds no effective divisor) and is closed upwards, so once a degree
    level holds no point of Sigma no lower level does.  The scan therefore
    walks the levels d = 1, 0, -1, ... with one canonical representative
    per class, keeps the representatives in Sigma, tests those for
    minimality (invariant under lattice translation), and stops at the
    first level with none in Sigma, which is level -g_max.  Each level
    charges its index many class tests, before it is walked, to one
    node_budget block that the walks share.
    """
    import itertools

    from rrlattice.core import _charge, node_budget
    from rrlattice.extremal import ExtremalSet, _group_into_classes
    from rrlattice.geometry import is_extremal, sigma_contains

    index = L.picard_cardinality()
    found = []
    with node_budget():
        for d in itertools.count(1, -1):
            _charge("extremal scan: %d class tests" % index, index)
            level = [rep for rep in L.class_representatives(d)
                     if sigma_contains(L, rep)]
            if not level:
                break
            found.extend(rep for rep in level if is_extremal(L, rep))
    if not found:
        raise RuntimeError("scan found no extremal classes; lattice input "
                           "invalid?")
    classes = _group_into_classes(L, found)
    return ExtremalSet(lattice=L, classes=classes, source="scan")


def canonical_edge_key(k, edges):
    """The least relabelling of an edge set: the isomorphism class key."""
    best = None
    for perm in permutations(range(k)):
        key = tuple(sorted(tuple(sorted((perm[i], perm[j])))
                           for i, j in edges))
        if best is None or key < best:
            best = key
    return best


def connected_simple_graphs_by_key(k):
    """Edge matrices of the connected simple graphs on k vertices, one per
    isomorphism class: the first edge set of each class, walking edge
    sets by size and then in itertools.combinations order, with the class
    decided by canonical_edge_key."""
    pairs = list(combinations(range(k), 2))
    seen = set()
    out = []
    for r in range(k - 1, len(pairs) + 1):
        for subset in combinations(pairs, r):
            adj = {i: set() for i in range(k)}
            for i, j in subset:
                adj[i].add(j)
                adj[j].add(i)
            reach, stack = {0}, [0]
            while stack:
                for w in adj[stack.pop()] - reach:
                    reach.add(w)
                    stack.append(w)
            if len(reach) < k:
                continue
            key = canonical_edge_key(k, subset)
            if key in seen:
                continue
            seen.add(key)
            mat = [[0] * k for _ in range(k)]
            for i, j in subset:
                mat[i][j] = mat[j][i] = 1
            out.append(tuple(tuple(row) for row in mat))
    return out


def acyclic_orientations_unique_source(G, source=0):
    """Acyclic orientations whose only in-degree-0 vertex is `source`.

    Parallel edges must share a direction in any acyclic orientation, so
    the count only depends on the simple support of G.
    """
    from rrlattice.core import BudgetExceeded

    k = G.vertex_count
    edges = [(i, j) for i, j, _ in G.edge_list()]
    if len(edges) > 22:
        raise BudgetExceeded("too many edges for orientation enumeration")
    count = 0
    for mask in range(1 << len(edges)):
        indeg = [0] * k
        succ = [[] for _ in range(k)]
        for idx, (i, j) in enumerate(edges):
            if mask >> idx & 1:
                succ[i].append(j)
                indeg[j] += 1
            else:
                succ[j].append(i)
                indeg[i] += 1
        sources = [v for v in range(k) if indeg[v] == 0]
        if sources != [source]:
            continue
        # Kahn peeling for acyclicity
        order = list(sources)
        indeg = list(indeg)
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) == k:
            count += 1
    return count


def cyclic_order_count(G):
    """Equivalence classes of cyclic vertex orders.

    Two cyclic orders are elementary equivalent when they differ by
    swapping a consecutive pair of non-adjacent vertices (consecutive in
    the cyclic sense, including the wrap-around pair).  Orders are
    normalised with the last vertex fixed in final position, so there are
    n! of them.
    """
    from rrlattice.core import BudgetExceeded

    k = G.vertex_count
    if k > 8:
        raise BudgetExceeded("factorial enumeration limited to 8 vertices")
    last = k - 1

    def normalize(word):
        idx = word.index(last)
        return word[idx + 1:] + word[:idx + 1]

    states = [
        normalize(tuple(p) + (last,))
        for p in permutations(range(k - 1))
    ]
    parent = {s: s for s in states}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for s in states:
        for i in range(k):
            u, v = s[i], s[(i + 1) % k]
            if G.edge_mult[u][v] == 0:
                w = list(s)
                w[i], w[(i + 1) % k] = w[(i + 1) % k], w[i]
                union(s, normalize(tuple(w)))
    return len({find(s) for s in states})
