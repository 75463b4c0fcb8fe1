"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the dumb way (exhaustive box
scans, sympy normal forms, closed-form loops) and shares no code with
src/rrlattice beyond the input types.  Expected values frozen into the
unit tests were produced by these routines.
"""

import math
from fractions import Fraction
from itertools import product

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
    index = abs(int(sympy.Matrix([list(r[:-1]) for r in rows]).det()))
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


def sympy_hnf(rows):
    M = sympy.Matrix([list(r) for r in rows])
    H = hermite_normal_form(M.T)
    return H.T.tolist()


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


def strongly_invariant_all_pairs(vertex_set):
    """-V = V + t exactly for some t, trying every t = -(u + w), u, w in V."""
    neg = {tuple(-x for x in v) for v in vertex_set}
    for u in sorted(vertex_set):
        for w in sorted(vertex_set):
            t = tuple(-(a + b) for a, b in zip(u, w))
            if {tuple(a + b for a, b in zip(v, t)) for v in vertex_set} == neg:
                return True
    return False
