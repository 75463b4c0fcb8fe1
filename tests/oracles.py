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
