"""Exact integer lattice core.

Everything in here works over plain Python integers and fractions.Fraction,
so results are exact.  A lattice is given by n basis rows of length n+1,
each summing to zero (a full-rank sub-lattice of the zero-sum root lattice
inside Z^(n+1)).  Divisors are plain tuples of ints of length n+1.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence


class BudgetExceeded(RuntimeError):
    """A search or enumeration outgrew its resource budget.

    Raised instead of returning a wrong or partial answer, and distinct
    from any legitimate return value (such as a rank of -1).
    """


DEFAULT_NODE_BUDGET = 2_000_000
_METER = contextvars.ContextVar("rrlattice_node_budget", default=None)


class node_budget:
    """A block whose library calls share one work budget of n units.

    Every unit of work the library charges (a search node, a vertex
    order, a cell-walk vertex step, a class test or reflection reduction,
    an HNF row operation) counts against the innermost
    active block, and the charge that passes its budget raises
    BudgetExceeded naming the work, the units spent and the budget.  A
    block opened inside another gets the smaller of n and what the outer
    block has left, and its units count against the outer block too.

    node_budget() with no n joins the active block, or opens one of
    DEFAULT_NODE_BUDGET units when none is active.  Each public function
    that charges more than once runs its body under it, so a call made
    outside any block gets the default budget for all its nested calls.
    """

    def __init__(self, n=None):
        self.budget, self.spent, self.token = n, 0, None

    def __enter__(self):
        self.outer = outer = _METER.get()
        if self.budget is None and outer is not None:
            return outer
        n = DEFAULT_NODE_BUDGET if self.budget is None else self.budget
        self.budget = n if outer is None else min(n, outer.budget - outer.spent)
        self.token = _METER.set(self)
        return self

    def __exit__(self, *exc):
        if self.token is not None:
            _METER.reset(self.token)
            if self.outer is not None:
                self.outer.spent += self.spent


def _meter():
    """The active block, or a fresh one of the default budget."""
    return _METER.get() or node_budget(DEFAULT_NODE_BUDGET)


def _charge(work, units, meter=None, spend=True):
    """Add units of work to meter, by default _meter(); raise
    BudgetExceeded naming work once they take it past its budget.  With
    spend false the units are only checked against what is left."""
    meter = meter or _meter()
    spent = meter.spent
    if spend:
        meter.spent = spent + units
    if spent + units > meter.budget:
        raise BudgetExceeded("%s exceed the work budget %d (%d units spent "
                             "before)" % (work, meter.budget, spent))


Divisor = tuple  # tuple[int, ...], length n+1
RationalPoint = tuple  # tuple[Fraction, ...]


def degree(v) -> int:
    """Sum of coordinates."""
    return sum(v)


def deg_plus(v) -> int:
    """Sum of the positive coordinates."""
    return sum(x for x in v if x > 0)


def project_H0(v) -> RationalPoint:
    """Project v onto the zero-sum hyperplane along (1,1,...,1).

    Returns a tuple of Fractions; exact, never floats.
    """
    shift = Fraction(degree(v), len(v))
    return tuple(Fraction(x) - shift for x in v)


def as_ints(v, what) -> tuple:
    """v as a tuple of ints, never truncated.

    Raises ValueError, calling v a ``what``, for an entry that is not an
    integer (2.0 and Fraction(4, 2) are accepted, 0.9 is not).
    """
    out = tuple(v)
    try:
        ints = tuple(map(int, out))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != out:
        raise ValueError("%s %r has an entry that is not an integer"
                         % (what, out))
    return ints


def as_divisor(v, dim) -> Divisor:
    """v as a divisor: a tuple of dim ints.

    Raises ValueError for a wrong length or an entry that is not an
    integer (see as_ints).
    """
    out = tuple(v)
    if len(out) != dim:
        raise ValueError(
            "divisor %r has %d coordinates, expected %d" % (v, len(out), dim))
    return as_ints(out, "divisor")


def as_point(v, dim) -> RationalPoint:
    """v as a rational point: a tuple of dim Fractions.

    Raises ValueError for a wrong length or an entry that is not a finite
    rational (None, inf and nan included).
    """
    out = tuple(v)
    if len(out) != dim:
        raise ValueError(
            "point %r has %d coordinates, expected %d" % (out, len(out), dim))
    try:
        return tuple(Fraction(t) for t in out)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("point %r has an entry that is not a finite "
                         "rational" % (out,)) from None


def as_fraction(x) -> Fraction:
    """x as an exact rational: an int, a Fraction, a "p/q" string or a
    [p, q] pair.  Raises ValueError for anything else, a zero denominator
    included."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None
    raise ValueError("cannot interpret %r as a rational number" % (x,))


def _hnf_rows(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns (hnf, pivot_cols).  hnf has one row per pivot, pivots are
    positive, entries above a pivot are reduced into [0, pivot), so two
    matrices with the same row lattice get the same hnf.  Each batch of
    row operations is charged, one unit per row, before it is made (see
    node_budget).
    """
    meter = _meter()
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        while True:
            nz = [i for i in range(rank, nrows) if m[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: (abs(m[i][col]), i))
            i0 = nz[0]
            a = m[i0][col]
            # |a| is least, so every q below is nonzero: one row operation
            # per row of nz[1:]
            _charge("HNF row operations", len(nz) - 1, meter)
            for i in nz[1:]:
                q = m[i][col] // a
                m[i] = [x - q * y for x, y in zip(m[i], m[i0])]
        nz = [i for i in range(rank, nrows) if m[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        m[rank], m[i0] = m[i0], m[rank]
        if m[rank][col] < 0:
            m[rank] = [-x for x in m[rank]]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    # second pass, top down: reduce entries above each pivot into
    # [0, pivot); row r leaves the columns of earlier pivots alone
    for r in range(rank):
        col = pivots[r]
        piv = m[r][col]
        qs = [m[i][col] // piv for i in range(r)]
        _charge("HNF row operations", r - qs.count(0), meter)
        for i, q in enumerate(qs):
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
    return [tuple(r) for r in m[:rank]], pivots


def solve_rational(M, b):
    """Exact solution x of M x = b by Gauss-Jordan elimination.

    M is square; entries may be ints or Fractions, and x is a list of
    Fractions.  Raises ValueError when M is singular.  Its only callers
    are in hardness.py.
    """
    k = len(M)
    A = [[Fraction(M[i][j]) for j in range(k)] + [Fraction(b[i])]
         for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if A[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(k):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [A[i][k] for i in range(k)]


class LatticeBasis:
    """A full-rank sub-lattice of the zero-sum lattice in Z^(n+1).

    Constructed from n integer rows of length n+1, each summing to zero
    and jointly of rank n.  The Hermite normal form is computed once and
    reused for membership tests, canonical coset representatives and the
    various coset searches.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("need at least one basis row")
        width = len(rows[0])
        if width < 2:
            raise ValueError("ambient dimension too small")
        if any(len(r) != width for r in rows):
            raise ValueError("ragged basis rows")
        if len(rows) != width - 1:
            raise ValueError(
                "expected %d rows for ambient dimension %d" % (width - 1, width)
            )
        rows = tuple(as_ints(r, "basis row") for r in rows)
        for r in rows:
            if sum(r) != 0:
                raise ValueError("basis row %r does not sum to zero" % (r,))
        hnf, pivots = _hnf_rows(rows)
        if len(hnf) != width - 1:
            raise ValueError("basis rows are not linearly independent")
        self.rows = rows
        self.n = width - 1  # lattice rank
        self.dim = width  # ambient n+1
        self.hnf = tuple(hnf)
        self.pivot_cols = tuple(pivots)
        # A pivot in the last column would make the last HNF row
        # (0, ..., 0, s), and its zero sum forces s = 0.  So the pivots are
        # columns 0..n-1 and the free column is n.
        self.free_col = self.n
        self._pivot_entries = tuple(self.hnf[i][pivots[i]] for i in range(self.n))
        # row i of the HNF past its pivot, up to the free column: what the
        # coset walk adds to the unfixed coordinates per multiple of row i
        self._tails = tuple(row[i + 1:self.n] for i, row in enumerate(self.hnf))
        self._caches = {}

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return "LatticeBasis(%r)" % (list(self.rows),)

    def reduce(self, v) -> Divisor:
        """Canonical representative of v modulo the lattice.

        Reduction by the HNF rows leaves each pivot coordinate in
        [0, pivot).  Two vectors are congruent iff they reduce equally.
        """
        w = list(v)
        dim = self.dim
        if len(w) != dim:
            raise ValueError(
                "point %r has %d coordinates, expected %d" % (v, len(w), dim))
        for i in range(self.n):
            col = self.pivot_cols[i]
            piv = self._pivot_entries[i]
            q = w[col] // piv
            if q:
                row = self.hnf[i]
                for j in range(col, dim):
                    w[j] -= q * row[j]
        return tuple(w)

    def contains(self, v) -> bool:
        """Exact membership test."""
        if len(v) != self.dim or sum(v) != 0:
            return False
        return all(x == 0 for x in self.reduce(v))

    def same_lattice(self, other: "LatticeBasis") -> bool:
        """Whether both bases span one lattice; the HNF is unique."""
        return self.hnf == other.hnf

    def coords(self, x):
        """Coefficients of x over the HNF rows, as exact Fractions.

        x must lie in the rational span (any zero-sum vector does).
        """
        rem = list(as_point(x, self.dim))
        if sum(rem) != 0:
            raise ValueError("vector is not in the zero-sum hyperplane")
        out = []
        for i in range(self.n):
            col = self.pivot_cols[i]
            ci = rem[col] / self._pivot_entries[i]
            out.append(ci)
            if ci:
                row = self.hnf[i]
                for j in range(self.dim):
                    rem[j] -= ci * row[j]
        if any(rem):
            raise ValueError("vector is not in the rational span of the basis")
        return tuple(out)

    def from_coords(self, coeffs) -> tuple:
        out = [0] * self.dim
        for c, row in zip(coeffs, self.hnf):
            if c:
                for j in range(self.dim):
                    out[j] += c * row[j]
        return tuple(out)

    def fractional_part(self, x) -> RationalPoint:
        """Canonical representative of a rational zero-sum point modulo L.

        Uses the half-open fundamental parallelepiped over the HNF rows,
        so two rational points are congruent mod L iff the results match.
        """
        c = self.coords(x)
        frac = [ci - math.floor(ci) for ci in c]
        shift = self.from_coords(frac)
        return tuple(Fraction(t) for t in shift)

    # -- group invariants ----------------------------------------------------

    def picard_cardinality(self) -> int:
        """Index of the lattice inside the full zero-sum lattice.

        Dropping the last coordinate maps the zero-sum lattice onto Z^n
        and this lattice onto the row span of the HNF's n x n pivot
        block, which is triangular, so the index is the pivot product.
        """
        return math.prod(self._pivot_entries)

    def picard_factors(self):
        """Cyclic factors of the quotient group, ascending divisibility.

        Trivial factors (= 1) are dropped; an empty tuple means the
        quotient is trivial.  The quotient is Z^n modulo the rows of the
        pivot block (see picard_cardinality).  Column and row HNFs of the
        block alternate until the (upper triangular) block is diagonal;
        each pass lowers the first remaining pivot or clears its row and
        column.  A gcd/lcm sweep turns the diagonal into invariant factors.
        The HNFs share one node_budget block.
        """
        block = [row[:self.n] for row in self.hnf]
        with node_budget():
            while any(any(row[i + 1:]) for i, row in enumerate(block)):
                block = list(zip(*_hnf_rows(zip(*block))[0]))
                block = _hnf_rows(block)[0]
        diag = [block[i][i] for i in range(self.n)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                g = math.gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
        return tuple(f for f in diag if f != 1)

    # -- class representatives -------------------------------------------------

    def class_representatives(self, deg: int) -> Iterator[Divisor]:
        """All canonical coset representatives of a fixed degree.

        Yields exactly picard_cardinality() vectors; each is fixed by
        reduce() and they enumerate the divisor classes of that degree.
        """
        # the pivots are columns 0..n-1 and the free column is n
        for c in itertools.product(*map(range, self._pivot_entries)):
            yield c + (deg - sum(c),)

    # -- coset searches ---------------------------------------------------------
    #
    # Every coset search runs on one walk, _branch_and_bound, over integer
    # combinations c of the HNF rows added to an integer base vector.
    # Because the HNF is in row echelon form the value at pivot column i
    # depends only on c_0..c_i, so each level walks one interval of
    # multiples of row i.  The objective sets the intervals: "box" takes
    # them from fixed per-coordinate bounds (find_effective_in_coset on an
    # integer base, iter_coset_in_bounds for the rational enumerations of
    # geometry.py), "l1" and "max" from the incumbent's value (coset_min_l1
    # and coset_min_max_coord).

    def iter_coset_in_bounds(self, base, lower, upper):
        """All vectors base + (integer combo of rows) inside given bounds.

        lower/upper are per-coordinate inclusive bounds (ints, Fractions or
        None for unbounded).  Each pivot column's bounds prune its level of
        the walk, and the free coordinate's, as the sum fixes it, the last.
        The vectors come in increasing lexicographic order.  A generator
        holds no node_budget block across its yields: the walk draws on
        the block active when it starts, or on a default one of its own.
        """
        # walk den * (base + L) over the integers, divide once per vector
        den = math.lcm(*(t.denominator for t in base))
        num = tuple(int(t * den) for t in base)
        lo = [None if t is None else math.ceil(t * den) for t in lower]
        hi = [None if t is None else math.floor(t * den) for t in upper]
        if None in lo[:self.n] or None in hi[:self.n]:
            raise ValueError("pivot coordinate bounds must be finite")
        for v in self._branch_and_bound(num, den, (lo, hi), "box"):
            yield v if den == 1 else tuple(Fraction(x, den) for x in v)

    def find_effective_in_coset(self, base):
        """The lexicographically least vector >= 0 congruent to base, or None.

        base is a divisor: dim integers (ValueError otherwise, see
        as_divisor).  The search space is the simplex {v >= 0, sum v =
        deg(base)}, walked as the integer box [0, deg(base)]^dim straight
        on _branch_and_bound, so a negative degree returns None at once.
        The free coordinate's bounds [0, deg(base)] prune the last level.
        """
        base = as_divisor(base, self.dim)
        total = sum(base)
        if total < 0:
            return None
        box = ([0] * self.dim, [total] * self.dim)
        return next(self._branch_and_bound(base, 1, box, "box"), None)

    def _babai_point(self, num, den):
        """A lattice point near num/den (sequential rounding over HNF rows).

        The target is given by integer numerators over one common
        denominator, so the rounding stays in integer arithmetic.
        """
        rem = list(num)
        c = []
        for i, row in enumerate(self.hnf):
            step = den * self._pivot_entries[i]
            q = (2 * rem[i] + step) // (2 * step)  # floor(rem_i/step + 1/2)
            c.append(q)
            if q:
                for j in range(i, self.dim):
                    rem[j] -= q * den * row[j]
        return self.from_coords(c)

    def _branch_and_bound(self, base, scale, cap, objective):
        """The points of base + scale*L that the objective admits, as leaves.

        base is an integer vector.  Level i of the depth-first walk fixes
        coordinate i by adding multiples of HNF row i; the pivots sit in
        columns 0..n-1, so the later rows leave coordinates 0..i alone.
        Each level walks its admissible values upwards, so the leaves
        arrive in strictly increasing lexicographic order.

        "box": cap is a pair (lower, upper) of per-coordinate integer
        bound lists; those of the last (free) coordinate may be None.  v
        fixes it to R - v at the last level, which walks only the v that
        keep it inside them.  Yields every point inside the box.

        "l1" (the sum of |v_i|) and "max" (the largest coordinate; base
        must then sum to zero): yields (value, point) for points of value
        <= bound, where the bound starts at cap and drops below each leaf
        (to its value - 1): a later tie could not win on the lexicographic
        order.  A branch is pruned only when it must exceed the bound, so
        each leaf beats the one before, and the last leaf is the
        lexicographically least minimiser.  The unfixed coordinates i..n
        must still sum to R.  Under l1 they cost at least |R|, and
        coordinate i = v then needs |v| + |R - v| = max(|R|, |2v - R|) <=
        bound - (norm so far).  Under max every unfixed coordinate is at
        most the bound, so R - (n - i) * bound <= v <= bound.

        The pivots and row tails the walk steps by are built once per
        lattice, in __init__; only a walk with scale != 1 (the rational
        bases of coset_min_max_coord and iter_coset_in_bounds) scales a
        copy of them.

        The walk reads what the active node_budget block has left (see
        _meter) when it starts and after each yield, counts its nodes in a
        local and charges them at each leaf and when it ends, so no node
        looks the block up.
        """
        n = self.n
        l1 = objective == "l1"
        box = objective == "box"
        if box:
            los, his = cap
            flo, fhi = los[n], his[n]
        pivs = self._pivot_entries
        tails = self._tails
        if scale != 1:
            pivs = [scale * p for p in pivs]
            tails = [tuple(scale * x for x in t) for t in tails]
        # The walk keeps one frame per level i: rests[i] holds coordinates
        # i..n-1 so far, accs[i] the l1 norm (or max) of coordinates 0..i-1
        # (unused by box), sums[i] what coordinates i..n must still sum to,
        # and qs[i] the next multiple of row i to try (None on entering the
        # level).
        rests = [list(base[:n])] + [None] * (n - 1)
        # the max of a zero-sum vector is >= 0, so 0 is a neutral start
        accs = [0] * n
        sums = [sum(base)] + [0] * (n - 1)
        qs = [None] * n
        path = [0] * n
        bound = cap
        meter = _meter()
        left = meter.budget - meter.spent
        work = "coset enumeration" if box else objective + " search"
        nodes = 0
        i = 0
        while i >= 0:
            rest = rests[i]
            acc = accs[i]
            R = sums[i]
            if l1:
                room = bound - acc
                if room < abs(R):
                    i -= 1
                    continue
                vlo = -((room - R) // 2)
                vhi = (R + room) // 2
            elif box:
                vlo = los[i]
                vhi = his[i]
                if i + 1 == n:  # v fixes the free coordinate R - v
                    vlo = vlo if fhi is None else max(vlo, R - fhi)
                    vhi = vhi if flo is None else min(vhi, R - flo)
            else:
                if acc > bound:
                    i -= 1
                    continue
                vlo = R - (n - i) * bound
                vhi = bound
            piv = pivs[i]
            v0 = rest[0]
            q = -((v0 - vlo) // piv)
            if qs[i] is not None and qs[i] > q:
                q = qs[i]
            if q > (vhi - v0) // piv:
                i -= 1
                continue
            nodes += 1
            if nodes > left:
                _charge("%s: %d nodes" % (work, nodes), nodes, meter)
            v = v0 + q * piv
            path[i] = v
            qs[i] = q + 1
            if i + 1 == n:
                f = R - v
                _charge(work, nodes, meter)
                if box:
                    yield tuple(path) + (f,)
                else:
                    value = acc + abs(v) + abs(f) if l1 else max(acc, v, f)
                    bound = value - 1
                    yield value, tuple(path) + (f,)
                left, nodes = meter.budget - meter.spent, 0
            else:
                rests[i + 1] = [a + q * b for a, b in zip(rest[1:], tails[i])]
                if not box:
                    accs[i + 1] = acc + abs(v) if l1 else max(acc, v)
                sums[i + 1] = R - v
                qs[i + 1] = None
                i += 1
        _charge(work, nodes, meter)

    def coset_min_max_coord(self, base):
        """Minimise the max coordinate over base + L, exactly.

        base may be rational; it must sum to zero.  Returns (value, point)
        where point = base + p attains the value and is the
        lexicographically least vector doing so.
        """
        base = as_point(base, self.dim)
        if sum(base) != 0:
            raise ValueError("expected a zero-sum base point")
        # search den * (base + L) over the integers, divide once at the end
        den = math.lcm(*(t.denominator for t in base))
        num = tuple(t.numerator * (den // t.denominator) for t in base)
        near = self._babai_point(num, den)
        cap = max(a - den * b for a, b in zip(num, near))
        # each leaf beats the last, so min is the final leaf: the
        # lexicographically least minimiser
        leaves = self._branch_and_bound(num, den, cap, "max")
        val, point = min(leaves, key=itemgetter(0))
        return Fraction(val, den), tuple(Fraction(x, den) for x in point)

    def coset_min_l1(self, base, cap=None):
        """Minimal l1 norm over the coset base + L, with an attaining vector.

        Branch and bound over the HNF rows.  The returned vector is the
        lexicographically least one of minimal norm.  With cap given, only
        norms <= cap are searched, and None is returned when the coset has
        no such vector.
        """
        base = as_divisor(base, self.dim)
        total = sum(base)
        # base may have nonzero degree; the lattice part has degree zero, so
        # aim the rounding at the projection onto the zero-sum hyperplane,
        # (dim * base - total) / dim, and keep the offset exact.
        near = self._babai_point([self.dim * a - total for a in base], self.dim)
        start = sum(abs(a - b) for a, b in zip(base, near))
        cap = start if cap is None else min(cap, start)
        leaves = self._branch_and_bound(base, 1, cap, "l1")
        return min(leaves, key=itemgetter(0), default=None)
