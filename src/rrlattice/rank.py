"""Rank of a divisor by two independent algorithms, plus verifiers.

The rank of a divisor D measures how much effective weight can be removed
from D while keeping its linear system (the effective divisors linearly
equivalent to it) nonempty:

    rank(D) = min{ deg(E) : E >= 0 and |D - E| is empty } - 1.

``rank_bruteforce`` evaluates that definition literally and serves as the
ground-truth oracle.  ``rank_extremal`` evaluates the closed form

    rank(D) = min over extremal points v of deg_plus(v + D) - 1

by one exact l1 coset search per extremal class.  The two must agree
everywhere; the verifiers below drive that comparison over divisor samples
and check the Riemann-Roch equality and the weak two-sided inequality for
non-uniform lattices.

Neither algorithm is uniformly faster.  Measured on 2 CPUs with Python
3.11.7, per call:

  * the acceptance suite's rank-equivalence sample (13,139 divisors on 45
    graphs of at most 5 vertices, 6.3 extremal classes per divisor on
    average): rank_bruteforce 0.10 ms, rank_extremal 0.28 ms;
  * the rr_sweep benchmark workload, seed 1, 20 rounds (degrees up to 3g,
    genus up to 6): rank_bruteforce 0.25 ms, rank_extremal 0.28 ms.

rank_bruteforce is cheap while its effectiveness tests keep hitting the
lattice's cache, but its work grows exponentially with deg(D), under a
degree budget.  rank_extremal's work grows with the number of extremal
classes, which is large on dense graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .core import BudgetExceeded, LatticeBasis, as_divisor, deg_plus, degree
from .extremal import ExtremalSet, reflection_pairing

__all__ = [
    "RankResult",
    "linear_system_nonempty",
    "rank_bruteforce",
    "rank_extremal",
    "default_divisor_samples",
    "verify_riemann_roch",
    "verify_weak_rr",
]


@dataclass
class RankResult:
    """Rank value with a certificate.

    ``witness`` is an effective divisor E with deg(E) = rank + 1 whose
    removal empties the linear system: |D - E| is empty.  ``method`` names
    the algorithm that produced the value.
    """

    rank: int
    witness: Optional[tuple] = field(default=None)
    method: str = ""

    def to_json_dict(self):
        out = {"rank": self.rank, "method": self.method}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def linear_system_nonempty(L: LatticeBasis, D, node_budget=2_000_000):
    """Whether some effective divisor is equivalent to D modulo L.

    Returns (flag, witness); the witness is an effective representative
    of the class of D when one exists, else None.  A negative degree is
    decided immediately since equivalence preserves degree.
    """
    D = as_divisor(D, L.dim)
    if degree(D) < 0:
        return False, None
    key = L.reduce(D)
    # reduce() leaves the pivot coordinates in [0, pivot), so a reduced
    # divisor is effective exactly when its last (free) coordinate is, and
    # it is then the vector the coset search would return.
    if key[-1] >= 0:
        return True, key
    # Effectiveness tests recur with the same class throughout a rank
    # sweep; the answer depends only on the class, so the lattice caches
    # the witness (or None) by reduced divisor.
    cache = L._caches.setdefault("effective", {})
    if key in cache:
        found = cache[key]
    else:
        found = cache[key] = L.find_effective_in_coset(key, node_budget)
    return found is not None, found


def _compositions(total, parts):
    """Nonnegative integer vectors of given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def rank_bruteforce(L: LatticeBasis, D, budget=24, node_budget=2_000_000):
    """Rank straight from the definition.

    Enumerates effective E by ascending degree s = 0, 1, ... and returns
    s - 1 at the first E with |D - E| empty; that E is the witness.  The
    search is bounded because any E of degree deg(D) + 1 drives the degree
    negative.  Budget guards the combinatorial blowup in deg(D); exceeding
    it raises BudgetExceeded rather than returning a wrong value.
    """
    D = as_divisor(D, L.dim)
    d = degree(D)
    if d > budget:
        raise BudgetExceeded(
            "rank_bruteforce: degree %d exceeds budget %d" % (d, budget)
        )
    rD = L.reduce(D)
    for s in range(max(d, -1) + 2):
        for E in _compositions(s, L.dim):
            shifted = tuple(a - b for a, b in zip(rD, E))
            ok, _ = linear_system_nonempty(L, shifted, node_budget)
            if not ok:
                return RankResult(rank=s - 1, witness=E, method="bruteforce")
    raise AssertionError("no empty linear system up to degree deg(D)+1")


def rank_extremal(L: LatticeBasis, D, extremal: ExtremalSet,
                  node_budget=2_000_000):
    """Rank via the extremal-point formula, by exact coset optimisation.

    For each extremal class with representative v the translate minimising
    deg_plus(v + p + D) over p in L is found by l1 minimisation over the
    coset (deg_plus(x) = (degree(x) + |x|_1) / 2 and the degree is fixed
    on a coset, so both optimisations agree).  The witness is the positive
    part of the best minimiser.

    The best value so far bounds the next class's search: l1 has the
    parity of the degree, so deg_plus <= best needs l1 <= 2*best - degree.
    The bound is inclusive, since a tie can still win on the
    lexicographic order.  A class with nothing under it is skipped.
    """
    D = as_divisor(D, L.dim)
    best = None
    arg = None
    for cls in extremal.classes:
        base = tuple(a + b for a, b in zip(cls.representative, D))
        cap = None if best is None else 2 * best - degree(base)
        found = L.coset_min_l1(base, node_budget, cap)
        if found is None:
            continue
        x = found[1]
        val = deg_plus(x)
        if best is None or val < best or (val == best and x < arg):
            best, arg = val, x
    if best is None:
        raise ValueError("extremal set has no classes")
    witness = tuple(max(c, 0) for c in arg)
    return RankResult(rank=best - 1, witness=witness, method="extremal")


class RankMethodMismatch(Exception):
    """The two rank algorithms disagreed (a library invariant break)."""

    def __init__(self, D, brute, extremal):
        super().__init__(
            "rank mismatch at %s: bruteforce %d, extremal %d"
            % (D, brute, extremal)
        )
        self.D = D
        self.brute = brute
        self.extremal = extremal


def _rank_fn(method):
    if method == "bruteforce":
        return lambda L, D, extremal, budget, nb: rank_bruteforce(L, D, budget, nb)
    if method == "extremal":
        return lambda L, D, extremal, budget, nb: rank_extremal(L, D, extremal, nb)
    if method == "both":
        def both(L, D, extremal, budget, nb):
            a = rank_bruteforce(L, D, budget, nb)
            b = rank_extremal(L, D, extremal, nb)
            if a.rank != b.rank:
                raise RankMethodMismatch(D, a.rank, b.rank)
            return a
        return both
    raise ValueError("unknown rank method %r" % (method,))


def default_divisor_samples(L: LatticeBasis, extremal: ExtremalSet,
                            seed=0, random_count=50):
    """Deterministic divisor sample set for the verifiers.

    Every divisor class of degree 0 through 2g - 2 contributes its
    canonical representative, covering the band where the rank is
    sensitive to the lattice; random_count further divisors are drawn with
    degrees in [-g, 3g] to exercise both trivial regimes.  g is the upper
    genus for non-uniform lattices.
    """
    g = extremal.g_max
    samples = []
    for d in range(0, max(2 * g - 1, 1)):
        samples.extend(L.class_representatives(d))
    rng = random.Random(seed)
    for _ in range(random_count):
        d = rng.randint(-g, 3 * g)
        body = [rng.randint(-g, g) for _ in range(L.dim - 1)]
        body.append(d - sum(body))
        samples.append(tuple(body))
    return samples


def verify_riemann_roch(L: LatticeBasis, extremal: ExtremalSet, K,
                        D_samples=None, seed=0, method="extremal",
                        budget=24, node_budget=2_000_000):
    """Check rank(D) - rank(K - D) = degree(D) - g + 1 over a sample set.

    Requires a uniform, reflection invariant lattice (the regime where the
    equality is exact).  Returns a JSON-ready report listing violations;
    an empty list means every sample satisfied the equality.
    """
    if not extremal.uniform:
        raise ValueError("Riemann-Roch equality requires a uniform lattice")
    _, pairing = reflection_pairing(extremal, L)
    if pairing is None:
        raise ValueError("Riemann-Roch equality requires reflection invariance")
    g = extremal.g_min
    K = as_divisor(K, L.dim)
    if D_samples is None:
        D_samples = default_divisor_samples(L, extremal, seed)
    rank_of = _rank_fn(method)
    checked = 0
    violations = []
    for D in D_samples:
        D = as_divisor(D, L.dim)
        try:
            rD = rank_of(L, D, extremal, budget, node_budget).rank
            rKD = rank_of(L, tuple(k - x for k, x in zip(K, D)), extremal,
                          budget, node_budget).rank
        except RankMethodMismatch as e:
            checked += 1
            violations.append({"D": list(D), "method_disagreement": str(e)})
            continue
        checked += 1
        if rD - rKD != degree(D) - g + 1:
            violations.append({
                "D": list(D),
                "rank_D": rD,
                "rank_K_minus_D": rKD,
                "lhs": rD - rKD,
                "rhs": degree(D) - g + 1,
            })
    return {
        "checked": checked,
        "genus": g,
        "K": list(K),
        "method": method,
        "violations": violations,
        "ok": not violations,
    }


def _pairing_is_exact(extremal: ExtremalSet, L: LatticeBasis, K):
    """True when every paired class has members summing exactly to -K."""
    _, pairing = reflection_pairing(extremal, L)
    if pairing is None:
        return False
    target = tuple(-int(x) for x in K)
    for i, j in pairing.items():
        a_members = extremal.classes[i].members
        b_members = extremal.classes[j].members
        if not any(
            tuple(x + y for x, y in zip(a, b)) == target
            for a in a_members
            for b in b_members
        ):
            return False
    return True


def verify_weak_rr(L: LatticeBasis, extremal: ExtremalSet, K,
                   D_samples=None, seed=0, method="extremal",
                   budget=24, node_budget=2_000_000):
    """Check the two-sided rank inequality over a sample set.

    For reflection invariant lattices the quantity
    rank(K - D) - rank(D) + degree(D) lies in
    [3*g_min - 2*g_max - 1, g_max - 1].  When the reflection pairing is
    exact (paired class members sum to -K on the nose) the sharper bound
    rank(K - D) - rank(D) >= g_min - degree(D) - 1 is asserted as well.
    Returns a JSON-ready report listing violations.
    """
    _, pairing = reflection_pairing(extremal, L)
    if pairing is None:
        raise ValueError("weak Riemann-Roch requires reflection invariance")
    g_min, g_max = extremal.g_min, extremal.g_max
    K = as_divisor(K, L.dim)
    if D_samples is None:
        D_samples = default_divisor_samples(L, extremal, seed)
    lower = 3 * g_min - 2 * g_max - 1
    upper = g_max - 1
    exact = _pairing_is_exact(extremal, L, K)
    rank_of = _rank_fn(method)
    checked = 0
    violations = []
    for D in D_samples:
        D = as_divisor(D, L.dim)
        try:
            rD = rank_of(L, D, extremal, budget, node_budget).rank
            rKD = rank_of(L, tuple(k - x for k, x in zip(K, D)), extremal,
                          budget, node_budget).rank
        except RankMethodMismatch as e:
            checked += 1
            violations.append({"D": list(D), "method_disagreement": str(e)})
            continue
        mid = rKD - rD + degree(D)
        checked += 1
        bad = not (lower <= mid <= upper)
        bad_sharp = exact and not (rKD - rD >= g_min - degree(D) - 1)
        if bad or bad_sharp:
            violations.append({
                "D": list(D),
                "rank_D": rD,
                "rank_K_minus_D": rKD,
                "middle": mid,
                "lower": lower,
                "upper": upper,
                "sharp_lower_applies": exact,
            })
    return {
        "checked": checked,
        "g_min": g_min,
        "g_max": g_max,
        "K": list(K),
        "method": method,
        "sharp_lower_applies": exact,
        "violations": violations,
        "ok": not violations,
    }
