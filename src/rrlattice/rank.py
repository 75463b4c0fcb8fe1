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

Neither algorithm is uniformly faster.  Measured on 2 CPUs shared with
other work, Python 3.11.7, per call, median of 5 runs:

  * the acceptance suite's rank-equivalence sample (13,139 divisors on 50
    graphs of at most 5 vertices, 6.3 extremal classes per divisor on
    average): rank_bruteforce 0.062 ms, rank_extremal 0.17 ms;
  * the rr_sweep benchmark workload, seed 1, 20 rounds (degrees up to 3g,
    genus up to 6): rank_bruteforce 0.093 ms, rank_extremal 0.11 ms.

rank_bruteforce is cheap while its effectiveness tests keep hitting the
lattice's cache.  Its scan tests a prefix of each degree from deg(D)
down to r, the rank.  Level r holds C(r + n, n) divisors, but its scan
stops once their witnesses cover the |Pic| classes of degree deg(D) - r:
one test on an index-1 lattice, and 325 of 1,820 for K5 with
D = (4, 4, 4, 3, 3).  No prefix has a bound short of its whole level, so
the work can still grow exponentially with the rank, under a cap on
deg(D).
rank_extremal's work grows with the number of extremal classes, which is
large on dense graphs; it stops at the first class that shows the rank
is -1.

Each rank, and each verifier with all its ranks, runs in one node_budget
block (see core.node_budget): its coset walks draw on one work budget,
the default one unless the caller opened a block.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import sub
from typing import Optional

from .core import (BudgetExceeded, LatticeBasis, _charge, as_divisor, deg_plus,
                   degree, node_budget)
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

# random divisors in the default sample plan, beyond the degree band
_RANDOM_SAMPLES = 50


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


def linear_system_nonempty(L: LatticeBasis, D):
    """Whether some effective divisor is equivalent to D modulo L.

    Returns (flag, witness); the witness is an effective representative
    of the class of D when one exists, else None.  A negative degree is
    decided immediately since equivalence preserves degree.

    The witness is a function of the class alone: the reduced form when
    that is effective, otherwise the lexicographically least effective
    vector of the class.  So distinct classes give distinct witnesses,
    which rank_bruteforce counts to tell when a level covers Pic.
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
        found = cache[key] = L.find_effective_in_coset(key)
    return found is not None, found


def _compositions(total, parts):
    """Nonnegative integer vectors of given sum, lexicographically.

    Stars and bars: cut points 0 <= c_1 <= ... <= c_(parts-1) <= total
    split total stars into parts, part j getting c_(j+1) - c_j (with
    c_0 = 0 and c_parts = total).  The cut points come in lexicographic
    order, and so do the vectors.
    """
    for cuts in itertools.combinations_with_replacement(range(total + 1),
                                                        parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def rank_bruteforce(L: LatticeBasis, D, budget=24):
    """Rank straight from the definition.

    Call a degree s full when every effective E of degree s leaves
    |D - E| nonempty; the rank is the greatest full s, or -1.  Fullness
    is monotone: if s is full, so is s - 1, because an E of degree s - 1
    gives D - E = (D - (E + e_0)) + e_0.  So the levels s = deg(D), ..., 0
    are scanned from the top, each in lexicographic order and only until
    its first E with |D - E| empty, and the first full level is the rank.
    The E where the level above it stopped is the witness: the
    lexicographically least E of degree rank + 1 with |D - E| empty.  No
    level above deg(D) is full (every E leaves a negative degree), so a
    full level deg(D) has the witness (0, ..., 0, deg(D) + 1).

    Only the level of the rank can be scanned to its end, and that scan
    stops as soon as its witnesses cover Pic.  linear_system_nonempty returns
    one witness per class, so once the witnesses seen in a level number
    L.picard_cardinality(), every class of degree deg(D) - s holds an
    effective divisor and every E left in the level passes.  The exit
    changes neither the rank nor the witness, which comes from the level
    above.  budget caps deg(D), which drives the combinatorial blowup;
    a larger degree raises BudgetExceeded rather than returning a wrong
    value.  The coset walks share one node_budget block.
    """
    D = as_divisor(D, L.dim)
    d = degree(D)
    if d > budget:
        raise BudgetExceeded(
            "rank_bruteforce: degree %d exceeds budget %d" % (d, budget)
        )
    rD = L.reduce(D)
    classes = L.picard_cardinality()
    witness = (0,) * (L.dim - 1) + (max(d + 1, 0),)
    with node_budget():
        for s in range(d, -1, -1):
            covered = set()
            for E in _compositions(s, L.dim):
                ok, found = linear_system_nonempty(L, tuple(map(sub, rD, E)))
                if not ok:
                    witness = E
                    break
                covered.add(found)
                if len(covered) == classes:
                    break
            if ok:  # no gap: the level was covered or scanned to its end
                return RankResult(rank=s, witness=witness,
                                  method="bruteforce")
    # no level is full: rank -1, and the witness is the zero divisor
    # (level 0 stopped at it, or deg(D) < 0 left it as set above)
    return RankResult(rank=-1, witness=witness, method="bruteforce")


def rank_extremal(L: LatticeBasis, D, extremal: ExtremalSet):
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

    The loop stops at the first class with best == 0: deg_plus is never
    negative, so the rank is then -1, and the positive part of any vector
    with deg_plus 0 is the zero vector, so no later class changes the
    rank or the witness.  The searches share one node_budget block.
    """
    D = as_divisor(D, L.dim)
    if not extremal.classes:
        raise ValueError("extremal set has no classes")
    if degree(D) < 0:  # no effective divisor has negative degree
        return RankResult(rank=-1, witness=(0,) * L.dim, method="extremal")
    best = None
    arg = None
    with node_budget():
        for cls in extremal.classes:
            base = tuple(a + b for a, b in zip(cls.representative, D))
            cap = None if best is None else 2 * best - degree(base)
            found = L.coset_min_l1(base, cap)
            if found is None:
                continue
            x = found[1]
            val = deg_plus(x)
            if best is None or val < best or (val == best and x < arg):
                best, arg = val, x
                if best == 0:
                    break
    witness = tuple(max(c, 0) for c in arg)
    return RankResult(rank=best - 1, witness=witness, method="extremal")


def default_divisor_samples(L: LatticeBasis, extremal: ExtremalSet,
                            seed=0, random_count=_RANDOM_SAMPLES):
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


def _charge_samples(L, extremal, D_samples):
    """D_samples as a list (None stays None) once their ranks fit the budget.

    Each sample takes two ranks, and an extremal rank makes one coset
    search per extremal class, so 2 * samples * classes searches are
    checked against what the active node_budget block has left before any
    is made.  Nothing is spent: each search charges its nodes, at least
    one, as it walks.  The default samples, every class of degree
    0 .. 2g - 2 plus _RANDOM_SAMPLES random divisors, are counted, not
    built.
    """
    if D_samples is None:
        count = (L.picard_cardinality() * max(2 * extremal.g_max - 1, 1)
                 + _RANDOM_SAMPLES)
    else:
        D_samples = list(D_samples)
        count = len(D_samples)
    searches = 2 * count * extremal.class_count
    _charge("sample check: %d coset searches for %d samples"
            % (searches, count), searches, spend=False)
    return D_samples


def _check_samples(L, extremal, K, D_samples, seed, method, budget, violation):
    """Run violation(D, rank(D), rank(K - D)) over the sample divisors.

    D_samples defaults to default_divisor_samples.  method is "extremal",
    "bruteforce" or "both"; violation returns a report dict or None.
    Returns (checked, violations).  Under "both", a sample on which the two
    rank methods disagree, for D or for K - D, is a violation naming the
    divisor ranked.
    """
    if method not in ("extremal", "bruteforce", "both"):
        raise ValueError("unknown rank method %r" % (method,))
    if D_samples is None:
        D_samples = default_divisor_samples(L, extremal, seed)
    checked = 0
    violations = []
    for D in D_samples:
        D = as_divisor(D, L.dim)
        checked += 1
        ranks = []
        for E in (D, tuple(k - x for k, x in zip(K, D))):
            found = []  # bruteforce first under "both"
            if method != "extremal":
                found.append(rank_bruteforce(L, E, budget).rank)
            if method != "bruteforce":
                found.append(rank_extremal(L, E, extremal).rank)
            if found[0] != found[-1]:
                violations.append({
                    "D": list(D),
                    "method_disagreement":
                        "rank mismatch at %s: bruteforce %d, extremal %d"
                        % (E, found[0], found[-1])})
                break
            ranks.append(found[0])
        else:
            bad = violation(D, *ranks)
            if bad is not None:
                violations.append(bad)
    return checked, violations


def verify_riemann_roch(L: LatticeBasis, extremal: ExtremalSet, K,
                        D_samples=None, seed=0, method="extremal", budget=24):
    """Check rank(D) - rank(K - D) = degree(D) - g + 1 over a sample set.

    Requires a uniform, reflection invariant lattice (the regime where the
    equality is exact).  Returns a JSON-ready report listing violations;
    an empty list means every sample satisfied the equality.  The sample
    check, the reflection search and every rank share one node_budget
    block.
    """
    if not extremal.uniform:
        raise ValueError("Riemann-Roch equality requires a uniform lattice")
    g = extremal.g_min

    def violation(D, rD, rKD):
        if rD - rKD != degree(D) - g + 1:
            return {
                "D": list(D),
                "rank_D": rD,
                "rank_K_minus_D": rKD,
                "lhs": rD - rKD,
                "rhs": degree(D) - g + 1,
            }

    with node_budget():
        D_samples = _charge_samples(L, extremal, D_samples)
        if reflection_pairing(extremal, L)[1] is None:
            raise ValueError(
                "Riemann-Roch equality requires reflection invariance")
        K = as_divisor(K, L.dim)
        checked, violations = _check_samples(L, extremal, K, D_samples, seed,
                                             method, budget, violation)
    return {
        "checked": checked,
        "genus": g,
        "K": list(K),
        "method": method,
        "violations": violations,
        "ok": not violations,
    }


def _pairing_is_exact(extremal: ExtremalSet, pairing, K):
    """True when every paired class holds vectors summing exactly to -K.

    Every vector of an extremal class is extremal, so this is the class
    test rep_i + rep_j + K in extremal.lattice.
    """
    reps = extremal.representatives
    return all(extremal.lattice.contains(tuple(a + b + c for a, b, c
                                               in zip(reps[i], reps[j], K)))
               for i, j in pairing.items())


def verify_weak_rr(L: LatticeBasis, extremal: ExtremalSet, K,
                   D_samples=None, seed=0, method="extremal", budget=24):
    """Check the two-sided rank inequality over a sample set.

    For reflection invariant lattices the quantity
    rank(K - D) - rank(D) + degree(D) lies in
    [3*g_min - 2*g_max - 1, g_max - 1].  When the reflection pairing is
    exact (each pair of classes holds vectors summing to -K on the nose,
    that is rep_i + rep_j + K lies in the lattice) the sharper bound
    rank(K - D) - rank(D) >= g_min - degree(D) - 1 is asserted as well.
    Returns a JSON-ready report listing violations.  The sample check,
    the reflection search and every rank share one node_budget block.
    """
    g_min, g_max = extremal.g_min, extremal.g_max
    lower = 3 * g_min - 2 * g_max - 1
    upper = g_max - 1

    def violation(D, rD, rKD):
        mid = rKD - rD + degree(D)
        bad = not (lower <= mid <= upper)
        bad_sharp = exact and not (rKD - rD >= g_min - degree(D) - 1)
        if bad or bad_sharp:
            return {
                "D": list(D),
                "rank_D": rD,
                "rank_K_minus_D": rKD,
                "middle": mid,
                "lower": lower,
                "upper": upper,
                "sharp_lower_applies": exact,
            }

    with node_budget():
        D_samples = _charge_samples(L, extremal, D_samples)
        _, pairing = reflection_pairing(extremal, L)
        if pairing is None:
            raise ValueError("weak Riemann-Roch requires reflection invariance")
        K = as_divisor(K, L.dim)
        exact = _pairing_is_exact(extremal, pairing, K)
        checked, violations = _check_samples(L, extremal, K, D_samples, seed,
                                             method, budget, violation)
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
