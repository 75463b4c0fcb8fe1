"""Rank-2 lattice laboratory: digraph bases, strong-invariance
classification for sub-lattices of A_2, and the dimension-raising family
construction.

Every full-rank sub-lattice of A_2 is the Laplacian lattice of a regular
digraph on three vertices.  digraph_basis makes that concrete: it returns
three generators summing to zero, one per 60-degree cone, which are the
rows of such a Laplacian.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType
from typing import Optional

from .core import LatticeBasis, node_budget
from .extremal import (ExtremalSet, _group_into_classes, _resolve_q_rows,
                       classify, extremal_set_graphical)
# bound here so the benchmark's tracer can wrap it; no code here calls it
from .geometry import is_extremal  # noqa: F401
from .graphs import Multigraph, RegularDigraph

def _cone_index(v) -> Optional[int]:
    """Index i with v in C_i = {g_i >= 0, g_j <= 0 for j != i}, or None.

    g_i is the scalar product with (…,-1, 2, -1,…) (2 in slot i).  Two
    distinct cones share only the origin, so the index is unique.
    """
    g = (
        2 * v[0] - v[1] - v[2],
        -v[0] + 2 * v[1] - v[2],
        -v[0] - v[1] + 2 * v[2],
    )
    for i in range(3):
        if g[i] >= 0 and all(g[j] <= 0 for j in range(3) if j != i):
            return i
    return None


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _gauss_reduce(b0, b1):
    """Lagrange-Gauss reduction; returns a shortest basis (b0 <= b1)."""
    b0, b1 = list(b0), list(b1)
    while True:
        if _dot(b1, b1) < _dot(b0, b0):
            b0, b1 = b1, b0
        n0 = _dot(b0, b0)
        # nearest integer to (b0 . b1) / (b0 . b0)
        t = (2 * _dot(b0, b1) + n0) // (2 * n0)
        cand = [x - t * y for x, y in zip(b1, b0)]
        if _dot(cand, cand) >= _dot(b1, b1):
            return tuple(b0), tuple(b1)
        b1 = cand


def digraph_basis(L: LatticeBasis):
    """Generators (b0, b1, b2) of L with b0+b1+b2 = 0 and b_i in cone C_i.

    These are the rows of the Laplacian of a regular digraph on three
    vertices whose lattice is L.  Construction: Gauss-reduce to a shortest
    basis, flip signs into cones, then repeatedly absorb b0+b1 into
    whichever of the two cones it falls in until -(b0+b1) lands in the
    third cone.  Every step is unimodular and ends each row in its own
    cone, so the rows generate L and are Laplacian rows.

    Digraph bases are not unique, and for lattices of multi-trees (where
    critical points have extra tight lattice points, so the decomposition
    geometry is degenerate) different valid bases disagree about which
    cell vertices are incident to the origin.  When the lattice is a
    multi-tree lattice the Laplacian rows of that multi-tree are returned,
    matching how graphical lattices are anchored on their own Laplacian
    rows.

    The basis is built once per lattice and kept in L's cache, so later
    calls on the same LatticeBasis return it at once.
    """
    if L.n != 2:
        raise ValueError("digraph basis construction applies to rank-2 only")
    return _per_lattice(L, "digraph_basis", _build_digraph_basis)


def _per_lattice(L: LatticeBasis, key, build):
    """build(L), computed once per lattice and kept in L._caches[key]."""
    cache = L._caches
    if key not in cache:
        cache[key] = build(L)
    return cache[key]


def _build_digraph_basis(L: LatticeBasis):
    """The digraph basis of a rank-2 L (see digraph_basis): the Laplacian
    rows of the multi-tree when L is a multi-tree lattice, otherwise the
    Gauss-reduced rows, flipped into two distinct cones and absorbed."""
    tree = _multi_tree_data(L)
    if tree is not None:
        centre, mult = tree
        return Multigraph.from_edges(
            3, [(centre, w, m) for w, m in mult.items()]).laplacian_rows()
    b0, b1 = _gauss_reduce(L.rows[0], L.rows[1])
    if _cone_index(b0) is None:
        b0 = tuple(-x for x in b0)
    if _cone_index(b1) is None:
        b1 = tuple(-x for x in b1)
    # no cone holds both: reduced rows in one cone span a multi-tree lattice
    a, b = _cone_index(b0), _cone_index(b1)
    c = 3 - a - b
    b0, b1 = _absorb(b0, b1, a, b)
    out = [None, None, None]
    out[a], out[b], out[c] = b0, b1, tuple(-x - y for x, y in zip(b0, b1))
    return tuple(out)


def _absorb(b0, b1, a, b):
    """Absorb b0 + b1 into b0 or b1 until -(b0 + b1) lies in the third cone.

    b0 lies in C_a and b1 in C_b.  For a zero-sum v, C_i holds the vectors
    with v_i >= 0 and every other coordinate <= 0.  The third coordinate
    c of s = b0 + b1 is <= 0, so -s lies in C_c once s_a, s_b >= 0.  While
    s_b < 0, s lies in C_a and replaces b0; that repeats until
    b0_b + (k + 1) * b1_b >= 0, so k copies of b1 go to b0 at once.  Each
    round lowers b0_a or b1_b or ends the loop, so it terminates.
    """
    while True:
        if b0[b] + b1[b] < 0:
            k = -(b0[b] // b1[b]) - 1
            b0 = tuple(x + k * y for x, y in zip(b0, b1))
        elif b0[a] + b1[a] < 0:
            k = -(b1[a] // b0[a]) - 1
            b1 = tuple(x + k * y for x, y in zip(b1, b0))
        else:
            return b0, b1


def digraph_of_basis(rows) -> RegularDigraph:
    """The regular digraph whose Laplacian rows are the given basis."""
    return RegularDigraph(3, [[0 if i == j else -rows[i][j] for j in range(3)]
                              for i in range(3)])


def _tree_edge_order(L: LatticeBasis, v) -> int:
    """Least t >= 1 with t*v in L (v integral): at HNF row i, t takes the
    least factor m making m * x_i / piv_i integral, and x clears row i."""
    x, t = list(v), 1
    for row, col, piv in zip(L.hnf, L.pivot_cols, L._pivot_entries):
        m = piv // math.gcd(x[col], piv)
        q = m * x[col] // piv
        x = [m * a - q * b for a, b in zip(x, row)]
        t *= m
    return t


def _multi_tree_data(L: LatticeBasis):
    """(centre, {leaf: multiplicity}) when L is a 3-vertex multi-tree lattice.

    A multi-tree (tree with multiplied edges) on vertices {0,1,2} with
    centre k has Laplacian lattice generated by a*(e_i - e_k) and
    b*(e_j - e_k); that holds exactly when the minimal such multiples
    have product equal to the lattice index.  Returns None otherwise.
    Computed once per lattice and kept in L's cache; the mapping is
    read-only, since every caller shares it.
    """
    if L.n != 2:
        raise ValueError("multi-tree test applies to rank-2 only")
    return _per_lattice(L, "multi_tree", _find_multi_tree)


def _find_multi_tree(L: LatticeBasis):
    """The uncached search behind _multi_tree_data."""
    pic = L.picard_cardinality()
    for centre in range(3):
        i, j = [x for x in range(3) if x != centre]
        ei = [0, 0, 0]
        ei[i], ei[centre] = 1, -1
        ej = [0, 0, 0]
        ej[j], ej[centre] = 1, -1
        a = _tree_edge_order(L, ei)
        b = _tree_edge_order(L, ej)
        if a * b == pic:
            return centre, MappingProxyType({i: a, j: b})
    return None


def is_multi_tree_lattice(L: LatticeBasis) -> bool:
    """True iff L is the Laplacian lattice of a multi-tree on 3 vertices."""
    return _multi_tree_data(L) is not None


def classify_a2(L: LatticeBasis):
    """Strong-invariance data for a full-rank sub-lattice of A_2.

    Returns {"strong", "critical_classes", "multi_tree"}; by the rank-2
    characterisation, strong holds iff there are two critical classes or
    the lattice is a multi-tree lattice, which callers can cross-check.
    One node_budget block bounds its 3! orders, the reflection search and
    the 3! vertex steps of classify's cell walk, which runs in integers on
    the cell scaled by 3.
    """
    basis = digraph_basis(L)
    with node_budget():
        extremal = extremal_set_graphical(digraph_of_basis(basis))
        flags = classify(extremal, L)
    return {
        "strong": flags["strongly_reflection_invariant"],
        "critical_classes": extremal.class_count,
        "multi_tree": is_multi_tree_lattice(L),
    }


def random_a2_lattice(rng: random.Random, span=12) -> LatticeBasis:
    """A random full-rank sub-lattice of A_2 with entries in [-span, span]."""
    while True:
        rows = []
        for _ in range(2):
            a = rng.randint(-span, span)
            b = rng.randint(-span, span)
            rows.append((a, b, -a - b))
        try:
            return LatticeBasis(rows)
        except ValueError:
            continue


def extend_family(L: LatticeBasis, with_rr_data: Optional[ExtremalSet] = None):
    """One dimension-raising step L_n -> L_{n+1}.

    Embeds the rows with a trailing zero and adjoins (0,…,0,-1,1); this is
    the Laplacian lattice of the digraph grown by one vertex tied to the
    last one with an arc in each direction.  When an extremal set for L is
    supplied, each class is lifted through its representative as (v, 0):
    (u, 0) is in the Sigma region of L_up exactly when u is in L's, and
    (v, -1) is dominated whenever v - e_n is, so each lifted class stays
    extremal and genus data and reflection pairings carry over exactly.
    The canonical point carries over as a class: canonical_point gives
    (K, 0) when the lifted q_rows are not symmetric, and their diagonal
    minus 2 when they are, which is (K + e_n, -1) for a multigraph set.
    """
    rows = [tuple(r) + (0,) for r in L.rows]
    rows.append((0,) * L.n + (-1, 1))
    L_up = LatticeBasis(rows)
    if with_rr_data is None:
        return L_up, None
    if not with_rr_data.lattice.same_lattice(L):
        raise ValueError("extremal data does not belong to the given lattice")
    # (v, 0) - (w, 0) lies in L_up exactly when v - w lies in L, so the
    # lifted representatives stay in distinct classes, in the same order
    lifted = _group_into_classes(
        L_up, (r + (0,) for r in with_rr_data.representatives))
    q_up = None
    base_q = _resolve_q_rows(L, with_rr_data)
    if base_q is not None:
        k = len(base_q)
        q_rows = [tuple(r) + (0,) for r in base_q]
        q_rows[k - 1] = tuple(
            x + y for x, y in zip(q_rows[k - 1], (0,) * (k - 1) + (1, -1))
        )
        q_rows.append((0,) * (k - 1) + (-1, 1))
        q_up = tuple(q_rows)
    return L_up, ExtremalSet(
        lattice=L_up,
        classes=lifted,
        source="extension",
        q_rows=q_up,
    )
