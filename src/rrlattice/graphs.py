"""Regular digraphs and multigraphs, their Laplacian lattices, and the
spanning-tree count, which is the order of their Picard group.  A
multigraph is the symmetric regular digraph: each edge is an arc in both
directions, with the same Laplacian.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Sequence

from .core import LatticeBasis, as_ints


def _arc_matrix(vertex_count, items, word):
    """The k x k matrix of (i, j) or (i, j, mult) items, mult 1 when left
    out, adding up repeated items.  Raises ValueError for any other item,
    a loop or an index out of range, and before the matrix is allocated
    for fewer than k - 1 arcs (i, j), which cannot connect k vertices."""
    (k,) = as_ints((vertex_count,), "vertex count")
    arcs = {}
    for item in items:
        item = tuple(item) if isinstance(item, Iterable) else None
        if item is None or len(item) not in (2, 3):
            raise ValueError("%s %r is not (i, j) or (i, j, mult)"
                             % (word, item))
        i, j, m = as_ints((*item, 1)[:3], word)
        if i == j:
            raise ValueError("loops are not allowed")
        if not (0 <= i < k and 0 <= j < k):
            raise ValueError("%s (%d, %d) out of range" % (word, i, j))
        arcs[i, j] = arcs.get((i, j), 0) + m
    if len(arcs) < k - 1:
        raise ValueError("graph must be connected")
    return [[arcs.get((i, j), 0) for j in range(k)] for i in range(k)]


def _connected(mat, k) -> bool:
    """Whether the matrix mat of nonnegative multiplicities, read as an
    undirected graph, is connected."""
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        new = {v for v in range(k) if mat[u][v] or mat[v][u]} - seen
        seen |= new
        stack.extend(new)
    return len(seen) == k


class RegularDigraph:
    """A digraph whose every vertex has in-degree equal to out-degree.

    arc_mult[i][j] counts arcs from i to j; a multiplicity must be an
    integer (2.0 is accepted, 1.5 is not; see core.as_ints).  The
    underlying undirected graph must be connected.  Multigraph is the
    symmetric case.
    """

    _word = "arc"  # what repr, JSON and error messages call an item

    def __init__(self, vertex_count: int, arc_mult: Sequence[Sequence[int]]):
        (k,) = as_ints((vertex_count,), "vertex count")
        if k < 2:
            raise ValueError("need at least 2 vertices")
        try:
            mat = tuple(as_ints(r, "multiplicity row") for r in arc_mult)
        except TypeError:
            mat = ()
        if len(mat) != k or any(len(r) != k for r in mat):
            raise ValueError("expected a %dx%d matrix" % (k, k))
        for i in range(k):
            if mat[i][i] != 0:
                raise ValueError("loops are not allowed")
            if any(x < 0 for x in mat[i]):
                raise ValueError("negative %s multiplicity" % self._word)
        self._check_balanced(mat)
        if not _connected(mat, k):
            raise ValueError("graph must be connected")
        self.vertex_count = k
        self.arc_mult = mat

    @staticmethod
    def _check_balanced(mat):
        for i, row in enumerate(mat):
            if sum(row) != sum(r[i] for r in mat):
                raise ValueError("vertex %d has in-degree != out-degree" % i)

    @classmethod
    def from_arcs(cls, vertex_count: int, arcs: Iterable) -> "RegularDigraph":
        """Arcs as (i, j) or (i, j, mult) items; multiplicities add up."""
        return cls(vertex_count, _arc_matrix(vertex_count, arcs, cls._word))

    def __repr__(self):
        return "%s(%d, %ss=%r)" % (type(self).__name__, self.vertex_count,
                                   self._word, self._items())

    def arc_list(self):
        k = self.vertex_count
        return [(i, j, self.arc_mult[i][j])
                for i in range(k) for j in range(k) if self.arc_mult[i][j]]

    _items = arc_list  # what repr and JSON list

    @property
    def n(self) -> int:
        return self.vertex_count - 1

    def vertex_degree(self, v: int) -> int:
        return sum(self.arc_mult[v])

    def degree_sequence(self):
        return tuple(self.vertex_degree(v) for v in range(self.vertex_count))

    def laplacian_rows(self):
        return tuple(tuple(self.vertex_degree(i) if i == j else -m
                           for j, m in enumerate(row))
                     for i, row in enumerate(self.arc_mult))

    def to_json_dict(self):
        return {
            "vertices": self.vertex_count,
            self._word + "s": [list(a) for a in self._items()],
        }


class Multigraph(RegularDigraph):
    """A finite connected multigraph without loops: the symmetric regular
    digraph, each edge an arc in both directions.

    edge_mult, the same matrix as arc_mult, is symmetric with zero
    diagonal; entry (i, j) counts parallel edges between i and j.
    """

    _word = "edge"

    def __init__(self, vertex_count: int, edge_mult: Sequence[Sequence[int]]):
        super().__init__(vertex_count, edge_mult)

    @staticmethod
    def _check_balanced(mat):
        if any(row != col for row, col in zip(mat, zip(*mat))):
            raise ValueError("edge multiplicities must be symmetric")

    @property
    def edge_mult(self):
        return self.arc_mult

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable) -> "Multigraph":
        """Edges as (i, j) or (i, j, mult) items; multiplicities add up."""
        mat = _arc_matrix(vertex_count, edges, cls._word)
        return cls(vertex_count, [[a + b for a, b in zip(row, col)]
                                  for row, col in zip(mat, zip(*mat))])

    @classmethod
    def complete(cls, vertex_count: int) -> "Multigraph":
        return cls.from_edges(
            vertex_count, itertools.combinations(range(vertex_count), 2)
        )

    @classmethod
    def path(cls, vertex_count: int) -> "Multigraph":
        return cls.from_edges(
            vertex_count, [(i, i + 1) for i in range(vertex_count - 1)]
        )

    @classmethod
    def cycle(cls, vertex_count: int) -> "Multigraph":
        edges = [(i, i + 1) for i in range(vertex_count - 1)]
        edges.append((0, vertex_count - 1))
        return cls.from_edges(vertex_count, edges)

    def edge_list(self):
        return [(i, j, m) for i, j, m in self.arc_list() if i < j]

    _items = edge_list

    @property
    def edge_count(self) -> int:
        return sum(m for _, _, m in self.edge_list())

    @property
    def genus(self) -> int:
        return self.edge_count - self.n


def laplacian_lattice(G) -> LatticeBasis:
    """Lattice spanned by the Laplacian rows (the first n of them).

    Connectivity, enforced by the graph constructors, makes this a
    full-rank sub-lattice of the zero-sum lattice.
    """
    return LatticeBasis(G.laplacian_rows()[:-1])


def canonical_divisor(G):
    """(degree - 2) at every vertex."""
    return tuple(d - 2 for d in G.degree_sequence())


def spanning_tree_count(G: Multigraph) -> int:
    """Exact spanning tree count: by the matrix-tree theorem it is a
    reduced-Laplacian determinant, the order of Pic^0(G)."""
    return laplacian_lattice(G).picard_cardinality()


# -- corpus helpers ------------------------------------------------------------


def connected_simple_graphs(vertex_count: int):
    """All connected simple graphs on exactly `vertex_count` vertices,
    one per isomorphism class, labelled as the first edge set of the class
    (by size, then in itertools.combinations order).  A new class puts its
    whole relabelling orbit into `seen`, so each later member costs one
    set lookup: 0.016 s for 5 vertices, 0.7 s for 6 (2 CPUs, Python
    3.11.7).
    """
    k = vertex_count
    pairs = list(itertools.combinations(range(k), 2))
    perms = list(itertools.permutations(range(k)))
    seen = set()
    out = []
    for r in range(k - 1, len(pairs) + 1):
        for subset in itertools.combinations(pairs, r):
            if subset in seen:
                continue
            mat = [[0] * k for _ in range(k)]
            for i, j in subset:
                mat[i][j] = mat[j][i] = 1
            if not _connected(mat, k):
                continue
            seen.update(tuple(sorted(tuple(sorted((p[i], p[j])))
                                     for i, j in subset)) for p in perms)
            out.append(Multigraph(k, mat))
    return out


def random_connected_multigraph(rng, max_vertices: int = 4, max_edges: int = 10
                                ) -> Multigraph:
    """Random connected multigraph: a random spanning tree plus random
    extra parallel/new edges, capped at max_edges total multiplicity."""
    k = rng.randint(2, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, k)]
    for _ in range(rng.randint(0, max_edges - len(edges))):
        i = rng.randrange(k)
        j = rng.randrange(k)
        while j == i:
            j = rng.randrange(k)
        edges.append((i, j))
    return Multigraph.from_edges(k, edges)


# -- parsing -------------------------------------------------------------------


def graph_from_json_dict(obj):
    """{"vertices": k, "edges": [[i,j,mult],...]} or "arcs" for digraphs;
    any other shape raises ValueError."""
    try:
        k = obj["vertices"]
        if "arcs" in obj:
            return RegularDigraph.from_arcs(k, obj["arcs"])
        return Multigraph.from_edges(k, obj["edges"])
    except (KeyError, TypeError) as e:
        raise ValueError('a graph is {"vertices": k, "edges": [[i, j, mult], '
                         '...]} or the same with "arcs" (%r)' % e) from None


def graph_from_text(text: str):
    """Parse graph input: JSON object, or lines "i j mult" with an optional
    leading "vertices k" line (vertex count defaults to max index + 1)."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return graph_from_json_dict(json.loads(stripped))
    edges = []
    k = None
    for line in stripped.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError("graph line %r is not \"i j [mult]\"" % line)
        if parts[0] == "vertices":
            k = int(parts[1])
            continue
        edges.append(tuple(map(int, parts)))
    if k is None:
        if not edges:
            raise ValueError("graph input has no edges")
        k = max(max(e[:2]) for e in edges) + 1
    return Multigraph.from_edges(k, edges)
