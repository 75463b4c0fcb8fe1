"""The chip-firing game on a multigraph, as executable semantics.

A configuration assigns an integer number of chips to every vertex; debt
is allowed.  Firing a vertex sends one chip along each incident edge, so
the chip vector moves by minus the corresponding Laplacian row and the
whole game happens inside a single coset of the Laplacian lattice.  That
makes the winnability question a rank computation: a configuration can be
cleared of debt by some firing sequence exactly when its divisor class
contains an effective representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _hnf_rows, as_divisor, degree, node_budget
from .graphs import Multigraph, canonical_divisor, laplacian_lattice
from .rank import linear_system_nonempty

__all__ = ["Configuration", "fire", "fire_script", "winnable", "kc_minus"]


@dataclass
class Configuration:
    """Chip counts on the vertices of a multigraph."""

    graph: Multigraph
    chips: tuple

    def __post_init__(self):
        self.chips = as_divisor(self.chips, self.graph.vertex_count)

    @property
    def degree(self) -> int:
        return degree(self.chips)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.chips)

    def to_json_dict(self):
        return {"chips": list(self.chips), "graph": self.graph.to_json_dict()}


def fire(cfg: Configuration, v: int) -> Configuration:
    """Fire vertex v: it sends one chip along each incident edge."""
    if not 0 <= v < cfg.graph.vertex_count:
        raise ValueError("vertex index out of range")
    row = cfg.graph.laplacian_rows()[v]
    return Configuration(
        graph=cfg.graph,
        chips=tuple(c - q for c, q in zip(cfg.chips, row)),
    )


def fire_script(cfg: Configuration, script) -> Configuration:
    """Fire a sequence of vertices in order."""
    for v in script:
        cfg = fire(cfg, v)
    return cfg


def _script_from_lattice_vector(G: Multigraph, delta):
    """Firing counts c with sum_i c_i * row_i(Q) = delta, min count zero.

    The counts are unique up to the all-ones kernel of the Laplacian, so
    the last is pinned to zero.  Rows 0..k-2, cut to k - 1 entries (the
    zero sum gives the last) and each with its unit vector appended, reach
    their HNF by integer row operations, so an HNF row's appended columns
    hold the combination of Laplacian rows behind it.  The left block is
    the reduced Laplacian, nonsingular for a connected graph, so the
    pivots are columns 0..k-2.  delta lies in the lattice, so back-
    substitution divides exactly and leaves minus the counts there.
    """
    k = G.vertex_count
    aug = [row[:-1] + (0,) * i + (1,) + (0,) * (k - 2 - i)
           for i, row in enumerate(G.laplacian_rows()[:-1])]
    rem = list(delta[:k - 1]) + [0] * (k - 1)
    for i, row in enumerate(_hnf_rows(aug)[0]):
        q = rem[i] // row[i]
        rem = [x - q * y for x, y in zip(rem, row)]
    counts = [-x for x in rem[k - 1:]] + [0]
    low = min(counts)
    return [c - low for c in counts]


def winnable(cfg: Configuration):
    """Whether some firing sequence clears all debt, with a script.

    True exactly when the chip vector is equivalent to an effective
    divisor modulo the Laplacian lattice.  On success the returned script
    lists vertex indices (ascending, with repetition) whose firing
    transforms the configuration into that effective divisor; intermediate
    debt during the script is allowed by the rules.  The two HNFs and the
    coset walk share one node_budget block.
    """
    with node_budget():
        L = laplacian_lattice(cfg.graph)
        ok, E = linear_system_nonempty(L, cfg.chips)
        if not ok:
            return False, None
        delta = tuple(c - e for c, e in zip(cfg.chips, E))
        counts = _script_from_lattice_vector(cfg.graph, delta)
    script = []
    for v, c in enumerate(counts):
        script.extend([v] * c)
    return True, script


def kc_minus(cfg: Configuration) -> Configuration:
    """The complementary configuration against the canonical divisor.

    Vertex v holds deg(v) - 2 - chips[v] chips afterwards; applying the
    operation twice returns the original configuration.
    """
    K = canonical_divisor(cfg.graph)
    return Configuration(
        graph=cfg.graph,
        chips=tuple(k - c for k, c in zip(K, cfg.chips)),
    )
