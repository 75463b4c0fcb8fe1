"""Span tracing of the library's layers, installed from outside the library.

Each wrapped function records one span per call: name, start, end and the
span that was open when it was called.  A generator records one span per
resumption, so its self time excludes the consumer's work between yields.
Spans live in compact in-memory arrays and are written out once, at the
end.  A layer's total time is its spans' summed duration; its self time
is that minus the part covered by their child spans.

The wrappers replace every binding of a wrapped function in every
``rrlattice`` module, so a call through a name another module re-imported
(``chipfire.linear_system_nonempty``, ``a2.classify``, ...) is seen too.
``LatticeBasis`` methods are wrapped on the class.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

import rrlattice.a2 as a2
import rrlattice.chipfire as chipfire
import rrlattice.core as core
import rrlattice.extremal as extremal
import rrlattice.geometry as geometry
import rrlattice.graphs as graphs
import rrlattice.rank as rank

# (metric prefix, owner, attribute, mark) -- mark, when given, maps
# (args, result) to a flag counted per call: accepted extremality tests,
# winnable answers, and effectiveness lookups that can reach the cache.
LAYERS = (
    ("core.LatticeBasis", core.LatticeBasis, "__init__", None),
    ("core.coset_min_l1", core.LatticeBasis, "coset_min_l1", None),
    ("core.coset_min_max_coord", core.LatticeBasis, "coset_min_max_coord", None),
    ("core.iter_coset_in_bounds", core.LatticeBasis, "iter_coset_in_bounds", None),
    ("core.find_effective_in_coset", core.LatticeBasis, "find_effective_in_coset", None),
    ("core.class_representatives", core.LatticeBasis, "class_representatives", None),
    ("geometry.is_extremal", geometry, "is_extremal", lambda a, r: bool(r)),
    ("geometry.sigma_contains", geometry, "sigma_contains", None),
    ("geometry.h_distance", geometry, "h_distance", None),
    ("geometry.verify_critical", geometry, "verify_critical", None),
    ("rank.rank_extremal", rank, "rank_extremal", None),
    ("rank.rank_bruteforce", rank, "rank_bruteforce", None),
    ("rank.linear_system_nonempty", rank, "linear_system_nonempty",
     lambda a, r: core.degree(a[1]) >= 0),
    ("chipfire.winnable", chipfire, "winnable", lambda a, r: bool(r[0])),
    ("extremal.extremal_set_general", extremal, "extremal_set_general", None),
    ("extremal.extremal_set_graphical", extremal, "extremal_set_graphical", None),
    ("extremal.classify", extremal, "classify", None),
    ("extremal.canonical_point", extremal, "canonical_point", None),
    ("extremal.voronoi_cell_vertices", extremal, "voronoi_cell_vertices", None),
    ("a2.classify_a2", a2, "classify_a2", None),
    ("a2.digraph_basis", a2, "digraph_basis", None),
    ("graphs.laplacian_lattice", graphs, "laplacian_lattice", None),
)

# Re-imported names that must end up wrapped; install() fails otherwise.
REBOUND = (
    (chipfire, "linear_system_nonempty"),
    (extremal, "is_extremal"),
    (extremal, "verify_critical"),
    (a2, "is_extremal"),
    (a2, "classify"),
    (a2, "extremal_set_graphical"),
)


class Tracer:
    def __init__(self):
        self.names = [p for p, _, _, _ in LAYERS]
        self.is_gen = [False] * len(LAYERS)
        self.gen_calls = [0] * len(LAYERS)
        self.yields = [0] * len(LAYERS)
        self.s_name = array("H")
        self.s_parent = array("q")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_mark = array("b")
        self.stack = []
        self.active = False
        self._wrapped = []

    # -- span recording ------------------------------------------------------

    def _begin(self, idx):
        i = len(self.s_name)
        self.s_name.append(idx)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_end.append(0)
        self.s_mark.append(0)
        self.stack.append(i)
        self.s_start.append(time.perf_counter_ns())
        return i

    def _end(self, i):
        self.s_end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, idx, fn, mark):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            self.is_gen[idx] = True

            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                tracer.gen_calls[idx] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = tracer._begin(idx)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._end(i)
                        tracer.yields[idx] += 1
                        yield value
                finally:
                    it.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._begin(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(i)
            if mark is not None and mark(args, result):
                tracer.s_mark[i] = 1
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "rrlattice" or name.startswith("rrlattice.")]
        for idx, (_, owner, attr, mark) in enumerate(LAYERS):
            orig = getattr(owner, attr)
            wrapper = self._wrap(idx, orig, mark)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._wrapped.append((owner, attr, orig))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._wrapped.append((mod, name, orig))
        for mod, attr in REBOUND:
            if not any(m is mod and a == attr for m, a, _ in self._wrapped):
                raise RuntimeError("%s.%s was not wrapped" % (mod.__name__, attr))

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Per-layer counts, self and total times, and the derived ratios."""
        k = len(self.names)
        n = len(self.s_name)
        child = [0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += self.s_end[i] - self.s_start[i]
        calls = [0] * k
        marks = [0] * k
        self_ns = [0] * k
        total_ns = [0] * k
        fe = self.names.index("core.find_effective_in_coset")
        lsn = self.names.index("rank.linear_system_nonempty")
        misses = 0
        for i in range(n):
            idx = self.s_name[i]
            calls[idx] += 1
            marks[idx] += self.s_mark[i]
            duration = self.s_end[i] - self.s_start[i]
            total_ns[idx] += duration
            self_ns[idx] += duration - child[i]
            p = self.s_parent[i]
            if idx == fe and p >= 0 and self.s_name[p] == lsn:
                misses += 1
        out = {}
        for idx, name in enumerate(self.names):
            if self.is_gen[idx]:
                out[name + ".calls"] = (self.gen_calls[idx], "count")
                out[name + ".yields"] = (self.yields[idx], "count")
            else:
                out[name + ".calls"] = (calls[idx], "count")
            out[name + ".self_s"] = (self_ns[idx] / 1e9, "s")
            out[name + ".total_s"] = (total_ns[idx] / 1e9, "s")
        ext = self.names.index("geometry.is_extremal")
        out["geometry.is_extremal.accepted"] = (marks[ext], "count")
        out["geometry.is_extremal.accept_ratio"] = (
            _ratio(marks[ext], calls[ext]), "ratio")
        win = self.names.index("chipfire.winnable")
        out["chipfire.winnable.true"] = (marks[win], "count")
        out["chipfire.winnable.true_ratio"] = (_ratio(marks[win], calls[win]), "ratio")
        lookups = marks[lsn]
        out["rank.effective_cache.lookups"] = (lookups, "count")
        out["rank.effective_cache.misses"] = (misses, "count")
        out["rank.effective_cache.hit_ratio"] = (
            1.0 - _ratio(misses, lookups) if lookups else 0.0, "ratio")
        return out

    def write(self, path):
        """All spans, one per line: id, parent id, layer, start ns, end ns."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tlayer\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.s_name)):
                f.write("%d\t%d\t%s\t%d\t%d\n" % (
                    i, self.s_parent[i], names[self.s_name[i]],
                    self.s_start[i], self.s_end[i]))


def _ratio(num, den):
    return num / den if den else 0.0
