"""Command line front end.

One subcommand per library area; everything prints to stdout in a stable
order, as plain text by default or as byte-deterministic JSON with
``--format json``.  Exit codes: 0 on success, 1 when a mathematical
verification fails (rank-method disagreement, a failed identity check, a
reduction mismatch), 2 on usage or resource errors.  Each command runs in
one node_budget block of ``--budget`` units, so the budget bounds the
command's work as a whole.

Input formats:

* graph file: JSON ``{"vertices": k, "edges": [[i, j, mult], ...]}``
  (``"arcs"`` for a regular digraph), or plain lines ``i j mult`` with an
  optional leading ``vertices k`` line;
* lattice file: first line the dimension n+1, then n rows of n+1
  space-separated integers, each summing to zero;
* divisor: inline, e.g. ``--divisor "0 1 -1"``;
* simplex file: JSON list of vertices, coordinates as ints, "p/q"
  strings or [p, q] pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import (DEFAULT_NODE_BUDGET, BudgetExceeded, LatticeBasis,
                   as_fraction, degree, node_budget)
from .graphs import Multigraph, graph_from_text, laplacian_lattice
from .extremal import (canonical_point, classify, extremal_set_general,
                       extremal_set_graphical)
from .rank import (rank_bruteforce, rank_extremal, verify_riemann_roch,
                   verify_weak_rr)
from .a2 import classify_a2, digraph_basis
from .chipfire import Configuration, fire_script, winnable
from .hardness import (RationalSimplex, reduce_simplex_to_membership,
                       simplex_has_integer_point)
from .geometry import sigma_contains, svg_render_2d


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_graph(path):
    with open(path) as fh:
        return graph_from_text(fh.read())


def _load_lattice(path):
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty lattice file")
    dim = int(lines[0])
    rows = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    if len(rows) != dim - 1:
        raise ValueError(
            "expected %d basis rows, found %d" % (dim - 1, len(rows))
        )
    for row in rows:
        if len(row) != dim:
            raise ValueError("basis row %r does not have %d entries"
                             % (row, dim))
    return LatticeBasis(rows)


def _parse_int_vector(s, dim=None, what="divisor"):
    v = tuple(int(x) for x in s.replace(",", " ").split())
    if dim is not None and len(v) != dim:
        raise ValueError("%s needs %d entries, got %d" % (what, dim, len(v)))
    return v


def _lattice_and_extremal(args):
    """Resolve the (lattice, extremal set) input."""
    if getattr(args, "graph", None):
        # the builder refuses k! orders over budget before its lattice
        extremal = extremal_set_graphical(_load_graph(args.graph))
        return extremal.lattice, extremal
    L = _load_lattice(args.lattice)
    return L, extremal_set_general(L)


def _cmd_rank(args):
    L, extremal = _lattice_and_extremal(args)
    D = _parse_int_vector(args.divisor, dim=L.dim)
    brute = rank_bruteforce(L, D, budget=args.rank_budget)
    ext = rank_extremal(L, D, extremal)
    agree = ext.rank == brute.rank
    payload = {"divisor": list(D), "degree": degree(D),
               "rank": brute.rank, "bruteforce": brute.to_json_dict(),
               "extremal": ext.to_json_dict(), "agreement": agree}
    lines = ["r(D) = %d  (degree %d)" % (brute.rank, degree(D)),
             "bruteforce witness: %s" % (brute.witness,),
             "extremal rank: %d" % ext.rank,
             "methods agree" if agree else
             "METHOD DISAGREEMENT: bruteforce %d vs extremal %d"
             % (brute.rank, ext.rank)]
    _emit(args, payload, lines)
    return 0 if agree else 1


def _cmd_genus(args):
    L, extremal = _lattice_and_extremal(args)
    payload = {"g_min": extremal.g_min, "g_max": extremal.g_max,
               "uniform": extremal.uniform,
               "critical_classes": extremal.class_count}
    lines = ["g_min = %d" % extremal.g_min, "g_max = %d" % extremal.g_max,
             "uniform: %s" % extremal.uniform,
             "critical classes: %d" % extremal.class_count]
    _emit(args, payload, lines)
    return 0


def _cmd_extremals(args):
    L, extremal = _lattice_and_extremal(args)
    flags = classify(extremal, L)
    payload = extremal.to_json_dict()
    payload["flags"] = flags
    if flags["reflection_invariant"]:
        payload["K"] = list(canonical_point(extremal, L))
    lines = ["critical classes: %d" % extremal.class_count]
    for cls in extremal.classes:
        lines.append("  rep %s  degree %d" % (cls.representative, cls.degree))
    lines.append("g_min = %d, g_max = %d" % (extremal.g_min, extremal.g_max))
    lines.append("flags: %s" % json.dumps(_jsonable(flags), sort_keys=True))
    if "K" in payload:
        lines.append("K = %s" % (tuple(payload["K"]),))
    _emit(args, payload, lines)
    return 0


def _cmd_canonical(args):
    L, extremal = _lattice_and_extremal(args)
    K = canonical_point(extremal, L)
    _emit(args, {"K": list(K), "degree": degree(K)},
          ["K = %s  (degree %d)" % (K, degree(K))])
    return 0


def _cmd_classify(args):
    L, extremal = _lattice_and_extremal(args)
    flags = classify(extremal, L)
    payload = dict(flags)
    payload["critical_classes"] = extremal.class_count
    payload["g_min"] = extremal.g_min
    payload["g_max"] = extremal.g_max
    lines = ["uniform: %s" % flags["uniform"],
             "reflection invariant: %s" % flags["reflection_invariant"],
             "strongly reflection invariant: %s"
             % flags["strongly_reflection_invariant"],
             "t = %s" % (_jsonable(flags["t"]),),
             "critical classes: %d" % extremal.class_count]
    _emit(args, payload, lines)
    return 0


def _cmd_verify_rr(args):
    L, extremal = _lattice_and_extremal(args)
    K = canonical_point(extremal, L)
    verify = verify_riemann_roch if extremal.uniform else verify_weak_rr
    report = verify(L, extremal, K, seed=args.seed, method=args.method,
                    budget=args.rank_budget)
    lines = ["checked %d divisors" % report["checked"]]
    if "genus" in report:
        lines.append("g = %d" % report["genus"])
    else:
        lines.append("g_min = %d, g_max = %d"
                     % (report["g_min"], report["g_max"]))
    lines.append("K = %s" % (tuple(report["K"]),))
    lines.append("ok: %s" % report["ok"])
    if report["violations"]:
        lines.append("violations: %s" % report["violations"][:5])
    _emit(args, report, lines)
    return 0 if report["ok"] else 1


def _cmd_picard(args):
    if args.graph:
        L = laplacian_lattice(_load_graph(args.graph))
    else:
        L = _load_lattice(args.lattice)
    payload = {"cardinality": L.picard_cardinality(),
               "invariant_factors": list(L.picard_factors())}
    lines = ["|Pic| = %d" % payload["cardinality"],
             "invariant factors: %s" % (payload["invariant_factors"],)]
    _emit(args, payload, lines)
    return 0


def _cmd_chipfire(args):
    G = _load_graph(args.graph)
    if not isinstance(G, Multigraph):
        raise ValueError("chip-firing runs on undirected multigraphs")
    chips = _parse_int_vector(args.chips, dim=G.vertex_count,
                              what="chip vector")
    cfg = Configuration(G, chips)
    ok, script = winnable(cfg)
    payload = {"chips": list(chips), "degree": cfg.degree,
               "effective": cfg.is_effective, "winnable": ok,
               "script": script}
    lines = ["degree %d, effective: %s" % (cfg.degree, cfg.is_effective),
             "winnable: %s" % ok]
    if ok:
        end = fire_script(cfg, script)
        payload["end"] = list(end.chips)
        lines.append("script: %s" % script)
        lines.append("end configuration: %s" % (end.chips,))
    _emit(args, payload, lines)
    return 0


def _cmd_a2(args):
    L = _load_lattice(args.lattice)
    basis = digraph_basis(L)
    info = classify_a2(L)
    payload = {"digraph_basis": [list(r) for r in basis]}
    payload.update(info)
    lines = ["digraph basis:"]
    lines += ["  %s" % (r,) for r in basis]
    lines.append("strongly reflection invariant: %s" % info["strong"])
    lines.append("critical classes: %d" % info["critical_classes"])
    lines.append("multi-tree lattice: %s" % info["multi_tree"])
    _emit(args, payload, lines)
    return 0


def _cmd_reduce_simplex(args):
    with open(args.simplex) as fh:
        S = RationalSimplex.from_json_obj(json.load(fh))
    L, D = reduce_simplex_to_membership(S)
    payload = {"simplex": S.to_json_dict(),
               "basis_rows": [list(r) for r in L.rows],
               "divisor": list(D), "degree": degree(D)}
    lines = ["basis rows:"] + ["  %s" % (r,) for r in L.rows]
    lines.append("divisor D = %s  (degree %d)" % (D, degree(D)))
    code = 0
    if args.check:
        has_point = simplex_has_integer_point(S)
        in_sigma = sigma_contains(L, D)
        payload["integer_point_in_simplex"] = has_point
        payload["divisor_in_sigma"] = in_sigma
        agree = has_point == (not in_sigma)
        payload["equivalence_holds"] = agree
        lines.append("integer point in simplex: %s" % has_point)
        lines.append("divisor in Sigma: %s" % in_sigma)
        lines.append("equivalence holds: %s" % agree)
        if not agree:
            code = 1
    _emit(args, payload, lines)
    return code


def _cmd_render(args):
    L = _load_lattice(args.lattice)
    layers = tuple(x for x in args.layers.split(",") if x)
    t = as_fraction(args.t) if args.t is not None else None
    svg = svg_render_2d(L, window=as_fraction(args.window), layers=layers,
                        t=t, scale=args.scale)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg + "\n")
        print("wrote %s" % args.out)
    else:
        print(svg)
    return 0


def _add_common(p, graph=False, lattice=False, either=False):
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="work budget for the whole command")
    if either:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--graph", metavar="FILE")
        g.add_argument("--lattice", metavar="FILE")
    elif graph:
        p.add_argument("--graph", metavar="FILE", required=True)
    elif lattice:
        p.add_argument("--lattice", metavar="FILE", required=True)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rrlattice",
        description="Riemann-Roch machinery for full-rank sub-lattices "
                    "of the root lattice A_n",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of a divisor by both methods, "
                       "with an agreement check")
    _add_common(p, either=True)
    p.add_argument("--divisor", required=True, metavar='"a b c"')
    p.add_argument("--rank-budget", type=int, default=24,
                   help="largest divisor degree the brute-force search "
                        "will enumerate")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("genus", help="g_min, g_max and uniformity")
    _add_common(p, either=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("extremals", help="critical classes and flags")
    _add_common(p, either=True)
    p.set_defaults(func=_cmd_extremals)

    p = sub.add_parser("canonical", help="canonical point K")
    _add_common(p, either=True)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("classify", help="uniformity and reflection flags")
    _add_common(p, either=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-rr", help="sampled Riemann-Roch check "
                       "(equality when uniform, two-sided bound otherwise)")
    _add_common(p, either=True)
    p.add_argument("--method", choices=("extremal", "bruteforce", "both"),
                   default="extremal")
    p.add_argument("--rank-budget", type=int, default=24)
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.set_defaults(func=_cmd_verify_rr)

    p = sub.add_parser("picard", help="Picard group cardinality and factors")
    _add_common(p, either=True)
    p.set_defaults(func=_cmd_picard)

    p = sub.add_parser("chipfire", help="winnability of a chip configuration")
    _add_common(p, graph=True)
    p.add_argument("--chips", required=True, metavar='"c0 c1 ..."')
    p.set_defaults(func=_cmd_chipfire)

    p = sub.add_parser("a2", help="digraph basis and strong invariance "
                       "of a rank-2 lattice")
    _add_common(p, lattice=True)
    p.set_defaults(func=_cmd_a2)

    p = sub.add_parser("reduce-simplex", help="simplex feasibility to "
                       "Sigma-membership reduction")
    _add_common(p)
    p.add_argument("--simplex", required=True, metavar="FILE")
    p.add_argument("--check", action="store_true",
                   help="also decide both sides and verify the equivalence")
    p.set_defaults(func=_cmd_reduce_simplex)

    p = sub.add_parser("render", help="SVG picture of a rank-2 lattice")
    _add_common(p, lattice=True)
    p.add_argument("--window", default="4", help="visible radius, rational")
    p.add_argument("--layers", default="lattice,critical,voronoi")
    p.add_argument("--t", default=None,
                   help="radius for the arrangement layer, rational")
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_render)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(e.code or 0)
    try:
        with node_budget(args.budget):
            return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print("resource budget exceeded: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
