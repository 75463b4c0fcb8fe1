"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py --parent DIR --change DIR --workload W
        [--seed N] [--pairs P] [--out FILE]

Runs ``python3 bench/run.py --workload W --seed N`` in the root of each
checkout, at bench/run.py's own run length, P pairs of runs in all, the
parent first in pairs 1, 3, ... and the change first in pairs 2, 4, ....
For every end-to-end metric of the change's BENCHMARK.json it prints each
side's median and quartiles, the number of pairs the change won (ties
count for neither side), and the change/parent median ratio next to the
metric's bound.  A run that exits nonzero or prints no result is kept in
its pair as {"error": {"exit", "stdout", "stderr"}} and the session goes
on; metrics are taken over the pairs where both runs succeeded.  --out
writes the raw runs and that summary as one JSON object, rewritten after
every pair; summarise(obj["runs"], end_to_end) rebuilds obj["summary"].
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed):
    """The JSON line that bench/run.py prints last, run in checkout, or
    {"error": ...} with the exit code and output tails if it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    sys.stderr.write(proc.stderr)
    if proc.returncode == 0:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            pass
    return {"error": {"exit": proc.returncode,
                      "stdout": proc.stdout[-2000:],
                      "stderr": proc.stderr[-2000:]}}


def quartiles(values):
    """(q1, q3) by linear interpolation between the sorted values."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(pairs, end_to_end):
    """Per-metric comparison of the runs in pairs.

    pairs is a list of {"parent": result, "change": result}, each result
    the JSON object bench/run.py prints or run_once's {"error": ...};
    end_to_end is BENCHMARK.json's list of {"name", "unit", "better",
    "bound"}.  Metrics are taken over the complete pairs, those where
    neither run crashed.  A metric is within its bound when the change's
    median is worse than the parent's by at most bound times the parent's
    median.  It shows a gain when the change won at least nine tenths of
    all the pairs, crashed ones included, and the medians differ by more
    than the parent's interquartile range.
    """
    sides = ("parent", "change")
    complete = [p for p in pairs if not any("error" in p[s] for s in sides)]
    crashed = {s: [k + 1 for k, p in enumerate(pairs) if "error" in p[s]]
               for s in sides}
    out = {
        "pairs": len(pairs),
        "complete_pairs": len(complete),
        "crashed": crashed,
        "all_answers_correct": (not any(crashed.values()) and
                                all(p[s]["correct"] for p in pairs
                                    for s in sides)),
        "failed": {s: [p[s].get("failed") for p in pairs] for s in sides},
        "metrics": {},
    }
    if not complete:
        return out
    for spec in end_to_end:
        name = spec["name"]
        higher = spec["better"] == "higher"
        parent = [p["parent"]["metrics"][name]["value"] for p in complete]
        change = [p["change"]["metrics"][name]["value"] for p in complete]
        wins = sum((c > a) if higher else (c < a)
                   for a, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        pq, cq = quartiles(parent), quartiles(change)
        if higher:
            within = cm >= pm * (1 - spec["bound"])
        else:
            within = cm <= pm * (1 + spec["bound"])
        better = cm > pm if higher else cm < pm
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": pm,
            "change_median": cm,
            "parent_q1_q3": list(pq),
            "change_q1_q3": list(cq),
            "change_wins": wins,
            "ratio": cm / pm if pm else None,
            "bound": spec["bound"],
            "within_bound": within,
            "gain": (better and 10 * wins >= 9 * len(pairs)
                     and abs(cm - pm) > pq[1] - pq[0]),
        }
    return out


def format_summary(summary):
    lines = ["%d pairs, %d complete; crashed runs in pairs parent %s, "
             "change %s; all answers correct: %s; failed parent %s, "
             "change %s"
             % (summary["pairs"], summary["complete_pairs"],
                summary["crashed"]["parent"], summary["crashed"]["change"],
                summary["all_answers_correct"],
                summary["failed"]["parent"], summary["failed"]["change"])]
    for name, m in summary["metrics"].items():
        ratio = "-" if m["ratio"] is None else "%.3f" % m["ratio"]
        lines.append(
            "  %-14s parent %10.4g [%.4g, %.4g]  change %10.4g [%.4g, %.4g]"
            "  wins %d/%d  ratio %s  bound %g %s%s"
            % (name, m["parent_median"], *m["parent_q1_q3"],
               m["change_median"], *m["change_q1_q3"], m["change_wins"],
               summary["pairs"], ratio, m["bound"],
               "ok" if m["within_bound"] else "OVER BOUND",
               "  gain" if m["gain"] else ""))
    return "\n".join(lines)


def headline(result):
    if "error" in result:
        return "crashed (exit %s)" % result["error"]["exit"]
    return "%.4g" % result["metrics"]["queries_per_s"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    pairs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload,
                                  args.seed)
        pairs.append(pair)
        print("pair %d: queries_per_s parent %s, change %s"
              % (k + 1, headline(pair["parent"]), headline(pair["change"])),
              flush=True)
        summary = summarise(pairs, end_to_end)
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "runs": pairs, "summary": summary},
                          f, indent=1, sort_keys=True)
    print(format_summary(summarise(pairs, end_to_end)))


if __name__ == "__main__":
    main()
