"""Benchmark harness for rrlattice.

    python3 bench/run.py --workload {rr_sweep,winnability,lattice_scan}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed.  See bench/DESIGN.md for the workloads,
the metrics and how each layer metric maps to an end-to-end one.

--trace 0 runs EPISODES fresh interpreters in turn, each with S/EPISODES
seconds of query time, and reports the end-to-end metrics.  --trace 1
runs a fixed number of rounds three times (once untraced, twice traced),
reports the per-layer metrics of the first traced pass, checks that every
count repeats in the second, and reports the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when a
result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rr_sweep", "winnability", "lattice_scan")
DEFAULT_SEED = 1
EPISODES = 5
# Rounds per traced pass, sized to take about 8 s untraced on the seed code;
# fixed so that the counts are comparable between passes and commits.
TRACE_ROUNDS = {"rr_sweep": 20, "winnability": 16, "lattice_scan": 8}
TRACE_DIR = ".bench_traces"
CHILD_TIMEOUT_S = 150


def spawn(workload, seed, episode, seconds=None, rounds=None, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "episode.py"),
           "--workload", workload, "--seed", str(seed),
           "--episode", str(episode), "--spawned", repr(time.time())]
    if rounds is None:
        cmd += ["--seconds", repr(seconds)]
    else:
        cmd += ["--rounds", str(rounds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError("episode exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """The highest percentile with at least ten samples beyond it: the
    11th largest sample, with the percentile it stands for."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def timed(args):
    slice_s = args.seconds / EPISODES
    runs = [spawn(args.workload, args.seed, k, seconds=slice_s)
            for k in range(EPISODES)]
    times = [t for e in runs for t in e["times"]]
    ok = [flag for e in runs for flag in e["ok"]]
    attempted = len(times)
    passed = sum(ok)
    query_s = sum(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(e["setup_s"] for e in runs), "s"),
        "queries_per_s": (passed / query_s, "1/s"),
        "query_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "query_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (max(e["peak_rss_mb"] for e in runs), "MB"),
        "ok_frac": (passed / attempted, "ratio"),
    }
    print("%s seed %d: %d episodes, %d rounds, %d queries in %.2f s of "
          "query time; tail is p%.2f of %d samples; failed_frac %.4f"
          % (args.workload, args.seed, EPISODES,
             sum(e["rounds"] for e in runs), attempted, query_s, tail_pct,
             attempted, (attempted - passed) / attempted))
    return attempted, attempted - passed, True, metrics


def traced(args):
    rounds = TRACE_ROUNDS[args.workload]
    os.makedirs(TRACE_DIR, exist_ok=True)
    plain = spawn(args.workload, args.seed, 0, rounds=rounds)
    passes = [
        spawn(args.workload, args.seed, 0, rounds=rounds,
              trace_out=os.path.join(TRACE_DIR, "%s.pass%d.tsv.gz"
                                     % (args.workload, k)))
        for k in (1, 2)
    ]
    layers = passes[0]["layers"]
    repeat = all(
        unit != "count" or passes[1]["layers"][name][0] == value
        for name, (value, unit) in layers.items()
    )
    overhead = passes[0]["query_s"] - plain["query_s"]
    print("%s seed %d: %d rounds; untraced %.2f s, traced %.2f s and %.2f s "
          "of query time; tracing overhead %.2f s; counts repeat: %s"
          % (args.workload, args.seed, rounds, plain["query_s"],
             passes[0]["query_s"], passes[1]["query_s"], overhead, repeat))
    runs = [plain] + passes
    attempted = sum(len(r["ok"]) for r in runs)
    failed = attempted - sum(sum(r["ok"]) for r in runs)
    return attempted, failed, repeat, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "rrlattice", "__init__.py")):
        sys.exit("run from the root of an rrlattice checkout (no src/rrlattice)")
    attempted, failed, consistent, metrics = (traced if args.trace else timed)(args)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
