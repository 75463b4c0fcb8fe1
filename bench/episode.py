"""One benchmark episode in a fresh interpreter.

    python3 bench/episode.py --workload W --seed N --episode K
        --spawned <time.time() at spawn> (--seconds S | --rounds R)
        [--trace-out PATH]

Imports rrlattice from ``src/`` of the current directory, sets the
workload up, then runs whole rounds of queries until S seconds of query
time have passed (``--seconds``) or exactly R rounds (``--rounds``, used
by traced runs so that their counts repeat).  Answers are checked after
the timed phase.  The last line of standard output is a JSON summary.

A fresh interpreter per episode is what keeps the library's process-wide
caches (``rank._effective_cache``) cold at the start of each episode; the
harness never reads, clears or patches them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--episode", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import rrlattice

    if not os.path.abspath(rrlattice.__file__).startswith(src + os.sep):
        raise SystemExit("rrlattice was not imported from %s" % src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    tracer = None
    if args.trace_out:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        tracer.active = True

    wl = workloads.build(args.workload, args.seed, args.episode)
    setup_s = time.time() - args.spawned

    times = []
    done = []  # (query, answer or None, error text or None)
    spent = 0.0
    rounds = 0
    while (spent < args.seconds) if args.rounds is None else (rounds < args.rounds):
        if tracer:
            tracer.active = False  # round generation is benchmark code
        batch = wl.round()
        if tracer:
            tracer.active = True
        for q in batch:
            t0 = time.perf_counter()
            try:
                ans, err = q.run(), None
            except Exception:  # any failure counts against the query
                ans, err = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            spent += dt
            times.append(dt)
            done.append((q, ans, err))
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.active = False

    errors = []
    ok = [0] * len(done)
    for i, (q, ans, err) in enumerate(done):
        if err is None:
            try:
                if wl.check(q, ans):
                    ok[i] = 1
                    continue
                err = "check failed: %s %r" % (q.kind, q.args[-1])
            except Exception:
                err = traceback.format_exc()
        if len(errors) < 3:
            errors.append(err)
    for err in errors:
        print(err, file=sys.stderr)

    out = {
        "setup_s": setup_s,
        "query_s": spent,
        "times": times,
        "ok": ok,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
