"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --runs 10 --first-seed 1
    python3 bench/repeat.py --workload oracle-refine --runs 5 --trace 1

Each run is ``bench/run.py`` in its own process, one after the other.  For
every workload and metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json; then the attempted and failed counts.  The runs'
result lines are saved to ``bench/out/repeat-<first seed>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {}
    for workload in args.workload or names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"repeat: {workload} seed {seed} exited "
                         f"{done.returncode}")
            res = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in res["metrics"].items()), flush=True)

    print(f"\n{'workload':14} {'metric':44} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if not args.trace else None
            print(f"{workload:14} {name + ' (' + first['unit'] + ')':44} "
                  f"{med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.4f} "
                  f"{'' if bound is None else bound:>6}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:14} {'attempted / failed':44} {attempted:>11} "
              f"{failed:>11}   all correct: "
              f"{all(r['correct'] for r in runs)}")
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", f"repeat-{args.first_seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
