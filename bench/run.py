"""Run one benchmark workload against the coneqm sources of this checkout.

    python3 bench/run.py --workload kernel-table --seed 1 --seconds 30 --trace 0

The run imports ``coneqm`` from ``src/`` next to this directory, draws the
workload's inputs from ``--seed`` and warms up (together: set-up), then
repeats whole rounds of the workload's fixed operations, untraced, until
``--seconds`` have passed (at least three rounds).  Each operation is timed
on its own; ``wall_s`` is the wall time of one round made of each
operation's fastest repetition, and ``op_p50_ms`` the median of those
fastest times (README.md says why the fastest).  With ``--trace 1`` one
more round runs with every layer function wrapped by ``tracing.Tracer``, and
the spans are written to ``bench/out/spans-<workload>.npz``.  After timing,
every output of the first round is checked against references computed
apart from the program, later rounds must repeat the first bit for bit, and
each check is shown to reject a value perturbed on purpose.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full record, with the environment, goes to
``bench/out/<workload>-seed<n>-trace<t>.json``.
"""

import time

_T0 = time.perf_counter()      # set-up is timed from here, before any import

import argparse                # noqa: E402
import json                    # noqa: E402
import os                      # noqa: E402
import platform                # noqa: E402
import resource                # noqa: E402
import statistics              # noqa: E402
import subprocess              # noqa: E402
import sys                     # noqa: E402

import numpy as np             # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
MIN_ROUNDS = 3
SETUP_PROBES = 4               # set-ups in fresh processes besides this one


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import coneqm
    except ImportError as exc:
        sys.exit(f"bench: cannot import coneqm from {SRC}: {exc}")
    if not os.path.abspath(coneqm.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: coneqm came from {coneqm.__file__}, not {SRC}")


def _blas_threads():
    """Thread counts that numpy's and scipy's bundled OpenBLAS report."""
    import ctypes
    import glob

    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                            pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _probe_setup(args):
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Rounds:
    """Runs rounds of a workload and keeps what the metrics and checks need:
    each operation's fastest untraced latency, round wall times, failures,
    the first round's outputs and how many later outputs differ from them."""

    def __init__(self, workload):
        self.wl = workload
        self.best = np.full(workload.n_ops, np.inf)
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = None
        self.mismatched = 0

    def run(self, tracer=None):
        wl, clock = self.wl, time.perf_counter
        outputs = [None] * wl.n_ops
        latencies = np.empty(wl.n_ops)
        begin = clock()
        for i in range(wl.n_ops):
            if tracer is not None:
                tracer.current_op = self.attempted + i
            t = clock()
            try:
                outputs[i] = wl.run_op(i)
            except Exception as exc:   # counted as failed, reported in full
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"op {i}: {exc!r}")
            latencies[i] = clock() - t
        wall = clock() - begin
        self.attempted += wl.n_ops
        if self.first is None:
            self.first = outputs
        else:
            self.mismatched += sum(
                1 for a, b in zip(self.first, outputs)
                if (a is None) != (b is None)
                or (a is not None and not wl.same(a, b)))
        if tracer is None:
            self.walls.append(wall)
            np.minimum(self.best, latencies, out=self.best)
        return wall, outputs


def _cpu_seconds():
    t = os.times()
    return t.user + t.system


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernel-table", "verify-sweep",
                                 "oracle-refine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import tracing
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0
    setup_samples = [setup] + [_probe_setup(args) for _ in range(SETUP_PROBES)]

    rounds = Rounds(wl)
    cpu0 = _cpu_seconds()
    begin = time.perf_counter()
    while (len(rounds.walls) < MIN_ROUNDS
           or time.perf_counter() - begin < args.seconds):
        rounds.run()
    cpu_per_round = (_cpu_seconds() - cpu0) / len(rounds.walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values = {"setup_s": statistics.median(setup_samples),
              "wall_s": float(rounds.best.sum()),
              "op_p50_ms": float(np.median(rounds.best)) * 1e3,
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, traced_outputs = rounds.run(tracer)
        finally:
            tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
        values.update(tracer.layer_metrics())
        values["cli.stdout_bytes"] = wl.stdout_bytes(traced_outputs)
        values["process.cpu_s"] = cpu_per_round
        values["trace.overhead_s"] = traced_wall \
            - statistics.median(rounds.walls)

    problems = {name: msgs for name, msgs in wl.checks(rounds.first).items()
                if msgs}
    if rounds.mismatched:
        problems["repeat"] = [f"{rounds.mismatched} outputs differ from the "
                              "first round"]
    missed = wl.self_test(rounds.first)
    if missed:
        problems["self-test"] = [f"check accepted a perturbed value: {m}"
                                 for m in missed]
    correct = not problems

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    result = {"correct": correct, "attempted": rounds.attempted,
              "failed": rounds.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  rounds=len(rounds.walls), round_walls_s=rounds.walls,
                  setup_samples_s=setup_samples, all_values=values,
                  problems=problems, errors=rounds.errors,
                  environment=environment())
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"{args.workload} seed={args.seed}: {len(rounds.walls)} rounds, "
          f"{rounds.attempted} attempted, {rounds.failed} failed, "
          f"correct={correct}")
    for name, msgs in problems.items():
        for msg in msgs:
            print(f"  FAIL {name}: {msg}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
