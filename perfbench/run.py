"""Fixed-work benchmark of rusamp: simulate, amplify and distortion workloads.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``./src``.
One process, one caller, one thread: each operation starts when the last
one has returned and been checked (a closed loop). A run repeats the
workload's round of operations for ``--seconds``; an operation's time is
the fastest of its repetitions, which keeps the speed changes of a shared
machine out of the figures. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools read these once, when NumPy loads: pin them first so
# that every matrix product runs on the calling thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer as tracing  # noqa: E402  (standard library only)

OUT_ROOT = ".perfbench_out"
SETUP_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "amplify", "distortion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


class Bench:
    """One run: the loaded modules, the operations and their tallies."""

    def __init__(self, args, rs, oracles, workloads, outdir):
        self.args = args
        self.rs = rs
        self.mismatch = oracles.OracleMismatch
        self.workloads = workloads
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def execute(self, op, tracer=None, counted: bool = True):
        """Run one operation and check its output; returns its time in ns,
        or None when the program raised."""
        if counted:
            self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.span(f"bench.{op.kind}", op.call)
        except Exception as exc:  # a failing operation is counted, not fatal
            key = f"{op.kind}: {type(exc).__name__}: {exc}"
            self.failures[key] = self.failures.get(key, 0) + 1
            self.failed += counted
            return None
        elapsed = time.perf_counter_ns() - start
        try:
            op.check(out)
        except self.mismatch:
            raise
        except Exception as exc:
            raise self.mismatch(
                f"checking {op.kind} raised {type(exc).__name__}: {exc}") from exc
        if tracer is not None:
            tracer.count("cli.bytes_written", self.workloads.bytes_written(op))
        return elapsed

    def set_up(self, tracer=None):
        """Input generation plus one warm-up operation of each kind."""
        ops = self.workloads.build(self.args.workload, self.rs, self.args.seed, self.outdir)
        for op in self.workloads.warm_up_ops(ops):
            self.execute(op, tracer, counted=False)
        return ops

    def run_round(self, ops, best: list, tracer=None) -> None:
        """Every operation once; ``best[i]`` keeps operation i's fastest time."""
        for i, op in enumerate(ops):
            elapsed = self.execute(op, tracer)
            if elapsed is not None and elapsed < best[i]:
                best[i] = elapsed

    def report(self, ops, file=sys.stderr):
        print(f"{self.args.workload}: {len(ops)} operations per round; attempted "
              f"{self.attempted}, failed {self.failed}", file=file)
        for key, count in sorted(self.failures.items()):
            print(f"  failed x{count}: {key}", file=file)


def fastest_ms(best: list) -> list[float]:
    """Fastest time of each operation that completed."""
    return [t / 1e6 for t in best if t != math.inf]


def end_to_end(best: list, setup_s: float) -> dict:
    times_ms = fastest_ms(best)
    cuts = statistics.quantiles(times_ms, n=10, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(times_ms) / (sum(times_ms) / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": cuts[4], "unit": "ms"},
        "op_p90_ms": {"value": cuts[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def measure(bench, import_s: float):
    """Untraced run: whole rounds for --seconds.

    The set-up is repeated after each of the first rounds rather than all at
    once, so that its median is not taken inside one slow spell of a shared
    machine. Every repetition builds the same operations.
    """
    setup_times = []

    def set_up():
        t = time.perf_counter()
        ops = bench.set_up()
        setup_times.append(time.perf_counter() - t)
        return ops

    ops = set_up()
    best = [math.inf] * len(ops)
    start = time.perf_counter()
    while bench.attempted == 0 or time.perf_counter() - start < bench.args.seconds:
        bench.run_round(ops, best)
        if len(setup_times) < SETUP_REPS:
            set_up()
    return ops, end_to_end(best, import_s + statistics.median(setup_times))


def trace(bench):
    """Traced run: a traced set-up pass, then each round untraced and traced.

    Both halves of a pair do identical work, so the ratio of their fastest
    times is the tracing overhead.
    """
    tracer = tracing.Tracer()
    tracer.install(bench.rs)
    try:
        ops = bench.set_up(tracer)
    finally:
        tracer.uninstall()
    after_setup = tracer.snapshot()
    plain = [math.inf] * len(ops)
    traced = [math.inf] * len(ops)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < bench.args.seconds:
        rounds += 1
        bench.run_round(ops, plain)
        tracer.install(bench.rs)
        try:
            bench.run_round(ops, traced, tracer)
        finally:
            tracer.uninstall()
    overhead = 100.0 * (sum(fastest_ms(traced)) / sum(fastest_ms(plain)) - 1.0)
    stats, counters = tracing.combine(after_setup, tracer.snapshot(), rounds)
    path = os.path.join(OUT_ROOT, f"trace-{bench.args.workload}-seed{bench.args.seed}.json")
    tracer.write(path)
    print(f"tracing overhead {overhead:.1f}% over {rounds} round pairs; spans in {path}",
          file=sys.stderr)
    return ops, tracing.layer_metrics(stats, counters, overhead)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "rusamp", "__init__.py")):
        print("error: run from the root of a rusamp checkout (no src/rusamp here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    # Set-up time starts with the import of NumPy and rusamp.
    t0 = time.perf_counter()
    rs = {name: importlib.import_module(f"rusamp.{name}") for name in tracing.MODULES}
    import oracles
    import workloads
    import_s = time.perf_counter() - t0

    outdir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(args, rs, oracles, workloads, outdir)
    try:
        ops, metrics = trace(bench) if args.trace else measure(bench, import_s)
    except oracles.OracleMismatch as exc:
        print(f"OUTPUT CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    bench.report(ops)
    print(json.dumps({"correct": True, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
