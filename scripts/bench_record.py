"""Record perfbench runs as a BENCH_<pr>.json file.

    python3 scripts/bench_record.py --pr 8 --workload distortion \\
        --seeds 11 12 13 --seconds 10 \\
        --checkout parent=../rusamp-parent --checkout change=.

For every workload and seed, each checkout runs
``perfbench/run.py --trace 0`` once; the order of the checkouts is reversed
on every other seed, so two checkouts give pairs that alternate which side
runs first. Each row holds the run's end-to-end metrics,
``correct``, ``attempted`` and ``failed``, with its label, the checkout's
git commit, seed and seconds. The file also records the NumPy and Python
versions and ``os.cpu_count()``. Rows are appended when the file exists.

At the end it prints, per workload and label, how many runs are not
``correct`` and the share of failed among attempted operations; then, per
workload and metric, each label's median and interquartile range over all
rows of the file, and how many seeds the last label wins against the first
(direction from ``BENCHMARK.json``). For every metric it also prints how
much worse the last label's median is than the first label's, against the
metric's ``bound`` in ``BENCHMARK.json``, and whether the gain rule holds:
the last label wins at least 9 of 10 pairs, and its median is better by
more than the first label's interquartile range. It exits 1 if any recorded
run is not ``correct``, if the last label's failed share of a workload
exceeds the first label's, or if a median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

WORKLOADS = ("simulate", "amplify", "distortion")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--checkout", action="append", required=True,
                        metavar="LABEL=PATH", help="repeatable; the order alternates per seed")
    parser.add_argument("--out", help="default: BENCH_<pr>.json")
    args = parser.parse_args(argv)
    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label or not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"--checkout {item!r}: expected LABEL=PATH of a checkout")
        checkouts.append((label, os.path.abspath(path)))
    args.checkout = checkouts
    args.workload = args.workload or list(WORKLOADS)
    args.out = args.out or f"BENCH_{args.pr}.json"
    return args


def git_commit(path: str) -> str:
    """HEAD of the checkout, with ``-dirty`` when tracked files differ from it."""
    def git(*cmd):
        return subprocess.run(["git", "-C", path, *cmd], capture_output=True,
                              text=True, check=True).stdout.strip()
    commit = git("rev-parse", "HEAD")
    return commit + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_once(path: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {path} printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {
        "pr": args.pr,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": [],
    }
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    commits = {label: git_commit(path) for label, path in args.checkout}
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            # Reverse the order on every other seed.
            for label, path in args.checkout[:: -1 if i % 2 else 1]:
                result = run_once(path, workload, seed, args.seconds)
                row = {
                    "label": label, "commit": commits[label], "workload": workload,
                    "seed": seed, "seconds": args.seconds,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
                record["rows"].append(row)
                print(json.dumps(row), file=sys.stderr)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
    return summarize(record["rows"], [label for label, _ in args.checkout])


def quartiles(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (inclusive method; 0 for one value)."""
    if len(values) == 1:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(rows: list[dict], labels: list[str]) -> int:
    """Print the summary; return 1 on an incorrect run, a larger failed share
    or a median worse than its bound."""
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(bench, encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    first, last = labels[0], labels[-1]
    status = int(not all(r["correct"] for r in rows))
    for workload in sorted({r["workload"] for r in rows}):
        mine = [r for r in rows if r["workload"] == workload]
        share = {}
        for label in labels:
            runs = [r for r in mine if r["label"] == label]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            share[label] = failed / attempted if attempted else 0.0
            print(f"{workload} {label}: {sum(not r['correct'] for r in runs)}/{len(runs)} "
                  f"runs not correct; failed {failed}/{attempted} operations "
                  f"({share[label]:.2%})", file=sys.stderr)
        if share[last] > share[first]:
            print(f"{workload}: {last} fails a larger share than {first}", file=sys.stderr)
            status = 1
        for spec in end_to_end:
            metric = spec["name"]
            stats, parts = {}, []
            for label in labels:
                values = [r["metrics"][metric] for r in mine if r["label"] == label]
                if values:
                    stats[label] = quartiles(values)
                    parts.append(f"{label} {stats[label][0]:.4g} "
                                 f"(IQR {stats[label][1]:.3g}, n={len(values)})")
            by_seed: dict[int, dict] = {}
            for r in mine:
                by_seed.setdefault(r["seed"], {})[r["label"]] = r["metrics"][metric]
            pairs = [v for v in by_seed.values() if first in v and last in v]
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * (v[last] - v[first]) < 0 for v in pairs)
            line = (f"{workload} {metric}: {'; '.join(parts)}; "
                    f"{last} better in {wins}/{len(pairs)} seeds")
            if first in stats and last in stats:
                (base, base_iqr), (median, _) = stats[first], stats[last]
                # Relative change of the median, positive where the last label is worse.
                worse = sign * (median - base) / base
                beyond = worse > spec["bound"]
                # The gain rule: at least 9 of 10 pairs won, and a median gain
                # larger than the first label's interquartile range.
                gain = (len(pairs) > 0 and wins >= 0.9 * len(pairs)
                        and sign * (base - median) > base_iqr)
                line += (f"; median {worse:+.1%} worse, bound {spec['bound']:.0%}: "
                         f"{'BEYOND BOUND' if beyond else 'within'}; "
                         f"gain rule {'holds' if gain else 'does not hold'}")
                status |= beyond
            print(line, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
