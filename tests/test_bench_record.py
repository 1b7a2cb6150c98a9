"""The summary of scripts/bench_record.py on a committed record."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ROWS = json.loads((ROOT / "BENCH_14.json").read_text())["rows"]
LABELS = ["parent", "change"]


def test_record_within_bounds_passes(capsys):
    assert bench_record.summarize(ROWS, LABELS) == 0
    err = capsys.readouterr().err
    assert "BEYOND BOUND" not in err
    # BENCH_14.json's claim: amplify op_p90_ms, better in 10 of 10 pairs.
    claim = next(line for line in err.splitlines() if line.startswith("amplify op_p90_ms"))
    assert "gain rule holds" in claim


def test_median_past_its_bound_fails(capsys):
    rows = copy.deepcopy(ROWS)
    for row in rows:
        if row["label"] == "change" and row["workload"] == "simulate":
            row["metrics"]["op_p90_ms"] *= 1.3
    assert bench_record.summarize(rows, LABELS) == 1
    err = capsys.readouterr().err
    pushed = next(line for line in err.splitlines() if line.startswith("simulate op_p90_ms"))
    assert "BEYOND BOUND" in pushed
    assert "gain rule does not hold" in pushed
