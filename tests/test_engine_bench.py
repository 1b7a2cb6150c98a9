"""Smoke test of scripts/engine_bench.py on this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "engine_bench.py"

# Every row the script prints, in order: first the batch steps, timed per
# trial-attempt too, then the calls.
BATCHES = [
    "conditional m=1 n=1", "conditional m=1 n=3000", "conditional m=1 n=8000",
    "conditional m=4 n=1", "conditional m=4 n=3000", "conditional m=4 n=8000",
    "plain m=1 n=50", "plain m=1 n=250", "plain m=3 n=50", "plain m=3 n=250",
    "plain m=6 n=2000",
]
ROWS = BATCHES + [
    "compose m=1", "compose m=4", "compose m=6", "compose m=8",
    "fp m=1 L=320", "fp m=1 L=2000", "fp m=1 L=100000",
    "fp m=4 L=320", "fp m=4 L=2000", "fp m=4 L=100000",
    "standard:2 m=1", "standard:2 m=4", "deterministic m=1", "deterministic m=4",
    "pi3:5 m=1", "pi3:5 m=4", "pi3:10 m=1", "fp:L=13 m=1", "fp:L=13 m=4",
    "fp:L=5 m=1", "fp:L=32 m=1", "fp:L=64 m=1", "fp:L=128 m=1",
    "inverse m=1", "inverse m=4", "inverse composed m=4",
    "dense m=4", "dense m=6", "dense m=8", "synthesized matrix m=8",
    "conditional build m=4", "conditional runs m=4", "simulate batch m=3",
    "figure fig1-left", "figure fig1-right", "figure fig3",
    "tcost strategies", "figure fig2", "figure figd1",
    "criterion 07 m=1", "criterion 07 m=4",
]


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=300)


def test_times_every_shape_for_every_label():
    proc = _run(f"one={ROOT}", f"two={ROOT}", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[-2:] == ["us/call", "us/trial-attempt"]
    cells = [line.rsplit(maxsplit=3) for line in lines]
    assert [(shape, label) for shape, label, _, _ in cells] == [
        (row, label) for row in ROWS for label in ("one", "two")]
    for shape, _, per_call, per_step in cells:
        assert float(per_call) > 0.0
        if shape in BATCHES:
            # A call takes at least one trial-attempt; per call is to 0.1 us.
            assert float(per_call) + 0.05 >= float(per_step) > 0.0
        else:
            assert per_step == "-"


def test_rejects_a_path_without_the_package(tmp_path):
    proc = _run(f"bad={tmp_path}")
    assert proc.returncode == 2
    assert "expected LABEL=PATH of a checkout" in proc.stderr
