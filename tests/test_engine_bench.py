"""Smoke test of scripts/engine_bench.py on this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "engine_bench.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=300)


def test_times_every_shape_for_every_label():
    proc = _run(f"one={ROOT}", f"two={ROOT}", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["us/call", "us/trial-attempt"]
    assert len(rows) == (2 * 10 + 2 * 4 + 2 * 6 + 2 * 8 + 2 * 2 + 2 * 3 + 2 * 1
                         + 2 * 3 + 2 + 2 * 2)
    batches, composes, fixed = rows[:20], rows[20:28], rows[28:40]
    protocols, inverses, denses = rows[40:56], rows[56:60], rows[60:66]
    builds, figures, costs = rows[66:68], rows[68:74] + rows[76:], rows[74:76]
    assert batches[0].split()[:3] == ["conditional", "m=1", "n=1"]
    for row, label in zip(batches, ["one", "two"] * 10):
        *shape, name, per_call, per_step = row.split()
        assert name == label
        # A call takes at least one trial-attempt; per call is to 0.1 us.
        assert float(per_call) + 0.05 >= float(per_step) > 0.0
    for row, m, label in zip(composes, [1, 1, 4, 4, 6, 6, 8, 8], ["one", "two"] * 4):
        kind, shape, name, per_call, per_step = row.split()
        assert (kind, shape, name, per_step) == ("compose", f"m={m}", label, "-")
        assert float(per_call) > 0.0
    shapes = [(m, length) for m in (1, 4) for length in (320, 2_000, 100_000)]
    for row, (m, length), label in zip(fixed, [s for s in shapes for _ in range(2)],
                                       ["one", "two"] * 6):
        kind, m_text, l_text, name, per_call, per_step = row.split()
        assert (kind, m_text, l_text, name, per_step) == (
            "fp", f"m={m}", f"L={length}", label, "-")
        assert float(per_call) > 0.0
    names = [(name, m) for name in ("standard:2", "deterministic", "pi3:5", "fp:L=13")
             for m in (1, 4)]
    for row, (protocol, m), label in zip(protocols, [s for s in names for _ in range(2)],
                                         ["one", "two"] * 8):
        kind, shape, name, per_call, per_step = row.split()
        assert (kind, shape, name, per_step) == (protocol, f"m={m}", label, "-")
        assert float(per_call) > 0.0
    for row, m, label in zip(inverses, [1, 1, 4, 4], ["one", "two"] * 2):
        kind, shape, name, per_call, per_step = row.split()
        assert (kind, shape, name, per_step) == ("inverse", f"m={m}", label, "-")
        assert float(per_call) > 0.0
    for row, m, label in zip(denses, [4, 4, 6, 6, 8, 8], ["one", "two"] * 3):
        kind, shape, name, per_call, per_step = row.split()
        assert (kind, shape, name, per_step) == ("dense", f"m={m}", label, "-")
        assert float(per_call) > 0.0
    for row, label in zip(builds, ["one", "two"]):
        kind, build, shape, name, per_call, per_step = row.split()
        assert (kind, build, shape, name, per_step) == (
            "conditional", "build", "m=4", label, "-")
        assert float(per_call) > 0.0
    for row, label in zip(costs, ["one", "two"]):
        kind, shape, name, per_call, per_step = row.split()
        assert (kind, shape, name, per_step) == ("tcost", "strategies", label, "-")
        assert float(per_call) > 0.0
    for row, figure, label in zip(figures, ["fig1-left"] * 2 + ["fig1-right"] * 2
                                  + ["fig3"] * 2 + ["fig2"] * 2 + ["figd1"] * 2,
                                  ["one", "two"] * 5):
        kind, shape, name, per_call, per_step = row.split()
        assert (kind, shape, name, per_step) == ("figure", figure, label, "-")
        assert float(per_call) > 0.0


def test_rejects_a_path_without_the_package(tmp_path):
    proc = _run(f"bad={tmp_path}")
    assert proc.returncode == 2
    assert "expected LABEL=PATH of a checkout" in proc.stderr
