"""Attempt statistics of the pinned runs against the exact run law.

Each branch of a retry frame evolves on its own (Paetznick & Svore,
arXiv:1311.1074).  Take the start masses P0_b, the start state's squared
moduli summed over branch b, and the success masses w_b, row 0 of
``RetryFrame.weights``.  A trial then succeeds at attempt k with probability
sum_b P0_b w_b (1 - w_b)^(k - 1) and exhausts a cap of N attempts with
probability sum_b P0_b (1 - w_b)^N.  Every statistic must lie within ``BAND``
standard errors of the law's value.  The errors come from the law, not from
the sample, whose own error is 0 when no trial fails.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import conftest
import test_cli
import test_retry_pins
from rusamp import cli, distortion, qcore, rus

BAND = 4.0


def _law(frame: rus.RetryFrame, state: np.ndarray, cap: int) -> tuple[np.ndarray, float]:
    """The probability of success at each attempt 1..``cap``, and of
    exhausting the cap."""
    start = np.bincount(frame.branches, np.abs(state) ** 2, frame.weights.shape[1])
    success = frame.weights[0]
    failures = (1.0 - success) ** np.arange(cap + 1)[:, None]
    return (failures[:-1] * success) @ start, float(failures[-1] @ start)


def _assert_within_law(frame, state, cap: int, trials: int, exhausted: int,
                       mean_attempts: float, successes_only: bool) -> None:
    """``exhausted`` of ``trials``, and their mean attempts, against the
    law: over the successes only, or over every trial, an exhausted one
    counting ``cap``."""
    per_attempt, p_exhausted = _law(frame, state, cap)
    spread = math.sqrt(trials * p_exhausted * (1.0 - p_exhausted))
    assert abs(exhausted - trials * p_exhausted) <= BAND * spread
    values = np.arange(1.0, cap + 1.0)
    if successes_only:
        weights, count = per_attempt / per_attempt.sum(), trials - exhausted
    else:
        values = np.append(values, cap)
        weights, count = np.append(per_attempt, p_exhausted), trials
    mean = values @ weights
    spread = math.sqrt(((values - mean) ** 2) @ weights / count)
    assert abs(mean_attempts - mean) <= BAND * spread


@pytest.mark.parametrize("case", list(test_cli.SIMULATE_CASES))
def test_simulate_pins_follow_the_law(tmp_path, case):
    extra, code = test_cli.SIMULATE_CASES[case]
    spec = test_cli._write_spec(tmp_path, lambda0=0.2)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", str(spec), "--psi", "0.6,0.8j", "--trials", "40",
                     "--seed", "5", "--out", str(out), *extra]) == code
    assert test_cli._output_digest(test_cli._dir_files(out)) == test_cli.OUTPUT_PINS[case]
    options = dict(zip(extra[::2], extra[1::2]))
    composed = cli._compose_protocol(rus.build_rus_unitary(rus.load_spec(spec)),
                                     options["--protocol"])
    cap = int(options.get("--max-attempts", rus.DEFAULT_MAX_ATTEMPTS))
    summary = dict(line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    # The summary averages attempts over the successes only.
    _assert_within_law(composed.frame, cli._parse_psi("0.6,0.8j").amps, cap, 40,
                       int(summary["exhausted"]), float(summary["mean_attempts"]),
                       successes_only=True)


@pytest.mark.parametrize("group", range(len(test_retry_pins.MONTE_CARLO)))
def test_monte_carlo_pins_follow_the_law(group):
    # Built as test_retry_pins.monte_carlo_results builds them.
    m, lambda0, distorted, trials, cap, seed = test_retry_pins.MONTE_CARLO[group]
    rng = qcore.rng_stream(700 + group)
    base = conftest.make_circuit(lambda0, m=m, rng=rng)
    gammas = test_retry_pins._weights(rng, m) if distorted else None
    cc = distortion.build_conditional(base, gammas, seed=group)
    cfg = test_retry_pins._config(rng, trials=trials, seed=seed, max_attempts=cap)
    # monte_carlo_fidelity's batch, whose attempts it does not report.
    state = cfg.pair
    batch = rus.run_batch(cc.frame, state, trials, qcore.rng_stream(seed), cap)
    with open(test_retry_pins.PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)["monte_carlo"][group]
    assert batch.exhausted.sum() == pinned["exhausted"]
    _assert_within_law(cc.frame, state, cap, trials, pinned["exhausted"],
                       float(batch.attempts.mean()), successes_only=False)


def _pinned_group(kind: str, group: int):
    """The frame, start state and cap of a group of pinned sequences, built
    as test_retry_pins builds them."""
    if kind == "plain":
        m, lambda0, cap, _ = test_retry_pins.PLAIN[group]
        rng = qcore.rng_stream(500 + group)
        circuit = conftest.make_circuit(lambda0, m=m, rng=rng)
        return circuit.frame, qcore.random_state(1, rng).amps, cap
    m, lambda0, distorted, cap, _ = test_retry_pins.CONDITIONAL[group]
    rng = qcore.rng_stream(600 + group)
    base = conftest.make_circuit(lambda0, m=m, rng=rng)
    gammas = test_retry_pins._weights(rng, m) if distorted else None
    cc = distortion.build_conditional(base, gammas, seed=group)
    return cc.frame, test_retry_pins._config(rng, max_attempts=cap).pair, cap


@pytest.mark.parametrize("kind, group", [
    *(("plain", group) for group in range(len(test_retry_pins.PLAIN))),
    *(("conditional", group) for group in range(len(test_retry_pins.CONDITIONAL))),
])
def test_sequence_pins_follow_the_law(kind, group):
    # Each pinned run is one trial on the group's shared stream; an
    # exhausted run is pinned as None.
    frame, state, cap = _pinned_group(kind, group)
    with open(test_retry_pins.PINS, encoding="utf-8") as fh:
        runs = json.load(fh)[kind][group]
    done = [len(seq) for seq in runs if seq is not None]
    _assert_within_law(frame, state, cap, len(runs), len(runs) - len(done),
                       float(np.mean(done)), successes_only=True)
