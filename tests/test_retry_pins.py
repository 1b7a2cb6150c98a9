"""Outcome sequences and Monte Carlo estimates pinned across retry-loop changes.

``data/retry_pins.json`` was recorded with the per-trial retry loops that
``rus.run_batch`` replaced (commit a4d0b80).  A single-trial run draws one
uniform per attempt from the caller's stream, so every sequence below must
stay identical; Monte Carlo estimates may differ only by summation rounding.

Regenerating the file (``python tests/test_retry_pins.py``) re-pins the draw
order and is only right when a change alters it on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import conftest
from rusamp import distortion, qcore, rus

PINS = Path(__file__).parent / "data" / "retry_pins.json"

# (m, lambda0, max_attempts, runs): the capped group exhausts some runs.
PLAIN = [(1, 0.3, rus.DEFAULT_MAX_ATTEMPTS, 100), (3, 0.2, 4, 100)]
# (m, lambda0, distorted, max_attempts, runs)
CONDITIONAL = [
    (1, 0.25, False, rus.DEFAULT_MAX_ATTEMPTS, 50),
    (1, 0.25, True, rus.DEFAULT_MAX_ATTEMPTS, 50),
    (4, 0.3, False, rus.DEFAULT_MAX_ATTEMPTS, 50),
    (4, 0.3, True, 5, 50),
]
# (m, lambda0, distorted, trials, max_attempts, seed)
MONTE_CARLO = [(1, 0.3, True, 4_000, rus.DEFAULT_MAX_ATTEMPTS, 61),
               (4, 0.15, True, 4_000, 6, 62)]


def _weights(rng, m: int) -> np.ndarray:
    gammas = rng.random(2**m) + 0.1
    return gammas / gammas.sum()


def _config(rng, trials=1, seed=0, max_attempts=rus.DEFAULT_MAX_ATTEMPTS):
    alpha = float(rng.uniform(0.2, 0.9))
    return distortion.DistortionConfig(
        alpha=alpha,
        beta=complex(0.0, np.sqrt(1.0 - alpha**2)),
        psi0=qcore.random_state(1, rng),
        psi1=qcore.random_state(1, rng),
        trials=trials,
        seed=seed,
        max_attempts=max_attempts,
    )


def plain_sequences() -> list[list]:
    groups = []
    for gi, (m, lambda0, cap, runs) in enumerate(PLAIN):
        rng = qcore.rng_stream(500 + gi)
        circ = conftest.make_circuit(lambda0, m=m, rng=rng)
        psi = qcore.random_state(1, rng)
        group = []
        for _ in range(runs):
            try:
                group.append(list(rus.run_rus(circ, psi, rng, cap).outcomes))
            except rus.MaxAttemptsExceeded:
                group.append(None)
        groups.append(group)
    return groups


def conditional_sequences() -> list[list]:
    groups = []
    for gi, (m, lambda0, distorted, cap, runs) in enumerate(CONDITIONAL):
        rng = qcore.rng_stream(600 + gi)
        base = conftest.make_circuit(lambda0, m=m, rng=rng)
        gammas = _weights(rng, m) if distorted else None
        cc = distortion.build_conditional(base, gammas, seed=gi)
        cfg = _config(rng, max_attempts=cap)
        group = []
        for _ in range(runs):
            try:
                record, _ = distortion.simulate_conditional_rus(cc, cfg, rng)
                group.append(list(record.outcomes))
            except rus.MaxAttemptsExceeded:
                group.append(None)
        groups.append(group)
    return groups


def monte_carlo_results() -> list[dict]:
    results = []
    for gi, (m, lambda0, distorted, trials, cap, seed) in enumerate(MONTE_CARLO):
        rng = qcore.rng_stream(700 + gi)
        base = conftest.make_circuit(lambda0, m=m, rng=rng)
        gammas = _weights(rng, m) if distorted else None
        cc = distortion.build_conditional(base, gammas, seed=gi)
        est = distortion.monte_carlo_fidelity(
            cc, _config(rng, trials=trials, seed=seed, max_attempts=cap)
        )
        results.append({"mean": est.mean, "std_error": est.std_error,
                        "trials": est.trials, "exhausted": est.exhausted})
    return results


@pytest.fixture(scope="module")
def pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def test_plain_sequences_pinned(pins):
    got = plain_sequences()
    assert got == pins["plain"]
    assert any(seq is None for seq in got[1])


def test_conditional_sequences_pinned(pins):
    got = conditional_sequences()
    assert got == pins["conditional"]
    assert any(seq is None for seq in got[3])


def test_monte_carlo_pinned(pins):
    for got, want in zip(monte_carlo_results(), pins["monte_carlo"], strict=True):
        assert got["trials"] == want["trials"]
        assert got["exhausted"] == want["exhausted"]
        assert got["mean"] == pytest.approx(want["mean"], abs=1e-12)
        assert got["std_error"] == pytest.approx(want["std_error"], abs=1e-12)
    assert pins["monte_carlo"][1]["exhausted"] > 0


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    payload = {"plain": plain_sequences(), "conditional": conditional_sequences(),
               "monte_carlo": monte_carlo_results()}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
