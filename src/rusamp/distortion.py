"""Amplitude distortion of conditionally controlled repeat-until-success gates.

When a repeat-until-success circuit is applied under a control qubit, the
control-|0> branch must idle while the control-|1> branch runs attempts.
Giving the idle branch an ancilla "distorter" with outcome weights gamma_i
makes each measurement outcome multiply the two branches by sqrt(gamma_i)
and sqrt(lambda_i) respectively, so the branch ratio random-walks until the
success outcome ends the run.  This module builds the controlled operators,
evaluates the resulting average fidelity in closed form, and estimates it
independently by direct stochastic simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore, rus
from .qcore import RngStream, StateVector, UnitaryMatrix
from .rus import RunRecord, RusCircuit


# The branch of each (data, control) entry: the control bit.
_CONTROL_BRANCHES = np.array([0, 1, 0, 1])
_CONTROL_BRANCHES.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ConditionalCircuit:
    """Controlled operator: distorter (or identity) on control |0>, A on |1>.

    ``gammas`` is None for the undistorted variant, whose idle branch leaves
    the ancillas alone and therefore always yields the all-zero outcome.
    ``frame`` is the retry loop on (data, control) with two branches, the
    control bit: failures undo the recovery on the control-|1> branch only,
    which leaves outcome i the masses gamma_i and lambda_i on the two
    branches (gamma_i being the square of the distorter's first-column
    entry, and e_0 undistorted), so a run carries two reals per trial.
    """

    base: RusCircuit
    gammas: np.ndarray | None
    distorter: UnitaryMatrix | None
    frame: rus.RetryFrame


def _check_control(alpha: complex, beta: complex) -> None:
    # Written so that NaN amplitudes fail the check.
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= qcore.NORM_ATOL:
        raise ValueError("control amplitudes must be normalized")


def _check_weights(weights: np.ndarray) -> None:
    # Written so that NaN weights fail the checks; entries of at most 1 keep
    # the sum from overflowing.
    if not (np.all((weights >= 0) & (weights <= 1.0))
            and abs(weights.sum() - 1.0) <= qcore.NORM_ATOL):
        raise ValueError("weights must be non-negative and sum to 1")


@dataclass(frozen=True, eq=False)
class DistortionConfig:
    """Input superposition alpha |psi0>|0> + beta |psi1>|1> plus run controls."""

    alpha: complex
    beta: complex
    psi0: StateVector
    psi1: StateVector
    trials: int
    seed: int
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        _check_control(self.alpha, self.beta)
        if self.psi0.num_qubits != 1 or self.psi1.num_qubits != 1:
            raise ValueError("branch states are single-qubit")
        if self.trials < 1 or self.max_attempts < 1:
            raise ValueError("need at least one trial and one attempt per trial")


@dataclass(frozen=True)
class FidelityEstimate:
    mean: float
    std_error: float
    trials: int
    exhausted: int = 0


def build_distorter(gammas: np.ndarray) -> UnitaryMatrix:
    """Ancilla unitary sending |0^m> to sum_i sqrt(gamma_i) |i>.

    For a single ancilla this is exactly the y-rotation with
    cos(pi/2 - theta') = sqrt(gamma_0); on larger registers it is the real
    symmetric reflection ``qcore.householder(sqrt(gamma))``.
    """
    gammas = np.asarray(gammas, dtype=float)
    dim = gammas.shape[0]
    if dim & (dim - 1) or dim < 2:
        raise ValueError("weight vector length must be a power of two, >= 2")
    _check_weights(gammas)
    column = np.sqrt(gammas)
    if dim == 2:
        angle = math.pi / 2.0 - math.asin(column[0])
        mat = np.array(
            [
                [math.cos(angle), -math.sin(angle)],
                [math.sin(angle), math.cos(angle)],
            ]
        )
        return UnitaryMatrix(mat)
    return UnitaryMatrix(qcore.householder(column))


def build_conditional(
    base: RusCircuit, gammas: np.ndarray | None = None, seed: int = 0
) -> ConditionalCircuit:
    """The controlled operator on (ancillas, data, control) as a retry loop.

    Every attempt starts on fresh all-zero ancillas, so the frame needs only
    the operator's columns on that input: the distorter's first column (or
    ``|0^m>``) times the data identity on control |0>, and A's columns on
    control |1>.  Undone, outcome i weighs the two branches by that column's
    entry i and by sqrt(lambda_i), so the frame's mass rows are the column's
    squares and lambda, and its success block is the column's first entry
    times the identity beside A's success block.  ``seed`` is accepted for
    callers that pass one; no matrix depends on it.
    """
    m = base.spec.m
    if gammas is None:
        idle = np.eye(2**m)[0]
        distorter = None
    else:
        gammas = np.asarray(gammas, dtype=float)
        if gammas.shape != (2**m,):
            raise ValueError(f"expected {2**m} distorter weights")
        distorter = build_distorter(gammas)
        # Squares of the column itself keep the masses those of the success
        # block: at m = 1 the rotation's column is not sqrt(gamma) to the bit.
        idle = distorter.mat[:, 0].real
        gammas = gammas.copy()
        gammas.setflags(write=False)
    # (data, control) entries, control least significant.
    success = np.zeros((4, 4), dtype=np.complex128)
    success[0::2, 0::2] = idle[0] * np.eye(2)
    success[1::2, 1::2] = base.columns[:2]
    return ConditionalCircuit(
        base=base, gammas=gammas, distorter=distorter,
        frame=rus.retry_frame(success, _CONTROL_BRANCHES,
                              np.stack((idle * idle, base.spec.lambdas), axis=1)),
    )


def single_shot_overlap(lambda0: float) -> float:
    """Squared overlap after one immediately successful undistorted attempt,
    for the balanced input alpha = beta = 1/sqrt(2)."""
    if not 0.0 <= lambda0 <= 1.0:
        raise ValueError("success probability must lie in [0, 1]")
    return (1.0 + math.sqrt(lambda0)) ** 2 / (2.0 * (1.0 + lambda0))


def _averaged_fidelity(a2: float, b2: float, cross: float, overlap):
    """``a2^2 + 2 a2 b2 sqrt(cross) / (1 - overlap) + b2^2`` for
    ``cross = gamma_0 lambda_0`` and ``overlap = sum_{i != 0}
    sqrt(gamma_i lambda_i)``, one value or an array of them (one per draw)."""
    if cross == 0.0:
        # One branch can never reach the success outcome; only the diagonal
        # terms survive.
        return np.full(np.shape(overlap), a2**2 + b2**2)
    return a2**2 + 2.0 * a2 * b2 * math.sqrt(cross) / (1.0 - overlap) + b2**2


def average_fidelity_closed(
    alpha: complex, beta: complex, gammas: np.ndarray, lambdas: np.ndarray
) -> float:
    """Sequence-averaged fidelity of the distorted conditional gate.

    Averaging the per-sequence overlaps over the outcome-sequence
    distribution telescopes into

        |alpha|^4 + 2 |alpha|^2 |beta|^2 sqrt(gamma_0 lambda_0) / Gamma
                  + |beta|^4,
        Gamma = 1 - sum_{i != 0} sqrt(gamma_i lambda_i).
    """
    gammas = np.asarray(gammas, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if gammas.shape != lambdas.shape:
        raise ValueError("weight vectors must have matching length")
    _check_weights(gammas)
    _check_weights(lambdas)
    _check_control(alpha, beta)
    return float(_averaged_fidelity(
        abs(alpha) ** 2, abs(beta) ** 2, gammas[0] * lambdas[0],
        np.sum(np.sqrt(gammas[1:] * lambdas[1:])),
    ))


def average_fidelity_m1(
    alpha: complex, beta: complex, gamma0: float, lambda0: float
) -> float:
    """Single-ancilla reduction of the averaged fidelity."""
    return average_fidelity_closed(
        alpha, beta, np.array([gamma0, 1.0 - gamma0]),
        np.array([lambda0, 1.0 - lambda0]),
    )


def _initial_pair(cfg: DistortionConfig) -> np.ndarray:
    # (data, control) amplitudes, control least significant.
    amps = np.zeros(4, dtype=np.complex128)
    amps[0::2] = cfg.alpha * cfg.psi0.amps
    amps[1::2] = cfg.beta * cfg.psi1.amps
    return amps


def ideal_conditional_state(
    cc: ConditionalCircuit, cfg: DistortionConfig
) -> StateVector:
    """Distortion-free reference: the target applied on the control-|1> branch."""
    amps = _initial_pair(cfg)
    amps[1::2] = cfg.beta * (cc.base.spec.gates[0] @ cfg.psi1.amps)
    # The target is unitary only to within UNITARY_ATOL, so this state's
    # norm can miss 1 by more than NORM_ATOL: it is normalized as a run's
    # final is.
    return StateVector(2, amps / math.hypot(*map(abs, amps.tolist())))


def simulate_conditional_rus(
    cc: ConditionalCircuit, cfg: DistortionConfig, rng: RngStream
) -> tuple[RunRecord, StateVector]:
    """One stochastic run of the conditional loop on fresh ancillas per attempt.

    Failure outcomes apply the controlled recovery inverse; the run ends on
    the all-zero outcome and returns the surviving (data, control) state.
    """
    record = rus.run_batch(
        cc.frame, _initial_pair(cfg), 1, rng, cfg.max_attempts
    ).first_record()
    return record, record.final_state


def monte_carlo_fidelity(
    cc: ConditionalCircuit, cfg: DistortionConfig
) -> FidelityEstimate:
    """Estimate the averaged fidelity by simulating ``cfg.trials`` runs.

    Trials are advanced as one batch (equivalent to independent runs with a
    shared draw order); runs that exhaust the attempt cap are excluded from
    the mean and reported in ``exhausted``.
    """
    batch = rus.run_batch(cc.frame, _initial_pair(cfg), cfg.trials,
                          qcore.rng_stream(cfg.seed), cfg.max_attempts)
    exhausted = int(batch.exhausted.sum())
    count = cfg.trials - exhausted
    if count == 0:
        return FidelityEstimate(math.nan, math.nan, 0, exhausted)
    ideal = ideal_conditional_state(cc, cfg).amps
    # The overlaps are taken over every column, in the finals' own layout;
    # the exhausted trials' NaN entries are left out only when there are any.
    sample = np.abs(ideal.conj() @ batch.finals) ** 2
    if exhausted:
        sample = sample[~batch.exhausted]
    mean = float(sample.mean())
    std_error = float(sample.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return FidelityEstimate(mean, std_error, count, exhausted)


class FigureRow(NamedTuple):
    x: float
    curve_id: str
    mean: float
    std: float
    n_samples: int
    seed: int


# Relative detuning used by the distorted-weight curves.
DETUNING = 0.3
GRID_POINTS = 50
DRAWS_PER_POINT = 1000
# Failure outcomes of the four-ancilla figures, 2^4 - 1.
FAILURE_SLOTS = 15
_BALANCED = complex(1.0 / math.sqrt(2.0))

_GAMMA0_CURVES = {
    "gamma_one": lambda lam0: 1.0,
    "gamma_over": lambda lam0: min(1.0, lam0 * (1.0 + DETUNING)),
    "gamma_under": lambda lam0: lam0 * (1.0 - DETUNING),
    "gamma_matched": lambda lam0: lam0,
}


def _random_split(rng: RngStream, mass: float) -> np.ndarray:
    """iid uniforms per draw, rescaled so each row sums to ``mass``."""
    raw = rng.random((DRAWS_PER_POINT, FAILURE_SLOTS))
    if mass == 0.0:
        return np.zeros_like(raw)
    return raw * (mass / raw.sum(axis=1))[:, None]


def _closed_point(gamma0: float, lambda0: float, rng: None) -> tuple:
    return average_fidelity_m1(_BALANCED, _BALANCED, gamma0, lambda0), 0.0, 1


def _sampled_point(gamma0: float, lambda0: float, rng: RngStream) -> tuple:
    gamma_rest = _random_split(rng, 1.0 - gamma0)
    lambda_rest = _random_split(rng, 1.0 - lambda0)
    fids = _averaged_fidelity(0.5, 0.5, gamma0 * lambda0,
                              np.sum(np.sqrt(gamma_rest * lambda_rest), axis=1))
    return float(fids.mean()), float(fids.std(ddof=1)), DRAWS_PER_POINT


def _grid_rows(xs: list, lambda0s: list, curves: dict, point, seed: int) -> list[FigureRow]:
    """Rows curve-major over the grid; ``point`` gives a point's (mean, std,
    n_samples).  A sampled point draws from its own substream of ``seed``;
    the closed-form point draws nothing, so no streams are spawned for it."""
    count = len(curves) * len(xs)
    sampled = point is _sampled_point
    streams = iter(qcore.substreams(seed, count) if sampled else [None] * count)
    return [
        FigureRow(x, curve_id, *point(gamma0_of(lam0), lam0, next(streams)), seed)
        for curve_id, gamma0_of in curves.items()
        for x, lam0 in zip(xs, lambda0s)
    ]


def figure1_data(panel: str, seed: int) -> list[FigureRow]:
    """Averaged fidelity vs lambda0 for four gamma_0 relations.

    ``left``: single ancilla, fully closed form.  ``right``: four ancillas
    with the failure weights of both distributions drawn at random per point;
    rows carry the sample mean and standard deviation.
    """
    if panel not in ("left", "right"):
        raise ValueError("panel must be 'left' or 'right'")
    grid = np.linspace(0.02, 0.98, GRID_POINTS).tolist()
    point = _closed_point if panel == "left" else _sampled_point
    return _grid_rows(grid, grid, _GAMMA0_CURVES, point, seed)


def figure3_data(seed: int) -> list[FigureRow]:
    """Averaged fidelity vs residual failure of an amplified circuit.

    The control-|1> branch is taken post-amplification with success
    1 - eps; the x axis sweeps eps on a log grid, four ancillas, with both
    failure distributions drawn at random per point.
    """
    eps_grid = np.geomspace(1e-6, 1e-1, GRID_POINTS).tolist()
    curves = {k: f for k, f in _GAMMA0_CURVES.items() if k != "gamma_over"}
    return _grid_rows(eps_grid, [1.0 - eps for eps in eps_grid], curves,
                      _sampled_point, seed)
