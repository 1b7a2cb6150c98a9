"""Synthesis and execution of repeat-until-success circuits.

A circuit acts on m ancilla qubits plus one data qubit.  On the all-zero
ancilla block it maps

    |0^m>|psi>  ->  sum_i sqrt(lambda_i) |i> W_i |psi>

with W_0 the target gate and W_i (i >= 1) the recoverable failure gates.
Measuring the ancillas and obtaining the all-zero outcome applies the target;
any other outcome i is undone by the inverse of the recovery gate, and the
attempt repeats with fresh ancillas.

A spec holds its branch gates W_i as one read-only (2**m, 2, 2) stack,
checked unitary once, where the gates enter: as ``UnitaryMatrix`` objects,
by ``spec_from_dict`` or by ``circuit_from_matrix``.  Specs and circuits
derived from a checked stack (compositions, closed-form columns, columns
read off a checked matrix) are built without a second check; the outcome
weights are checked on every path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .qcore import RngStream, StateVector, UnitaryMatrix

DEFAULT_MAX_ATTEMPTS = 10_000

# Residual threshold for recognizing the exact block structure above when
# deriving specs from inverted matrices.
STRUCTURE_ATOL = 1e-8

# Outcome weights below this are treated as exactly zero during extraction.
# Adjoints of amplified circuits leave residual blocks this small, where
# rounding noise would otherwise dominate the proportionality check.
ZERO_WEIGHT_ATOL = 1e-12

# Live states are unnormalized; once the smallest live total mass falls
# below this, far above the subnormal range (2**-1022), ``run_batch`` scales
# them back up by powers of two.
RESCALE_BELOW = 2.0**-600

# Most state entries (trials x register amplitudes) one ``run_batch`` call
# holds.  Its live and kept states take 16 bytes an entry each, so 2**25
# entries cap them at 1 GiB together.
MAX_BATCH_ENTRIES = 2**25


class MaxAttemptsExceeded(RuntimeError):
    """Raised when a run exhausts its attempt cap without a success outcome."""


def _checked_lambdas(m: int, lambdas) -> np.ndarray:
    """``lambdas`` as a read-only float copy; raises unless it holds 2**m
    non-negative outcome probabilities summing to 1."""
    if m < 1:
        raise ValueError("need at least one ancilla qubit")
    lambdas = np.array(lambdas, dtype=float, copy=True)
    lambdas.setflags(write=False)
    # No array has 2**64 entries; the cap keeps a huge m from building a
    # huge integer, and the message from printing one.
    if lambdas.shape != (2 ** min(m, 64),):
        raise ValueError(f"m={m} needs 2**m outcome probabilities, got {lambdas.size}")
    # Both checks are written so that NaN entries fail them; entries of at
    # most 1 keep the sum from overflowing.
    if not lambdas.min() >= 0:
        raise ValueError("outcome probabilities must be non-negative")
    if not (lambdas.max() <= 1.0 and abs(lambdas.sum() - 1.0) <= qcore.NORM_ATOL):
        raise ValueError("outcome probabilities must sum to 1")
    return lambdas


@dataclass(frozen=True, eq=False, init=False)
class RusSpec:
    """Declarative description of a repeat-until-success circuit.

    ``lambdas`` lists the outcome probabilities (success first) and must sum
    to one.  ``gates`` is the read-only (2**m, 2, 2) stack of branch gates
    W_i: the target in slot 0, then one recovery per failure outcome.
    ``seed`` is carried through the spec JSON and derived specs; no matrix
    depends on it.

    ``RusSpec(m, lambdas, target, recoveries=None, seed=0)`` stacks the
    matrices of ``UnitaryMatrix`` gates, checked when they were built;
    recoveries default to identities.  ``RusSpec.from_gates`` takes a stack
    already known to be unitary.  Both check ``lambdas``, and neither checks
    a gate again.
    """

    m: int
    lambdas: np.ndarray
    gates: np.ndarray
    seed: int = 0

    def __init__(self, m: int, lambdas, target: UnitaryMatrix,
                 recoveries: tuple[UnitaryMatrix, ...] | None = None, seed: int = 0) -> None:
        # The lambdas' shape is checked before 2**m - 1 recoveries are listed.
        lambdas = _checked_lambdas(m, lambdas)
        if target.dim != 2:
            raise ValueError("target must be a single-qubit gate")
        if recoveries is None:
            recoveries = (qcore.identity(1),) * (len(lambdas) - 1)
        recoveries = tuple(recoveries)
        if len(recoveries) != len(lambdas) - 1:
            raise ValueError(f"expected {len(lambdas) - 1} recovery gates")
        if any(r.dim != 2 for r in recoveries):
            raise ValueError("recovery gates must be single-qubit")
        self._set(m, lambdas, np.array([target.mat, *(r.mat for r in recoveries)]), seed)

    @classmethod
    def from_gates(cls, m: int, lambdas, gates: np.ndarray, seed: int = 0) -> RusSpec:
        """The spec over ``gates``, a complex (2**m, 2, 2) stack already known
        to be unitary: one ``qcore.unitary_stack`` returned, or unit phases
        times one.  The stack is frozen in place, not copied or checked
        again; ``lambdas`` is checked."""
        lambdas = _checked_lambdas(m, lambdas)
        if gates.shape != (len(lambdas), 2, 2):
            raise ValueError(f"expected {len(lambdas) - 1} recovery gates")
        spec = object.__new__(cls)
        spec._set(m, lambdas, gates, seed)
        return spec

    def _set(self, m: int, lambdas: np.ndarray, gates: np.ndarray, seed: int) -> None:
        gates.setflags(write=False)
        # A frozen dataclass's fields are set through its __dict__.
        self.__dict__.update(m=m, lambdas=lambdas, gates=gates, seed=seed)

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    def branch_gates(self) -> tuple[UnitaryMatrix, ...]:
        """All outcome gates W_i, with the target in slot 0: views of
        ``gates``."""
        return qcore.unitary_views(self.gates)

    @property
    def target(self) -> UnitaryMatrix:
        return self.branch_gates()[0]

    @property
    def recoveries(self) -> tuple[UnitaryMatrix, ...]:
        return self.branch_gates()[1:]

    def closed_form_columns(self) -> np.ndarray:
        """The closed-form columns, read-only: block i is sqrt(lambda_i) W_i."""
        columns = (np.sqrt(self.lambdas)[:, None, None] * self.gates).reshape(-1, 2)
        columns.setflags(write=False)
        return columns


@dataclass(frozen=True, eq=False)
class RusCircuit:
    """A circuit as its spec and its ``columns``, its action on ``|0^m>|psi>``.

    ``columns`` holds the first two columns of the circuit's unitary, one
    (2, 2) block per outcome; runs, success probabilities and retry frames
    read nothing else.  Columns given explicitly are checked orthonormal.
    Left out, they are taken, without a second check, from a checked
    ``UnitaryMatrix`` source, and otherwise from the spec in closed form,
    whose unit-weighted unitary blocks are orthonormal by construction.
    The full unitary ``a_matrix`` is built and checked only when read, from
    ``source``: ``None`` for a synthesized circuit, the checked
    ``UnitaryMatrix`` the circuit was read from, or an object whose
    ``matrix()`` builds it (``oaa.Composition`` for a composed circuit).
    """

    spec: RusSpec
    columns: np.ndarray | None = None
    source: object = None

    def __post_init__(self) -> None:
        given = self.columns is not None
        if not given:
            source = self.source
            object.__setattr__(self, "columns", source.mat[:, :2] if isinstance(
                source, UnitaryMatrix) else self.spec.closed_form_columns())
        if self.columns.shape != (2 ** (self.spec.m + 1), 2):
            raise ValueError("columns do not match spec")
        if given:
            qcore.check_isometry(self.columns)

    @cached_property
    def a_matrix(self) -> UnitaryMatrix:
        """The full unitary, built and checked on first read."""
        if self.source is None:
            return _synthesized_matrix(self.spec)
        if isinstance(self.source, UnitaryMatrix):
            return self.source
        return self.source.matrix()

    @cached_property
    def frame(self) -> RetryFrame:
        """The circuit's retry loop, built on first use."""
        return retry_frame(self.columns, undo_gates(self.spec))


@dataclass(frozen=True)
class RunRecord:
    """Outcome trace of one repeat-until-success run; final outcome is 0."""

    outcomes: tuple[int, ...]
    attempts: int
    final_state: StateVector


@dataclass(frozen=True, eq=False)
class BatchRun:
    """Per-trial results of :func:`run_batch`.

    ``attempts`` counts each trial's attempts (the cap where ``exhausted``);
    ``finals`` holds each successful trial's output state as a column (NaN
    where ``exhausted``); ``trial_log`` and ``outcome_log`` list every
    attempt's trial and outcome in draw order.
    """

    attempts: np.ndarray
    exhausted: np.ndarray
    finals: np.ndarray
    trial_log: np.ndarray
    outcome_log: np.ndarray

    def sequences(self) -> list[tuple[int, ...]]:
        """Outcome sequence of every trial, in attempt order."""
        order = np.argsort(self.trial_log, kind="stable")
        flat = self.outcome_log[order].tolist()
        ends = np.cumsum(self.attempts).tolist()
        return [tuple(flat[a:b]) for a, b in zip([0, *ends[:-1]], ends)]

    def first_record(self) -> RunRecord:
        """Record of the first trial; raises if that trial was exhausted."""
        attempts = int(self.attempts[0])
        if self.exhausted[0]:
            raise MaxAttemptsExceeded(f"no success outcome within {attempts} attempts")
        final = StateVector(self.finals.shape[0].bit_length() - 1, self.finals[:, 0])
        outcomes = tuple(self.outcome_log[self.trial_log == 0].tolist())
        return RunRecord(outcomes, attempts, final)


def build_rus_unitary(spec: RusSpec) -> RusCircuit:
    """Synthesize a circuit with the prescribed block action.

    Its columns are block i = sqrt(lambda_i) W_i in closed form.  The full
    unitary, built when ``a_matrix`` is first read, factors as
    (outcome-controlled branch gates) after the ancilla rotation
    ``qcore.householder(sqrt(lambda))``, a real symmetric reflection whose
    first column and first row are the amplitude vector sqrt(lambda); no
    random stream is drawn, so ``spec.seed`` changes nothing.  The adjoint's
    block i on the all-zero ancilla input is sqrt(lambda_i) W_0^dag, so the
    inverse circuit keeps the weights and runs as well.
    """
    return RusCircuit(spec)


def _synthesized_matrix(spec: RusSpec) -> UnitaryMatrix:
    """The full unitary of ``build_rus_unitary(spec)``, checked: block (i, j)
    is H_ij W_i for the reflection H = ``qcore.householder(sqrt(lambda))``."""
    rotation = qcore.householder(np.sqrt(spec.lambdas))
    dim = 2 ** (spec.m + 1)
    # Indexed (outcome i, data out, ancilla in j, data in).
    blocks = rotation[:, None, :, None] * spec.gates[:, :, None, :]
    return UnitaryMatrix(blocks.reshape(dim, dim))


def success_probability(c: RusCircuit, psi: StateVector) -> float:
    """Probability of the all-zero ancilla outcome on input ``psi``."""
    if psi.num_qubits != 1:
        raise ValueError("data register is a single qubit")
    return float(np.sum(np.abs(c.columns[:2] @ psi.amps) ** 2))


def undo_gates(spec: RusSpec) -> np.ndarray:
    """Inverse recovery gates stacked in failure-outcome order."""
    return spec.gates[1:].conj().transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class RetryFrame:
    """A circuit's retry loop in the diagonal frame of its outcomes.

    Once its recovery is undone, every failure block is diagonal on the
    register, and so is the success block's Gram matrix ``U_0^dag U_0``.
    Every outcome's mass is then linear in the squared moduli of the state,
    and the history of a run survives as per-outcome weights.  ``success``
    is ``U_0``, and ``d_i``, row ``i - 1`` of ``diagonals``, is the diagonal
    of failure outcome i's undone block.  An outcome's mass row is the
    diagonal of ``U_0^dag U_0`` for success and ``|d_i|^2`` for failure i;
    ``cumulative`` sums these rows over the outcomes ``reachable`` lists,
    those whose row is not all zero, so a draw can never land on the others.
    Its last row, the total mass of each register entry, is 1 on every entry
    a run's state may touch, which ``run_batch`` checks once per call.  An
    outcome whose row is zero only on a trial's support keeps its row; the
    product can round it a few ulp above the one before it, so a draw may
    reach it with odds near 1e-16, and that trial's state turns all zero,
    which the next attempt's positive-total guard rejects.
    """

    success: np.ndarray
    diagonals: np.ndarray
    cumulative: np.ndarray
    reachable: np.ndarray


def retry_frame(columns: np.ndarray, undo: np.ndarray) -> RetryFrame:
    """Fold each inverse recovery into its failure block; keep the diagonals.

    ``columns`` is the circuit restricted to the all-zero ancilla input, one
    block of ``register`` rows per outcome; ``undo[i - 1]`` undoes failure
    outcome i on the register (stacked as ``undo_gates`` returns them).
    Raises ``ValueError`` unless the success block's Gram matrix and every
    undone failure block are diagonal.
    """
    register = columns.shape[-1]
    n_outcomes = len(undo) + 1
    if columns.shape != (n_outcomes * register, register):
        raise ValueError("columns must hold one register block per outcome")
    blocks = np.asarray(columns, np.complex128).reshape(n_outcomes, register, register)
    gram = blocks[0].conj().T @ blocks[0]
    checked = np.concatenate((gram[None], undo @ blocks[1:]))
    diagonals = np.diagonal(checked, axis1=1, axis2=2)
    residual = np.abs(checked - diagonals[:, :, None] * np.eye(register)).max()
    # Written so that NaN entries fail the check.
    if not residual <= qcore.NORM_ATOL:
        raise ValueError(
            f"success Gram matrix or undone failure blocks are not diagonal: "
            f"off-diagonal residual {residual} exceeds {qcore.NORM_ATOL}"
        )
    masses = np.abs(diagonals) ** 2
    masses[0] = diagonals[0].real
    # A product need not round equal rows alike, so an outcome whose mass
    # row is all zero is left out of the draw rather than given a row equal
    # to the last one.
    reachable = np.flatnonzero(masses.any(axis=1))
    return RetryFrame(
        blocks[0], np.ascontiguousarray(diagonals[1:]),
        np.cumsum(masses[reachable], axis=0), reachable,
    )


def run_batch(
    frame: RetryFrame,
    state: np.ndarray,
    trials: int,
    rng: RngStream,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> BatchRun:
    """Repeat until success for ``trials`` runs that all start in ``state``.

    Live trials are rows of an (alive, register) array of unnormalized
    states.  Each attempt takes one product, ``frame.cumulative @ |psi|^2``,
    and measures every live trial with one uniform from ``rng``, in trial
    order, scaled by its column's total, so a single trial draws exactly as
    a per-trial loop would.  Failure i multiplies a trial by ``d_i``; a
    success is divided once by the square root of its success mass, the
    product's row for outcome 0, and ``U_0`` is applied to all of them once,
    after the loop.

    The norms are checked where they are exact.  On the first attempt the
    input state's norm must be 1 and the frame's masses must sum to 1 on the
    register entries the state touches, which diagonal failures never leave;
    each later attempt only needs every live total to be positive, so a NaN
    or all-zero state raises ``ValueError``.  Once the smallest live total
    falls below ``RESCALE_BELOW`` (2**-600), every live state is scaled
    back up by a power of two, which is exact: it changes no draw and no
    final bit.  A batch over ``MAX_BATCH_ENTRIES`` state entries raises
    ``MemoryError`` before it allocates anything.
    """
    register = frame.success.shape[1]
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (register,):
        raise ValueError("state does not match the frame's register")
    if trials * register > MAX_BATCH_ENTRIES:
        raise MemoryError(
            f"{trials} trials of {register} amplitudes exceed the batch limit of "
            f"{MAX_BATCH_ENTRIES} state entries"
        )
    current = np.repeat(state[None], trials, axis=0)
    # Each success keeps its state and mass; the division waits for the end,
    # and the rows of trials still alive there are set to NaN.
    kept = np.empty((trials, register), dtype=np.complex128)
    kept_mass = np.ones(trials)
    alive = np.arange(trials)
    trial_log, outcome_log = [alive[:0]], [alive[:0]]
    for attempt in range(max_attempts):
        if alive.size == 0:
            break
        cdf = frame.cumulative @ (np.abs(current) ** 2).T
        total = cdf[-1]
        if attempt == 0:
            _check_start(frame, state, total[0])
        else:
            low = total.min()
            if not low >= RESCALE_BELOW:
                # Written so that a NaN total fails the check as well.
                if not low > 0.0:
                    raise ValueError(f"a live state's total mass is {low}, not positive")
                # Powers of two scale exactly, so no draw and no final moves.
                scale = np.ldexp(1.0, -(np.frexp(total)[1] // 2))
                current = current * scale[:, None]
                cdf = cdf * scale**2
        outcome = frame.reachable[qcore.draw_outcomes(cdf, rng)]
        trial_log.append(alive)
        outcome_log.append(outcome)
        failed = np.flatnonzero(outcome)
        if failed.size < alive.size:
            done = np.flatnonzero(outcome == 0)
            ended = alive[done]
            kept[ended] = current[done]
            kept_mass[ended] = cdf[0, done]
        alive = alive[failed]
        current = frame.diagonals[outcome[failed] - 1] * current[failed]
    exhausted = np.zeros(trials, dtype=bool)
    exhausted[alive] = True
    kept[alive] = np.nan
    trial_log = np.concatenate(trial_log)
    return BatchRun(
        attempts=np.bincount(trial_log, minlength=trials),
        exhausted=exhausted,
        finals=frame.success @ (kept / np.sqrt(kept_mass)[:, None]).T,
        trial_log=trial_log,
        outcome_log=np.concatenate(outcome_log),
    )


def _check_start(frame: RetryFrame, state: np.ndarray, total: float) -> None:
    """Raise unless ``state`` has norm 1 and the frame's masses sum to 1 on
    every register entry it touches; ``total`` is the state's total mass."""
    drift = np.abs(frame.cumulative[-1] - 1.0).max(where=state != 0, initial=0.0)
    # Written so that NaN masses fail the check.
    if not drift <= qcore.NORM_ATOL:
        raise ValueError(
            f"outcome masses sum to 1 only within {drift} on the state's "
            f"entries, beyond {qcore.NORM_ATOL}"
        )
    qcore.check_norm(math.sqrt(total))


def run_rus(
    c: RusCircuit,
    psi: StateVector,
    rng: RngStream,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> RunRecord:
    """Repeat until the success outcome; undo failures with recovery inverses."""
    if psi.num_qubits != 1:
        raise ValueError("data register is a single qubit")
    return run_batch(c.frame, psi.amps, 1, rng, max_attempts).first_record()


def circuit_from_matrix(
    matrix: UnitaryMatrix, m: int, seed: int = 0
) -> RusCircuit:
    """Derive the spec realized by ``matrix`` from its all-zero-ancilla block.

    Valid whenever the matrix carries exact block structure, i.e. each
    outcome block of its action on |0^m>|psi> is proportional to a unitary;
    this holds for synthesized and amplified circuits and for their
    adjoints.  Branch phases are kept on the extracted gates.
    """
    if matrix.dim != 2 ** (m + 1):
        raise ValueError("matrix dimension does not match ancilla count")
    cols = matrix.mat[:, 0:2].reshape(2**m, 2, 2)  # [outcome, data-out, data-in]
    lambdas = np.sum(np.abs(cols) ** 2, axis=(1, 2)) / 2.0
    # Blocks too small to test for structure count as zero; their polar
    # factors still undo them, which keeps the retry frame's undone blocks
    # diagonal.
    small = lambdas < ZERO_WEIGHT_ATOL
    lambdas[small] = 0.0
    grams = cols.conj().transpose(0, 2, 1) @ cols
    residual = np.abs(
        grams / np.where(small, 1.0, lambdas)[:, None, None] - np.eye(2)
    ).max(axis=(1, 2))
    # Written so that NaN fails the check.
    broken = np.flatnonzero(~small & ~(residual <= STRUCTURE_ATOL))
    if broken.size:
        raise ValueError(
            f"outcome block {broken[0]} is not proportional to a unitary; "
            "matrix does not realize a repeat-until-success circuit"
        )
    # A block's polar factor does not change when the block is scaled, so
    # one SVD gives every outcome's gate, stripped of rounding noise; the
    # stack is checked once, here.
    u, _, vh = np.linalg.svd(cols)
    gates = qcore.unitary_stack(u @ vh)
    spec = RusSpec.from_gates(m, lambdas / lambdas.sum(), gates, seed)
    return RusCircuit(spec, source=matrix)


def inverse_rus(c: RusCircuit) -> RusCircuit:
    """Circuit realizing the inverse target with the same success probability."""
    return circuit_from_matrix(c.a_matrix.dagger(), c.spec.m, seed=c.spec.seed)


def _matrix_from_json(pairs: list[list[float]], dim: int) -> np.ndarray:
    flat = np.array(pairs, dtype=float)
    if flat.shape != (dim * dim, 2):
        raise ValueError(f"expected {dim * dim} [re, im] matrix entries")
    return flat.view(np.complex128).reshape(dim, dim)


_SPEC_FIELDS = ("m", "lambdas", "target", "recoveries", "seed")


def spec_to_dict(spec: RusSpec) -> dict:
    # Each gate as its [re, im] entry pairs, row by row.
    pairs = np.stack([spec.gates.real, spec.gates.imag], axis=-1)
    target, *recoveries = pairs.reshape(len(spec.gates), 4, 2).tolist()
    return {
        "m": spec.m,
        "lambdas": spec.lambdas.tolist(),
        "target": target,
        "recoveries": recoveries,
        "seed": spec.seed,
    }


def spec_from_dict(data: dict) -> RusSpec:
    """Inverse of ``spec_to_dict``; raises ``ValueError`` on malformed input."""
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    for key in _SPEC_FIELDS:
        if key not in data:
            raise ValueError(f"spec field {key!r} is missing")
    try:
        lambdas = np.array(data["lambdas"], dtype=float)
        gates = qcore.unitary_stack(
            [_matrix_from_json(g, 2) for g in (data["target"], *data["recoveries"])]
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed spec: {exc}") from exc
    if lambdas.ndim != 1:
        raise ValueError(
            f"spec field 'lambdas' must be a flat list of numbers, got shape {lambdas.shape}"
        )
    return RusSpec.from_gates(
        qcore.check_integer(data["m"], "spec field 'm'"),
        lambdas,
        gates,
        qcore.check_integer(data["seed"], "spec field 'seed'", non_negative=True),
    )


def save_spec(spec: RusSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path) -> RusSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"spec {str(path)!r} nests too deeply to read") from None
    return spec_from_dict(data)
