"""Synthesis and execution of repeat-until-success circuits.

A circuit acts on m ancilla qubits plus one data qubit.  On the all-zero
ancilla block it maps

    |0^m>|psi>  ->  sum_i sqrt(lambda_i) |i> W_i |psi>

with W_0 the target gate and W_i (i >= 1) the recoverable failure gates.
Measuring the ancillas and obtaining the all-zero outcome applies the target;
any other outcome i is undone by the inverse of the recovery gate, and the
attempt repeats with fresh ancillas.

A spec holds its branch gates W_i as one read-only (2**m, 2, 2) stack,
checked unitary once, where the gates enter: as ``UnitaryMatrix`` objects
or by ``spec_from_dict``.  Specs derived from a checked stack (compositions
and inverses) are built without a second check of it.  The outcome weights
are checked where they enter and in inverses; a composition divides the
weights it derives by their sum, so ``RusSpec.derived`` takes them
unchecked.  A circuit's columns are always its spec's closed form.

On the oblivious amplitude-amplification (OAA) planes a circuit with
s^2 = lambda_0 and c^2 = 1 - lambda_0 maps |0^m> psi and V psi to
|0^m> W_0 psi and Phi psi as a = [[s, c], [c, -s]], where Phi psi =
sum_{i >= 1} sqrt(lambda_i / c^2) |i> W_i psi and V, the circuit's
``complement``, is sum_{i >= 1} sqrt(v_i) |i> G_i (Berry, Childs, Cleve,
Kothari & Somma, arXiv:1312.1414).  So the inverse circuit follows from
a, W_0 and V in closed form, with no matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qcore
from .qcore import RngStream, StateVector, UnitaryMatrix

DEFAULT_MAX_ATTEMPTS = 10_000

# Live states are unnormalized; once the smallest live total mass falls
# below this, far above the subnormal range (2**-1022), ``run_batch`` scales
# them back up by powers of two.
RESCALE_BELOW = 2.0**-600

# Most entries one ``run_batch`` call holds: per trial, one per register
# amplitude and one per reachable outcome.  A register entry holds at most
# 32 bytes: no final is built, so a trial holds only its histories, four
# 8-byte floats per branch at once (the live history, its outcome's mass
# row, their product and the kept history), and its 8-byte attempt count,
# and the package's frames have one branch per two amplitudes.  An outcome
# entry holds each attempt's float cumulative masses and their rescaled copy
# (8 bytes each) and the comparison of every row but the last with the
# uniforms (1 byte), 17 bytes at most.  So 2**25 entries cap a batch at
# about 1 GiB.  The draws, one byte per trial and attempt, grow with the
# attempt cap instead.
MAX_BATCH_ENTRIES = 2**25

# A plain circuit's register entries share one branch.
_ONE_BRANCH = np.zeros(2, dtype=np.intp)
_ONE_BRANCH.setflags(write=False)


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
    a gate again; ``RusSpec.derived`` checks neither.
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
        return cls.derived(m, lambdas, gates, seed)

    @classmethod
    def derived(cls, m: int, lambdas: np.ndarray, gates: np.ndarray, seed: int = 0) -> RusSpec:
        """The spec over a float (2**m,) weight vector and a complex
        (2**m, 2, 2) gate stack derived from a checked spec by a rule that
        keeps both checked: weights non-negative and summing to 1 within
        ``qcore.NORM_ATOL``, gates unitary.  Both are frozen in place, not
        copied or checked again."""
        spec = object.__new__(cls)
        spec._set(m, lambdas, gates, seed)
        return spec

    def _set(self, m: int, lambdas: np.ndarray, gates: np.ndarray, seed: int) -> None:
        lambdas.setflags(write=False)
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

    def failure_share(self) -> np.ndarray:
        """How the failure state Phi splits over the failure outcomes: each
        failure weight over their sum, read-only.  Without failure weight
        Phi is the first failure block."""
        return self.failure_split()[1]

    def failure_split(self) -> tuple[float, np.ndarray]:
        """The failure mass, the sum of the failure weights, and the failure
        share, from one sum of the weights."""
        failures = self.lambdas[1:]
        mass = float(failures.sum())
        # The weights are non-negative, so only all-zero ones sum to 0.
        if mass > 0.0:
            share = failures / mass
        else:
            share = np.zeros(len(failures))
            share[0] = 1.0
        share.setflags(write=False)
        return mass, share


class Complement(NamedTuple):
    """A unit state off the all-zero outcome, sum_{i >= 1} sqrt(v_i) |i> G_i:
    a circuit's plane complement V, or its failure state Phi.

    ``weights`` holds v, summing to 1, and ``gates`` the unitary
    (2**m - 1, 2, 2) stack G; a circuit's V keeps both read-only.
    """

    weights: np.ndarray
    gates: np.ndarray

    def columns(self) -> np.ndarray:
        """The state as one (2, 2) block per outcome, block 0 zero."""
        blocks = np.zeros((len(self.gates) + 1, 2, 2), dtype=np.complex128)
        blocks[1:] = np.sqrt(self.weights)[:, None, None] * self.gates
        return blocks.reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class RusCircuit:
    """A circuit as its spec and the ``source`` its full unitary comes from.

    ``columns``, the first two columns of the circuit's unitary (its action
    on ``|0^m>|psi>``, one (2, 2) block per outcome), are the spec's closed
    form; runs, success probabilities and retry frames read nothing else.
    ``complement`` is V on the OAA planes, derived on first read.  The full
    unitary ``a_matrix`` is built only when read, from ``source``: ``None``
    for a synthesized circuit, whose matrix is a product of checked
    factors and is not checked again, otherwise an object
    whose ``matrix()`` builds it and whose ``complement()`` derives V
    (``oaa.Composition`` for a composed circuit, ``Adjoint`` for an
    inverse).
    """

    spec: RusSpec
    source: object = None

    @cached_property
    def columns(self) -> np.ndarray:
        return self.spec.closed_form_columns()

    @cached_property
    def complement(self) -> Complement:
        if self.source is not None:
            return self.source.complement()
        # V = A^dag (c |0^m> W_0 - s Phi) is sqrt(v_i) |i> on each failure
        # outcome, v being the failure share.  Without failure weight no
        # column reads V, and this unit state serves.
        identities = np.broadcast_to(np.eye(2, dtype=np.complex128), self.spec.gates[1:].shape)
        return Complement(self.spec.failure_share(), identities)

    @cached_property
    def a_matrix(self) -> UnitaryMatrix:
        """The full unitary, built on first read."""
        if self.source is None:
            return _synthesized_matrix(self.spec)
        return self.source.matrix()

    @cached_property
    def frame(self) -> RetryFrame:
        """The circuit's retry loop, built on first use: one branch, weighted
        by lambda, and the success block sqrt(lambda_0) W_0."""
        return retry_frame(self.columns[:2], _ONE_BRANCH, self.spec.lambdas[:, None])


@dataclass(frozen=True, eq=False)
class Adjoint:
    """How an inverse circuit's full unitary and complement follow from
    its ``base``."""

    base: RusCircuit

    def matrix(self) -> UnitaryMatrix:
        return self.base.a_matrix.dagger()

    def complement(self) -> Complement:
        """V' = Phi W_0^dag: the base's failure share, and G'_i = W_i W_0^dag."""
        spec = self.base.spec
        gates = spec.gates[1:] @ spec.gates[0].conj().T
        gates.setflags(write=False)
        return Complement(spec.failure_share(), gates)


@dataclass(frozen=True)
class RunRecord:
    """Outcome trace of one repeat-until-success run; final outcome is 0."""

    outcomes: tuple[int, ...]
    attempts: int
    final_state: StateVector


# Not frozen: a frozen dataclass sets each field through
# object.__setattr__, about four times the cost of a plain one, and every
# single-trial run builds a record.  Its arrays are writable either way.
@dataclass(eq=False)
class BatchRun:
    """Per-trial results of :func:`run_batch`, and the record they are read
    from.

    ``attempts`` counts each trial's attempts (the cap where ``exhausted``).
    The record holds the run's ``frame``, the start state's branch
    ``images`` U_0 psi_b (``_CheckedStart``), each success's branch history
    h as a column of ``kept`` (NaN where ``exhausted``), and ``draws``, each
    attempt's draws as indices into ``frame.reachable``, one per live trial
    in trial order.  A success's final is sum_b sqrt(h_b) U_0 psi_b,
    normalized: ``fidelities(target)`` and ``first_record`` read it so, and
    ``sequences()`` lists the draws trial by trial.
    """

    attempts: np.ndarray
    exhausted: np.ndarray
    frame: RetryFrame
    images: np.ndarray
    kept: np.ndarray
    draws: list[np.ndarray]

    def sequences(self) -> list[tuple[int, ...]]:
        """Outcome sequence of every trial, in attempt order."""
        # Attempt k's live trials are those with more than k attempts, in
        # trial order: listed trial by trial, a stable sort by attempt puts
        # every (attempt, trial) pair where it was drawn.
        starts = np.cumsum(self.attempts) - self.attempts
        step = np.arange(int(self.attempts.sum())) - np.repeat(starts, self.attempts)
        drawn = self.frame.reachable.take(np.concatenate([np.arange(0), *self.draws]))
        flat = np.empty_like(drawn)
        flat[np.argsort(step, kind="stable")] = drawn
        flat = flat.tolist()
        ends = np.cumsum(self.attempts).tolist()
        return [tuple(flat[a:b]) for a, b in zip([0, *ends[:-1]], ends)]

    def fidelities(self, target: np.ndarray) -> np.ndarray:
        """Each trial's |<target|final>|^2, its final normalized (NaN where
        ``exhausted``), from its history h alone.

        Take the branch images U_0 psi_b, c_b = <target|U_0 psi_b> and the
        images' Gram matrix G.  The final is sum_b sqrt(h_b) U_0 psi_b over
        the norm of that sum, so its fidelity is |c . sqrt(h)|^2 /
        (sqrt(h)^T G sqrt(h)): at most |target|^2, up to rounding, by
        Cauchy-Schwarz.
        """
        images = self.images
        overlaps = images @ np.conj(target)
        gram = (images.conj() @ images.T).real
        roots = np.sqrt(self.kept)
        # Real products: a complex one would first copy the roots to complex.
        real, imag = overlaps.real @ roots, overlaps.imag @ roots
        return (real * real + imag * imag) / np.einsum("bt,bt->t", roots, gram @ roots)

    def first_record(self) -> RunRecord:
        """Record of the first trial; raises if that trial was exhausted."""
        attempts = int(self.attempts[0])
        if self.exhausted[0]:
            raise MaxAttemptsExceeded(f"no success outcome within {attempts} attempts")
        # Trial 0 leads every attempt it is live in.
        labels = self.frame.reachable.tolist()
        outcomes = tuple([labels[draws[0]] for draws in self.draws[:attempts]])
        # The final whose fidelity ``fidelities`` reads, from a (branches,)
        # product.
        amps = np.sqrt(self.kept[:, 0]) @ self.images
        # Gates are unitary only to within UNITARY_ATOL, so a final's norm
        # can miss 1 by more than a StateVector's NORM_ATOL: it is
        # normalized here, and not checked again.
        amps /= math.hypot(*map(abs, amps.tolist()))
        amps.setflags(write=False)
        final = object.__new__(StateVector)
        final.__dict__.update(num_qubits=amps.size.bit_length() - 1, amps=amps)
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
    """The full unitary of ``build_rus_unitary(spec)``: block (i, j) is
    H_ij W_i for the reflection H = ``qcore.householder(sqrt(lambda))``.

    It is not checked again: it is the product of the gates, each checked
    unitary with the spec, and of H (x) I, which is orthogonal to within
    |sum(lambda) - 1|, at most ``qcore.NORM_ATOL`` as checked with the
    spec."""
    rotation = qcore.householder(np.sqrt(spec.lambdas))
    # Indexed (outcome i, data out, ancilla in j, data in).
    blocks = rotation[:, None, :, None] * spec.gates[:, :, None, :]
    blocks.setflags(write=False)
    return qcore.unitary_views(blocks.reshape(1, 2 ** (spec.m + 1), -1))[0]


def success_probability(c: RusCircuit, psi: StateVector) -> float:
    """Probability of the all-zero ancilla outcome on input ``psi``."""
    if psi.num_qubits != 1:
        raise ValueError("data register is a single qubit")
    return float(np.sum(np.abs(c.columns[:2] @ psi.amps) ** 2))


@dataclass(frozen=True, eq=False)
class RetryFrame:
    """A circuit's retry loop on branch masses.

    Once its recovery is undone, outcome o multiplies every register entry
    by a real weight, the square root of its mass, that depends on the entry
    only through its branch ``branches[e]``: one class of entries that share
    a weight vector.  A plain circuit has one branch, weighted by lambda; a
    conditional circuit has two, the control-|0> idle branch and the
    control-|1> branch.  So a run's history survives as one real per branch,
    its mass, and a run that succeeds leaves ``U_0`` applied to its start
    state with each branch scaled by the square root of its mass over its
    start mass.  ``success`` is ``U_0``, whose Gram matrix ``U_0^dag U_0``
    is diagonal with branch masses ``weights[0]``; row o of ``weights`` holds
    outcome o's mass on every branch.  ``cumulative`` sums the rows over the
    outcomes ``reachable`` lists, those whose row is not all zero, so a draw
    can never land on the others.  Its last row, the total mass of each
    branch, is 1 on every branch a run's state touches, which ``run_batch``
    checks once per start state.  An outcome whose row is zero only on a
    trial's live branches keeps its row; the product rounds it equal to the
    one before it, so no draw reaches it.
    """

    success: np.ndarray
    branches: np.ndarray
    weights: np.ndarray
    cumulative: np.ndarray
    reachable: np.ndarray

    @cached_property
    def _factors(self) -> np.ndarray:
        # Each reachable outcome's mass row as a column, so that a draw's
        # index into ``reachable`` gathers its row along one axis.
        return self.weights[self.reachable].T


def retry_frame(success: np.ndarray, branches: np.ndarray, weights: np.ndarray) -> RetryFrame:
    """The frame of ``U_0`` = ``success``, the entry-to-branch map
    ``branches`` and the (outcomes, branches) mass rows ``weights``, all
    known in closed form: nothing is extracted or checked here."""
    # A product need not round equal rows alike, so an outcome whose mass
    # row is all zero is left out of the draw rather than given a row equal
    # to the last one.
    reachable = np.flatnonzero(weights.any(axis=1))
    return RetryFrame(success, branches, weights, np.cumsum(weights[reachable], axis=0),
                      reachable)


def run_batch(
    frame: RetryFrame,
    state: np.ndarray,
    trials: int,
    rng: RngStream,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> BatchRun:
    """Repeat until success for ``trials`` runs that all start in ``state``.

    Each live trial carries one real per branch, its history: the product
    of its failures' masses on that branch.  Its branch masses are then P =
    P0 * history, P0 being the start masses, the state's squared moduli
    summed over each branch.  Live histories are columns of a (branches,
    alive) array.  Each attempt takes one product, ``(frame.cumulative *
    P0) @ history``, and measures every live trial with one uniform from
    ``rng``, in trial order, scaled by its column's total, so a single trial
    draws exactly as a per-trial loop would (``qcore.draw_outcomes``).
    Failure o multiplies a trial's history by ``frame.weights[o]``; a
    success keeps its history and its attempt count.  The attempt moves its
    data along one axis: ``take`` gathers the failures' mass rows and, when
    some trial succeeds, the live histories; each success's history is
    scattered row by row.  The loop ends once no trial is live.  One loop
    serves every width and branch count.

    The run returns its record, not its states: the start state's branch
    images, the histories and each attempt's draws, logged as indices into
    ``frame.reachable``.  ``BatchRun`` reads the fidelities, the outcome
    sequences and trial 0's final from them.

    The norms are checked where they are exact.  Before the first attempt
    the input state's norm must be 1 and the frame's masses must sum to 1
    on the branches the state touches.  The frame keeps one checked start:
    a run from a state with the same bytes reuses its scaled rows, and any
    other start is checked and replaces it.  Each later attempt only needs
    every live total to be positive, so a NaN or all-zero trial raises
    ``ValueError``.  Once the smallest live total falls below
    ``RESCALE_BELOW`` (2**-600), every live history is scaled back up by a
    power of two, which is exact: it changes no draw.  A batch over
    ``MAX_BATCH_ENTRIES`` entries, trials times register amplitudes plus
    reachable outcomes, raises ``MemoryError`` before it allocates
    anything.
    """
    register = frame.success.shape[1]
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (register,):
        raise ValueError("state does not match the frame's register")
    rows = frame.reachable.size
    if trials * (register + rows) > MAX_BATCH_ENTRIES:
        raise MemoryError(
            f"{trials} trials of {register} amplitudes and {rows} outcome rows exceed "
            f"the batch limit of {MAX_BATCH_ENTRIES} entries"
        )
    start = _checked_start(frame, state)
    cumulative = start.rows
    branches = cumulative.shape[1]
    # With one branch the product is an outer product, for which NumPy's
    # matmul takes a loop several times slower than dot's BLAS call.
    product = np.dot if branches == 1 else np.matmul
    # Branch-major: one row per branch, one column per live trial.  Filled
    # in place: ``np.ones`` takes about twice as long for one trial.
    history = np.empty((branches, trials))
    history.fill(1.0)
    # Each success keeps its history.
    kept = np.empty_like(history)
    attempts = np.empty(trials, dtype=np.intp)
    alive = np.arange(trials)
    log = []
    factors = frame._factors
    # Without a success row no draw ends a trial.
    ends = frame.reachable[0] == 0
    # An empty batch takes no attempt.
    for attempt in range(max_attempts if trials else 0):
        cdf = product(cumulative, history)
        if attempt:
            low = np.minimum.reduce(cdf[-1])
            if not low >= RESCALE_BELOW:
                # Written so that a NaN total fails the check as well.
                if not low > 0.0:
                    raise ValueError(f"a live state's total mass is {low}, not positive")
                # Powers of two scale exactly, so no draw moves.
                scale = np.ldexp(1.0, -np.frexp(cdf[-1])[1])
                history = history * scale
                cdf = cdf * scale
        draws = qcore.draw_outcomes(cdf, rng)
        log.append(draws)
        if ends:
            failed = draws.nonzero()[0]
            if failed.size < alive.size:
                done = (draws == 0).nonzero()[0]
                ended = alive[done]
                attempts[ended] = attempt + 1
                # One-axis gathers and scatters, row by row: NumPy's mixed
                # slice-and-index forms cost several times more.
                for row, kept_row in zip(history, kept):
                    kept_row[ended] = row.take(done)
                alive = alive[failed]
                if not alive.size:
                    break
        # Every live history takes its outcome's mass row, a success's too,
        # and the failures are then gathered once.
        history = factors.take(draws, axis=1) * history
        if history.shape[1] > alive.size:
            history = history.take(failed, axis=1)
        # Freed before the next product: two (outcomes x trials) arrays held
        # at once double the batch's peak, and the allocator hands such a
        # peak back to the system after every call, to fault in again.
        del cdf
    exhausted = np.zeros(trials, dtype=bool)
    if alive.size:
        exhausted[alive] = True
        attempts[alive] = max_attempts
        kept[:, alive] = np.nan
    return BatchRun(attempts, exhausted, frame, start.images, kept, log)


class _CheckedStart(NamedTuple):
    """A start state checked on a frame: its bytes as ``key``; the
    frame's cumulative ``rows`` scaled by its branch masses; and its branch
    ``images`` U_0 psi_b, psi_b being the state on branch b's entries and
    zero elsewhere, one row per branch.  Read-only.  A record keeps the
    images, not the caller's array, so no later change to that array
    reaches it."""

    key: bytes
    rows: np.ndarray
    images: np.ndarray


def _checked_start(frame: RetryFrame, state: np.ndarray) -> _CheckedStart:
    """``state`` checked on ``frame``: the frame's one cached entry when it
    holds the same bytes, else a new entry, checked, that replaces it
    whole.  So a mutated or different start is checked again."""
    key = state.tobytes()
    entry = frame.__dict__.get("_start")
    if entry is None or entry.key != key:
        masses = np.bincount(frame.branches, np.abs(state) ** 2, frame.weights.shape[1])
        _check_start(frame, masses)
        # The start masses fold into the cumulative rows, so each trial's
        # branch masses are ``masses * history`` without being formed.
        rows = frame.cumulative * masses
        images = ((np.arange(masses.size)[:, None] == frame.branches) * state) @ frame.success.T
        rows.setflags(write=False)
        images.setflags(write=False)
        entry = _CheckedStart(key, rows, images)
        frame.__dict__["_start"] = entry
    return entry


def _check_start(frame: RetryFrame, start: np.ndarray) -> None:
    """Raise unless the start masses ``start`` total 1 and the frame's
    masses sum to 1 on every branch they touch."""
    # A run has a branch or two: Python floats check them fastest.
    masses = start.tolist()
    drifts = [abs(total - 1.0) for total, mass in
              zip(frame.cumulative[-1].tolist(), masses) if mass != 0.0]
    # Written so that NaN masses fail the check.
    if not all(drift <= qcore.NORM_ATOL for drift in drifts):
        raise ValueError(
            f"outcome masses sum to 1 only within {np.max(drifts)} on the state's "
            f"branches, beyond {qcore.NORM_ATOL}"
        )
    qcore.check_norm(math.sqrt(sum(masses)))


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


def inverse_rus(c: RusCircuit) -> RusCircuit:
    """Circuit realizing the inverse target with the same success probability.

    On its OAA planes the circuit maps s |0^m> psi + c V psi to
    |0^m> W_0 psi, so its adjoint maps |0^m> chi to
    s |0^m> W_0^dag chi + c V W_0^dag chi: block 0 is sqrt(lambda_0) W_0^dag
    and block i is sqrt(f v_i) G_i W_0^dag, for the failure mass f, the sum
    of the failure weights.  No matrix is built.
    """
    spec, complement = c.spec, c.complement
    target = spec.gates[0].conj().T
    gates = np.concatenate([target[None], complement.gates @ target])
    lambdas = np.concatenate(([spec.lambdas[0]], spec.lambdas[1:].sum() * complement.weights))
    # Products of checked unitaries: not checked again.
    return RusCircuit(RusSpec.from_gates(spec.m, lambdas, gates, spec.seed), Adjoint(c))


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
