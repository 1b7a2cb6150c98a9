"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import decimal
import functools
import io
import math
from typing import NamedTuple

import numpy as np

from rusamp import distortion, oaa, qcore, rus


def make_circuit(
    lambda0: float,
    m: int = 1,
    rng: qcore.RngStream | None = None,
    seed: int = 11,
    trivial_recoveries: bool = False,
) -> rus.RusCircuit:
    """Random circuit with the requested success probability."""
    rng = rng or qcore.rng_stream(2024)
    lambdas = np.zeros(2**m)
    lambdas[0] = lambda0
    if m == 1:
        lambdas[1] = 1.0 - lambda0
    else:
        rest = rng.random(2**m - 1)
        lambdas[1:] = rest * (1.0 - lambda0) / rest.sum()
    if trivial_recoveries:
        recoveries = None
    else:
        recoveries = tuple(qcore.random_unitary(1, rng) for _ in range(2**m - 1))
    spec = rus.RusSpec(
        m=m,
        lambdas=lambdas,
        target=qcore.random_unitary(1, rng),
        recoveries=recoveries,
        seed=seed,
    )
    return rus.build_rus_unitary(spec)


def synthesized_matrix(spec: rus.RusSpec) -> np.ndarray:
    """The synthesized circuit's unitary as the textbook product
    Branch (H (x) I): Branch holds W_i on the diagonal, and H = I - 2 u u^T /
    u^T u is the Householder reflection for u = e_0 - sqrt(lambda), the
    identity when u = 0.  An oracle for ``rus._synthesized_matrix``; its
    reflection cancels as lambda_0 nears 1."""
    dim = 2**spec.m
    u = -np.sqrt(spec.lambdas)
    u[0] += 1.0
    norm2 = float(u @ u)
    h = np.eye(dim) - (2.0 * np.outer(u, u) / norm2 if norm2 > 0.0 else 0.0)
    branch = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for i, gate in enumerate(spec.gates):
        branch[2 * i:2 * i + 2, 2 * i:2 * i + 2] = gate
    return branch @ np.kron(h, np.eye(2))


def two_level_amplitudes(
    lambda0: float, phase_pairs: list[tuple[float, float]]
) -> tuple[complex, complex]:
    """Success and complement amplitudes of an iterate sequence, computed in
    the invariant two-dimensional subspace.

    The circuit acts as the real rotation [[s, c], [c, -s]] between the
    success/complement bases, and each ancilla reflection as diag(e^{i phi}, 1);
    the full statevector machinery never enters, which makes this an
    independent model of every protocol in the package.
    """
    s = math.sqrt(lambda0)
    c = math.sqrt(1.0 - lambda0)
    a = np.array([[s, c], [c, -s]], dtype=complex)
    total = a.copy()
    for phi, varphi in phase_pairs:
        d_phi = np.diag([np.exp(1j * phi), 1.0])
        d_var = np.diag([np.exp(1j * varphi), 1.0])
        total = -(a @ d_phi @ a @ d_var) @ total
    return complex(total[0, 0]), complex(total[1, 0])


def fixed_point_success(lambda0: float, L: int, delta: float) -> float:
    """Yoder-Low-Chuang closed form of the fixed-point success probability,

        1 - delta * T_{2L+1}(T_{1/(2L+1)}(1/sqrt(delta)) * sqrt(1 - lambda0))^2,

    with T_n(x) = cos(n acos x) for x <= 1 and cosh(n acosh x) above. It uses
    no phase schedule and no rusamp code.
    """
    n = 2 * L + 1
    a = math.acosh(1.0 / math.sqrt(delta)) / n
    root = math.sqrt(1.0 - lambda0)
    # 1 - x from cosh(a) = 1 + 2 sinh(a/2)^2 and 1 - root = lambda0 / (1 + root):
    # near the threshold x rounds to 1, and T'_n(1) = n^2 amplifies that.
    gap = lambda0 / (1.0 + root) - 2.0 * math.sinh(a / 2.0) ** 2 * root
    if gap >= 0.0:
        cheb = math.cos(n * 2.0 * math.asin(math.sqrt(gap / 2.0)))
    else:
        # acosh(1 + u) = log1p(u + sqrt(u (2 + u))), with u = -gap.
        cheb = math.cosh(n * math.log1p(-gap + math.sqrt(-gap * (2.0 - gap))))
    return 1.0 - delta * cheb**2


def deterministic_pairs(plan) -> list[tuple[float, float]]:
    """Phase pairs of the deterministic protocol: j plain iterates, then the
    solved trailing iterate unless the plan skips it."""
    pairs = [(math.pi, math.pi)] * plan.j
    if plan.chi != 0.0:
        pairs.append((plan.phi, plan.varphi))
    return pairs


def plane_matrix(spec: rus.RusSpec) -> np.ndarray:
    """The circuit on the OAA planes, a = [[s, c], [c, -s]], as the 2x2
    matrix ``oaa._plane`` built before it returned scalars: the weights are
    divided by their sum, then s^2 is the first and c^2 the sum of the rest."""
    lambdas = spec.lambdas / spec.lambdas.sum()
    s, c = math.sqrt(lambdas[0]), math.sqrt(lambdas[1:].sum())
    return np.array([[s, c], [c, -s]], dtype=np.complex128)


def batched_schedule(s: float, c: float, phis, varphis) -> list:
    """The product G_L ... G_1 a of the iterates -a D_phi a D_varphi on the
    OAA planes a = [[s, c], [c, -s]], as full 2x2 matrices multiplied in
    batched passes, returned as rows, as ``oaa._schedule`` returns t.

    The stack [a, G_1, ..., G_L] is multiplied pairwise, later factors on the
    left, in ceil(log2(L + 1)) batched ``matmul`` passes; an odd last factor
    is carried to the next pass. This is the order of ``oaa._schedule``, but
    the product keeps no SU(2) structure, so its rounding drifts from unitary
    in proportion to L.
    """
    a = np.array([[s, c], [c, -s]], dtype=np.complex128)
    # Row [e^{i phi}, 1] scales the columns of a as a @ D_phi does.
    outer = np.ones((len(phis), 1, 2), dtype=np.complex128)
    inner = outer.copy()
    outer[:, 0, 0] = np.exp(1j * np.asarray(phis, dtype=float))
    inner[:, 0, 0] = np.exp(1j * np.asarray(varphis, dtype=float))
    g = np.concatenate([a[None], -(a * outer) @ (a * inner)])
    while len(g) > 1:
        paired = g[1::2] @ g[:-1:2]
        g = np.concatenate([paired, g[-1:]]) if len(g) % 2 else paired
    return g[0].tolist()


@dataclasses.dataclass(frozen=True, eq=False)
class ColumnsCircuit:
    """A stand-in circuit that reads the columns it is given: the ``spec``,
    ``columns`` and retry ``frame`` that a ``rusamp simulate`` run reads.
    The frame takes its success block from the columns and its masses from
    the spec's weights."""

    spec: rus.RusSpec
    columns: np.ndarray

    @functools.cached_property
    def frame(self) -> rus.RetryFrame:
        return rus.retry_frame(self.columns[:2], np.zeros(2, dtype=np.intp),
                               self.spec.lambdas[:, None])


def reference_composed(c: rus.RusCircuit, t, share=None) -> ColumnsCircuit:
    """``oaa._composed`` as it was before it read t's first column alone, an
    oracle for its rounding.

    It takes t's polar factor, builds the pulled blocks P = c |0^m> W_0 -
    s Phi and forms the columns as ``(a t)_00 C + (a t)_10 P`` from the
    columns C of c; the phases are ``exp(i angle(t_i0))``.  The failure
    share that ``oaa._composed`` is handed is recomputed, not read.
    """
    t = polar(qcore.UnitaryMatrix(t).mat)
    a = plane_matrix(c.spec)
    spec = c.spec
    gates = np.array([g.mat for g in spec.branch_gates()])
    failures = spec.lambdas[1:]
    rest = failures.sum()
    share = failures / rest if rest > 0 else np.eye(len(failures))[0]
    pulled = np.empty_like(gates)
    pulled[0] = a[1, 0] * gates[0]
    pulled[1:] = (-a[0, 0] * np.sqrt(share))[:, None, None] * gates[1:]
    plane = a @ t
    columns = plane[0, 0] * c.columns + plane[1, 0] * pulled.reshape(-1, 2)
    columns.setflags(write=False)
    lambdas = np.concatenate([[abs(t[0, 0]) ** 2], abs(t[1, 0]) ** 2 * share])
    phases = np.exp(1j * np.angle(t[:, 0]))
    phased = phases[1] * gates
    phased[0] = phases[0] * gates[0]
    composed = rus.RusSpec.from_gates(
        spec.m, lambdas / lambdas.sum(), qcore.unitary_stack(phased), spec.seed
    )
    return ColumnsCircuit(composed, columns)


def polar(t: np.ndarray) -> np.ndarray:
    """The unitary nearest to t, its polar factor."""
    u, _, vh = np.linalg.svd(t)
    return u @ vh


def dense_reflection(m: int, phi: float) -> np.ndarray:
    """Phase e^{i phi} on the all-zero block of m ancillas, tensored with I."""
    diag = np.ones(2 ** (m + 1), dtype=complex)
    diag[:2] = np.exp(1j * phi)
    return np.diag(diag)


def dense_phase_schedule(
    a: np.ndarray, phase_pairs: list[tuple[float, float]]
) -> np.ndarray:
    """Iterates -A S_phi A^dag S_varphi applied in list order after the
    dense circuit matrix A = ``a``, as one dense product over the whole
    register.

    This is the composition the protocols reduce to 2x2 algebra; it never
    uses the invariant subspace, which makes it an independent reference for
    the standard, deterministic and fixed-point compositions.
    """
    m = len(a).bit_length() - 2
    total = a
    for phi, varphi in phase_pairs:
        outer = dense_reflection(m, phi)
        inner = dense_reflection(m, varphi)
        total = -(a @ outer @ a.conj().T @ inner) @ total
    return total


def array_pi3_compose(c: rus.RusCircuit, plan: oaa.Pi3Plan) -> rus.RusCircuit:
    """``oaa.pi3_compose`` as it was before its recursion ran on Python
    scalars: the dense 2x2 level -(t S) (t^dag S) t as NumPy products, from
    the 2x2 plane matrix; an oracle for its rounding."""
    refl = np.array([np.exp(1j * plan.sign * math.pi / 3.0), 1.0])
    t = plane_matrix(c.spec)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(plan.k):
            t = -(t * refl) @ (t.conj().T * refl) @ t
    return oaa._composed(c, qcore.UnitaryMatrix(t).mat.tolist(), c.spec.failure_share())


def dense_pi3(a: np.ndarray, k: int, sign: int = 1) -> np.ndarray:
    """Dense cube-law recursion A_k = -A_{k-1} S A_{k-1}^dag S A_{k-1} from
    the dense circuit matrix A_0 = ``a``."""
    refl = dense_reflection(len(a).bit_length() - 2, sign * math.pi / 3.0)
    current = a
    for _ in range(k):
        current = -(current @ refl @ current.conj().T @ refl @ current)
    return current


def dense_complement(a: np.ndarray, spec: rus.RusSpec) -> np.ndarray:
    """V = A^dag P for the dense circuit matrix A = ``a`` of ``spec``, with
    P = c |0^m> W_0 - s Phi built from the spec's weights and gates."""
    s, c = math.sqrt(spec.lambda0), math.sqrt(spec.lambdas[1:].sum())
    pulled = np.empty_like(spec.gates)
    pulled[0] = c * spec.gates[0]
    pulled[1:] = (-s * np.sqrt(spec.failure_share()))[:, None, None] * spec.gates[1:]
    return a.conj().T @ pulled.reshape(-1, 2)


def success_mass(state_amps: np.ndarray) -> float:
    return float(np.sum(np.abs(state_amps[:2]) ** 2))


def measure_ancillas(
    s: qcore.StateVector, m: int, rng: qcore.RngStream
) -> tuple[int, qcore.StateVector, float]:
    """Projectively measure the leading ``m`` qubits in the computational basis.

    Returns ``(outcome, collapsed, prob)`` where ``collapsed`` is the full
    renormalized post-measurement state (ancillas left in ``|outcome>``).
    """
    if not 0 < m <= s.num_qubits:
        raise ValueError(f"cannot measure {m} ancillas of a {s.num_qubits}-qubit state")
    rest = 2 ** (s.num_qubits - m)
    blocks = s.amps.reshape(2**m, rest)
    probs = np.sum(np.abs(blocks) ** 2, axis=1)
    outcome = int(qcore.draw_outcomes(np.cumsum(probs)[:, None], rng)[0])
    prob = float(probs[outcome])
    collapsed = np.zeros_like(s.amps).reshape(2**m, rest)
    collapsed[outcome] = blocks[outcome] / np.sqrt(prob)
    return outcome, qcore.StateVector(s.num_qubits, collapsed.reshape(-1)), prob


def record_finals(batch: rus.BatchRun) -> np.ndarray:
    """Each trial's final read off a ``rus.BatchRun`` record as a column:
    sum_b sqrt(h_b) U_0 psi_b over the branch images, normalized, NaN where
    exhausted."""
    finals = batch.images.T @ np.sqrt(batch.kept)
    # Complex division flags the NaN columns of exhausted trials as invalid.
    with np.errstate(invalid="ignore"):
        return finals / np.linalg.norm(finals, axis=0)


class KernelRun(NamedTuple):
    """The results of a ``conftest`` batch kernel: each trial's attempts,
    whether it exhausted the cap and its final as a column, NaN where
    exhausted, and every attempt's trial and outcome in draw order.  It
    answers ``sequences()`` and ``fidelities(target)`` as a
    ``rus.BatchRun`` does."""

    attempts: np.ndarray
    exhausted: np.ndarray
    finals: np.ndarray
    trial_log: np.ndarray
    outcome_log: np.ndarray

    def sequences(self) -> list[tuple[int, ...]]:
        """Each trial's outcomes, picked out of the logs trial by trial."""
        return [tuple(self.outcome_log[self.trial_log == trial].tolist())
                for trial in range(self.attempts.size)]

    def fidelities(self, target: np.ndarray) -> np.ndarray:
        """Each trial's |<target|final>|^2, its final normalized, NaN where
        exhausted."""
        overlaps = np.abs(np.conj(target) @ self.finals) ** 2
        return overlaps / np.sum(np.abs(self.finals) ** 2, axis=0)


def dense_batch_run(
    attempt, start: np.ndarray, trials: int, rng: qcore.RngStream,
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS,
) -> KernelRun:
    """Run ``trials`` copies of a per-trial loop in the batch engine's draw order.

    ``attempt(amps, rng)`` performs one attempt on one trial and returns
    ``(outcome, amps)``. Every round steps the live trials in trial order,
    each drawing its own uniform; Philox's ``rng.random(n)`` equals n scalar
    draws, so this is the order in which ``rus.run_batch`` draws. Exhausted
    trials have NaN finals.
    """
    states = [np.asarray(start)] * trials
    finals = np.full((start.shape[0], trials), np.nan, dtype=complex)
    trial_log, outcome_log = [], []
    alive = list(range(trials))
    for _ in range(max_attempts):
        if not alive:
            break
        still = []
        for trial in alive:
            outcome, states[trial] = attempt(states[trial], rng)
            trial_log.append(trial)
            outcome_log.append(outcome)
            if outcome == 0:
                finals[:, trial] = states[trial]
            else:
                still.append(trial)
        alive = still
    trial_log = np.array(trial_log, dtype=int)
    exhausted = np.zeros(trials, dtype=bool)
    exhausted[alive] = True
    return KernelRun(np.bincount(trial_log, minlength=trials), exhausted, finals,
                     trial_log, np.array(outcome_log, dtype=int))


def undo_gates(spec: rus.RusSpec) -> np.ndarray:
    """Inverse recovery gates stacked in failure-outcome order."""
    return spec.gates[1:].conj().transpose(0, 2, 1)


@dataclasses.dataclass(frozen=True, eq=False)
class DiagonalFrame:
    """A retry loop read off a circuit's columns, as ``rus.RetryFrame`` was
    before it was built from closed-form branch masses: ``success`` is
    ``U_0``, ``diagonals[i - 1]`` the diagonal of failure outcome i's undone
    block, and ``cumulative`` the mass rows, one column per register entry,
    summed over the ``reachable`` outcomes."""

    success: np.ndarray
    diagonals: np.ndarray
    cumulative: np.ndarray
    reachable: np.ndarray


def diagonal_frame(columns: np.ndarray, undo: np.ndarray) -> DiagonalFrame:
    """Fold each inverse recovery into its failure block; keep the diagonals.

    ``columns`` is the circuit restricted to the all-zero ancilla input, one
    block of ``register`` rows per outcome; ``undo[i - 1]`` undoes failure
    outcome i on the register (stacked as ``undo_gates`` returns them).
    Raises ``ValueError`` unless the success block's Gram matrix and every
    undone failure block are diagonal. An outcome's mass row is the
    diagonal of ``U_0^dag U_0`` for success and ``|d_i|^2`` for failure i.
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
    reachable = np.flatnonzero(masses.any(axis=1))
    return DiagonalFrame(
        blocks[0], np.ascontiguousarray(diagonals[1:]),
        np.cumsum(masses[reachable], axis=0), reachable,
    )


def circuit_diagonal_frame(c) -> DiagonalFrame:
    """The diagonal frame of a plain circuit's columns and recoveries."""
    return diagonal_frame(c.columns, undo_gates(c.spec))


def conditional_diagonal_frame(cc: distortion.ConditionalCircuit) -> DiagonalFrame:
    """The diagonal frame of the controlled operator's columns on fresh
    ancillas: the distorter's first column (or |0^m>) times the data
    identity on control |0>, the circuit's columns on control |1>, and
    failures undone on control |1> only."""
    base = cc.base
    m = base.spec.m
    idle = np.eye(2**m, 1) if cc.distorter is None else cc.distorter.mat[:, :1]
    # Indexed (ancillas and data out, control out, data in, control in).
    columns = np.zeros((2 ** (m + 1), 2, 2, 2), dtype=np.complex128)
    columns[:, 0, :, 0] = np.kron(idle, np.eye(2))
    columns[:, 1, :, 1] = base.columns
    undo_data = undo_gates(base.spec)
    undo = np.tile(np.eye(4, dtype=np.complex128), (len(undo_data), 1, 1))
    undo[:, 1::2, 1::2] = undo_data
    return diagonal_frame(columns.reshape(-1, 4), undo)


def frame_masses(frame: DiagonalFrame) -> np.ndarray:
    """Every outcome's mass row, as ``diagonal_frame`` computes them: the
    diagonal of ``U_0^dag U_0`` for success, ``|d_i|^2`` for failure i."""
    gram = frame.success.conj().T @ frame.success
    return np.concatenate((np.diagonal(gram).real[None], np.abs(frame.diagonals) ** 2))


def state_run_batch(
    frame: DiagonalFrame, state: np.ndarray, trials: int, rng: qcore.RngStream,
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS,
) -> KernelRun:
    """``rus.run_batch`` as it was before it carried branch masses, an oracle
    for its draws.

    Live trials are rows of an (alive, register) array of unnormalized
    states. Each attempt draws from ``frame.cumulative @ |psi|^2``; failure
    i multiplies a trial by ``d_i``; a success keeps its state and its
    success mass, and ``U_0`` is applied to every success divided by the
    square root of its mass once, after the loop. Live states are scaled
    up by powers of two once a total falls below ``rus.RESCALE_BELOW``.
    """
    register = frame.success.shape[1]
    state = np.asarray(state, dtype=np.complex128)
    current = np.repeat(state[None], trials, axis=0)
    kept = np.empty((trials, register), dtype=np.complex128)
    kept_mass = np.ones(trials)
    alive = np.arange(trials)
    trial_log, outcome_log = [alive[:0]], [alive[:0]]
    for _ in range(max_attempts):
        if alive.size == 0:
            break
        cdf = frame.cumulative @ (np.abs(current) ** 2).T
        total = cdf[-1]
        low = total.min()
        if not low >= rus.RESCALE_BELOW:
            if not low > 0.0:
                raise ValueError(f"a live state's total mass is {low}, not positive")
            scale = np.ldexp(1.0, -(np.frexp(total)[1] // 2))
            current = current * scale[:, None]
            cdf = cdf * scale**2
        outcome = frame.reachable[qcore.draw_outcomes(cdf, rng)]
        trial_log.append(alive)
        outcome_log.append(outcome)
        done = np.flatnonzero(outcome == 0)
        failed = np.flatnonzero(outcome)
        kept[alive[done]] = current[done]
        kept_mass[alive[done]] = cdf[0, done]
        alive = alive[failed]
        current = frame.diagonals[outcome[failed] - 1] * current[failed]
    exhausted = np.zeros(trials, dtype=bool)
    exhausted[alive] = True
    kept[alive] = np.nan
    trial_log = np.concatenate(trial_log)
    return KernelRun(
        attempts=np.bincount(trial_log, minlength=trials),
        exhausted=exhausted,
        finals=frame.success @ (kept / np.sqrt(kept_mass)[:, None]).T,
        trial_log=trial_log,
        outcome_log=np.concatenate(outcome_log),
    )


def reference_run_batch(
    frame: DiagonalFrame, state: np.ndarray, trials: int, rng: qcore.RngStream,
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS,
) -> KernelRun:
    """``state_run_batch`` on normalized states, an oracle for its rounding.

    Every attempt takes two products: the draw reads ``frame.cumulative @
    |psi|^2`` and checks each live norm, and the chosen outcome's mass comes
    from ``frame_masses(frame) @ |psi|^2``. Failure i sets a trial to ``d_i * psi /
    sqrt(p_i)``, success keeps ``psi / sqrt(p_0)``. The draws are those of
    ``rus.run_batch``; the finals differ from it by rounding only, one
    rounding per attempt.
    """
    register = frame.success.shape[1]
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (register,):
        raise ValueError("state does not match the frame's register")
    masses = frame_masses(frame)
    current = np.repeat(state[None], trials, axis=0)
    kept = np.full((trials, register), np.nan, dtype=np.complex128)
    alive = np.arange(trials)
    trial_log, outcome_log = [alive[:0]], [alive[:0]]
    for _ in range(max_attempts):
        if alive.size == 0:
            break
        sq = (np.abs(current) ** 2).T
        cdf = frame.cumulative @ sq
        norms = np.sqrt(cdf[-1])
        qcore.check_norm(norms[np.argmax(np.abs(norms - 1.0))])  # farthest or NaN
        outcome = frame.reachable[qcore.draw_outcomes(cdf, rng)]
        inv = 1.0 / np.sqrt((masses @ sq)[outcome, np.arange(alive.size)])
        trial_log.append(alive)
        outcome_log.append(outcome)
        done = np.flatnonzero(outcome == 0)
        failed = np.flatnonzero(outcome)
        kept[alive[done]] = current[done] * inv[done, None]
        alive = alive[failed]
        current = (
            frame.diagonals[outcome[failed] - 1] * current[failed] * inv[failed, None]
        )
    exhausted = np.zeros(trials, dtype=bool)
    exhausted[alive] = True
    trial_log = np.concatenate(trial_log)
    return KernelRun(
        attempts=np.bincount(trial_log, minlength=trials),
        exhausted=exhausted,
        finals=frame.success @ np.ascontiguousarray(kept.T),
        trial_log=trial_log,
        outcome_log=np.concatenate(outcome_log),
    )


def _single_run(attempt, start, rng, max_attempts) -> tuple[tuple[int, ...], np.ndarray]:
    run = dense_batch_run(attempt, start, 1, rng, max_attempts)
    if run.exhausted[0]:
        raise rus.MaxAttemptsExceeded(f"no success outcome within {max_attempts} attempts")
    return run.sequences()[0], run.finals[:, 0]


def dense_attempt(c: rus.RusCircuit):
    """One plain attempt on the full (ancillas, data) register.

    It applies the whole circuit matrix to |0^m>|psi>, measures the ancillas
    with ``measure_ancillas`` and, on failure outcome i, applies W_i^dag to
    the data. Apart from the draw rule ``qcore.draw_outcomes`` it shares no
    code with the batched engine.
    """
    m = c.spec.m
    undo = [r.mat.conj().T for r in c.spec.recoveries]

    def attempt(amps, rng):
        joint = np.kron(qcore.basis_state(m).amps, amps)
        state = qcore.StateVector(m + 1, c.a_matrix.mat @ joint)
        outcome, collapsed, _ = measure_ancillas(state, m, rng)
        amps = collapsed.amps.reshape(2**m, 2)[outcome]
        return outcome, amps if outcome == 0 else undo[outcome - 1] @ amps

    return attempt


def dense_rus_run(
    c: rus.RusCircuit, psi: qcore.StateVector, rng: qcore.RngStream,
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[int, ...], qcore.StateVector]:
    """One plain run of ``dense_attempt``, an independent reference for
    ``rus.run_rus``."""
    outcomes, final = _single_run(dense_attempt(c), psi.amps, rng, max_attempts)
    return outcomes, qcore.StateVector(1, final)


def dense_b_matrix(cc: distortion.ConditionalCircuit) -> qcore.UnitaryMatrix:
    """The whole controlled operator on (ancillas, data, control), control
    least significant: the distorter (or the identity) on the ancillas under
    control |0>, the circuit A under control |1>."""
    m = cc.base.spec.m
    idle = np.eye(2**m) if cc.distorter is None else cc.distorter.mat
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return qcore.UnitaryMatrix(
        np.kron(np.kron(idle, np.eye(2)), p0) + np.kron(cc.base.a_matrix.mat, p1)
    )


def dense_conditional_attempt(cc: distortion.ConditionalCircuit):
    """One conditional attempt on the full (ancillas, data, control) register.

    It applies ``dense_b_matrix`` to fresh ancillas, measures them with
    ``measure_ancillas`` and, on failure outcome i, undoes W_i on the
    control-|1> amplitudes. Apart from the draw rule ``qcore.draw_outcomes``
    it shares no code with the batched engine.
    """
    m = cc.base.spec.m
    b_matrix = dense_b_matrix(cc).mat
    undo = [r.mat.conj().T for r in cc.base.spec.recoveries]

    def attempt(pair, rng):
        joint = np.kron(qcore.basis_state(m).amps, pair)
        state = qcore.StateVector(m + 2, b_matrix @ joint)
        outcome, collapsed, _ = measure_ancillas(state, m, rng)
        pair = collapsed.amps.reshape(2**m, 4)[outcome].copy()
        if outcome:
            pair[1::2] = undo[outcome - 1] @ pair[1::2]
        return outcome, pair

    return attempt


def conditional_start(cfg: distortion.DistortionConfig) -> np.ndarray:
    """(data, control) amplitudes of ``cfg``'s input, control least significant."""
    pair = np.zeros(4, dtype=complex)
    pair[0::2] = cfg.alpha * cfg.psi0.amps
    pair[1::2] = cfg.beta * cfg.psi1.amps
    return pair


def dense_conditional_run(
    cc: distortion.ConditionalCircuit,
    cfg: distortion.DistortionConfig,
    rng: qcore.RngStream,
) -> tuple[tuple[int, ...], qcore.StateVector]:
    """One conditional run of ``dense_conditional_attempt``, an independent
    reference for conditional runs."""
    outcomes, final = _single_run(
        dense_conditional_attempt(cc), conditional_start(cfg), rng, cfg.max_attempts
    )
    return outcomes, qcore.StateVector(2, final)


def _history_weights(
    cc: distortion.ConditionalCircuit, cfg: distortion.DistortionConfig,
    batch: rus.BatchRun,
) -> np.ndarray:
    """Rows F, g / n and l / n over the finished trials of a conditional
    batch, in trial order, for ``history_fidelities``' g, l and F and
    n^2 = a g^2 + b l^2. The products g^2 and l^2 are taken in decimal
    arithmetic at 50 significant digits, so histories too long for g and l
    to be floats are covered too, and each value is rounded once, to a
    float. The idle branch's weights sqrt(gamma_o) are the entries of the
    distorter's first column, which at m = 1 differ from sqrt(gamma) by
    rounding."""
    lambdas = cc.base.spec.lambdas
    idle = np.eye(len(lambdas))[0] if cc.distorter is None else cc.distorter.mat[:, 0].real
    rows = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        g2s = [decimal.Decimal(x) ** 2 for x in idle.tolist()]
        l2s = [decimal.Decimal(x) for x in lambdas.tolist()]
        a, b = decimal.Decimal(abs(cfg.alpha) ** 2), decimal.Decimal(abs(cfg.beta) ** 2)
        for seq, exhausted in zip(batch.sequences(), batch.exhausted.tolist()):
            if exhausted:
                continue
            g2 = math.prod(g2s[o] for o in seq)
            l2 = math.prod(l2s[o] for o in seq)
            g, l, n2 = g2.sqrt(), l2.sqrt(), a * g2 + b * l2
            n = n2.sqrt()
            rows.append((float((a * g + b * l) ** 2 / n2), float(g / n), float(l / n)))
    return np.array(rows).reshape(-1, 3).T


def history_states(
    cc: distortion.ConditionalCircuit, cfg: distortion.DistortionConfig,
    batch: rus.BatchRun,
) -> np.ndarray:
    """The final (data, control) state of every finished trial of a
    conditional batch, as columns in trial order: alpha g psi0 on control
    |0> and beta l W_0 psi1 on control |1>, over n (see
    ``history_fidelities`` and ``_history_weights``)."""
    _, g, l = _history_weights(cc, cfg, batch)
    states = np.empty((4, g.size), dtype=complex)
    states[0::2] = (cfg.alpha * cfg.psi0.amps)[:, None] * g
    states[1::2] = (cfg.beta * (cc.base.spec.target.mat @ cfg.psi1.amps))[:, None] * l
    return states


def history_fidelities(
    cc: distortion.ConditionalCircuit, cfg: distortion.DistortionConfig,
    batch: rus.BatchRun, atol: float = 1e-12,
) -> np.ndarray:
    """Check every finished trial of a conditional batch against its history.

    Undone, each outcome o weighs the control branches by sqrt(gamma_o) and
    sqrt(lambda_o), so a trial's final state depends on its outcomes only
    through g = sqrt(gamma_0) prod sqrt(gamma_o) and l = sqrt(lambda_0) prod
    sqrt(lambda_o) over its failures o. Its fidelity with the ideal state is
    then F = (a g + b l)^2 / (a g^2 + b l^2), with a = |alpha|^2 and
    b = |beta|^2, taken in decimal arithmetic (``_history_weights``). Reads
    the outcomes from ``batch.sequences()`` and asserts each realized
    fidelity equals its F to ``atol``; returns F of every finished trial, in
    trial order.
    """
    want = _history_weights(cc, cfg, batch)[0]
    ideal = conditional_start(cfg)
    ideal[1::2] = cfg.beta * (cc.base.spec.target.mat @ cfg.psi1.amps)
    got = np.abs(ideal.conj() @ record_finals(batch)[:, ~batch.exhausted]) ** 2
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    return want


def _csv_cell(value) -> str:
    """A cell as the CLI rendered every table before it formatted rows per
    table: blank for None, 17 significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def csv_text(header: list[str], rows) -> str:
    """A table through ``csv.writer``, the oracle of the CLI's row formatters."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def figure_table(rows) -> str:
    return csv_text(["x", "curve_id", "mean", "std", "n_samples", "seed"], rows)


def cost_table(rows) -> str:
    """(lambda0, CostResult) pairs; a strategy leaves out the columns it has
    no value for."""
    keys = ("j", "k", "L", "n_s", "epsilon_reflection")
    return csv_text(
        ["lambda0", "strategy", "total_t", "j", "k", "L", "n_S", "epsilon_reflection"],
        [[lam0, r.strategy, r.total_t, *map(r.params.get, keys)] for lam0, r in rows],
    )
