"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math

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


def batched_schedule(a: np.ndarray, phis, varphis) -> np.ndarray:
    """The product G_L ... G_1 a of the iterates -a D_phi a D_varphi on the
    OAA planes a, as full 2x2 matrices multiplied in batched passes.

    The stack [a, G_1, ..., G_L] is multiplied pairwise, later factors on the
    left, in ceil(log2(L + 1)) batched ``matmul`` passes; an odd last factor
    is carried to the next pass. This is the order of ``oaa._schedule``, but
    the product keeps no SU(2) structure, so its rounding drifts from unitary
    in proportion to L.
    """
    # Row [e^{i phi}, 1] scales the columns of a as a @ D_phi does.
    outer = np.ones((len(phis), 1, 2), dtype=np.complex128)
    inner = outer.copy()
    outer[:, 0, 0] = np.exp(1j * np.asarray(phis, dtype=float))
    inner[:, 0, 0] = np.exp(1j * np.asarray(varphis, dtype=float))
    g = np.concatenate([a[None], -(a * outer) @ (a * inner)])
    while len(g) > 1:
        paired = g[1::2] @ g[:-1:2]
        g = np.concatenate([paired, g[-1:]]) if len(g) % 2 else paired
    return g[0]


def reference_composed(c: rus.RusCircuit, t: np.ndarray) -> rus.RusCircuit:
    """``oaa._composed`` as it was before it read t's first column alone, an
    oracle for its rounding.

    It takes t's polar factor, builds the pulled blocks P = c |0^m> W_0 -
    s Phi and forms the columns as ``(a t)_00 C + (a t)_10 P`` from the
    columns C of c; the phases are ``exp(i angle(t_i0))``.
    """
    t = polar(qcore.UnitaryMatrix(t).mat)
    a = oaa._plane(c.spec)
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
    return rus.RusCircuit(composed, columns, oaa.Composition(c, t))


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
    c: rus.RusCircuit, phase_pairs: list[tuple[float, float]]
) -> np.ndarray:
    """Iterates -A S_phi A^dag S_varphi applied in list order after A, as one
    dense product over the whole register.

    This is the composition the protocols reduce to 2x2 algebra; it never
    uses the invariant subspace, which makes it an independent reference for
    the standard, deterministic and fixed-point compositions.
    """
    a = c.a_matrix.mat
    total = a
    for phi, varphi in phase_pairs:
        outer = dense_reflection(c.spec.m, phi)
        inner = dense_reflection(c.spec.m, varphi)
        total = -(a @ outer @ a.conj().T @ inner) @ total
    return total


def dense_pi3(c: rus.RusCircuit, k: int, sign: int = 1) -> np.ndarray:
    """Dense cube-law recursion A_k = -A_{k-1} S A_{k-1}^dag S A_{k-1}."""
    refl = dense_reflection(c.spec.m, sign * math.pi / 3.0)
    current = c.a_matrix.mat
    for _ in range(k):
        current = -(current @ refl @ current.conj().T @ refl @ current)
    return current


def success_block(state_amps: np.ndarray) -> np.ndarray:
    """All-zero-ancilla (data) component of a joint register state."""
    return state_amps[:2]


def success_mass(state_amps: np.ndarray) -> float:
    return float(np.sum(np.abs(state_amps[:2]) ** 2))


def failure_mass(state_amps: np.ndarray) -> float:
    return float(np.sum(np.abs(state_amps[2:]) ** 2))


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


def dense_batch_run(
    attempt, start: np.ndarray, trials: int, rng: qcore.RngStream,
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``trials`` copies of a per-trial loop in the batch engine's draw order.

    ``attempt(amps, rng)`` performs one attempt on one trial and returns
    ``(outcome, amps)``. Every round steps the live trials in trial order,
    each drawing its own uniform; Philox's ``rng.random(n)`` equals n scalar
    draws, so this is the order in which ``rus.run_batch`` draws. Returns
    ``(trial_log, outcome_log, finals)`` laid out as ``rus.BatchRun`` holds
    them, with NaN finals for exhausted trials.
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
    return np.array(trial_log, dtype=int), np.array(outcome_log, dtype=int), finals


def frame_masses(frame: rus.RetryFrame) -> np.ndarray:
    """Every outcome's mass row, as ``rus.retry_frame`` computes them: the
    diagonal of ``U_0^dag U_0`` for success, ``|d_i|^2`` for failure i."""
    gram = frame.success.conj().T @ frame.success
    return np.concatenate((np.diagonal(gram).real[None], np.abs(frame.diagonals) ** 2))


def reference_run_batch(
    frame: rus.RetryFrame, state: np.ndarray, trials: int, rng: qcore.RngStream,
    max_attempts: int = rus.DEFAULT_MAX_ATTEMPTS,
) -> rus.BatchRun:
    """``rus.run_batch`` on normalized states, an oracle for its rounding.

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
    return rus.BatchRun(
        attempts=np.bincount(trial_log, minlength=trials),
        exhausted=exhausted,
        finals=frame.success @ np.ascontiguousarray(kept.T),
        trial_log=trial_log,
        outcome_log=np.concatenate(outcome_log),
    )


def _single_run(attempt, start, rng, max_attempts) -> tuple[tuple[int, ...], np.ndarray]:
    _, outcomes, finals = dense_batch_run(attempt, start, 1, rng, max_attempts)
    if outcomes[-1] != 0:
        raise rus.MaxAttemptsExceeded(f"no success outcome within {max_attempts} attempts")
    return tuple(outcomes.tolist()), finals[:, 0]


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
    b = |beta|^2. The products are taken as sums of logs, so histories too
    long for g and l to be floats are checked too. Reads the outcomes from
    ``batch.sequences()`` and asserts each realized fidelity equals its F to
    ``atol``; returns F of every finished trial, in trial order.
    """
    lambdas = cc.base.spec.lambdas
    gammas = np.eye(len(lambdas))[0] if cc.gammas is None else cc.gammas
    with np.errstate(divide="ignore"):
        log_g, log_l = np.log(gammas) / 2.0, np.log(lambdas) / 2.0
    done = ~batch.exhausted
    seqs = [list(seq) for seq, ok in zip(batch.sequences(), done) if ok]
    lg = np.array([log_g[seq].sum() for seq in seqs])
    ll = np.array([log_l[seq].sum() for seq in seqs])
    top = np.maximum(lg, ll)
    g, l = np.exp(lg - top), np.exp(ll - top)
    a, b = abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2
    want = (a * g + b * l) ** 2 / (a * g * g + b * l * l)
    ideal = conditional_start(cfg)
    ideal[1::2] = cfg.beta * (cc.base.spec.target.mat @ cfg.psi1.amps)
    got = np.abs(ideal.conj() @ batch.finals[:, done]) ** 2
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
