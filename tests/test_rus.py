import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from rusamp import distortion, oaa, qcore, rus


def _spec(m, lambdas, seed=0, rng_seed=100, trivial=False):
    rng = qcore.rng_stream(rng_seed)
    recoveries = None
    if not trivial:
        recoveries = tuple(qcore.random_unitary(1, rng) for _ in range(2**m - 1))
    return rus.RusSpec(
        m=m,
        lambdas=np.asarray(lambdas, dtype=float),
        target=qcore.random_unitary(1, rng),
        recoveries=recoveries,
        seed=seed,
    )


class TestSpecValidation:
    def test_bad_weights(self):
        with pytest.raises(ValueError):
            _spec(1, [0.6, 0.6])
        with pytest.raises(ValueError):
            _spec(1, [-0.1, 1.1])
        with pytest.raises(ValueError):
            _spec(2, [0.5, 0.5])  # wrong length for m=2
        for bad in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, -np.inf]):
            with pytest.raises(ValueError):
                _spec(1, bad)

    def test_recovery_count(self):
        rng = qcore.rng_stream(1)
        with pytest.raises(ValueError):
            rus.RusSpec(
                m=1,
                lambdas=np.array([0.5, 0.5]),
                target=qcore.random_unitary(1, rng),
                recoveries=(qcore.random_unitary(1, rng),) * 2,
            )


class TestBuild:
    def test_certain_success_embeds_target(self):
        spec = _spec(1, [1.0, 0.0], trivial=True)
        circ = rus.build_rus_unitary(spec)
        np.testing.assert_allclose(
            circ.a_matrix.mat[:2, :2], spec.target.mat, atol=1e-12
        )
        assert rus.success_probability(circ, qcore.basis_state(1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_block_structure(self):
        spec = _spec(1, [0.25, 0.75], trivial=True)
        circ = rus.build_rus_unitary(spec)
        # success block sqrt(0.25) U, failure block sqrt(0.75) I
        np.testing.assert_allclose(
            circ.a_matrix.mat[:2, :2], 0.5 * spec.target.mat, atol=1e-12
        )
        np.testing.assert_allclose(
            circ.a_matrix.mat[2:, :2], np.sqrt(0.75) * np.eye(2), atol=1e-12
        )

    def test_success_probability_state_independent(self):
        spec = _spec(2, [0.4, 0.3, 0.2, 0.1])
        circ = rus.build_rus_unitary(spec)
        rng = qcore.rng_stream(77)
        probs = [
            rus.success_probability(circ, qcore.random_state(1, rng))
            for _ in range(10)
        ]
        assert max(probs) - min(probs) < 1e-12
        assert probs[0] == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matrix_is_the_reflected_branch_gates_for_every_seed(self, m):
        # Block (i, j) is H_ij W_i for the Householder reflection H of
        # sqrt(lambda); the completion draws nothing, so the seed changes no bit.
        rng = qcore.rng_stream(70 + m)
        lambdas = rng.random(2**m)
        lambdas /= lambdas.sum()
        a = rus.build_rus_unitary(_spec(m, lambdas, seed=1))
        b = rus.build_rus_unitary(_spec(m, lambdas, seed=2))
        assert a.a_matrix.mat.tobytes() == b.a_matrix.mat.tobytes()
        np.testing.assert_allclose(
            a.a_matrix.mat, conftest.synthesized_matrix(a.spec), rtol=0, atol=1e-15
        )

    def test_matrix_is_unitary(self):
        rng = qcore.rng_stream(5)
        # The matrix is built without a check of its own.
        for m in (1, 2, 3, 8):
            circ = conftest.make_circuit(0.37, m=m, rng=rng)
            u = circ.a_matrix.mat
            for gram in (u @ u.conj().T, u.conj().T @ u):
                np.testing.assert_allclose(gram, np.eye(2 ** (m + 1)), atol=1e-10)


class TestColumns:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_synthesized_columns_are_the_dense_columns(self, m):
        for seed in range(5):
            rng = qcore.rng_stream(40 + 10 * m + seed)
            circ = conftest.make_circuit(
                float(rng.uniform(0.01, 1.0)), m=m, rng=rng, seed=seed,
                trivial_recoveries=seed == 0,
            )
            dense = np.ascontiguousarray(circ.a_matrix.mat[:, :2])
            assert circ.columns.tobytes() == dense.tobytes()

    def test_dense_matrix_is_built_once_and_only_when_read(self, monkeypatch):
        spec = _spec(2, [0.4, 0.3, 0.2, 0.1], seed=3)
        calls = []
        build = rus._synthesized_matrix
        monkeypatch.setattr(
            rus, "_synthesized_matrix", lambda *a: calls.append(a) or build(*a)
        )
        circ = rus.build_rus_unitary(spec)
        composed = oaa.standard_compose(circ, 1)
        rus.run_rus(composed, qcore.basis_state(1), qcore.rng_stream(0))
        rus.success_probability(composed, qcore.basis_state(1))
        assert calls == []
        assert composed.a_matrix is composed.a_matrix
        assert circ.a_matrix is composed.source.base.a_matrix
        assert len(calls) == 1

    def test_gate_stack_is_built_once_and_read_only(self):
        circ = conftest.make_circuit(0.35, m=2, rng=qcore.rng_stream(9))
        spec = circ.spec
        assert spec.gates is spec.gates and not spec.gates.flags.writeable
        assert np.array_equal(spec.gates, [g.mat for g in spec.branch_gates()])

    def test_success_probability_reads_the_success_block(self):
        rng = qcore.rng_stream(8)
        circ = conftest.make_circuit(0.35, m=3, rng=rng)
        psi = qcore.random_state(1, rng)
        dense = circ.a_matrix.mat @ np.kron(qcore.basis_state(3).amps, psi.amps)
        assert rus.success_probability(circ, psi) == pytest.approx(
            float(np.sum(np.abs(dense[:2]) ** 2)), abs=1e-15
        )


class TestRun:
    def test_certain_success_single_attempt(self):
        spec = _spec(1, [1.0, 0.0], trivial=True)
        circ = rus.build_rus_unitary(spec)
        psi = qcore.basis_state(1, 0)
        record = rus.run_rus(circ, psi, qcore.rng_stream(0))
        assert record.attempts == 1
        assert record.outcomes == (0,)
        expect = qcore.apply(spec.target, psi)
        assert qcore.fidelity(record.final_state, expect) == pytest.approx(1.0)

    def test_recovery_restores_target_exactly(self):
        # force failures and check the final state is still U psi
        rng = qcore.rng_stream(31)
        circ = conftest.make_circuit(0.3, m=2, rng=rng)
        psi = qcore.random_state(1, rng)
        expect = qcore.apply(circ.spec.target, psi)
        saw_failure = False
        for _ in range(50):
            record = rus.run_rus(circ, psi, rng)
            saw_failure = saw_failure or record.attempts > 1
            assert qcore.fidelity(record.final_state, expect) > 1.0 - 1e-12
        assert saw_failure

    def test_attempt_distribution_geometric(self):
        circ = conftest.make_circuit(0.5, m=1, trivial_recoveries=True)
        rng = qcore.rng_stream(404)
        n = 40_000
        batch = rus.run_batch(circ.frame, qcore.basis_state(1, 0).amps, n, rng)
        assert not batch.exhausted.any()
        attempts = batch.attempts
        mean = attempts.mean()
        # geometric(1/2): mean 2, variance 2
        assert abs(mean - 2.0) < 4.0 * np.sqrt(2.0 / n)
        assert abs(attempts.var() - 2.0) < 0.15
        # empirical tail vs geometric tail, coarse sup distance
        ks = 0.0
        for k in range(1, 20):
            emp = np.mean(attempts <= k)
            ks = max(ks, abs(emp - (1.0 - 0.5**k)))
        assert ks < 0.01

    def test_gates_unitary_within_the_load_tolerance(self):
        # A target scaled by 1 + 2e-11 passes the 1e-10 unitarity check, and
        # simulate runs it.  Its finals miss norm 1 by about 2e-11, beyond a
        # state's 1e-12, so the run wrappers normalize them.
        target = qcore.UnitaryMatrix(np.eye(2) * (1 + 2e-11))
        circ = rus.build_rus_unitary(rus.RusSpec(1, [0.3, 0.7], target))
        rng = qcore.rng_stream(8)
        psi, other = qcore.random_state(1, rng), qcore.random_state(1, rng)
        for _ in range(20):
            final = rus.run_rus(circ, psi, rng).final_state
            assert qcore.fidelity(final, psi) > 1.0 - 1e-12
        cc = distortion.build_conditional(circ)
        cfg = distortion.DistortionConfig(alpha=0.6, beta=0.8j, psi0=psi, psi1=other,
                                          trials=1, seed=0)
        for _ in range(20):
            record, final = distortion.simulate_conditional_rus(cc, cfg, rng)
            # Undistorted, the idle branch survives only a first-attempt
            # success; the target is the identity to within 2e-11.
            idle = 0.6 * psi.amps * (record.attempts == 1)
            expect = np.ravel([idle, 0.8j * math.sqrt(0.3) * other.amps], order="F")
            overlap = abs(np.vdot(expect, final.amps)) ** 2 / np.vdot(expect, expect).real
            assert overlap > 1.0 - 1e-12

    def test_max_attempts_exceeded(self):
        circ = conftest.make_circuit(0.01, m=1)
        rng = qcore.rng_stream(9)
        with pytest.raises(rus.MaxAttemptsExceeded):
            for _ in range(200):
                rus.run_rus(circ, qcore.basis_state(1, 0), rng, max_attempts=1)


FP_PLAN = oaa.fp_plan(6, 1e-3)
FP_PAIRS = list(zip(FP_PLAN.phis, FP_PLAN.varphis))

# Each protocol kind of ``rusamp simulate``, plus the inverse circuit.
PROTOCOLS = {
    "none": lambda c: c,
    "standard:2": lambda c: oaa.standard_compose(c, 2),
    "deterministic": lambda c: oaa.deterministic_compose(
        c, oaa.plan_deterministic(c.spec.lambda0)
    ),
    "pi3:3": lambda c: oaa.pi3_compose(c, oaa.Pi3Plan(k=3)),
    "fp": lambda c: oaa.fp_compose(c, FP_PLAN),
    "inverse_rus": rus.inverse_rus,
}

# The same steps as dense products over the whole register: each maps the
# circuit before the step and its dense matrix to the dense matrix after it.
DENSE_PROTOCOLS = {
    "none": lambda c, a: a,
    "standard:2": lambda c, a: conftest.dense_phase_schedule(a, [(math.pi, math.pi)] * 2),
    "deterministic": lambda c, a: conftest.dense_phase_schedule(
        a, conftest.deterministic_pairs(oaa.plan_deterministic(c.spec.lambda0))
    ),
    "pi3:3": lambda c, a: conftest.dense_pi3(a, 3),
    "fp": lambda c, a: conftest.dense_phase_schedule(a, FP_PAIRS),
    "inverse_rus": lambda c, a: a.conj().T,
}


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_agrees_with_dense_reference(protocol, m):
    rng = qcore.rng_stream(900 + m)
    circ = PROTOCOLS[protocol](conftest.make_circuit(0.04, m=m, rng=rng))
    saw_failure = protocol == "deterministic"  # success 1: never fails
    for run in range(25):
        psi = qcore.random_state(1, rng)
        record = rus.run_rus(circ, psi, qcore.rng_stream(run))
        outcomes, final = conftest.dense_rus_run(circ, psi, qcore.rng_stream(run))
        assert record.outcomes == outcomes
        np.testing.assert_allclose(record.final_state.amps, final.amps, rtol=0, atol=1e-12)
        saw_failure = saw_failure or len(outcomes) > 1
    assert saw_failure


class TestRetryFrame:
    def test_undone_failures_are_outcome_weights(self):
        # The closed-form frame is one branch weighted by lambda; the frame
        # read off the dense columns agrees with it to rounding.
        circ = conftest.make_circuit(0.3, m=2)
        frame = circ.frame
        assert circ.frame is frame
        np.testing.assert_array_equal(frame.success, circ.a_matrix.mat[:2, :2])
        np.testing.assert_array_equal(frame.branches, [0, 0])
        np.testing.assert_array_equal(frame.weights, circ.spec.lambdas[:, None])
        np.testing.assert_array_equal(frame.reachable, np.arange(4))
        np.testing.assert_array_equal(frame.cumulative, np.cumsum(frame.weights, axis=0))
        dense = conftest.diagonal_frame(circ.a_matrix.mat[:, :2], conftest.undo_gates(circ.spec))
        np.testing.assert_allclose(
            conftest.frame_masses(dense), np.tile(frame.weights, (1, 2)), rtol=0, atol=1e-15
        )
        gram = frame.success.conj().T @ frame.success
        np.testing.assert_allclose(gram, frame.weights[0, 0] * np.eye(2), rtol=0, atol=1e-15)

    # The closed-form frame has nothing to extract; these check that the
    # frame read off dense columns, the kernel oracle's, keeps its premise.
    def test_rejects_non_diagonal_undone_block(self):
        # Haar recoveries left in place by identity undos.
        circ = conftest.make_circuit(0.3, m=2)
        undo = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        with pytest.raises(ValueError, match="not diagonal"):
            conftest.diagonal_frame(circ.a_matrix.mat[:, :2], undo)

    def test_rejects_nan_columns(self):
        circ = conftest.make_circuit(0.3, m=1)
        undo = conftest.undo_gates(circ.spec)
        one = circ.a_matrix.mat[:, :2].copy()
        one[3, 0] = np.nan
        for columns in (one, np.full((4, 2), np.nan)):
            with pytest.raises(ValueError, match="not diagonal"):
                conftest.diagonal_frame(columns, undo)

    def test_rejects_nan_success_block(self):
        circ = conftest.make_circuit(0.3, m=1)
        columns = circ.a_matrix.mat[:, :2].copy()
        columns[0, 1] = np.nan
        with pytest.raises(ValueError, match="not diagonal"):
            conftest.diagonal_frame(columns, conftest.undo_gates(circ.spec))

    def test_rejects_non_diagonal_success_gram(self):
        # Undone failures stay diagonal, but U_0 = [[1, 1], [0, 0]] / 2 has
        # the Gram matrix [[1, 1], [1, 1]] / 4.
        columns = np.zeros((4, 2), dtype=complex)
        columns[0] = 0.5
        columns[2:] = np.sqrt(0.75) * np.eye(2)
        with pytest.raises(ValueError, match="not diagonal"):
            conftest.diagonal_frame(columns, np.eye(2, dtype=complex)[None])
        columns[0, 1] = 0.0
        conftest.diagonal_frame(columns, np.eye(2, dtype=complex)[None])

    def test_inverse_with_vanishing_failure_weight_runs(self):
        # The inverse keeps the composed failure mass, about 9.5e-13, and
        # still undoes that block, so its frame stays diagonal.
        rng = qcore.rng_stream(8)
        circ = conftest.make_circuit(1e-4, m=1, rng=rng)
        plan = oaa.fp_plan(oaa.fp_length_for(1e-4, 1e-12), 1e-12)
        fp = oaa.fp_compose(circ, plan)
        inv = rus.inverse_rus(fp)
        _, fail = conftest.two_level_amplitudes(1e-4, list(zip(plan.phis, plan.varphis)))
        assert inv.spec.lambdas[1] == fp.spec.lambdas[1]
        assert inv.spec.lambdas[1] == pytest.approx(abs(fail) ** 2, rel=1e-6)
        psi = qcore.random_state(1, rng)
        record = rus.run_rus(inv, psi, rng)
        expect = inv.spec.target.mat @ psi.amps
        assert abs(np.vdot(expect, record.final_state.amps)) ** 2 > 1.0 - 1e-12


class TestBatch:
    def test_rejects_state_of_wrong_length(self):
        circ = conftest.make_circuit(0.3, m=1)
        for state in (np.ones(4) / 2, np.ones((2, 1)) / np.sqrt(2)):
            with pytest.raises(ValueError, match="register"):
                rus.run_batch(circ.frame, state, 3, qcore.rng_stream(0))

    def test_exhausted_trials_report_the_cap(self):
        circ = conftest.make_circuit(0.1, m=2)
        psi = qcore.random_state(1, qcore.rng_stream(3))
        batch = rus.run_batch(circ.frame, psi.amps, 200, qcore.rng_stream(4),
                              max_attempts=3)
        assert 0 < batch.exhausted.sum() < 200
        assert np.all(batch.attempts[batch.exhausted] == 3)
        finals = conftest.record_finals(batch)
        assert np.all(np.isnan(finals[:, batch.exhausted]))
        expect = circ.spec.target.mat @ psi.amps
        for seq, attempts, exhausted, final in zip(
            batch.sequences(), batch.attempts, batch.exhausted, finals.T
        ):
            assert len(seq) == attempts
            assert (0 not in seq) if exhausted else seq.index(0) == attempts - 1
            if not exhausted:
                assert abs(np.vdot(expect, final)) ** 2 > 1.0 - 1e-12


    def test_an_unreachable_success_exhausts_every_trial(self):
        # With lambda0 = 0 the success row is all zero, so no draw ends a
        # trial: each takes the cap, and no sequence holds outcome 0.
        circ = rus.build_rus_unitary(_spec(1, [0.0, 1.0], trivial=True))
        psi = qcore.random_state(1, qcore.rng_stream(3))
        batch = rus.run_batch(circ.frame, psi.amps, 5, qcore.rng_stream(4), max_attempts=4)
        assert batch.exhausted.all()
        np.testing.assert_array_equal(batch.attempts, 4)
        assert batch.sequences() == [(1, 1, 1, 1)] * 5
        assert np.isnan(conftest.record_finals(batch)).all()
        assert np.isnan(batch.fidelities(psi.amps)).all()
        with pytest.raises(rus.MaxAttemptsExceeded):
            batch.first_record()
        with pytest.raises(rus.MaxAttemptsExceeded):
            rus.run_rus(circ, psi, qcore.rng_stream(4), max_attempts=4)


class TestSingleTrialRecord:
    @pytest.mark.parametrize("kind", ["plain", "distorted", "undistorted"])
    @pytest.mark.parametrize("m", [1, 4])
    def test_first_record_is_the_normalized_first_final(self, monkeypatch, kind, m):
        # Trial 0's final alone, normalized once and not checked again.
        frame, _, start, _ = _batch_case(kind, m)
        batch = rus.run_batch(frame, start, 7, qcore.rng_stream(m))
        checks = []
        monkeypatch.setattr(qcore.StateVector, "__post_init__",
                            lambda state: checks.append(state))
        record = batch.first_record()
        assert checks == []
        final = conftest.record_finals(batch)[:, 0]
        np.testing.assert_allclose(record.final_state.amps, final, rtol=0, atol=1e-15)
        assert record.final_state.num_qubits == final.size.bit_length() - 1
        assert not record.final_state.amps.flags.writeable
        assert record.outcomes == batch.sequences()[0]
        assert record.attempts == batch.attempts[0]

    def test_a_start_is_checked_once_per_frame(self, monkeypatch):
        checked = []
        check = rus._check_start
        monkeypatch.setattr(rus, "_check_start",
                            lambda frame, masses: checked.append(masses) or check(frame, masses))
        rng = qcore.rng_stream(5)
        cc = distortion.build_conditional(conftest.make_circuit(0.3, m=2, rng=rng),
                                          np.array([0.4, 0.3, 0.2, 0.1]))
        cfg = distortion.DistortionConfig(
            alpha=0.6, beta=0.8j, psi0=qcore.random_state(1, rng),
            psi1=qcore.random_state(1, rng), trials=1, seed=0,
        )
        assert cfg.pair is cfg.pair and not cfg.pair.flags.writeable
        for _ in range(15):
            distortion.simulate_conditional_rus(cc, cfg, rng)
        # An equal start from another config reuses the check.
        distortion.monte_carlo_fidelity(cc, dataclasses.replace(cfg, trials=50))
        assert len(checked) == 1
        # A different start is checked, and replaces the one kept.
        swapped = dataclasses.replace(cfg, alpha=cfg.beta, beta=cfg.alpha)
        distortion.simulate_conditional_rus(cc, swapped, rng)
        distortion.simulate_conditional_rus(cc, cfg, rng)
        assert len(checked) == 3
        # An equal array is served until it is mutated.
        state = cfg.pair.copy()
        batch = rus.run_batch(cc.frame, state, 1, rng)
        images = batch.images.copy()
        assert len(checked) == 3
        state *= 1j
        rus.run_batch(cc.frame, state, 1, rng)
        assert len(checked) == 4
        # The record keeps its own images, which neither the caller's change
        # nor the start that replaced its entry reaches.
        np.testing.assert_array_equal(batch.images, images)
        state[0] *= 2.0
        with pytest.raises(ValueError, match="state norm"):
            rus.run_batch(cc.frame, state, 1, rng)
        assert len(checked) == 5
        # A new frame checks its own start.
        cc = distortion.build_conditional(cc.base, cc.gammas)
        distortion.simulate_conditional_rus(cc, cfg, rng)
        assert len(checked) == 6


def _batch_case(kind: str, m: int):
    """A frame, the frame read off the same columns, the start state and the
    matching dense per-trial attempt."""
    rng = qcore.rng_stream(700 + m)
    circ = conftest.make_circuit(0.25, m=m, rng=rng)
    if kind == "standard":
        circ = oaa.standard_compose(circ, 1)
    elif kind == "fp":
        circ = oaa.fp_compose(circ, oaa.fp_plan(4, 0.5))
    if kind not in ("distorted", "undistorted"):
        return (circ.frame, conftest.circuit_diagonal_frame(circ),
                qcore.random_state(1, rng).amps, conftest.dense_attempt(circ))
    gammas = None
    if kind == "distorted":
        gammas = rng.random(2**m) + 0.1
        gammas /= gammas.sum()
    cc = distortion.build_conditional(circ, gammas, seed=m)
    cfg = distortion.DistortionConfig(
        alpha=0.6, beta=0.8j, psi0=qcore.random_state(1, rng),
        psi1=qcore.random_state(1, rng), trials=1, seed=0,
    )
    return (cc.frame, conftest.conditional_diagonal_frame(cc),
            conftest.conditional_start(cfg), conftest.dense_conditional_attempt(cc))


class TestWideBatches:
    # The cap of 6 attempts exhausts some of the wide plain and conditional
    # batches; the composed circuits succeed too often to.
    @pytest.mark.parametrize("width", [1, 7, 300])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "kind", ["plain", "standard", "fp", "distorted", "undistorted"]
    )
    def test_agrees_with_dense_trials(self, kind, m, width):
        frame, _, start, attempt = _batch_case(kind, m)
        batch = rus.run_batch(frame, start, width, qcore.rng_stream(m), 6)
        ref = conftest.dense_batch_run(attempt, start, width, qcore.rng_stream(m), 6)
        assert batch.sequences() == ref.sequences()
        np.testing.assert_array_equal(batch.exhausted, ref.exhausted)
        finals = conftest.record_finals(batch)
        assert np.array_equal(np.isnan(finals), np.isnan(ref.finals))
        np.testing.assert_allclose(finals, ref.finals, rtol=0, atol=1e-14)
        if width == 300 and kind in ("plain", "distorted"):
            assert 0 < batch.exhausted.sum() < width


def _final_tolerance(attempts: np.ndarray) -> np.ndarray:
    """How far a trial's final may sit from ``conftest.reference_run_batch``'s.

    A record's final (``conftest.record_finals``) is the closed form,
    within 2e-16 of W_0 psi in the deep plain runs.  The reference
    multiplies by diagonals read off the columns, whose entries round apart
    by an ulp or so, and its finals drift from the closed form in step with
    the attempts: by at most 1.9e-16 per attempt over 3,000 to 7,000
    attempts.
    """
    return 1e-15 + 3e-16 * attempts


def _assert_matches_reference(frame, diagonal, start, trials, seed,
                              max_attempts=rus.DEFAULT_MAX_ATTEMPTS):
    """Run ``rus.run_batch`` on ``frame``, and both ``conftest`` kernels on
    the ``diagonal`` frame of the same circuit, from equal streams: the
    kernel that carried register states must draw alike bit for bit, and
    the normalized one too, with finals equal to rounding."""
    batch = rus.run_batch(frame, start, trials, qcore.rng_stream(seed), max_attempts)
    done = ~batch.exhausted
    finals = conftest.record_finals(batch)
    assert np.isnan(finals[:, ~done]).all()
    sequences = batch.sequences()
    for kernel in (conftest.state_run_batch, conftest.reference_run_batch):
        ref = kernel(diagonal, start, trials, qcore.rng_stream(seed), max_attempts)
        assert sequences == ref.sequences()
        np.testing.assert_array_equal(batch.attempts, ref.attempts)
        np.testing.assert_array_equal(batch.exhausted, ref.exhausted)
    error = np.abs(finals - ref.finals).max(axis=0)[done]
    assert np.all(error <= _final_tolerance(batch.attempts[done]))
    return batch


def _deepest_log2_mass(masses: np.ndarray, batch: rus.BatchRun) -> float:
    """Least log2 of a trial's total mass over its failures, for a frame whose
    failure masses do not depend on the register entry (a plain frame)."""
    with np.errstate(divide="ignore"):
        logs = np.log2(masses)
    return min(logs[list(seq[:-1])].sum() for seq in batch.sequences())


class TestUnnormalizedStates:
    @pytest.mark.parametrize("m", [2, 4])
    def test_deep_plain_runs_rescale(self, m):
        circ = conftest.make_circuit(1e-3, m=m, rng=qcore.rng_stream(50 + m))
        psi = qcore.random_state(1, qcore.rng_stream(5))
        batch = _assert_matches_reference(
            circ.frame, conftest.circuit_diagonal_frame(circ), psi.amps, 50, m)
        assert not batch.exhausted.any()
        assert batch.attempts.max() > 3_000
        # Unscaled, the deepest states would have underflowed to zero many
        # times over.
        assert _deepest_log2_mass(circ.spec.lambdas, batch) < -4 * 1074
        expect = circ.spec.target.mat @ psi.amps
        assert np.abs(conftest.record_finals(batch) - expect[:, None]).max() <= 1e-15

    @pytest.mark.parametrize("m", [2, 3])
    def test_deep_conditional_runs_rescale(self, m):
        rng = qcore.rng_stream(80 + m)
        base = conftest.make_circuit(1e-3, m=m, rng=rng)
        rest = rng.random(2**m - 1)
        gammas = np.concatenate(([1e-3], rest * 0.999 / rest.sum()))
        cc = distortion.build_conditional(base, gammas, seed=m)
        cfg = distortion.DistortionConfig(
            alpha=0.6, beta=0.8j, psi0=qcore.random_state(1, rng),
            psi1=qcore.random_state(1, rng), trials=50, seed=m,
        )
        batch = _assert_matches_reference(
            cc.frame, conftest.conditional_diagonal_frame(cc), conftest.conditional_start(cfg),
            50, m)
        assert not batch.exhausted.any()
        assert max(_deepest_log2_mass(gammas, batch),
                   _deepest_log2_mass(base.spec.lambdas, batch)) < -1074
        want = conftest.history_states(cc, cfg, batch)
        assert np.abs(conftest.record_finals(batch) - want).max() <= 1e-15
        conftest.history_fidelities(cc, cfg, batch)

    @pytest.mark.parametrize("width", [1, 7, 3_000])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["plain", "distorted", "undistorted"])
    def test_capped_batches_match_reference(self, kind, m, width):
        frame, diagonal, start, _ = _batch_case(kind, m)
        batch = _assert_matches_reference(frame, diagonal, start, width, m, 6)
        if width == 3_000 and kind != "undistorted":
            assert 0 < batch.exhausted.sum() < width

    @pytest.mark.parametrize("fill", [np.nan, 0.0])
    def test_nan_or_zero_state_is_rejected(self, fill):
        circ = conftest.make_circuit(0.3, m=1)
        with pytest.raises(ValueError, match="state norm"):
            rus.run_batch(circ.frame, np.full(2, fill, dtype=complex), 3, qcore.rng_stream(0))

    def test_unnormalized_start_is_rejected(self):
        circ = conftest.make_circuit(0.3, m=1)
        with pytest.raises(ValueError, match="state norm"):
            rus.run_batch(circ.frame, np.array([1.0, 1e-5]), 3, qcore.rng_stream(0))

    def test_live_state_turned_zero_is_rejected(self):
        # A trial's total can only reach zero through a draw on an outcome
        # with no mass on its branches; a frame whose failure leaves nothing
        # stands in for that draw.
        frame = rus.retry_frame(np.sqrt(0.5) * np.eye(2), np.zeros(2, dtype=np.intp),
                                np.array([[0.5], [0.5]]))
        frame = dataclasses.replace(frame, weights=np.array([[0.5], [0.0]]))
        with pytest.raises(ValueError, match="not positive"):
            rus.run_batch(frame, np.array([0.6, 0.8]), 200, qcore.rng_stream(0))

    def test_masses_must_sum_to_one_on_the_state(self):
        # The failure keeps half the mass of branch 1, entry 1, only; a
        # state on entry 0 alone never sees it.
        frame = rus.retry_frame(np.sqrt(0.5) * np.eye(2), np.array([0, 1]),
                                np.array([[0.5, 0.5], [0.5, 0.25]]))
        rus.run_batch(frame, np.array([1.0, 0.0]), 20, qcore.rng_stream(0))
        with pytest.raises(ValueError, match="sum to 1 only within"):
            rus.run_batch(frame, np.array([0.6, 0.8]), 20, qcore.rng_stream(0))


# The attempt cap of the oracle's grid, high enough that every case has
# finished trials to check, the runs on the idle branch alone at m = 4 too.
ORACLE_CAP = 200
# Control amplitudes of the conditional cases: both branches, the control-|1>
# branch alone (alpha = 0) and the idle branch alone (beta = 0).
CONTROLS = {"both": (0.6, 0.8j), "alpha=0": (0.0, 1.0), "beta=0": (1.0, 0.0)}


class TestClosedFormFinals:
    """Branch masses draw as the register states did
    (``_assert_matches_reference``), and their finals are the closed form
    to 1e-15: W_0 psi for a plain frame, and for a conditional one the
    state that ``conftest.history_states`` reads off each trial's outcomes,
    whose fidelity ``conftest.history_fidelities`` checks.  The deep runs
    of ``TestUnnormalizedStates`` check the same after rescaling."""

    @pytest.mark.parametrize("width", [1, 7, 3_000])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_plain_frames(self, m, width):
        rng = qcore.rng_stream(300 + m)
        circ = conftest.make_circuit(0.25, m=m, rng=rng)
        psi = qcore.random_state(1, rng).amps
        batch = _assert_matches_reference(
            circ.frame, conftest.circuit_diagonal_frame(circ), psi, width, m, ORACLE_CAP)
        done = ~batch.exhausted
        assert done.any()
        expect = circ.spec.target.mat @ psi
        assert np.abs(conftest.record_finals(batch)[:, done] - expect[:, None]).max() <= 1e-15

    @pytest.mark.parametrize("width", [1, 7, 3_000])
    @pytest.mark.parametrize("control", list(CONTROLS))
    @pytest.mark.parametrize("distorted", [True, False])
    @pytest.mark.parametrize("m", [1, 4])
    def test_conditional_frames(self, m, distorted, control, width):
        rng = qcore.rng_stream(320 + m)
        base = conftest.make_circuit(0.25, m=m, rng=rng)
        gammas = None
        if distorted:
            gammas = rng.random(2**m) + 0.1
            gammas /= gammas.sum()
        cc = distortion.build_conditional(base, gammas, seed=m)
        alpha, beta = CONTROLS[control]
        cfg = distortion.DistortionConfig(
            alpha=alpha, beta=beta, psi0=qcore.random_state(1, rng),
            psi1=qcore.random_state(1, rng), trials=width, seed=m,
        )
        batch = _assert_matches_reference(
            cc.frame, conftest.conditional_diagonal_frame(cc), conftest.conditional_start(cfg),
            width, m, ORACLE_CAP)
        done = ~batch.exhausted
        assert done.any()
        want = conftest.history_states(cc, cfg, batch)
        assert np.abs(conftest.record_finals(batch)[:, done] - want).max() <= 1e-15
        conftest.history_fidelities(cc, cfg, batch)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated a batch array")


class TestBatchMemory:
    def test_budget_rejects_before_allocating(self, monkeypatch):
        # A trial at m = 1 counts 2 register amplitudes and 2 outcome rows.
        circ = conftest.make_circuit(0.3, m=1)
        monkeypatch.setattr(rus, "MAX_BATCH_ENTRIES", 64)
        with monkeypatch.context() as patched:
            patched.setattr(np, "repeat", _refuse)
            patched.setattr(np, "full", _refuse)
            with pytest.raises(MemoryError, match="batch limit of 64 entries"):
                rus.run_batch(circ.frame, np.array([1.0, 0.0]), 17, qcore.rng_stream(0))
        batch = rus.run_batch(circ.frame, np.array([1.0, 0.0]), 16, qcore.rng_stream(0))
        assert batch.attempts.size == 16

    def test_many_outcomes_are_counted(self, monkeypatch):
        # At m = 8, 2**24 trials hold 2**25 register amplitudes, which the
        # budget once admitted; the first attempt's cumulative masses alone
        # would take 32 GiB.
        circ = conftest.make_circuit(0.3, m=8, trivial_recoveries=True)
        assert circ.frame.reachable.size == 256
        state, rng = np.array([1.0, 0.0]), qcore.rng_stream(0)
        for name in ("repeat", "full", "empty", "empty_like", "zeros", "ones"):
            monkeypatch.setattr(np, name, _refuse)
        with pytest.raises(MemoryError, match="2 amplitudes and 256 outcome rows"):
            rus.run_batch(circ.frame, state, 2**24, rng)

    def test_default_budget_is_a_gibibyte(self):
        # No entry takes more than 32 bytes.  At m = 1, --trials 100000000
        # would need 12.8 GB; the budget rejects it.
        assert 2 * 16 * rus.MAX_BATCH_ENTRIES == 2**30
        assert 10**8 * 4 > rus.MAX_BATCH_ENTRIES


def _drawn(batch: rus.BatchRun) -> set[int]:
    """Every outcome any trial of ``batch`` drew."""
    return {outcome for seq in batch.sequences() for outcome in seq}


class TestZeroMassOutcomes:
    @pytest.mark.parametrize(
        "lambdas", [[0.4, 0.0, 0.35, 0.25], [0.3, 0.2, 0.0, 0.1, 0.0, 0.2, 0.1, 0.1]]
    )
    def test_plain_outcome_never_drawn(self, lambdas):
        m = len(lambdas).bit_length() - 1
        circ = rus.build_rus_unitary(_spec(m, lambdas))
        psi = qcore.random_state(1, qcore.rng_stream(8))
        batch = rus.run_batch(circ.frame, psi.amps, 10_000, qcore.rng_stream(9))
        zero = np.flatnonzero(np.array(lambdas) == 0.0)
        assert not _drawn(batch) & set(zero.tolist())
        assert not np.isin(circ.frame.reachable, zero).any()
        assert not batch.exhausted.any()

    def test_conditional_outcome_never_drawn(self):
        circ = rus.build_rus_unitary(_spec(2, [0.3, 0.0, 0.4, 0.3]))
        cc = distortion.build_conditional(circ, np.array([0.25, 0.0, 0.5, 0.25]), seed=2)
        cfg = distortion.DistortionConfig(
            alpha=0.6, beta=0.8, psi0=qcore.basis_state(1),
            psi1=qcore.random_state(1, qcore.rng_stream(10)), trials=1, seed=0,
        )
        batch = rus.run_batch(
            cc.frame, conftest.conditional_start(cfg), 10_000, qcore.rng_stream(11)
        )
        assert _drawn(batch) == {0, 2, 3}

    @pytest.mark.parametrize("m", [1, 4])
    def test_idle_branch_only_succeeds(self, m):
        # Failures have mass on control |1> only, so with beta = 0 their
        # zero is the state's, not a zero row of the frame.  The cumulative
        # masses on control |0> are all exactly 1, so every row of the draw's
        # product sums the same two exact terms.
        lambdas = np.full(2**m, 0.6 / (2**m - 1))
        lambdas[0] = 0.4
        cc = distortion.build_conditional(rus.build_rus_unitary(_spec(m, lambdas)))
        np.testing.assert_array_equal(cc.frame.reachable, np.arange(2**m))
        cfg = distortion.DistortionConfig(
            alpha=1.0, beta=0.0, psi0=qcore.random_state(1, qcore.rng_stream(12)),
            psi1=qcore.basis_state(1), trials=1, seed=0,
        )
        batch = rus.run_batch(
            cc.frame, conftest.conditional_start(cfg), 10_000, qcore.rng_stream(13)
        )
        assert batch.sequences() == [(0,)] * 10_000
        np.testing.assert_array_equal(batch.attempts, 1)
        assert np.isfinite(conftest.record_finals(batch)).all()


class TestInverse:
    def test_inverse_success_probability(self):
        rng = qcore.rng_stream(21)
        for _ in range(5):
            circ = conftest.make_circuit(0.3, m=2, rng=rng)
            inv = rus.inverse_rus(circ)
            assert rus.success_probability(inv, qcore.basis_state(1)) == pytest.approx(
                0.3, abs=1e-12
            )

    def test_composite_identity(self):
        rng = qcore.rng_stream(22)
        circ = conftest.make_circuit(0.45, m=1, rng=rng)
        inv = rus.inverse_rus(circ)
        psi = qcore.random_state(1, rng)
        for _ in range(20):
            forward = rus.run_rus(circ, psi, rng)
            back = rus.run_rus(inv, forward.final_state, rng)
            assert qcore.fidelity(back.final_state, psi) > 1.0 - 1e-12

    def test_double_inverse_restores_matrix(self):
        circ = conftest.make_circuit(0.6, m=1)
        twice = rus.inverse_rus(rus.inverse_rus(circ))
        np.testing.assert_allclose(
            twice.a_matrix.mat, circ.a_matrix.mat, atol=1e-10
        )

    @pytest.mark.parametrize("m", range(1, 9))
    def test_synthesized_inverse_keeps_the_weights(self, m):
        # H is symmetric, so the adjoint's block i on |0^m> is
        # sqrt(lambda_i) W_0^dag: the weights return, and every gate is
        # W_0^dag up to a phase.
        circ = conftest.make_circuit(0.3, m=m, rng=qcore.rng_stream(80 + m))
        inv = rus.inverse_rus(circ)
        np.testing.assert_allclose(inv.spec.lambdas, circ.spec.lambdas, rtol=0, atol=1e-15)
        turns = circ.spec.gates[0] @ inv.spec.gates
        phases = turns[:, 0, 0]
        np.testing.assert_allclose(np.abs(phases), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            turns, phases[:, None, None] * np.eye(2), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("compose", [None, "fp"])
    def test_matches_a_checked_adjoint(self, compose):
        # The closed form agrees with the dense adjoint and with the adjoint
        # of an independent dense oracle, and its runs draw as runs on the
        # dense adjoint's columns do.
        rng = qcore.rng_stream(23)
        circ = conftest.make_circuit(0.2, m=2, rng=rng)
        oracle = conftest.synthesized_matrix(circ.spec)
        if compose:
            plan = oaa.fp_plan(8, 1e-3)
            circ = oaa.fp_compose(circ, plan)
            oracle = conftest.dense_phase_schedule(oracle, list(zip(plan.phis, plan.varphis)))
        inv = rus.inverse_rus(circ)
        adjoint = circ.a_matrix.mat.conj().T[:, :2]
        for dense in (adjoint, oracle.conj().T[:, :2]):
            assert np.abs(inv.columns - dense).max() <= 1e-14
        psi = qcore.random_state(1, rng).amps
        runs = [rus.run_batch(c.frame, psi, 50, qcore.rng_stream(5))
                for c in (inv, conftest.ColumnsCircuit(inv.spec, adjoint))]
        assert runs[0].sequences() == runs[1].sequences()
        np.testing.assert_allclose(*map(conftest.record_finals, runs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("protocol", ["standard:2", "deterministic", "pi3:3", "fp"])
    def test_composed_inverse_matches_a_checked_adjoint(self, protocol, m):
        rng = qcore.rng_stream(60 + m)
        base = conftest.make_circuit(0.15, m=m, rng=rng)
        circ = PROTOCOLS[protocol](base)
        oracle = DENSE_PROTOCOLS[protocol](base, conftest.synthesized_matrix(base.spec))
        inv = rus.inverse_rus(circ)
        for dense in (circ.a_matrix.mat, oracle):
            assert np.abs(inv.columns - dense.conj().T[:, :2]).max() <= 1e-14
        # The inverse's matrix is its base's, read back as the adjoint.
        assert np.abs(inv.columns - inv.a_matrix.mat[:, :2]).max() <= 1e-14


# Chains that end in an inverse: after each composition, before and after
# one (a composition of an inverse reads the inverse's complement), twice
# in a row, and after two compositions.  A cube-law level or a second long
# schedule after a composition amplifies the first one's rounding, which
# the dense oracle has as well: pi3:3 after pi3:3 differs from it by up to
# 1.4e-13 at these inputs, so such pairs are left to
# ``test_inverse_after_two_compositions_is_the_adjoint``.
COMPOSITIONS = ["standard:2", "deterministic", "pi3:3", "fp"]
CHAINS = (
    [[p, "inverse_rus"] for p in COMPOSITIONS]
    + [["inverse_rus", p, "inverse_rus"] for p in COMPOSITIONS]
    + [["inverse_rus", "inverse_rus"]]
    + [[p, q, "inverse_rus"] for p, q in [
        ("standard:2", "deterministic"), ("deterministic", "fp"),
        ("fp", "deterministic"), ("deterministic", "standard:2"),
    ]]
)


class TestClosedFormInverse:
    """Inverses from the OAA planes, against dense products that never use
    them.  Base ``exact`` is one whose deterministic composition has no
    failure weight at all, and ``certain`` a base with lambda_0 = 1, whose
    failure share falls back to the first failure block."""

    @pytest.mark.parametrize("kind", ["random", "exact", "certain"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_chains_match_the_dense_oracle(self, m, kind):
        lambda0 = {"random": 0.15, "exact": 0.59, "certain": 1.0}[kind]
        base = conftest.make_circuit(lambda0, m=m, rng=qcore.rng_stream(m))
        if kind == "exact":
            assert not PROTOCOLS["deterministic"](base).spec.lambdas[1:].any()
        for steps in CHAINS:
            circ, dense = base, conftest.synthesized_matrix(base.spec)
            for step in steps:
                circ, dense = PROTOCOLS[step](circ), DENSE_PROTOCOLS[step](circ, dense)
                assert np.abs(circ.columns - dense[:, :2]).max() <= 1e-14, steps
                _assert_complement(circ, dense)
            # The chain's own dense matrix, built through every source.
            assert np.abs(circ.a_matrix.mat[:, :2] - dense[:, :2]).max() <= 1e-14, steps

    @pytest.mark.parametrize("m", [1, 4])
    def test_inverse_after_two_compositions_is_the_adjoint(self, m):
        base = conftest.make_circuit(0.15, m=m, rng=qcore.rng_stream(m))
        for first in COMPOSITIONS:
            for second in COMPOSITIONS:
                circ = PROTOCOLS[second](PROTOCOLS[first](base))
                adjoint = circ.a_matrix.mat.conj().T[:, :2]
                assert np.abs(rus.inverse_rus(circ).columns - adjoint).max() <= 1e-14

    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_inverses_and_compositions_build_no_matrix(self, monkeypatch, m):
        def refuse(*args):
            raise AssertionError("a dense matrix was built")

        monkeypatch.setattr(rus, "_synthesized_matrix", refuse)
        monkeypatch.setattr(oaa.Composition, "matrix", refuse)
        base = conftest.make_circuit(
            0.15, m=m, rng=qcore.rng_stream(m), trivial_recoveries=m == 12
        )
        psi = qcore.random_state(1, qcore.rng_stream(0))
        for steps in CHAINS:
            circ = base
            for step in steps:
                circ = PROTOCOLS[step](circ)
            final = rus.run_rus(circ, psi, qcore.rng_stream(1)).final_state.amps
            expect = circ.spec.target.mat @ psi.amps
            assert abs(np.vdot(expect, final)) ** 2 > 1.0 - 1e-12, steps


def _assert_complement(circ, dense):
    """V is A^dag P to 1e-12 for the dense matrix A of ``circ``; without
    failure weight, where P is a free choice, V is any unit complement."""
    v = circ.complement.columns()
    if circ.spec.lambdas[1:].any():
        assert np.abs(v - conftest.dense_complement(dense, circ.spec)).max() <= 1e-12
    assert not v[:2].any()
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-14


def _assert_orthonormal(columns):
    gram = columns.conj().T @ columns
    assert np.abs(gram - np.eye(2)).max() <= qcore.UNITARY_ATOL


def _weights(rng, m: int) -> np.ndarray:
    raw = rng.random(2**m) + 0.01
    return raw / raw.sum()


class TestCheckedOnce:
    """Gates are checked once, where they enter: a spec from ``UnitaryMatrix``
    gates or ``spec_from_dict``.  Derived specs and circuits (compositions
    and inverses) are built without a second check, so their columns must
    stay orthonormal without one."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 4),
        seed=st.integers(0, 2**31),
        lambda0=st.floats(0.01, 0.99),
        first=st.sampled_from(list(PROTOCOLS)),
        second=st.sampled_from(list(PROTOCOLS)),
    )
    def test_derived_columns_stay_orthonormal(self, m, seed, lambda0, first, second):
        rng = qcore.rng_stream(seed)
        base = conftest.make_circuit(lambda0, m=m, rng=rng, seed=seed % 7)
        once = PROTOCOLS[first](base)
        twice = PROTOCOLS[second](once)
        for circ in (base, once, twice):
            _assert_orthonormal(circ.columns)
            assert circ.columns.shape == (2 ** (m + 1), 2)
        # The dense matrix is checked when it is built; the unchecked
        # columns must be its first two.
        np.testing.assert_allclose(twice.columns, twice.a_matrix.mat[:, :2], atol=1e-12)
        _assert_orthonormal(rus.inverse_rus(twice).columns)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m=st.integers(1, 4), seed=st.integers(0, 2**31), identity=st.booleans())
    def test_both_entries_build_identical_specs(self, m, seed, identity):
        rng = qcore.rng_stream(seed)
        lambdas = _weights(rng, m)
        gates = [qcore.random_unitary(1, rng) for _ in range(2**m)]
        if identity:
            gates[1:] = [qcore.identity(1)] * (2**m - 1)
        keyword = rus.RusSpec(
            m=m, lambdas=lambdas, target=gates[0],
            recoveries=None if identity else tuple(gates[1:]), seed=seed,
        )
        stacked = rus.RusSpec.from_gates(
            m, lambdas, qcore.unitary_stack([g.mat for g in gates]), seed
        )
        assert (keyword.m, keyword.seed) == (stacked.m, stacked.seed)
        for spec in (keyword, stacked):
            assert not spec.gates.flags.writeable and not spec.lambdas.flags.writeable
        assert keyword.gates.tobytes() == stacked.gates.tobytes()
        assert keyword.lambdas.tobytes() == stacked.lambdas.tobytes()
        columns = [rus.build_rus_unitary(s).columns for s in (keyword, stacked)]
        assert columns[0].tobytes() == columns[1].tobytes()
        assert keyword.target.mat.tobytes() == gates[0].mat.tobytes()
        assert [r.mat.tobytes() for r in stacked.recoveries] == [
            g.mat.tobytes() for g in gates[1:]
        ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 4),
        seed=st.integers(0, 2**31),
        slot=st.integers(0, 15),
        bad=st.sampled_from(["nan", "negative", "unnormalized", "inf"]),
    )
    def test_both_entries_reject_bad_weights(self, m, seed, slot, bad):
        rng = qcore.rng_stream(seed)
        lambdas = _weights(rng, m)
        slot %= 2**m
        if bad == "nan":
            lambdas[slot] = np.nan
        elif bad == "negative":
            lambdas[slot] = -lambdas[slot]
        elif bad == "unnormalized":
            lambdas[slot] *= 1.0 + 1e-9
        else:
            lambdas[slot] = np.inf
        target = qcore.random_unitary(1, rng)
        stack = qcore.unitary_stack(
            [target.mat, *[np.eye(2)] * (2**m - 1)]
        )
        with pytest.raises(ValueError, match="outcome probabilities must"):
            rus.RusSpec(m=m, lambdas=lambdas, target=target)
        with pytest.raises(ValueError, match="outcome probabilities must"):
            rus.RusSpec.from_gates(m, lambdas, stack)

    def test_stack_entry_checks_its_shape(self):
        with pytest.raises(ValueError, match="m=2 needs 2\\*\\*m outcome"):
            rus.RusSpec.from_gates(2, [0.5, 0.5], qcore.unitary_stack([np.eye(2)] * 4))
        with pytest.raises(ValueError, match="expected 3 recovery gates"):
            rus.RusSpec.from_gates(2, [0.25] * 4, qcore.unitary_stack([np.eye(2)] * 3))

    def test_each_entry_checks_once(self, monkeypatch):
        # Each unitarity check records the shape it covers.
        calls = []
        check = qcore._check_unitary
        monkeypatch.setattr(
            qcore, "_check_unitary",
            lambda mats, ndim: calls.append(mats.shape) or check(mats, ndim),
        )

        def checks(build):
            calls.clear()
            result = build()
            return result, list(calls)

        data = rus.spec_to_dict(_spec(2, [0.4, 0.3, 0.2, 0.1], seed=3))
        spec, seen = checks(lambda: rus.spec_from_dict(data))
        assert seen == [(4, 2, 2)]
        circ, seen = checks(lambda: rus.build_rus_unitary(spec))
        assert seen == []
        for protocol in ("standard:2", "deterministic", "fp"):
            assert checks(lambda: PROTOCOLS[protocol](circ))[1] == []
        # The cube law checks its 2x2 t, not the stack.
        assert checks(lambda: PROTOCOLS["pi3:3"](circ))[1] == [(2, 2)]
        inverse, seen = checks(lambda: rus.inverse_rus(circ))
        assert seen == []
        # The inverse's matrix is the adjoint of its base's, which is a
        # product of checked factors and not checked again.
        assert checks(lambda: inverse.a_matrix)[1] == []

    def test_weights_are_checked_where_they_enter(self, monkeypatch):
        # Compositions divide weights they derived by their sum; nothing
        # else checks them.  Specs built from outside and inverses do.
        data = rus.spec_to_dict(_spec(2, [0.4, 0.3, 0.2, 0.1], seed=3))
        calls = []
        check = rus._checked_lambdas
        monkeypatch.setattr(
            rus, "_checked_lambdas",
            lambda m, lambdas: calls.append(m) or check(m, lambdas),
        )
        circ = rus.build_rus_unitary(rus.spec_from_dict(data))
        assert calls == [2]
        for protocol in ("standard:2", "deterministic", "pi3:3", "fp"):
            calls.clear()
            grown = PROTOCOLS[protocol](circ)
            assert calls == []
            assert not grown.spec.lambdas.flags.writeable
            assert abs(grown.spec.lambdas.sum() - 1.0) <= 1e-15
        calls.clear()
        rus.inverse_rus(circ)
        assert calls == [2]

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0),
                                     complex(0.0, -math.inf), complex(math.nan, math.nan)])
    def test_non_finite_t_is_rejected(self, bad):
        # The scalar residual check on t's first column is what keeps a
        # derived spec's unchecked weights finite.
        circ = conftest.make_circuit(0.3, m=2)
        s, co, share = oaa._plane(circ.spec)
        for t in (((bad, 0j), (co, -s)), ((s, 0j), (bad, -s))):
            with pytest.raises(ValueError, match="unitarity residual"):
                oaa._composed(circ, t, share)


class TestSerialization:
    def test_round_trip_identical_circuit(self, tmp_path):
        spec = _spec(2, [0.4, 0.3, 0.2, 0.1], seed=3)
        path = tmp_path / "spec.json"
        rus.save_spec(spec, path)
        loaded = rus.load_spec(path)
        a = rus.build_rus_unitary(spec)
        b = rus.build_rus_unitary(loaded)
        assert np.array_equal(a.a_matrix.mat, b.a_matrix.mat)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), seed=st.integers(0, 2**31), identity=st.booleans())
    def test_dict_round_trip_is_exact(self, m, seed, identity):
        rng = qcore.rng_stream(seed)
        spec = conftest.make_circuit(
            float(rng.uniform(0.01, 1.0)), m=m, rng=rng, seed=seed,
            trivial_recoveries=identity,
        ).spec
        again = rus.spec_from_dict(json.loads(json.dumps(rus.spec_to_dict(spec))))
        assert (again.m, again.seed) == (spec.m, spec.seed)
        assert np.array_equal(again.lambdas, spec.lambdas)
        for got, want in zip(again.branch_gates(), spec.branch_gates()):
            assert np.array_equal(got.mat, want.mat)

    def test_dict_round_trip(self):
        spec = _spec(1, [0.7, 0.3], seed=5)
        again = rus.spec_from_dict(rus.spec_to_dict(spec))
        assert again.m == spec.m
        assert again.seed == spec.seed
        np.testing.assert_allclose(again.lambdas, spec.lambdas)
        np.testing.assert_allclose(again.target.mat, spec.target.mat)
