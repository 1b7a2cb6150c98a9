import dataclasses
import json

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
        for m in (1, 2, 3):
            circ = conftest.make_circuit(0.37, m=m, rng=rng)
            u = circ.a_matrix.mat
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(2 ** (m + 1)), atol=1e-10
            )


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

    def test_rejects_columns_of_the_wrong_shape(self):
        spec = _spec(2, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="columns do not match spec"):
            rus.RusCircuit(spec, np.eye(4, 2))

    def test_rejects_columns_that_are_not_an_isometry(self):
        spec = _spec(2, [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="isometry residual 3.0 exceeds"):
            rus.RusCircuit(spec, 2.0 * np.eye(8, 2))

    def test_gate_stack_is_built_once_and_read_only(self):
        circ = conftest.make_circuit(0.35, m=2, rng=qcore.rng_stream(9))
        spec = circ.spec
        assert spec.gates is spec.gates and not spec.gates.flags.writeable
        assert np.array_equal(spec.gates, [g.mat for g in spec.branch_gates()])
        assert np.array_equal(
            rus.undo_gates(spec), [r.mat.conj().T for r in spec.recoveries]
        )

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

    def test_max_attempts_exceeded(self):
        circ = conftest.make_circuit(0.01, m=1)
        rng = qcore.rng_stream(9)
        with pytest.raises(rus.MaxAttemptsExceeded):
            for _ in range(200):
                rus.run_rus(circ, qcore.basis_state(1, 0), rng, max_attempts=1)


# Each protocol kind of ``rusamp simulate``, plus the inverse circuit.
PROTOCOLS = {
    "none": lambda c: c,
    "standard:2": lambda c: oaa.standard_compose(c, 2),
    "deterministic": lambda c: oaa.deterministic_compose(
        c, oaa.plan_deterministic(c.spec.lambda0)
    ),
    "pi3:3": lambda c: oaa.pi3_compose(c, oaa.Pi3Plan(k=3)),
    "fp": lambda c: oaa.fp_compose(c, oaa.fp_plan(6, 1e-3)),
    "inverse_rus": rus.inverse_rus,
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
        circ = conftest.make_circuit(0.3, m=2)
        frame = circ.frame
        assert circ.frame is frame
        np.testing.assert_array_equal(frame.success, circ.a_matrix.mat[:2, :2])
        np.testing.assert_allclose(
            np.diff(frame.cumulative, axis=0, prepend=0.0),
            np.tile(circ.spec.lambdas[:, None], (1, 2)), rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            np.abs(frame.diagonals) ** 2,
            np.tile(circ.spec.lambdas[1:, None], (1, 2)), rtol=0, atol=1e-12,
        )

    def test_rejects_non_diagonal_undone_block(self):
        # Haar recoveries left in place by identity undos.
        circ = conftest.make_circuit(0.3, m=2)
        undo = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        with pytest.raises(ValueError, match="not diagonal"):
            rus.retry_frame(circ.a_matrix.mat[:, :2], undo)

    def test_rejects_nan_columns(self):
        circ = conftest.make_circuit(0.3, m=1)
        undo = rus.undo_gates(circ.spec)
        one = circ.a_matrix.mat[:, :2].copy()
        one[3, 0] = np.nan
        for columns in (one, np.full((4, 2), np.nan)):
            with pytest.raises(ValueError, match="not diagonal"):
                rus.retry_frame(columns, undo)

    def test_rejects_nan_success_block(self):
        circ = conftest.make_circuit(0.3, m=1)
        columns = circ.a_matrix.mat[:, :2].copy()
        columns[0, 1] = np.nan
        with pytest.raises(ValueError, match="not diagonal"):
            rus.retry_frame(columns, rus.undo_gates(circ.spec))

    def test_rejects_non_diagonal_success_gram(self):
        # Undone failures stay diagonal, but U_0 = [[1, 1], [0, 0]] / 2 has
        # the Gram matrix [[1, 1], [1, 1]] / 4.
        columns = np.zeros((4, 2), dtype=complex)
        columns[0] = 0.5
        columns[2:] = np.sqrt(0.75) * np.eye(2)
        with pytest.raises(ValueError, match="not diagonal"):
            rus.retry_frame(columns, np.eye(2, dtype=complex)[None])
        columns[0, 1] = 0.0
        rus.retry_frame(columns, np.eye(2, dtype=complex)[None])

    def test_inverse_with_vanishing_failure_weight_runs(self):
        # Composed failure weights fall below ZERO_WEIGHT_ATOL; the inverse
        # still undoes those blocks, so its frame stays diagonal.
        rng = qcore.rng_stream(8)
        circ = conftest.make_circuit(1e-4, m=1, rng=rng)
        fp = oaa.fp_compose(circ, oaa.fp_plan(oaa.fp_length_for(1e-4, 1e-12), 1e-12))
        inv = rus.inverse_rus(fp)
        assert inv.spec.lambdas[1] == 0.0
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
        assert np.all(np.isnan(batch.finals[:, batch.exhausted]))
        expect = circ.spec.target.mat @ psi.amps
        for seq, attempts, exhausted, final in zip(
            batch.sequences(), batch.attempts, batch.exhausted, batch.finals.T
        ):
            assert len(seq) == attempts
            assert (0 not in seq) if exhausted else seq.index(0) == attempts - 1
            if not exhausted:
                assert abs(np.vdot(expect, final)) ** 2 > 1.0 - 1e-12


def _batch_case(kind: str, m: int):
    """A frame, its start state and the matching dense per-trial attempt."""
    rng = qcore.rng_stream(700 + m)
    circ = conftest.make_circuit(0.25, m=m, rng=rng)
    if kind == "standard":
        circ = oaa.standard_compose(circ, 1)
    elif kind == "fp":
        circ = oaa.fp_compose(circ, oaa.fp_plan(4, 0.5))
    if kind not in ("distorted", "undistorted"):
        return circ.frame, qcore.random_state(1, rng).amps, conftest.dense_attempt(circ)
    gammas = None
    if kind == "distorted":
        gammas = rng.random(2**m) + 0.1
        gammas /= gammas.sum()
    cc = distortion.build_conditional(circ, gammas, seed=m)
    cfg = distortion.DistortionConfig(
        alpha=0.6, beta=0.8j, psi0=qcore.random_state(1, rng),
        psi1=qcore.random_state(1, rng), trials=1, seed=0,
    )
    return cc.frame, conftest.conditional_start(cfg), conftest.dense_conditional_attempt(cc)


class TestWideBatches:
    # The cap of 6 attempts exhausts some of the wide plain and conditional
    # batches; the composed circuits succeed too often to.
    @pytest.mark.parametrize("width", [1, 7, 300])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "kind", ["plain", "standard", "fp", "distorted", "undistorted"]
    )
    def test_agrees_with_dense_trials(self, kind, m, width):
        frame, start, attempt = _batch_case(kind, m)
        batch = rus.run_batch(frame, start, width, qcore.rng_stream(m), 6)
        trial_log, outcome_log, finals = conftest.dense_batch_run(
            attempt, start, width, qcore.rng_stream(m), 6
        )
        assert np.array_equal(batch.trial_log, trial_log)
        assert np.array_equal(batch.outcome_log, outcome_log)
        assert np.array_equal(np.isnan(batch.finals), np.isnan(finals))
        np.testing.assert_allclose(batch.finals, finals, rtol=0, atol=1e-14)
        if width == 300 and kind in ("plain", "distorted"):
            assert 0 < batch.exhausted.sum() < width


def _final_tolerance(attempts: np.ndarray) -> np.ndarray:
    """How far a trial's final may sit from ``conftest.reference_run_batch``'s.

    Both kernels round once per attempt, and the differences add up like a
    random walk: after 3,000 to 7,000 attempts they reached 1.8e-14, at most
    2.5e-16 * sqrt(attempts).
    """
    return 1e-15 * np.sqrt(attempts)


def _assert_matches_reference(frame, start, trials, seed, max_attempts=rus.DEFAULT_MAX_ATTEMPTS):
    """Run both kernels from equal streams; the same draws, finals to rounding."""
    batch = rus.run_batch(frame, start, trials, qcore.rng_stream(seed), max_attempts)
    ref = conftest.reference_run_batch(
        frame, start, trials, qcore.rng_stream(seed), max_attempts
    )
    np.testing.assert_array_equal(batch.trial_log, ref.trial_log)
    np.testing.assert_array_equal(batch.outcome_log, ref.outcome_log)
    np.testing.assert_array_equal(batch.exhausted, ref.exhausted)
    done = ~batch.exhausted
    assert np.isnan(batch.finals[:, ~done]).all()
    error = np.abs(batch.finals - ref.finals).max(axis=0)[done]
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
        batch = _assert_matches_reference(circ.frame, psi.amps, 50, m)
        assert not batch.exhausted.any()
        assert batch.attempts.max() > 3_000
        # Unscaled, the deepest states would have underflowed to zero many
        # times over.
        assert _deepest_log2_mass(circ.spec.lambdas, batch) < -4 * 1074
        expect = circ.spec.target.mat @ psi.amps
        assert np.all(np.abs(expect.conj() @ batch.finals) ** 2 > 1.0 - 1e-12)

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
        batch = _assert_matches_reference(cc.frame, conftest.conditional_start(cfg), 50, m)
        assert not batch.exhausted.any()
        assert max(_deepest_log2_mass(gammas, batch),
                   _deepest_log2_mass(base.spec.lambdas, batch)) < -1074
        conftest.history_fidelities(cc, cfg, batch)

    @pytest.mark.parametrize("width", [1, 7, 3_000])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["plain", "distorted", "undistorted"])
    def test_capped_batches_match_reference(self, kind, m, width):
        frame, start, _ = _batch_case(kind, m)
        batch = _assert_matches_reference(frame, start, width, m, 6)
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
        # with no mass on its state; a frame whose failure leaves nothing
        # stands in for that draw.
        columns = np.zeros((4, 2), dtype=complex)
        columns[0, 0] = columns[1, 1] = np.sqrt(0.5)
        columns[2:] = np.sqrt(0.5) * np.eye(2)
        frame = rus.retry_frame(columns, np.eye(2, dtype=complex)[None])
        frame = dataclasses.replace(frame, diagonals=np.zeros_like(frame.diagonals))
        with pytest.raises(ValueError, match="not positive"):
            rus.run_batch(frame, np.array([0.6, 0.8]), 200, qcore.rng_stream(0))

    def test_masses_must_sum_to_one_on_the_state(self):
        # The failure keeps half the mass of entry 1 only; a state on entry
        # 0 alone never sees it.
        columns = np.zeros((4, 2), dtype=complex)
        columns[0, 0] = columns[1, 1] = np.sqrt(0.5)
        columns[2, 0] = np.sqrt(0.5)
        columns[3, 1] = 0.5
        frame = rus.retry_frame(columns, np.eye(2, dtype=complex)[None])
        rus.run_batch(frame, np.array([1.0, 0.0]), 20, qcore.rng_stream(0))
        with pytest.raises(ValueError, match="sum to 1 only within"):
            rus.run_batch(frame, np.array([0.6, 0.8]), 20, qcore.rng_stream(0))


class TestBatchMemory:
    def test_budget_rejects_before_allocating(self, monkeypatch):
        circ = conftest.make_circuit(0.3, m=1)
        monkeypatch.setattr(rus, "MAX_BATCH_ENTRIES", 64)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated a state array")

        with monkeypatch.context() as patched:
            patched.setattr(np, "repeat", refuse)
            patched.setattr(np, "full", refuse)
            with pytest.raises(MemoryError, match="batch limit of 64 state entries"):
                rus.run_batch(circ.frame, np.array([1.0, 0.0]), 33, qcore.rng_stream(0))
        batch = rus.run_batch(circ.frame, np.array([1.0, 0.0]), 32, qcore.rng_stream(0))
        assert batch.attempts.size == 32

    def test_default_budget_is_a_gibibyte(self):
        # Live and kept states take 16 bytes per entry each.  At m = 1,
        # --trials 100000000 would need 6.4 GB for the two; the budget
        # rejects it.
        assert 2 * 16 * rus.MAX_BATCH_ENTRIES == 2**30
        assert 10**8 * 2 > rus.MAX_BATCH_ENTRIES


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
        assert not np.isin(batch.outcome_log, zero).any()
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
        assert 1 not in batch.outcome_log
        assert set(np.unique(batch.outcome_log)) == {0, 2, 3}

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
        np.testing.assert_array_equal(batch.outcome_log, 0)
        np.testing.assert_array_equal(batch.attempts, 1)
        assert np.isfinite(batch.finals).all()


class TestExtraction:
    def test_round_trip(self):
        circ = conftest.make_circuit(0.42, m=2)
        again = rus.circuit_from_matrix(circ.a_matrix, m=2)
        np.testing.assert_allclose(
            np.sort(again.spec.lambdas), np.sort(circ.spec.lambdas), atol=1e-10
        )
        assert rus.success_probability(again, qcore.basis_state(1)) == pytest.approx(
            0.42, abs=1e-12
        )

    def test_rejects_non_rus_matrix(self):
        # generic unitary has no proportional-to-unitary blocks
        u = qcore.random_unitary(3, qcore.rng_stream(15))
        with pytest.raises(ValueError):
            rus.circuit_from_matrix(u, m=2)


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
        # dagger() skips the unitarity check; the inverse keeps its bits.
        rng = qcore.rng_stream(23)
        circ = conftest.make_circuit(0.2, m=2, rng=rng)
        if compose:
            circ = oaa.fp_compose(circ, oaa.fp_plan(8, 1e-3))
        inv = rus.inverse_rus(circ)
        checked = rus.circuit_from_matrix(
            qcore.UnitaryMatrix(circ.a_matrix.mat.conj().T), 2, seed=circ.spec.seed
        )
        assert np.array_equal(inv.a_matrix.mat, checked.a_matrix.mat)
        assert np.array_equal(inv.spec.lambdas, checked.spec.lambdas)
        for got, want in zip(inv.spec.branch_gates(), checked.spec.branch_gates()):
            assert np.array_equal(got.mat, want.mat)
        psi = qcore.random_state(1, rng).amps
        runs = [rus.run_batch(c.frame, psi, 50, qcore.rng_stream(5)) for c in (inv, checked)]
        assert np.array_equal(runs[0].outcome_log, runs[1].outcome_log)
        assert np.array_equal(runs[0].finals, runs[1].finals)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("protocol", ["standard:2", "deterministic", "pi3:3", "fp"])
    def test_composed_inverse_matches_a_checked_adjoint(self, protocol, m):
        rng = qcore.rng_stream(60 + m)
        circ = PROTOCOLS[protocol](conftest.make_circuit(0.15, m=m, rng=rng))
        inv = rus.inverse_rus(circ)
        checked = rus.circuit_from_matrix(
            qcore.UnitaryMatrix(circ.a_matrix.mat.conj().T), m, seed=circ.spec.seed
        )
        assert np.array_equal(inv.columns, checked.columns)
        assert np.array_equal(inv.columns, inv.a_matrix.mat[:, :2])
        assert np.array_equal(inv.spec.lambdas, checked.spec.lambdas)
        for got, want in zip(inv.spec.branch_gates(), checked.spec.branch_gates()):
            assert np.array_equal(got.mat, want.mat)


def _assert_orthonormal(columns):
    gram = columns.conj().T @ columns
    assert np.abs(gram - np.eye(2)).max() <= qcore.UNITARY_ATOL


def _weights(rng, m: int) -> np.ndarray:
    raw = rng.random(2**m) + 0.01
    return raw / raw.sum()


class TestCheckedOnce:
    """Gates are checked once, where they enter: a spec from ``UnitaryMatrix``
    gates, ``spec_from_dict`` and ``circuit_from_matrix``.  Derived specs and
    circuits are built without a second check, so their columns must stay
    orthonormal without one."""

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
        calls = []
        check = qcore._check_gram
        monkeypatch.setattr(
            qcore, "_check_gram", lambda mats, what: calls.append(what) or check(mats, what)
        )

        def checks(build):
            calls.clear()
            result = build()
            return result, list(calls)

        data = rus.spec_to_dict(_spec(2, [0.4, 0.3, 0.2, 0.1], seed=3))
        spec, seen = checks(lambda: rus.spec_from_dict(data))
        assert seen == ["unitarity"]
        circ, seen = checks(lambda: rus.build_rus_unitary(spec))
        assert seen == []
        for protocol in ("standard:2", "deterministic", "fp"):
            assert checks(lambda: PROTOCOLS[protocol](circ))[1] == []
        # The cube law checks its 2x2 t, not the stack.
        assert checks(lambda: PROTOCOLS["pi3:3"](circ))[1] == ["unitarity"]
        circ.a_matrix
        inverse, seen = checks(lambda: rus.inverse_rus(circ))
        assert seen == ["unitarity"]
        matrix = inverse.a_matrix
        assert checks(lambda: rus.circuit_from_matrix(matrix, 2))[1] == ["unitarity"]
        # Columns given explicitly are checked.
        assert checks(lambda: rus.RusCircuit(spec, circ.columns))[1] == ["isometry"]


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
