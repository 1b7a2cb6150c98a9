import numpy as np
import pytest

import conftest
from rusamp import qcore, rus


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

    def test_completion_varies_with_seed_blocks_do_not(self):
        a = rus.build_rus_unitary(_spec(2, [0.4, 0.3, 0.2, 0.1], seed=1))
        b = rus.build_rus_unitary(_spec(2, [0.4, 0.3, 0.2, 0.1], seed=2))
        np.testing.assert_allclose(
            a.a_matrix.mat[:, :2], b.a_matrix.mat[:, :2], atol=1e-12
        )
        assert not np.allclose(a.a_matrix.mat, b.a_matrix.mat)

    def test_matrix_is_unitary(self):
        rng = qcore.rng_stream(5)
        for m in (1, 2, 3):
            circ = conftest.make_circuit(0.37, m=m, rng=rng)
            u = circ.a_matrix.mat
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(2 ** (m + 1)), atol=1e-10
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
        attempts = np.array(
            [rus.run_rus(circ, qcore.basis_state(1, 0), rng).attempts for _ in range(n)]
        )
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


class TestSerialization:
    def test_round_trip_identical_circuit(self, tmp_path):
        spec = _spec(2, [0.4, 0.3, 0.2, 0.1], seed=3)
        path = tmp_path / "spec.json"
        rus.save_spec(spec, path)
        loaded = rus.load_spec(path)
        a = rus.build_rus_unitary(spec)
        b = rus.build_rus_unitary(loaded)
        assert np.array_equal(a.a_matrix.mat, b.a_matrix.mat)

    def test_dict_round_trip(self):
        spec = _spec(1, [0.7, 0.3], seed=5)
        again = rus.spec_from_dict(rus.spec_to_dict(spec))
        assert again.m == spec.m
        assert again.seed == spec.seed
        np.testing.assert_allclose(again.lambdas, spec.lambdas)
        np.testing.assert_allclose(again.target.mat, spec.target.mat)
