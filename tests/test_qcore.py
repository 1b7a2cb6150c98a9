import numpy as np
import pytest

from rusamp import qcore


def test_state_validation():
    with pytest.raises(ValueError):
        qcore.StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qcore.StateVector(2, np.array([1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            qcore.StateVector(1, np.array([bad, 1.0]))
    s = qcore.basis_state(2, 3)
    assert s.amps.shape == (4,)
    assert s.amps[3] == 1.0


def test_state_amps_read_only():
    s = qcore.basis_state(1, 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unitary_validation():
    with pytest.raises(ValueError):
        qcore.UnitaryMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qcore.UnitaryMatrix(np.eye(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            qcore.UnitaryMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
    u = qcore.UnitaryMatrix(np.eye(4))
    assert u.num_qubits == 2
    np.testing.assert_allclose(u.dagger().mat, np.eye(4))


def test_apply_hadamard():
    out = qcore.apply(qcore.HADAMARD, qcore.basis_state(1, 0))
    np.testing.assert_allclose(out.amps, np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_tensor_dimensions():
    u = qcore.tensor(qcore.HADAMARD, qcore.identity(2))
    assert u.dim == 8
    out = qcore.apply(u, qcore.basis_state(3, 0))
    expect = np.zeros(8)
    expect[0] = expect[4] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(out.amps, expect, atol=1e-15)


def test_tensor_state():
    left = qcore.basis_state(1, 1)
    right = qcore.apply(qcore.HADAMARD, qcore.basis_state(1, 0))
    joint = qcore.tensor_state(left, right)
    assert joint.num_qubits == 2
    expect = np.zeros(4)
    expect[2] = expect[3] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(joint.amps, expect)


def test_random_unitary_is_unitary():
    rng = qcore.rng_stream(7)
    for _ in range(100):
        u = qcore.random_unitary(2, rng)
        np.testing.assert_allclose(
            u.mat @ u.mat.conj().T, np.eye(4), atol=1e-10
        )


def test_apply_preserves_norm():
    rng = qcore.rng_stream(8)
    for _ in range(50):
        u = qcore.random_unitary(3, rng)
        s = qcore.random_state(3, rng)
        out = qcore.apply(u, s)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_fidelity_basics():
    rng = qcore.rng_stream(9)
    s = qcore.random_state(2, rng)
    assert qcore.fidelity(s, s) == pytest.approx(1.0)
    rotated = qcore.StateVector(2, s.amps * np.exp(0.71j))
    assert qcore.fidelity(s, rotated) == pytest.approx(1.0)
    assert qcore.fidelity(qcore.basis_state(1, 0), qcore.basis_state(1, 1)) == 0.0


class TestMeasureAncillas:
    def test_pure_outcome(self):
        # ancillas already in |10>, data in |+>
        anc = qcore.basis_state(2, 2)
        data = qcore.apply(qcore.HADAMARD, qcore.basis_state(1, 0))
        joint = qcore.tensor_state(anc, data)
        outcome, collapsed, prob = qcore.measure_ancillas(joint, 2, qcore.rng_stream(0))
        assert outcome == 2
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(collapsed.amps, joint.amps)

    def test_collapse_renormalizes(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = np.sqrt(0.3)
        amps[3] = np.sqrt(0.7)
        joint = qcore.StateVector(2, amps)
        rng = qcore.rng_stream(3)
        outcome, collapsed, prob = qcore.measure_ancillas(joint, 1, rng)
        assert outcome in (0, 1)
        assert abs(np.linalg.norm(collapsed.amps) - 1.0) < 1e-12
        if outcome == 0:
            assert prob == pytest.approx(0.3)
        else:
            assert prob == pytest.approx(0.7)

    def test_outcome_frequencies(self):
        # uniform over 4 ancilla outcomes, fixed data state
        anc = qcore.StateVector(2, np.full(4, 0.5, dtype=complex))
        joint = qcore.tensor_state(anc, qcore.basis_state(1, 0))
        rng = qcore.rng_stream(42)
        n = 20_000
        counts = np.zeros(4)
        for _ in range(n):
            outcome, _, _ = qcore.measure_ancillas(joint, 2, rng)
            counts[outcome] += 1
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) < 4.0 * sigma)


class TestCompleteIsometry:
    def test_full_basis_passthrough(self):
        cols = [np.eye(4)[:, i] for i in range(4)]
        u = qcore.complete_isometry(cols, 4, qcore.rng_stream(0))
        np.testing.assert_allclose(u.mat, np.eye(4))

    def test_single_column(self):
        col = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        u = qcore.complete_isometry([col], 4, qcore.rng_stream(1))
        np.testing.assert_allclose(u.mat[:, 0], col, atol=1e-12)
        np.testing.assert_allclose(u.mat @ u.mat.conj().T, np.eye(4), atol=1e-10)

    def test_reproducible_and_seed_sensitive(self):
        col = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        a = qcore.complete_isometry([col], 4, qcore.rng_stream(5))
        b = qcore.complete_isometry([col], 4, qcore.rng_stream(5))
        c = qcore.complete_isometry([col], 4, qcore.rng_stream(6))
        assert np.array_equal(a.mat, b.mat)
        assert not np.allclose(a.mat, c.mat)

    def test_rejects_non_orthonormal(self):
        cols = [
            np.array([1.0, 0.0], dtype=complex),
            np.array([0.9, 0.1], dtype=complex),
        ]
        with pytest.raises(ValueError):
            qcore.complete_isometry(cols, 2, qcore.rng_stream(0))

    def test_random_prefixes_stay_exact(self):
        rng = qcore.rng_stream(12)
        for _ in range(20):
            ref = qcore.random_unitary(3, rng).mat
            cols = [ref[:, 0], ref[:, 1]]
            u = qcore.complete_isometry(cols, 8, rng)
            np.testing.assert_allclose(u.mat[:, 0], cols[0], atol=1e-12)
            np.testing.assert_allclose(u.mat[:, 1], cols[1], atol=1e-12)
            np.testing.assert_allclose(
                u.mat @ u.mat.conj().T, np.eye(8), atol=1e-10
            )
