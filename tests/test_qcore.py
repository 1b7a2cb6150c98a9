import hashlib

import numpy as np
import pytest

import conftest
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
    # One matrix, and the same matrix as a one-member stack.
    for build in (qcore.UnitaryMatrix,
                  lambda mat: qcore.unitary_views(qcore.unitary_stack([mat]))[0]):
        with pytest.raises(ValueError, match="unitarity residual"):
            build(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="must be square"):
            build(np.ones((2, 4)))
        with pytest.raises(ValueError, match="not a power of two"):
            build(np.eye(3))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="unitarity residual"):
                build(np.array([[bad, 0.0], [0.0, 1.0]]))
        u = build(np.eye(4))
        assert u.num_qubits == 2
        np.testing.assert_allclose(u.dagger().mat, np.eye(4))


class TestUnitaryStack:
    def test_one_bad_member_rejects_the_stack(self):
        rng = qcore.rng_stream(4)
        mats = [qcore.random_unitary(1, rng).mat for _ in range(5)]
        qcore.unitary_stack(mats)
        mats[-1] = mats[-1] * (1.0 + 1e-9)
        with pytest.raises(ValueError, match="unitarity residual"):
            qcore.unitary_stack(mats)

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match="stack of matrices must be square"):
            qcore.unitary_stack(np.eye(2))

    def test_members_are_read_only_copies_of_the_input(self):
        rng = qcore.rng_stream(5)
        mats = np.stack([qcore.random_unitary(2, rng).mat for _ in range(3)])
        stack = qcore.unitary_stack(mats)
        assert stack.tobytes() == mats.tobytes() and not stack.flags.writeable
        views = qcore.unitary_views(stack)
        assert len(views) == 3
        for u, mat in zip(views, mats):
            assert isinstance(u, qcore.UnitaryMatrix)
            assert u.mat.tobytes() == mat.tobytes()
            with pytest.raises(ValueError):
                u.mat[0, 0] = 0.0
        mats[0, 0, 0] = 0.0
        assert stack[0, 0, 0] != 0.0 and views[0].mat[0, 0] != 0.0


def test_dagger_is_the_frozen_adjoint():
    u = qcore.random_unitary(3, qcore.rng_stream(6))
    adjoint = u.dagger()
    assert isinstance(adjoint, qcore.UnitaryMatrix)
    expect = u.mat.conj().T
    assert adjoint.mat.shape == expect.shape
    assert adjoint.mat.tobytes(order="A") == expect.tobytes(order="A")
    assert np.array_equal(adjoint.mat, expect)
    with pytest.raises(ValueError):
        adjoint.mat[0, 0] = 0.0


def test_apply_hadamard():
    out = qcore.apply(qcore.HADAMARD, qcore.basis_state(1, 0))
    np.testing.assert_allclose(out.amps, np.array([1.0, 1.0]) / np.sqrt(2.0))


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
        outcome, collapsed, prob = conftest.measure_ancillas(joint, 2, qcore.rng_stream(0))
        assert outcome == 2
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(collapsed.amps, joint.amps)

    def test_collapse_renormalizes(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = np.sqrt(0.3)
        amps[3] = np.sqrt(0.7)
        joint = qcore.StateVector(2, amps)
        rng = qcore.rng_stream(3)
        outcome, collapsed, prob = conftest.measure_ancillas(joint, 1, rng)
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
            outcome, _, _ = conftest.measure_ancillas(joint, 2, rng)
            counts[outcome] += 1
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) < 4.0 * sigma)


class TestCheckIsometry:
    def test_accepts_orthonormal_columns(self):
        qcore.check_isometry(qcore.random_unitary(3, qcore.rng_stream(2)).mat[:, :2])

    @pytest.mark.parametrize(
        "cols",
        [np.eye(4, 2) * 1.1, np.ones((4, 2)) / 2.0, np.full((4, 2), np.nan)],
        ids=["long", "parallel", "nan"],
    )
    def test_rejects_other_columns(self, cols):
        with pytest.raises(ValueError, match="isometry residual"):
            qcore.check_isometry(cols)


class TestHouseholder:
    @pytest.mark.parametrize("lambda0", [1e-9, 0.3, 1.0 - 1e-12, 1.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_reflection_of_a_weight_column(self, m, lambda0):
        rest = qcore.rng_stream(m).random(2**m - 1)
        column = np.sqrt(np.concatenate(([lambda0], rest * (1.0 - lambda0) / rest.sum())))
        h = qcore.householder(column)
        assert h.dtype == float and h[:, 0].tobytes() == column.tobytes()
        assert np.array_equal(h, h.T)
        assert np.abs(h.T @ h - np.eye(2**m)).max() <= 1e-14
        if lambda0 == 1.0:
            assert np.array_equal(h, np.eye(2**m))
        elif m == 1:
            # The OAA plane matrix [[s, c], [c, -s]], to one rounding of 1 + s.
            np.testing.assert_allclose(h, [[column[0], column[1]], [column[1], -column[0]]],
                                       rtol=0, atol=2.3e-16)

    def test_tail_too_small_to_square(self):
        # |w|^2 would underflow to a subnormal 1e-320 and 2 / |w|^2 overflow.
        column = np.array([1.0, 1e-160, 0.0, 1e-161])
        h = qcore.householder(column)
        assert h[:, 0].tobytes() == column.tobytes()
        assert np.abs(h.T @ h - np.eye(4)).max() <= 1e-15


def test_random_unitary_keeps_its_bits():
    # random_unitary draws the pinned recoveries: its Gram-Schmidt of Gaussian
    # columns must keep every bit.
    digest = hashlib.sha256()
    for n in (1, 2, 3, 5):
        rng = qcore.rng_stream(n)
        for _ in range(4):
            digest.update(qcore.random_unitary(n, rng).mat.tobytes())
    assert digest.hexdigest() == (
        "3968921269b07ecd6cc2897843f816024555eeff3cefeb8793f00bdb7100accf"
    )


@pytest.mark.parametrize("rows", [2, 16, 255, 256, 300])
def test_draw_outcomes_counts_every_row(rows):
    # Half the mass on the last outcome, so draws reach it; counts past 255
    # need a wider type than one byte.
    rng = qcore.rng_stream(rows)
    masses = rng.random((rows, 500)) / rows
    masses[rows // 3] = 0.0
    masses[-1] = 0.5 + rng.random(500)
    cdf = np.cumsum(masses, axis=0)
    u = qcore.rng_stream(7).random(500) * cdf[-1]
    want = np.minimum((cdf <= u).sum(axis=0), rows - 1)
    got = qcore.draw_outcomes(cdf, qcore.rng_stream(7))
    np.testing.assert_array_equal(got, want)
    assert want.max() == rows - 1
    assert rows // 3 not in got
