"""Dense complex linear algebra for small multi-qubit registers.

States and unitaries are thin immutable wrappers around complex128 arrays.
Register order is big-endian throughout the package: the leading (most
significant) qubits are ancillas, followed by the data qubit, followed by
an optional control qubit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Tolerances used by every validating constructor in the package.
NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-10
ORTHO_ATOL = 1e-10

# All stochastic operations take an explicit stream; streams are counter-based
# (Philox) so seeds and spawned substreams are reproducible across platforms.
RngStream = np.random.Generator


def rng_stream(seed: int) -> RngStream:
    """Return a fresh counter-based random stream for ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def substreams(seed: int, count: int) -> list[RngStream]:
    """Return ``count`` statistically independent streams derived from ``seed``."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _frozen_complex(values, shape_check=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on ``num_qubits`` qubits, big-endian amplitude order."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_complex(self.amps)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        # Written so that a NaN norm fails the check as well.
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Unitary on a power-of-two dimension, validated at construction."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen_complex(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim & (dim - 1) or dim == 0:
            raise ValueError(f"dimension {dim} is not a power of two")
        residual = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
        if not residual <= UNITARY_ATOL:
            raise ValueError(f"unitarity residual {residual} exceeds {UNITARY_ATOL}")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def dagger(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.mat.conj().T)


def identity(num_qubits: int) -> UnitaryMatrix:
    return UnitaryMatrix(np.eye(2**num_qubits))


PAULI_X = UnitaryMatrix(np.array([[0, 1], [1, 0]]))
PAULI_Y = UnitaryMatrix(np.array([[0, -1j], [1j, 0]]))
PAULI_Z = UnitaryMatrix(np.array([[1, 0], [0, -1]]))
HADAMARD = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def random_state(num_qubits: int, rng: RngStream) -> StateVector:
    """Haar-random pure state drawn from ``rng``."""
    amps = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_unitary(num_qubits: int, rng: RngStream) -> UnitaryMatrix:
    """Haar-random unitary, obtained by completing an empty column set."""
    return complete_isometry([], 2**num_qubits, rng)


def apply(u: UnitaryMatrix, s: StateVector) -> StateVector:
    if u.dim != s.amps.shape[0]:
        raise ValueError(f"dimension mismatch: unitary {u.dim}, state {s.amps.shape[0]}")
    return StateVector(s.num_qubits, u.mat @ s.amps)


def tensor(a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    """Kronecker product; the left factor acts on the more significant qubits."""
    return UnitaryMatrix(np.kron(a.mat, b.mat))


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amps, b.amps))


def measure_ancillas(
    s: StateVector, m: int, rng: RngStream
) -> tuple[int, StateVector, float]:
    """Projectively measure the leading ``m`` qubits in the computational basis.

    Returns ``(outcome, collapsed, prob)`` where ``collapsed`` is the full
    renormalized post-measurement state (ancillas left in ``|outcome>``).
    """
    if not 0 < m <= s.num_qubits:
        raise ValueError(f"cannot measure {m} ancillas of a {s.num_qubits}-qubit state")
    rest = 2 ** (s.num_qubits - m)
    blocks = s.amps.reshape(2**m, rest)
    probs = np.sum(np.abs(blocks) ** 2, axis=1)
    cum = np.cumsum(probs)
    # Draw within the realized total mass so zero-probability blocks are
    # unreachable even when rounding makes the masses sum slightly below 1.
    u = rng.random() * cum[-1]
    outcome = int(np.searchsorted(cum, u, side="right"))
    outcome = min(outcome, 2**m - 1)
    prob = float(probs[outcome])
    collapsed = np.zeros_like(s.amps).reshape(2**m, rest)
    collapsed[outcome] = blocks[outcome] / np.sqrt(prob)
    return outcome, StateVector(s.num_qubits, collapsed.reshape(-1)), prob


def complete_isometry(
    cols: Sequence[np.ndarray], dim: int, rng: RngStream
) -> UnitaryMatrix:
    """Extend orthonormal columns to a full unitary with seeded random vectors.

    The first ``len(cols)`` columns of the result equal ``cols`` exactly; the
    remainder are Gram-Schmidt completions of Gaussian draws from ``rng``, so
    the output is bit-for-bit reproducible for a fixed stream state.
    """
    basis = [np.asarray(c, dtype=np.complex128).reshape(dim) for c in cols]
    for i, v in enumerate(basis):
        if abs(np.linalg.norm(v) - 1.0) > ORTHO_ATOL:
            raise ValueError(f"input column {i} is not normalized")
        for j in range(i):
            if abs(np.vdot(basis[j], v)) > ORTHO_ATOL:
                raise ValueError(f"input columns {j} and {i} are not orthogonal")
    while len(basis) < dim:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        # Two projection passes keep the completion orthogonal to working precision.
        for _ in range(2):
            for b in basis:
                v = v - b * np.vdot(b, v)
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue
        basis.append(v / norm)
    return UnitaryMatrix(np.column_stack(basis))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap ``|<a|b>|^2``, clipped to [0, 1]."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states live on different registers")
    return float(min(abs(np.vdot(a.amps, b.amps)) ** 2, 1.0))
