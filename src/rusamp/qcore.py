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


def check_integer(value, name: str, non_negative: bool = False) -> int:
    """Return ``value`` if it is an integer, and not negative where
    ``non_negative`` asks; else raise ``ValueError`` naming it as ``name``."""
    # Rejects bool, and floats that int() would truncate.
    if type(value) is not int or (non_negative and value < 0):
        kind = "a non-negative integer" if non_negative else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def rng_stream(seed: int) -> RngStream:
    """Return a fresh counter-based random stream for ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def substreams(seed: int, count: int) -> list[RngStream]:
    """Return ``count`` statistically independent streams derived from ``seed``."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def check_norm(norm: float) -> None:
    """Raise unless a state norm is 1 to within ``NORM_ATOL``."""
    # Written so that a NaN norm fails the check as well.
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")


def _frozen_complex(values) -> np.ndarray:
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
        check_norm(np.linalg.norm(amps))
        object.__setattr__(self, "amps", amps)


def _check_unitary(mats: np.ndarray, ndim: int) -> None:
    """Raise unless ``mats`` holds unitaries of one power-of-two dimension.

    ``mats`` is one matrix (``ndim`` 2) or a stack of them (``ndim`` 3); one
    residual covers the whole stack.
    """
    if mats.ndim != ndim or mats.shape[-1] != mats.shape[-2]:
        what = "matrix" if ndim == 2 else "stack of matrices"
        raise ValueError(f"{what} must be square, got shape {mats.shape}")
    dim = mats.shape[-1]
    if dim & (dim - 1) or dim == 0:
        raise ValueError(f"dimension {dim} is not a power of two")
    _check_gram(mats, "unitarity")


# Gates, circuit columns and OAA planes all have 2x2 Gram matrices.
_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


def _check_gram(mats: np.ndarray, what: str) -> None:
    """Raise unless the columns of every matrix in ``mats`` are orthonormal
    to within ``UNITARY_ATOL``; one residual covers the whole stack."""
    gram = mats.conj().swapaxes(-1, -2) @ mats
    dim = mats.shape[-1]
    residual = np.abs(gram - (_EYE2 if dim == 2 else np.eye(dim))).max()
    # Written so that NaN entries fail the check.
    if not residual <= UNITARY_ATOL:
        raise ValueError(f"{what} residual {residual} exceeds {UNITARY_ATOL}")


def check_isometry(cols: np.ndarray) -> None:
    """Raise unless the columns of ``cols`` are orthonormal to within
    ``UNITARY_ATOL``."""
    _check_gram(cols, "isometry")


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """Unitary on a power-of-two dimension, validated at construction."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen_complex(self.mat)
        _check_unitary(mat, 2)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def dagger(self) -> "UnitaryMatrix":
        """The adjoint, frozen; unitary because this matrix is, so not
        checked again."""
        mat = self.mat.conj().T
        mat.setflags(write=False)
        return _trusted(mat)


def _trusted(mat: np.ndarray) -> UnitaryMatrix:
    """Wrap a frozen matrix already known to be unitary, without a check."""
    u = object.__new__(UnitaryMatrix)
    object.__setattr__(u, "mat", mat)
    return u


def unitary_stack(mats) -> np.ndarray:
    """Validate an (n, d, d) stack of unitaries at once; return it frozen.

    The checks of ``UnitaryMatrix`` run once over the whole stack, on a
    read-only complex copy of ``mats``, which is returned.
    """
    stack = _frozen_complex(mats)
    _check_unitary(stack, 3)
    return stack


def unitary_views(stack: np.ndarray) -> tuple[UnitaryMatrix, ...]:
    """The members of a read-only stack known to be unitary, such as one
    ``unitary_stack`` returned, as ``UnitaryMatrix`` views not checked
    again."""
    return tuple(map(_trusted, stack))


def identity(num_qubits: int) -> UnitaryMatrix:
    return UnitaryMatrix(np.eye(2**num_qubits))


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


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amps, b.amps))


def draw_outcomes(cdf: np.ndarray, rng: RngStream) -> np.ndarray:
    """Draw one outcome per column of ``cdf``, cumulative masses (outcomes x
    columns).

    Each column takes one uniform from ``rng``, in column order, scaled by
    that column's realized total mass (its last row), so the draw holds even
    when rounding makes the masses sum slightly below 1.  The outcome is the
    number of cumulative masses at or below the scaled uniform, clamped to
    the last outcome; an outcome whose cumulative mass equals the one
    before it is unreachable.
    """
    rows = cdf.shape[0]
    u = rng.random(cdf.shape[1]) * cdf[-1]
    # A one-byte count holds up to 255 rows and is the cheapest to sum.
    count = np.add.reduce(cdf <= u, axis=0, dtype=np.uint8 if rows <= 255 else np.intp)
    return np.minimum(count, rows - 1)


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
        # Both checks are written so that NaN entries fail them.
        if not abs(np.linalg.norm(v) - 1.0) <= ORTHO_ATOL:
            raise ValueError(f"input column {i} is not normalized")
        for j in range(i):
            if not abs(np.vdot(basis[j], v)) <= ORTHO_ATOL:
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
