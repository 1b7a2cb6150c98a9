"""Synthesis and execution of repeat-until-success circuits.

A circuit acts on m ancilla qubits plus one data qubit.  On the all-zero
ancilla block it maps

    |0^m>|psi>  ->  sum_i sqrt(lambda_i) |i> W_i |psi>

with W_0 the target gate and W_i (i >= 1) the recoverable failure gates.
Measuring the ancillas and obtaining the all-zero outcome applies the target;
any other outcome i is undone by the inverse of the recovery gate, and the
attempt repeats with fresh ancillas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import RngStream, StateVector, UnitaryMatrix

DEFAULT_MAX_ATTEMPTS = 10_000

# Residual threshold for recognizing the exact block structure above when
# deriving specs from inverted matrices.
STRUCTURE_ATOL = 1e-8

# Outcome weights below this are treated as exactly zero during extraction.
# Adjoints of amplified circuits leave residual blocks this small, where
# rounding noise would otherwise dominate the proportionality check.
ZERO_WEIGHT_ATOL = 1e-12


class MaxAttemptsExceeded(RuntimeError):
    """Raised when a run exhausts its attempt cap without a success outcome."""


@dataclass(frozen=True, eq=False)
class RusSpec:
    """Declarative description of a repeat-until-success circuit.

    ``lambdas`` lists the outcome probabilities (success first) and must sum
    to one; ``recoveries`` holds one gate per failure outcome and defaults to
    identities.  ``seed`` fixes the random completion of the synthesized
    unitary outside the prescribed block.
    """

    m: int
    lambdas: np.ndarray
    target: UnitaryMatrix
    recoveries: tuple[UnitaryMatrix, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one ancilla qubit")
        lambdas = np.array(self.lambdas, dtype=float, copy=True)
        lambdas.setflags(write=False)
        if lambdas.shape != (2**self.m,):
            raise ValueError(f"expected {2**self.m} outcome probabilities")
        # Both checks are written so that NaN entries fail them.
        if not np.all(lambdas >= 0):
            raise ValueError("outcome probabilities must be non-negative")
        if not abs(lambdas.sum() - 1.0) <= qcore.NORM_ATOL:
            raise ValueError("outcome probabilities must sum to 1")
        if self.target.dim != 2:
            raise ValueError("target must be a single-qubit gate")
        recoveries = self.recoveries
        if recoveries is None:
            recoveries = tuple(qcore.identity(1) for _ in range(2**self.m - 1))
        else:
            recoveries = tuple(recoveries)
        if len(recoveries) != 2**self.m - 1:
            raise ValueError(f"expected {2**self.m - 1} recovery gates")
        if any(r.dim != 2 for r in recoveries):
            raise ValueError("recovery gates must be single-qubit")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "recoveries", recoveries)

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    def branch_gates(self) -> tuple[UnitaryMatrix, ...]:
        """All outcome gates W_i, with the target in slot 0."""
        return (self.target, *self.recoveries)


@dataclass(frozen=True, eq=False)
class RusCircuit:
    spec: RusSpec
    a_matrix: UnitaryMatrix

    def __post_init__(self) -> None:
        if self.a_matrix.dim != 2 ** (self.spec.m + 1):
            raise ValueError("matrix dimension does not match spec")


@dataclass(frozen=True)
class RunRecord:
    """Outcome trace of one repeat-until-success run; final outcome is 0."""

    outcomes: tuple[int, ...]
    attempts: int
    final_state: StateVector


def build_rus_unitary(spec: RusSpec) -> RusCircuit:
    """Synthesize a unitary with the prescribed block action.

    The construction factors as (outcome-controlled branch gates) after an
    ancilla rotation whose first column is the amplitude vector sqrt(lambda);
    the rotation's remaining columns come from ``qcore.complete_isometry``
    seeded with ``spec.seed``.  Both the matrix and its adjoint then carry
    exact block structure, so the inverse circuit is runnable as well.
    """
    dim_anc = 2**spec.m
    amplitudes = np.sqrt(spec.lambdas).astype(np.complex128)
    rotation = qcore.complete_isometry(
        [amplitudes], dim_anc, qcore.rng_stream(spec.seed)
    )
    branch = np.zeros((2 * dim_anc, 2 * dim_anc), dtype=np.complex128)
    for i, gate in enumerate(spec.branch_gates()):
        branch[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = gate.mat
    a_matrix = UnitaryMatrix(branch @ np.kron(rotation.mat, np.eye(2)))
    return RusCircuit(spec, a_matrix)


def success_probability(c: RusCircuit, psi: StateVector) -> float:
    """Probability of the all-zero ancilla outcome on input ``psi``."""
    if psi.num_qubits != 1:
        raise ValueError("data register is a single qubit")
    full = c.a_matrix.mat @ np.kron(
        qcore.basis_state(c.spec.m).amps, psi.amps
    )
    return float(np.sum(np.abs(full[:2]) ** 2))


def run_rus(
    c: RusCircuit,
    psi: StateVector,
    rng: RngStream,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> RunRecord:
    """Repeat until the success outcome; undo failures with recovery inverses."""
    if psi.num_qubits != 1:
        raise ValueError("data register is a single qubit")
    m = c.spec.m
    ancilla = qcore.basis_state(m).amps
    current = psi
    outcomes: list[int] = []
    for _ in range(max_attempts):
        joint = StateVector(m + 1, c.a_matrix.mat @ np.kron(ancilla, current.amps))
        outcome, collapsed, _ = qcore.measure_ancillas(joint, m, rng)
        outcomes.append(outcome)
        data = collapsed.amps.reshape(2**m, 2)[outcome]
        if outcome == 0:
            return RunRecord(tuple(outcomes), len(outcomes), StateVector(1, data))
        undo = c.spec.recoveries[outcome - 1].mat.conj().T
        current = StateVector(1, undo @ data)
    raise MaxAttemptsExceeded(f"no success outcome within {max_attempts} attempts")


def circuit_from_matrix(
    matrix: UnitaryMatrix, m: int, seed: int = 0
) -> RusCircuit:
    """Derive the spec realized by ``matrix`` from its all-zero-ancilla block.

    Valid whenever the matrix carries exact block structure, i.e. each
    outcome block of its action on |0^m>|psi> is proportional to a unitary;
    this holds for synthesized and amplified circuits and for their
    adjoints.  Branch phases are kept on the extracted gates.
    """
    if matrix.dim != 2 ** (m + 1):
        raise ValueError("matrix dimension does not match ancilla count")
    cols = matrix.mat[:, 0:2].reshape(2**m, 2, 2)  # [outcome, data-out, data-in]
    lambdas = np.empty(2**m)
    gates: list[UnitaryMatrix] = []
    for i in range(2**m):
        block = cols[i]
        weight = float(np.sum(np.abs(block) ** 2)) / 2.0
        lambdas[i] = weight
        if weight < ZERO_WEIGHT_ATOL:
            lambdas[i] = 0.0
            gates.append(qcore.identity(1))
            continue
        gram = block.conj().T @ block
        if np.max(np.abs(gram / weight - np.eye(2))) > STRUCTURE_ATOL:
            raise ValueError(
                f"outcome block {i} is not proportional to a unitary; "
                "matrix does not realize a repeat-until-success circuit"
            )
        # Polar projection strips the rounding noise left by the division.
        u, _, vh = np.linalg.svd(block / np.sqrt(weight))
        gates.append(UnitaryMatrix(u @ vh))
    lambdas /= lambdas.sum()
    spec = RusSpec(
        m=m,
        lambdas=lambdas,
        target=gates[0],
        recoveries=tuple(gates[1:]),
        seed=seed,
    )
    return RusCircuit(spec, matrix)


def inverse_rus(c: RusCircuit) -> RusCircuit:
    """Circuit realizing the inverse target with the same success probability."""
    return circuit_from_matrix(c.a_matrix.dagger(), c.spec.m, seed=c.spec.seed)


def _matrix_to_json(mat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]


def _matrix_from_json(pairs: list[list[float]], dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    if flat.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} matrix entries, got {flat.shape[0]}")
    return flat.reshape(dim, dim)


def spec_to_dict(spec: RusSpec) -> dict:
    return {
        "m": spec.m,
        "lambdas": [float(x) for x in spec.lambdas],
        "target": _matrix_to_json(spec.target.mat),
        "recoveries": [_matrix_to_json(r.mat) for r in spec.recoveries],
        "seed": spec.seed,
    }


def spec_from_dict(data: dict) -> RusSpec:
    return RusSpec(
        m=int(data["m"]),
        lambdas=np.array(data["lambdas"], dtype=float),
        target=UnitaryMatrix(_matrix_from_json(data["target"], 2)),
        recoveries=tuple(
            UnitaryMatrix(_matrix_from_json(r, 2)) for r in data["recoveries"]
        ),
        seed=int(data["seed"]),
    )


def save_spec(spec: RusSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path) -> RusSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
