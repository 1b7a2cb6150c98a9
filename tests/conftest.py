"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from rusamp import qcore, rus


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


def deterministic_pairs(plan) -> list[tuple[float, float]]:
    """Phase pairs of the deterministic protocol: j plain iterates, then the
    solved trailing iterate unless the plan skips it."""
    pairs = [(math.pi, math.pi)] * plan.j
    if plan.chi != 0.0:
        pairs.append((plan.phi, plan.varphi))
    return pairs


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
