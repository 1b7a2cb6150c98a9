"""Closed forms that the benchmark checks rusamp's outputs against.

Nothing here imports rusamp: every expected value comes from the physics
(the two-level picture of oblivious amplitude amplification, the cube law,
the Yoder-Low-Chuang fixed-point bound, the averaged-fidelity formula of the
distortion analysis) or from the cost model's stated formulas, evaluated
with plain NumPy. A check that fails raises ``OracleMismatch``.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances for values that rusamp computes through dense products of up to
# a few thousand 32x32 matrices; drift there stays below 1e-11.
PROB_TOL = 1e-9
GATE_TOL = 1e-9
STATE_TOL = 1e-10
FIDELITY_TOL = 1e-9
COST_RTOL = 1e-9
# An integer chosen by comparing a float with a threshold may round either
# way when the float lies this close to the threshold.
BOUNDARY_TOL = 1e-7

KMM_SLOPE = 3.21
KMM_OFFSET = 6.93


class OracleMismatch(AssertionError):
    """An output of rusamp disagrees with an independent oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def expect_close(got: float, want: float, tol: float, what: str) -> None:
    # Written so that NaN fails.
    if not abs(got - want) <= tol:
        raise OracleMismatch(f"{what}: got {got!r}, expected {want!r} (tol {tol})")


# --------------------------------------------------------------------------
# Random inputs (the benchmark's own generator, not rusamp's).


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_state(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def split_weights(rng: np.random.Generator, n: int, first: float) -> np.ndarray:
    """Weights of length n summing to 1 with ``first`` in slot 0."""
    w = np.empty(n)
    w[0] = first
    rest = rng.random(n - 1) + 0.1
    w[1:] = rest * (1.0 - first) / rest.sum()
    return w


# --------------------------------------------------------------------------
# Integer choices made at a threshold.


def tolerant_ceil(x: float) -> set[int]:
    """Integers a correct implementation may return for ceil(x)."""
    c = math.ceil(x)
    if abs(x - round(x)) <= BOUNDARY_TOL * max(1.0, abs(x)):
        return {int(round(x)), int(round(x)) + 1}
    return {c}


def tolerant_floor(x: float) -> set[int]:
    if abs(x - round(x)) <= BOUNDARY_TOL * max(1.0, abs(x)):
        return {int(round(x)) - 1, int(round(x))}
    return {math.floor(x)}


# --------------------------------------------------------------------------
# Amplification in the two-level invariant subspace.


def two_level_circuit(lambda0: float) -> np.ndarray:
    """The circuit between the success/complement bases: [[s, c], [c, -s]]."""
    s = math.sqrt(lambda0)
    c = math.sqrt(1.0 - lambda0)
    return np.array([[s, c], [c, -s]], dtype=complex)


def _phase(phi: float) -> np.ndarray:
    return np.diag([np.exp(1j * phi), 1.0])


def two_level_schedule(lambda0: float, pairs) -> tuple[complex, complex]:
    """Amplitudes (t00, t10) after iterates -A S_phi A^dag S_varphi in order."""
    a = two_level_circuit(lambda0)
    total = a.copy()
    for phi, varphi in pairs:
        total = -(a @ _phase(phi) @ a.conj().T @ _phase(varphi)) @ total
    return complex(total[0, 0]), complex(total[1, 0])


def two_level_pi3(lambda0: float, k: int, sign: int) -> tuple[complex, complex]:
    """Amplitudes after the level-k recursion A_k = -A S A^dag S A."""
    s = _phase(sign * math.pi / 3.0)
    a = two_level_circuit(lambda0)
    for _ in range(k):
        a = -(a @ s @ a.conj().T @ s @ a)
    return complex(a[0, 0]), complex(a[1, 0])


def standard_law(lambda0: float, j: int) -> float:
    return math.sin((2 * j + 1) * math.asin(math.sqrt(lambda0))) ** 2


def cube_law_failure(lambda0: float, k: int) -> float:
    return (1.0 - lambda0) ** (3**k)


def chebyshev(order: float, x: float) -> float:
    if abs(x) <= 1.0:
        return math.cos(order * math.acos(x))
    return math.cosh(order * math.acosh(x))


def fp_gamma(L: int, delta: float) -> float:
    return 1.0 / math.cosh(math.acosh(1.0 / math.sqrt(delta)) / (2 * L + 1))


def fp_threshold(L: int, delta: float) -> float:
    """Smallest lambda0 for which the length-L schedule guarantees 1 - delta."""
    return 1.0 - fp_gamma(L, delta) ** 2


def fp_success(lambda0: float, L: int, delta: float) -> float:
    """Yoder-Low-Chuang: P = 1 - delta T_{2L+1}(sqrt(1 - lambda0) / gamma)^2."""
    x = math.sqrt(1.0 - lambda0) / fp_gamma(L, delta)
    return 1.0 - delta * chebyshev(2 * L + 1, x) ** 2


def fp_min_lengths(w: float, delta: float) -> set[int]:
    """Minimal L with 2L+1 >= acosh(1/sqrt(delta)) / acosh(1/sqrt(1-w))."""
    if w >= 1.0:
        return {1}
    ratio = math.acosh(1.0 / math.sqrt(delta)) / math.acosh(1.0 / math.sqrt(1.0 - w))
    return {max(1, L) for L in tolerant_ceil((ratio - 1.0) / 2.0)}


def fp_length_for_threshold(L: int, delta: float, rng: np.random.Generator) -> float:
    """A threshold bound w for which the minimal schedule length is exactly L."""
    hi = fp_threshold(L - 1, delta) if L > 1 else 1.0
    lo = fp_threshold(L, delta)
    return lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)


def standard_iterations(lambda0: float) -> set[int]:
    """Largest j with (2j+1) theta <= pi/2."""
    theta = math.asin(math.sqrt(lambda0))
    return {max(j, 0) for j in tolerant_floor((math.pi / (2.0 * theta) - 1.0) / 2.0)}


def gate_matches(got: np.ndarray, want: np.ndarray, tol: float = GATE_TOL) -> bool:
    """Equality of 2x2 unitaries up to a global phase."""
    return 1.0 - abs(np.trace(want.conj().T @ got)) / 2.0 <= tol


def failure_weights(lambdas: np.ndarray, success: float) -> np.ndarray:
    """Composed failure weights lambda'_i = (1 - success) lambda_i / (1 - lambda_0)."""
    return (1.0 - success) * lambdas[1:] / (1.0 - lambdas[0])


def check_composed(
    lambdas_in: np.ndarray,
    gates_in: list[np.ndarray],
    lambdas_out: np.ndarray,
    gates_out: list[np.ndarray],
    success: float,
    what: str,
) -> None:
    """A composed circuit keeps every branch gate and rescales failures.

    Amplification acts on the success/complement plane only, so the composed
    outcome weights are lambda'_0 = success and
    lambda'_i = (1 - success) lambda_i / (1 - lambda_0), and each branch
    gate W'_i equals W_i up to phase.
    """
    expect_close(float(lambdas_out[0]), success, PROB_TOL, f"{what} lambda'_0")
    for i, want in enumerate(failure_weights(lambdas_in, success), start=1):
        expect_close(float(lambdas_out[i]), want, PROB_TOL, f"{what} lambda'_{i}")
    for i, (got, want) in enumerate(zip(gates_out, gates_in)):
        if lambdas_out[i] > 1e-6:
            expect(gate_matches(got, want), f"{what}: W'_{i} is not W_{i} up to phase")


# --------------------------------------------------------------------------
# Conditional-control distortion.


def averaged_fidelity(alpha, beta, gammas, lambdas) -> float:
    """|a|^4 + 2|a|^2|b|^2 sqrt(g0 l0) / (1 - sum_{i>0} sqrt(g_i l_i)) + |b|^4."""
    a2 = abs(alpha) ** 2
    b2 = abs(beta) ** 2
    gammas = np.asarray(gammas, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    cross = math.sqrt(gammas[0] * lambdas[0])
    if cross == 0.0:
        return a2 * a2 + b2 * b2
    overlap = 1.0 - float(np.sum(np.sqrt(gammas[1:] * lambdas[1:])))
    return a2 * a2 + 2.0 * a2 * b2 * cross / overlap + b2 * b2


def fidelity_band(gamma0: float, lambda0: float) -> tuple[float, float]:
    """Range of the balanced averaged fidelity over every failure split.

    By Cauchy-Schwarz, 0 <= sum_{i>0} sqrt(g_i l_i) <= sqrt((1-g0)(1-l0)).
    """
    cross = math.sqrt(gamma0 * lambda0)
    low = 0.5 + 0.5 * cross
    high_overlap = 1.0 - math.sqrt((1.0 - gamma0) * (1.0 - lambda0))
    high = 0.5 + 0.5 * cross / high_overlap if high_overlap > 0 else 1.0
    return low, high


def sequence_state(alpha, beta, psi0, psi1, target, gammas, lambdas, outcomes):
    """Final (data, control) state after one outcome sequence ending in 0.

    Every outcome i multiplies the idle branch by sqrt(gamma_i) and the
    active branch by sqrt(lambda_i); the recoveries undo the failure gates,
    and the success outcome applies the target on the active branch. Control
    is the least significant qubit.
    """
    a = math.prod(math.sqrt(gammas[i]) for i in outcomes)
    b = math.prod(math.sqrt(lambdas[i]) for i in outcomes)
    amps = np.zeros(4, dtype=complex)
    amps[0::2] = alpha * a * np.asarray(psi0)
    amps[1::2] = beta * b * (target @ np.asarray(psi1))
    return amps / np.linalg.norm(amps)


def check_sequence(outcomes, n_outcomes: int, what: str) -> None:
    expect(len(outcomes) >= 1, f"{what}: empty outcome sequence")
    expect(outcomes[-1] == 0, f"{what}: run does not end on the success outcome")
    expect(
        all(0 < o < n_outcomes for o in outcomes[:-1]),
        f"{what}: invalid failure outcomes {outcomes}",
    )


def states_match(got: np.ndarray, want: np.ndarray, tol: float = STATE_TOL) -> bool:
    return 1.0 - abs(np.vdot(want, got)) ** 2 <= tol


# --------------------------------------------------------------------------
# T-count model: repeat, plain OAA, deterministic OAA, cube law, fixed point.


def kmm(epsilon: float) -> float:
    """T cost of one generalized reflection synthesized to accuracy epsilon."""
    return max(0.0, KMM_SLOPE * math.log2(1.0 / epsilon) - KMM_OFFSET)


def reflection_cost(policy: tuple[str, float], epsilon) -> float:
    kind, value = policy
    if kind == "zero":
        return 0.0
    if kind == "fixed":
        return value
    return kmm(epsilon)


def repetitions(failure: float, delta: float) -> set[int]:
    """Smallest n >= 1 with failure^(n+1) <= delta."""
    if failure <= 0.0:
        return {1}
    return {max(1, n) for n in tolerant_ceil(math.log(delta) / math.log(failure) - 1.0)}


def pi3_levels(failure: float, delta: float) -> set[int]:
    """Smallest k with failure^(3^k) <= delta."""
    if failure <= delta:
        return {0}
    # 3^k >= log(delta) / log(failure)
    return {max(0, k) for k in tolerant_ceil(math.log(math.log(delta) / math.log(failure), 3))}


def check_cost(strategy: str, total: float, params: dict, lambda0: float,
               delta: float, ct_a: float, policy: tuple[str, float], what: str) -> None:
    """One strategy's total T count against the cost model, given its integers."""
    eps_of = (lambda n: delta / n) if policy[0] == "kmm" else (lambda n: None)
    theta = math.asin(math.sqrt(lambda0))

    def reps_of(unit: float) -> int:
        # Figure rows carry no repetition count; recover it from the total.
        if "repetitions" in params:
            return params["repetitions"]
        reps = round(total / unit) if unit > 0 else 1
        expect(unit == 0 or abs(total - reps * unit) <= COST_RTOL * abs(total),
               f"{what}: total {total} is not a whole number of runs of {unit}")
        return reps

    if strategy == "classical":
        reps = reps_of(ct_a)
        expect(reps in repetitions(1.0 - lambda0, delta), f"{what}: repetitions {reps}")
        want = ct_a * reps
    elif strategy == "standard":
        j = params["j"]
        expect(j in standard_iterations(lambda0), f"{what}: j {j}")
        reps = reps_of((2 * j + 1) * ct_a)
        failure = math.cos((2 * j + 1) * theta) ** 2
        expect(reps in repetitions(failure, delta), f"{what}: repetitions {reps}")
        want = (2 * j + 1) * ct_a * reps
    elif strategy == "deterministic":
        j, n_s = params["j"], params["n_s"]
        expect(j in standard_iterations(lambda0), f"{what}: j {j}")
        if n_s == 0:
            chi = math.pi / 2.0 - (2 * j + 1) * theta
            expect(chi < 1e-6, f"{what}: trailing iterate skipped at chi {chi}")
            want = (2 * j + 1) * ct_a
        else:
            expect(n_s == 2, f"{what}: n_s {n_s}")
            want = 2 * (j + 1) * ct_a + 2 * reflection_cost(policy, eps_of(2))
    elif strategy == "pi3":
        k, n_s = params["k"], params["n_s"]
        expect(k in pi3_levels(1.0 - lambda0, delta), f"{what}: k {k}")
        expect(n_s == 3**k - 1, f"{what}: n_s {n_s}")
        if n_s == 0:
            want = ct_a
        else:
            refl = reflection_cost(policy, eps_of(n_s))
            want = (ct_a + refl) * 3**k - refl
    elif strategy == "fixed_point":
        L, n_s = params["L"], params["n_s"]
        expect(L in fp_min_lengths(lambda0, delta), f"{what}: L {L}")
        expect(n_s == 2 * L, f"{what}: n_s {n_s}")
        want = (2 * L + 1) * ct_a + n_s * reflection_cost(policy, eps_of(n_s))
    else:
        raise OracleMismatch(f"{what}: unknown strategy {strategy!r}")
    if "n_s" in params and params["n_s"] and policy[0] == "kmm":
        eps = params.get("epsilon_reflection")
        want_eps = delta / params["n_s"]
        expect_close(eps, want_eps, 1e-12 * want_eps, f"{what} epsilon")
    expect_close(total, want, COST_RTOL * max(1.0, abs(want)), f"{what} total_t")


COST_STRATEGIES = ("classical", "standard", "deterministic", "pi3", "fixed_point")
