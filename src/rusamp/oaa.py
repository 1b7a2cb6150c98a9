"""Oblivious amplitude amplification protocols over repeat-until-success circuits.

On inputs ``|0^m>|psi>`` a circuit A with success probability lambda0 = s^2
maps the input plane of ``|0^m>|psi>`` and ``V psi = A^dag (c |0^m> W_0 psi -
s Phi psi)`` onto the output plane of the success state ``|0^m> W_0 psi`` and
its normalized complement ``Phi psi``, acting there as a = [[s, c], [c, -s]].
An ancilla reflection (phase e^{i phi} on the all-zero block) acts on either
plane as D_phi = diag(e^{i phi}, 1), so each protocol is a 2x2 unitary t:

* standard:      t = G(pi, pi)^j a, G(phi, varphi) = -a D_phi a D_varphi;
* deterministic: one more G(phi, varphi) whose solved phases reach |t00| = 1;
* cube-law:      a_k = -a_{k-1} S a_{k-1}^dag S a_{k-1}, S = D_{+-pi/3};
* fixed-point:   a Chebyshev phase schedule, success >= 1 - delta above w.

The composed spec is lambda'_0 = |t00|^2, lambda'_i = |t10|^2 lambda_i /
(1 - lambda0), W'_0 = (t00/|t00|) W_0, W'_i = (t10/|t10|) W_i; the matrix is
A X, with X = (a t) (x) I on the input plane and the identity elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import StateVector, UnitaryMatrix
from .rus import RusCircuit, RusSpec

# Residual angles below this count as an exact pi/2 hit; the trailing
# generalized iterate is then skipped rather than solved near a 0/0.
CHI_SKIP_ATOL = 1e-9

# Longest fixed-point schedule that fp_length_for sizes.
FP_MAX_LENGTH = 10**6


def _plane(spec: RusSpec) -> np.ndarray:
    """The circuit on the OAA planes: a = [[s, c], [c, -s]], s^2 = lambda0."""
    lambdas = spec.lambdas / spec.lambdas.sum()
    s, c = math.sqrt(lambdas[0]), math.sqrt(lambdas[1:].sum())
    return np.array([[s, c], [c, -s]], dtype=np.complex128)


def _phase_schedule(c: RusCircuit, pairs: list[tuple[float, float]]) -> RusCircuit:
    """Iterates G(phi, varphi) = -A S_phi A^dag S_varphi in list order after A."""
    a = t = _plane(c.spec)
    # d[n] holds the diagonals of D_phi and D_varphi of pair n as rows.
    d = np.ones((len(pairs), 2, 2), dtype=np.complex128)
    d[:, :, 0] = np.exp(1j * np.reshape(pairs, (-1, 2)))
    for g in -(a * d[:, :1]) @ (a * d[:, 1:]):
        t = g @ t
    return _composed(c, t)


def _composed(c: RusCircuit, t: np.ndarray) -> RusCircuit:
    """The circuit acting as the 2x2 unitary t on the OAA planes of c."""
    # Rounding over a long schedule may leave t up to UNITARY_ATOL from
    # unitary; its nearest unitary keeps the composed matrix, and the states
    # it produces, within the state-norm tolerance.
    u, _, vh = np.linalg.svd(UnitaryMatrix(t).mat)
    t = u @ vh
    spec, a_mat, a = c.spec, c.a_matrix.mat, _plane(c.spec)
    gates = np.array([g.mat for g in spec.branch_gates()])
    rest = spec.lambdas[1:].sum()
    # Without failure weight any unit failure block spans Phi; t10 is then 0.
    share = spec.lambdas[1:] / rest if rest > 0 else np.eye(len(gates) - 1)[0]
    # c |0^m> W_0 - s Phi block by block; A^dag takes it to V.
    pulled = -a[0, 0] * np.sqrt(np.concatenate([[0.0], share]))[:, None, None] * gates
    pulled[0] = a[1, 0] * gates[0]
    basis = np.stack([np.eye(len(a_mat), 2), a_mat.conj().T @ pulled.reshape(-1, 2)], 1)
    # X = I + B (y (x) I_2) B^dag on the input-plane isometry B = [U0, V].
    y = a @ t - np.eye(2)
    x = np.eye(len(a_mat)) + np.einsum("pq,ipk,jqk->ij", y, basis, basis.conj())
    lambdas = np.concatenate([[abs(t[0, 0]) ** 2], abs(t[1, 0]) ** 2 * share])
    phases = np.exp(1j * np.angle(t[:, 0]))
    branch = [UnitaryMatrix(phases[min(i, 1)] * g) for i, g in enumerate(gates)]
    composed = RusSpec(
        spec.m, lambdas / lambdas.sum(), branch[0], tuple(branch[1:]), spec.seed
    )
    return RusCircuit(composed, UnitaryMatrix(a_mat @ x))


@dataclass(frozen=True)
class StandardPlan:
    j: int
    theta: float


@dataclass(frozen=True)
class DeterministicPlan:
    """Iteration count and trailing phases; chi == 0 means the trailing
    generalized iterate is skipped entirely."""

    j: int
    chi: float
    phi: float
    varphi: float


@dataclass(frozen=True)
class Pi3Plan:
    k: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("recursion depth must be non-negative")
        if self.sign not in (1, -1):
            raise ValueError("sign selects the +pi/3 or -pi/3 reflection")


@dataclass(frozen=True)
class FixedPointPlan:
    """Chebyshev phase schedule of length L for failure tolerance delta.

    ``w`` is the amplification threshold: any circuit with lambda0 >= w ends
    with success probability at least 1 - delta.  The schedule is symmetric,
    varphis[i] == phis[L - 1 - i], by construction.
    """

    L: int
    delta: float
    gamma: float
    w: float
    phis: tuple[float, ...]
    varphis: tuple[float, ...]


def standard_oaa_state(c: RusCircuit, j: int, psi: StateVector) -> StateVector:
    """State after j standard iterates following A on ``|0^m>|psi>``."""
    composed = standard_compose(c, j).a_matrix.mat
    return StateVector(c.spec.m + 1, composed[:, :2] @ psi.amps)


def standard_compose(c: RusCircuit, j: int) -> RusCircuit:
    """The j-iterate standard protocol as a circuit in its own right."""
    if j < 0:
        raise ValueError("iteration count must be non-negative")
    return _phase_schedule(c, [(math.pi, math.pi)] * j)


def plan_deterministic(lambda0: float) -> DeterministicPlan:
    """Solve the trailing phases that make the success probability exactly 1.

    The residual angle chi = pi/2 - (2j+1) theta obeys

        tan(chi) = e^{i varphi} sin(2 theta) / (-cos(2 theta) + i cot(phi/2)),

    solved on the branch with cot(phi/2) >= 0.
    """
    if not 0.0 < lambda0 <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    theta = math.asin(math.sqrt(lambda0))
    # Largest j with (2j+1) theta <= pi/2; the epsilon guard keeps exact
    # boundary cases (e.g. lambda0 = 0.25) from rounding down.
    j = max(int(math.floor((math.pi / (2.0 * theta) - 1.0) / 2.0 + 1e-9)), 0)
    chi = math.pi / 2.0 - (2 * j + 1) * theta
    if chi < CHI_SKIP_ATOL:
        return DeterministicPlan(j=j, chi=0.0, phi=0.0, varphi=0.0)
    sin2t = math.sin(2.0 * theta)
    cos2t = math.cos(2.0 * theta)
    tanchi = math.tan(chi)
    radicand = (sin2t / tanchi) ** 2 - cos2t**2
    # chi < 2 theta makes the radicand non-negative; clip rounding dust.
    radicand = max(radicand, 0.0)
    cot_half = math.sqrt(radicand)
    phi = 2.0 * math.atan2(1.0, cot_half)
    varphi = math.atan2(cot_half, -cos2t)
    residual = abs(
        tanchi - (np.exp(1j * varphi) * sin2t) / (-cos2t + 1j * cot_half)
    )
    if residual > 1e-9:
        raise ValueError(f"phase solution residual {residual} out of tolerance")
    return DeterministicPlan(j=j, chi=chi, phi=phi, varphi=varphi)


def deterministic_compose(c: RusCircuit, plan: DeterministicPlan) -> RusCircuit:
    """The deterministic protocol as a circuit; it succeeds with probability 1."""
    lambda_plan = math.sin((math.pi / 2.0 - plan.chi) / (2 * plan.j + 1)) ** 2
    if not abs(c.spec.lambda0 - lambda_plan) <= 1e-9:
        raise ValueError(
            f"plan is for lambda0={lambda_plan:.12g}, not {c.spec.lambda0:.12g}"
        )
    trailing = [(plan.phi, plan.varphi)] if plan.chi != 0.0 else []
    return _phase_schedule(c, [(math.pi, math.pi)] * plan.j + trailing)


def apply_deterministic(
    c: RusCircuit, plan: DeterministicPlan, psi: StateVector
) -> StateVector:
    """Run the deterministic protocol; the result succeeds with probability 1."""
    composed = deterministic_compose(c, plan).a_matrix.mat
    return StateVector(c.spec.m + 1, composed[:, :2] @ psi.amps)


def pi3_compose(c: RusCircuit, plan: Pi3Plan) -> RusCircuit:
    """Level-k cube-law composition A_k = -A_{k-1} S A_{k-1}^dag S A_{k-1}."""
    refl = np.array([np.exp(1j * plan.sign * math.pi / 3.0), 1.0])
    t = _plane(c.spec)
    for _ in range(plan.k):
        t = -(t * refl) @ (t.conj().T * refl) @ t
    return _composed(c, t)


def pi3_level_for(epsilon: float, delta: float) -> int:
    """Smallest recursion depth driving failure epsilon below delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("failure tolerance must lie in (0, 1)")
    if epsilon >= 1.0:
        raise ValueError("failure probability 1 cannot be amplified away")
    if epsilon <= delta:
        return 0
    # Failure after level k is epsilon**(3**k); compare in the log domain.
    k = 0
    while 3**k * math.log(epsilon) > math.log(delta):
        k += 1
    return k


def chebyshev_first_kind(order: float, x: float) -> float:
    """T_order(x) for real (possibly fractional) order on x >= -1."""
    if x < -1.0:
        raise ValueError("argument below -1 is outside the supported domain")
    if x <= 1.0:
        return math.cos(order * math.acos(x))
    return math.cosh(order * math.acosh(x))


def _threshold(L: int, delta: float) -> tuple[float, float]:
    gamma = 1.0 / chebyshev_first_kind(1.0 / (2 * L + 1), 1.0 / math.sqrt(delta))
    return gamma, 1.0 - gamma**2


def fp_length_for(w_bound: float, delta: float) -> int:
    """Smallest schedule length whose threshold w falls at or below w_bound.

    w(L) <= w_bound exactly when
    2L+1 >= acosh(1/sqrt(delta)) / acosh(1/sqrt(1 - w_bound)); the
    denominator equals atanh(sqrt(w_bound)), which keeps full precision for
    small bounds.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("failure tolerance must lie in (0, 1)")
    if not 0.0 < w_bound <= 1.0:
        raise ValueError("threshold bound must lie in (0, 1]")
    if w_bound == 1.0:
        return 1
    ratio = math.acosh(1.0 / math.sqrt(delta)) / math.atanh(math.sqrt(w_bound))
    if not ratio <= 2 * FP_MAX_LENGTH + 1:
        raise ValueError(f"w_bound {w_bound:g} needs more than {FP_MAX_LENGTH} steps")
    L = max(1, math.ceil((ratio - 1.0) / 2.0))
    # One step either way absorbs the rounding of the ratio and of _threshold.
    if _threshold(L, delta)[1] > w_bound:
        L += 1
    elif L > 1 and _threshold(L - 1, delta)[1] <= w_bound:
        L -= 1
    return L


def fp_plan(L: int, delta: float) -> FixedPointPlan:
    """Chebyshev schedule: gamma^{-1} = T_{1/(2L+1)}(1/sqrt(delta))."""
    if L < 1:
        raise ValueError("schedule length must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("failure tolerance must lie in (0, 1)")
    gamma, w = _threshold(L, delta)
    spread = math.sqrt(1.0 - gamma**2)
    phis = tuple(
        -2.0 * math.atan2(1.0, math.tan(2.0 * math.pi * j / (2 * L + 1)) * spread)
        for j in range(1, L + 1)
    )
    return FixedPointPlan(
        L=L, delta=delta, gamma=gamma, w=w, phis=phis, varphis=phis[::-1]
    )


def fp_compose(c: RusCircuit, plan: FixedPointPlan) -> RusCircuit:
    """Apply the length-L fixed-point schedule after A.

    If the circuit's lambda0 is at least plan.w, the composed circuit's
    success probability is at least 1 - plan.delta.
    """
    return _phase_schedule(c, list(zip(plan.phis, plan.varphis)))


def plan_to_dict(plan) -> dict:
    if isinstance(plan, StandardPlan):
        return {"protocol": "standard", "j": plan.j, "theta": plan.theta}
    if isinstance(plan, DeterministicPlan):
        return {
            "protocol": "deterministic",
            "j": plan.j,
            "chi": plan.chi,
            "phi": plan.phi,
            "varphi": plan.varphi,
        }
    if isinstance(plan, Pi3Plan):
        return {"protocol": "pi3", "k": plan.k, "sign": plan.sign}
    if isinstance(plan, FixedPointPlan):
        return {
            "protocol": "fp",
            "L": plan.L,
            "delta": plan.delta,
            "gamma": plan.gamma,
            "w": plan.w,
            "phis": list(plan.phis),
            "varphis": list(plan.varphis),
        }
    raise TypeError(f"not a plan: {plan!r}")


def plan_from_dict(data: dict):
    kind = data["protocol"]
    if kind == "standard":
        return StandardPlan(j=int(data["j"]), theta=float(data["theta"]))
    if kind == "deterministic":
        return DeterministicPlan(
            j=int(data["j"]),
            chi=float(data["chi"]),
            phi=float(data["phi"]),
            varphi=float(data["varphi"]),
        )
    if kind == "pi3":
        return Pi3Plan(k=int(data["k"]), sign=int(data["sign"]))
    if kind == "fp":
        return FixedPointPlan(
            L=int(data["L"]),
            delta=float(data["delta"]),
            gamma=float(data["gamma"]),
            w=float(data["w"]),
            phis=tuple(data["phis"]),
            varphis=tuple(data["varphis"]),
        )
    raise ValueError(f"unknown protocol {kind!r}")
