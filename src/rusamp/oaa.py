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

The standard, deterministic and fixed-point protocols are phase schedules,
composed by one kernel, ``_schedule``.  As det a = -1, a and every iterate
are a unit phase times an SU(2) matrix [[alpha, -conj(beta)], [beta,
conj(alpha)]], so the kernel multiplies first columns (alpha, beta) and
rebuilds t once from the normalized product: t is unitary to rounding at
any schedule length up to FP_MAX_LENGTH, where full 2x2 products drift in
proportion to the length.

t's first column fixes the composed circuit: lambda'_0 = |t00|^2,
lambda'_i = |t10|^2 lambda_i / (1 - lambda0), W'_0 = (t00/|t00|) W_0 and
W'_i = (t10/|t10|) W_i, with phase 1 for a zero entry.  Its columns are the
closed form sqrt(lambda'_i) W'_i of ``rus.build_rus_unitary``; they equal
(a t)_00 C + (a t)_10 P, with C those of A and P = c |0^m> W_0 - s Phi.
Its full matrix, A X with X = (a t) (x) I on the input plane and the
identity elsewhere, is built only when read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore
from .qcore import StateVector, UnitaryMatrix
from .rus import RusCircuit, RusSpec

# Residual angles below this count as an exact pi/2 hit; the trailing
# generalized iterate is then skipped rather than solved near a 0/0.
CHI_SKIP_ATOL = 1e-9

# Longest phase schedule that is materialized: the fixed-point length in
# fp_plan and the iterate count of the standard and deterministic protocols.
FP_MAX_LENGTH = 10**6


def _plane(spec: RusSpec) -> np.ndarray:
    """The circuit on the OAA planes: a = [[s, c], [c, -s]], s^2 = lambda0."""
    lambdas = spec.lambdas / spec.lambdas.sum()
    s, c = math.sqrt(lambdas[0]), math.sqrt(lambdas[1:].sum())
    return np.array([[s, c], [c, -s]], dtype=np.complex128)


# Row signs that turn a left factor's first column [alpha, beta] into its
# second, [-conj(beta), conj(alpha)], once the rows are swapped and conjugated.
_SECOND_COLUMN = np.array([[-1.0], [1.0]], dtype=np.complex128)
# First column of the identity, which pads a stack to a power of two.
_IDENTITY_COLUMN = np.array([[1.0], [0.0]], dtype=np.complex128)


def _phase_schedule(c: RusCircuit, phis, varphis) -> RusCircuit:
    """Iterates G(phi, varphi) = -A S_phi A^dag S_varphi in array order after A."""
    return _composed(c, _schedule(_plane(c.spec), phis, varphis))


def _schedule(a: np.ndarray, phis, varphis) -> np.ndarray:
    """t = G_L ... G_1 a on the OAA planes a, from float arrays of phases.

    Every factor is a unit phase times an SU(2) matrix
    [[alpha, -conj(beta)], [beta, conj(alpha)]], which its first column
    (alpha, beta) fixes: det a = -1 gives a = i [[-is, -ic], [-ic, is]], and
    G(phi, varphi) = e^{i (phi + varphi) / 2} [[alpha, ...], [beta, ...]] with
    alpha = -(s^2 p + c^2 conj(p)) q and beta = s c (conj(p) - p) q, where
    p = e^{i phi / 2} and q = e^{i varphi / 2}.

    The first columns of [A, G_1, ..., G_L] are multiplied pairwise, later
    factors on the left, in ceil(log2(L + 1)) elementwise passes:
    alpha = alpha_l alpha_r - conj(beta_l) beta_r and
    beta = beta_l alpha_r + conj(alpha_l) beta_r.  Identity columns pad the
    stack to a power of two, which gives each product exactly as if an odd
    last factor were carried to the next pass.  t is rebuilt once, from the
    normalized column and the phase i p_1 q_1 ... p_L q_L, so it is unitary
    to rounding however long the schedule.  The phase is a product of unit
    numbers, as accurate as the column; the sum of the L angles, even
    correctly rounded, is off by half an ulp of about 2 pi L, 4.5e-13 at
    L = 2000.
    """
    s, co = a[:, 0].real.tolist()
    # p = e^{i phi / 2} and q = e^{i varphi / 2}, views of one array.
    p, q = halves = np.array([phis, varphis], dtype=np.complex128)
    halves *= 0.5j
    np.exp(halves, out=halves)
    # p q and conj(p) q per iterate; alpha and beta are linear in them.
    turns = np.array([p, p.conj()])
    turns *= q
    weights = np.array([[-s * s, -co * co], [-s * co, s * co]], dtype=np.complex128)
    count = len(p) + 1
    pairs = np.empty((2, 1 << (count - 1).bit_length()), dtype=np.complex128)
    pairs[:, 0] = -1j * s, -1j * co
    np.matmul(weights, turns, out=pairs[:, 1:count])
    pairs[:, count:] = _IDENTITY_COLUMN
    while pairs.shape[1] > 1:
        left, right = pairs[:, 1::2], pairs[:, ::2]
        pairs = left * right[0] + _SECOND_COLUMN * left[::-1].conj() * right[1]
    alpha, beta = pairs[:, 0].tolist()
    phase = complex(np.multiply.reduce(turns[0]))
    scale = 1j * phase / (abs(phase) * math.hypot(abs(alpha), abs(beta)))
    return np.array([[scale * alpha, -scale * beta.conjugate()],
                     [scale * beta, scale * alpha.conjugate()]])


@dataclass(frozen=True, eq=False)
class Composition:
    """How a composed circuit's full unitary A X is built, on demand.

    ``t`` is the 2x2 unitary the circuit acts as on the OAA planes of
    ``base``; X acts on the input plane of ``|0^m>|psi>`` and ``V psi`` as
    the polar factor of a t, and as the identity elsewhere.
    """

    base: RusCircuit
    t: np.ndarray

    def matrix(self) -> UnitaryMatrix:
        """A X, checked, with X = I + B ((a t - I) (x) I_2) B^dag on the
        input-plane isometry B = [U0, V], V = A^dag P and P = c |0^m> W_0 -
        s Phi, block by block.  Since A B = [A U0, P], it is formed as
        A + [A U0, P] ((a t - I) (x) I_2) B^dag, with no dense product."""
        spec = self.base.spec
        a = _plane(spec)
        # A deep cube-law level may leave t up to UNITARY_ATOL from unitary.
        u, _, vh = np.linalg.svd(a @ self.t)
        gates = spec.gates
        pulled = np.empty_like(gates)
        pulled[0] = a[1, 0] * gates[0]
        pulled[1:] = (-a[0, 0] * np.sqrt(_failure_share(spec)))[:, None, None] * gates[1:]
        a_mat = self.base.a_matrix.mat
        pulled = pulled.reshape(-1, 2)
        basis = np.stack([np.eye(len(a_mat), 2), a_mat.conj().T @ pulled], 1)
        # P itself, not A A^dag P, which would add the rounding of two dense
        # products to the small failure blocks.
        image = np.stack([a_mat[:, :2], pulled], 1)
        y = u @ vh - np.eye(2)
        return UnitaryMatrix(a_mat + np.einsum("pq,ipk,jqk->ij", y, image, basis.conj()))


def _failure_share(spec: RusSpec) -> np.ndarray:
    """Failure weights over their sum: how Phi splits over the outcomes."""
    failures = spec.lambdas[1:]
    rest = failures.sum()
    # Without failure weight any unit failure block spans Phi; t10 is then 0.
    return failures / rest if rest > 0 else np.eye(len(failures))[0]


def _composed(c: RusCircuit, t: np.ndarray) -> RusCircuit:
    """The circuit acting as the 2x2 unitary t on the OAA planes of c.

    t's first column fixes it: lambda'_0 = |t00|^2, lambda'_i = |t10|^2
    lambda_i / (1 - lambda0), and W'_i is W_i times the unit phase of t00
    (success) or t10 (failure), 1 where that entry is zero.  Its columns are
    the closed form sqrt(lambda'_i) W'_i, which equal A X on ``|0^m>``.
    """
    t00, t10 = complex(t[0, 0]), complex(t[1, 0])
    residual = abs(abs(t00) ** 2 + abs(t10) ** 2 - 1.0)
    # Written so that NaN entries fail the check.
    if not residual <= qcore.UNITARY_ATOL:
        raise ValueError(
            f"unitarity residual {residual} exceeds {qcore.UNITARY_ATOL}"
        )
    spec = c.spec
    lambdas = np.concatenate([[abs(t00) ** 2], abs(t10) ** 2 * _failure_share(spec)])
    phases = [z / abs(z) if z else 1.0 for z in (t00, t10)]
    # Unit phases times a checked stack are unitary: not checked again.
    phased = phases[1] * spec.gates
    phased[0] = phases[0] * spec.gates[0]
    composed = RusSpec.from_gates(spec.m, lambdas / lambdas.sum(), phased, spec.seed)
    return RusCircuit(composed, source=Composition(c, t))


class DeterministicPlan(NamedTuple):
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


@dataclass(frozen=True, eq=False)
class FixedPointPlan:
    """Chebyshev phase schedule of length L for failure tolerance delta.

    ``w`` is the amplification threshold: any circuit with lambda0 >= w ends
    with success probability at least 1 - delta.  The phases are read-only
    float arrays, and the schedule is symmetric, varphis[i] == phis[L - 1 - i],
    by construction.
    """

    L: int
    delta: float
    gamma: float
    w: float
    phis: np.ndarray
    varphis: np.ndarray


def standard_oaa_state(c: RusCircuit, j: int, psi: StateVector) -> StateVector:
    """State after j standard iterates following A on ``|0^m>|psi>``."""
    composed = standard_compose(c, j).columns
    return StateVector(c.spec.m + 1, composed @ psi.amps)


def standard_compose(c: RusCircuit, j: int) -> RusCircuit:
    """The j-iterate standard protocol as a circuit in its own right."""
    if j < 0:
        raise ValueError("iteration count must be non-negative")
    if j > FP_MAX_LENGTH:
        raise ValueError(f"standard schedule needs more than {FP_MAX_LENGTH} steps")
    pis = np.full(j, math.pi)
    return _phase_schedule(c, pis, pis)


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
        tanchi - (cmath.exp(1j * varphi) * sin2t) / (-cos2t + 1j * cot_half)
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
    if plan.j > FP_MAX_LENGTH:
        raise ValueError(
            f"deterministic schedule needs more than {FP_MAX_LENGTH} steps"
        )
    if plan.chi == 0.0:
        pis = np.full(plan.j, math.pi)
        return _phase_schedule(c, pis, pis)
    phis = np.full(plan.j + 1, math.pi)
    varphis = phis.copy()
    phis[-1], varphis[-1] = plan.phi, plan.varphi
    return _phase_schedule(c, phis, varphis)


def apply_deterministic(
    c: RusCircuit, plan: DeterministicPlan, psi: StateVector
) -> StateVector:
    """Run the deterministic protocol; the result succeeds with probability 1."""
    composed = deterministic_compose(c, plan).columns
    return StateVector(c.spec.m + 1, composed @ psi.amps)


def pi3_compose(c: RusCircuit, plan: Pi3Plan) -> RusCircuit:
    """Level-k cube-law composition A_k = -A_{k-1} S A_{k-1}^dag S A_{k-1}."""
    refl = np.array([np.exp(1j * plan.sign * math.pi / 3.0), 1.0])
    t = _plane(c.spec)
    # A deep level can overflow; the unitarity check then rejects the
    # non-finite t.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(plan.k):
            t = -(t * refl) @ (t.conj().T * refl) @ t
    return _composed(c, UnitaryMatrix(t).mat)


def pi3_level_for(epsilon: float, delta: float) -> int:
    """Smallest recursion depth driving failure epsilon below delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("failure tolerance must lie in (0, 1)")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("failure probability must lie in [0, 1)")
    if epsilon <= delta:
        return 0
    # Failure after level k is epsilon**(3**k); compare in the log domain.
    log_epsilon, log_delta = math.log(epsilon), math.log(delta)
    k = 0
    while 3**k * log_epsilon > log_delta:
        k += 1
    return k


def _threshold(L: int, delta: float) -> tuple[float, float]:
    # gamma^{-1} = T_{1/(2L+1)}(1/sqrt(delta)) = cosh(a); w = 1 - gamma^2 is
    # taken as tanh(a)^2, which does not cancel when w is small.
    a = math.acosh(1.0 / math.sqrt(delta)) / (2 * L + 1)
    return 1.0 / math.cosh(a), math.tanh(a) ** 2


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
    if L > FP_MAX_LENGTH:
        raise ValueError(f"fixed-point schedule needs more than {FP_MAX_LENGTH} steps")
    if not 0.0 < delta < 1.0:
        raise ValueError("failure tolerance must lie in (0, 1)")
    gamma, w = _threshold(L, delta)
    # phis[j - 1] = -2 atan2(1, tan(2 pi j / (2L + 1)) sqrt(w)), in place and
    # rounded step by step as written: near tan's pole a one-ulp change of
    # the angle moves a phase by up to 1e-11.
    phis = np.arange(1, L + 1) * (2.0 * math.pi)
    phis /= 2 * L + 1
    np.tan(phis, out=phis)
    phis *= math.sqrt(w)
    np.arctan2(1.0, phis, out=phis)
    phis *= -2.0
    phis.setflags(write=False)
    return FixedPointPlan(
        L=L, delta=delta, gamma=gamma, w=w, phis=phis, varphis=phis[::-1]
    )


def fp_compose(c: RusCircuit, plan: FixedPointPlan) -> RusCircuit:
    """Apply the length-L fixed-point schedule after A.

    If the circuit's lambda0 is at least plan.w, the composed circuit's
    success probability is at least 1 - plan.delta.
    """
    return _phase_schedule(c, plan.phis, plan.varphis)

