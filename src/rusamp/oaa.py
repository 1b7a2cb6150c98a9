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

Every composition is 2x2 algebra, done on Python complex scalars wherever
NumPy's fixed cost per call would outweigh its work: the plane (s, c),
t, its determinant, and the whole cube-law recursion, four entries per
level.  A phase schedule is multiplied in scalars below
``SCALAR_SCHEDULE_LENGTH`` iterates and in NumPy passes from there on; the
length is what sets the cost of each, and all the choice reads.

t's first column fixes the composed circuit: lambda'_0 = |t00|^2,
lambda'_i = |t10|^2 lambda_i / (1 - lambda0), W'_0 = (t00/|t00|) W_0 and
W'_i = (t10/|t10|) W_i, with phase 1 for a zero entry.  Its columns are the
closed form sqrt(lambda'_i) W'_i of ``rus.build_rus_unitary``; they equal
(a t)_00 C + (a t)_10 P, with C those of A and P = c |0^m> W_0 - s Phi.
Its complement is A's, V, times one unit phase.  Its full matrix, A X with
X = (a t) (x) I on the input plane and the identity elsewhere, is built
only when read.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore
from .qcore import StateVector, UnitaryMatrix
from .rus import Complement, RusCircuit, RusSpec

# Residual angles below this count as an exact pi/2 hit; the trailing
# generalized iterate is then skipped rather than solved near a 0/0.
CHI_SKIP_ATOL = 1e-9

# Longest phase schedule that is materialized: the fixed-point length in
# fp_plan and the iterate count of the standard and deterministic protocols.
FP_MAX_LENGTH = 10**6


def _plane(spec: RusSpec) -> tuple[float, float, np.ndarray]:
    """s, c and the failure share of the circuit on the OAA planes,
    a = [[s, c], [c, -s]] with s^2 = lambda0 / (lambda0 + f) for the failure
    mass f: one sum of the weights serves all three."""
    mass, share = spec.failure_split()
    lambda0 = spec.lambda0
    total = lambda0 + mass
    return math.sqrt(lambda0 / total), math.sqrt(mass / total), share


# Row signs that turn a left factor's first column [alpha, beta] into its
# second, [-conj(beta), conj(alpha)], once the rows are swapped and conjugated.
_SECOND_COLUMN = np.array([[-1.0], [1.0]], dtype=np.complex128)
# First column of the identity, which pads a stack to a power of two.
_IDENTITY_COLUMN = np.array([[1.0], [0.0]], dtype=np.complex128)

# Schedules with fewer iterates than this are multiplied in Python complex
# scalars, longer ones in NumPy passes.  Per composition on a 2-core x86
# machine (NumPy 2.4, Python 3.11), scalars cost about 1.1 us an iterate
# and NumPy about 25 us plus 0.23 us an iterate, for array set-up and one
# elementwise pass per tree level; the two tie near L = 40 at m = 1 and 4
# (``scripts/engine_bench.py``'s fp:L=N rows bracket it).  The schedule
# length is all the choice reads, so it needs no setting.
SCALAR_SCHEDULE_LENGTH = 40


def _phase_schedule(c: RusCircuit, phis, varphis) -> RusCircuit:
    """Iterates G(phi, varphi) = -A S_phi A^dag S_varphi in array order after A."""
    s, co, share = _plane(c.spec)
    return _composed(c, _schedule(s, co, phis, varphis), share)


def _schedule(s: float, co: float, phis: np.ndarray, varphis: np.ndarray) -> tuple:
    """t = G_L ... G_1 a on the OAA planes a = [[s, co], [co, -s]], from
    float arrays of phases, as rows of Python complex numbers.

    Every factor is a unit phase times an SU(2) matrix
    [[alpha, -conj(beta)], [beta, conj(alpha)]], which its first column
    (alpha, beta) fixes: det a = -1 gives a = i [[-is, -ic], [-ic, is]], and
    G(phi, varphi) = e^{i (phi + varphi) / 2} [[alpha, ...], [beta, ...]] with
    alpha = -(s^2 p + c^2 conj(p)) q and beta = s c (conj(p) - p) q, where
    p = e^{i phi / 2} and q = e^{i varphi / 2}.

    The first columns of [A, G_1, ..., G_L] are multiplied pairwise, later
    factors on the left, in ceil(log2(L + 1)) passes:
    alpha = alpha_l alpha_r - conj(beta_l) beta_r and
    beta = beta_l alpha_r + conj(alpha_l) beta_r.  Identity columns pad the
    stack to a power of two, which gives each product exactly as if an odd
    last factor were carried to the next pass.  A schedule shorter than
    ``SCALAR_SCHEDULE_LENGTH`` is multiplied in Python complex scalars,
    where NumPy's fixed cost per call would dominate; a longer one in one
    elementwise NumPy pass per level.  Both take the same products in the
    same order, and round apart by about an ulp a level where NumPy fuses a
    multiply-add.  t is rebuilt once, from the normalized column and the phase
    i p_1 q_1 ... p_L q_L, so it is unitary to rounding however long the
    schedule.  The phase is a product of unit numbers, as accurate as the
    column; the sum of the L angles, even correctly rounded, is off by half
    an ulp of about 2 pi L, 4.5e-13 at L = 2000.
    """
    if len(phis) < SCALAR_SCHEDULE_LENGTH:
        alpha, beta, phase = _scalar_columns(s, co, phis.tolist(), varphis.tolist())
    else:
        alpha, beta, phase = _array_columns(s, co, phis, varphis)
    scale = 1j * phase / (abs(phase) * math.hypot(abs(alpha), abs(beta)))
    return ((scale * alpha, -scale * beta.conjugate()),
            (scale * beta, scale * alpha.conjugate()))


def _scalar_columns(s: float, co: float, phis: list, varphis: list) -> tuple:
    """``_schedule``'s product of first columns and its phase, in scalars."""
    weights = -s * s, -co * co, -s * co, s * co
    columns = [(-1j * s, -1j * co)]
    phase = 1.0
    for phi, varphi in zip(phis, varphis):
        p, q = cmath.exp(0.5j * phi), cmath.exp(0.5j * varphi)
        turn, back = p * q, p.conjugate() * q
        columns.append((weights[0] * turn + weights[1] * back,
                        weights[2] * turn + weights[3] * back))
        phase *= turn
    columns += [(1.0, 0.0)] * ((1 << (len(columns) - 1).bit_length()) - len(columns))
    while len(columns) > 1:
        columns = [(al * ar - bl.conjugate() * br, bl * ar + al.conjugate() * br)
                   for (ar, br), (al, bl) in zip(columns[::2], columns[1::2])]
    (alpha, beta), = columns
    return alpha, beta, phase


def _array_columns(s: float, co: float, phis: np.ndarray, varphis: np.ndarray) -> tuple:
    """``_schedule``'s product of first columns and its phase, in NumPy passes."""
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
    return alpha, beta, complex(np.multiply.reduce(turns[0]))


@dataclass(frozen=True, eq=False)
class Composition:
    """How a composed circuit's full unitary A X and complement follow from
    its ``base``.

    ``t`` is the 2x2 unitary the circuit acts as on the OAA planes of
    ``base``, as rows of Python complex numbers; X acts on the input plane
    of ``|0^m>|psi>`` and ``V psi`` as the polar factor of a t, and as the
    identity elsewhere.
    """

    base: RusCircuit
    t: tuple

    def matrix(self) -> UnitaryMatrix:
        """A X, checked, with X = I + B ((a t - I) (x) I_2) B^dag on the
        input-plane isometry B = [U0, V], block by block.  Since A B =
        [A U0, P] with P = c |0^m> W_0 - s Phi, it is formed as
        A + [A U0, P] ((a t - I) (x) I_2) B^dag, with no dense product
        while A has failure weight.  Without it c = 0, and Phi, with it V,
        is a free choice that no circuit's columns read: P is then taken as
        A V, which keeps A X unitary."""
        spec = self.base.spec
        s, co, share = _plane(spec)
        a = np.array([[s, co], [co, -s]], dtype=np.complex128)
        # A deep cube-law level may leave t up to UNITARY_ATOL from unitary.
        u, _, vh = np.linalg.svd(a @ np.array(self.t))
        a_mat = self.base.a_matrix.mat
        complement = self.base.complement.columns()
        if co:
            pulled = -s * Complement(share, spec.gates[1:]).columns()
            pulled[:2] = co * spec.gates[0]
        else:
            pulled = a_mat @ complement
        basis = np.stack([np.eye(len(a_mat), 2), complement], 1)
        image = np.stack([a_mat[:, :2], pulled], 1)
        y = u @ vh - np.eye(2)
        return UnitaryMatrix(a_mat + np.einsum("pq,ipk,jqk->ij", y, image, basis.conj()))

    def complement(self) -> Complement:
        """kappa V, with kappa = -conj(det t) p0 p1 for the unit phases p0
        and p1 of t00 and t10, rescaled to modulus 1: t need only be
        unitary to UNITARY_ATOL."""
        (t00, t01), (t10, t11) = self.t
        p0, p1 = _unit_phases(t00, t10)
        kappa = -(t00 * t11 - t01 * t10).conjugate() * p0 * p1
        weights, gates = self.base.complement
        gates = kappa / abs(kappa) * gates
        gates.setflags(write=False)
        return Complement(weights, gates)


def _unit_phases(*entries: complex) -> list[complex]:
    """The unit phase of each entry, 1 for a zero entry."""
    return [z / abs(z) if z else 1.0 for z in entries]


def _composed(c: RusCircuit, t: tuple, share: np.ndarray) -> RusCircuit:
    """The circuit acting as the 2x2 unitary t, rows of Python complex
    numbers, on the OAA planes of c, whose failure share is ``share``.

    t's first column fixes it: lambda'_0 = |t00|^2, lambda'_i = |t10|^2
    lambda_i / (1 - lambda0), and W'_i is W_i times the unit phase of t00
    (success) or t10 (failure), 1 where that entry is zero.  Its columns are
    the closed form sqrt(lambda'_i) W'_i, which equal A X on ``|0^m>``.

    Once t's column passes the scalar unitarity check, the new weights are
    finite, non-negative, at most their sum and divided by it, so they sum
    to 1 to rounding; the gates are unit phases times a checked stack.  The
    spec is built without checking either again.
    """
    (t00, _), (t10, _) = t
    residual = abs(abs(t00) ** 2 + abs(t10) ** 2 - 1.0)
    # Written so that NaN entries fail the check.
    if not residual <= qcore.UNITARY_ATOL:
        raise ValueError(
            f"unitarity residual {residual} exceeds {qcore.UNITARY_ATOL}"
        )
    spec = c.spec
    lambdas = np.empty(len(spec.lambdas))
    lambdas[0] = abs(t00) ** 2
    np.multiply(share, abs(t10) ** 2, out=lambdas[1:])
    lambdas /= lambdas.sum()
    phases = _unit_phases(t00, t10)
    phased = phases[1] * spec.gates
    phased[0] = phases[0] * spec.gates[0]
    composed = RusSpec.derived(spec.m, lambdas, phased, spec.seed)
    return RusCircuit(composed, Composition(c, t))


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
        qcore.check_integer(self.k, "recursion depth k", non_negative=True)
        # True == 1 and 1.0 == 1, so the type is checked first.
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(
                f"sign selects the +pi/3 or -pi/3 reflection: 1 or -1, got {self.sign!r}"
            )


@dataclass(frozen=True, eq=False)
class FixedPointPlan:
    """Chebyshev phase schedule of length L for failure tolerance delta.

    ``w`` is the amplification threshold: any circuit with lambda0 >= w ends
    with success probability at least 1 - delta.  A plan is checked when it
    is built: L is a non-negative integer, and ``phis`` and ``varphis`` are
    1-D float arrays of L finite phases each.  ``fp_plan``'s phases are
    read-only, and its schedule is symmetric, varphis[i] == phis[L - 1 - i],
    by construction.
    """

    L: int
    delta: float
    gamma: float
    w: float
    phis: np.ndarray
    varphis: np.ndarray

    def __post_init__(self) -> None:
        qcore.check_integer(self.L, "schedule length L", non_negative=True)
        for name in ("phis", "varphis"):
            phases = getattr(self, name)
            # Written so that NaN and inf phases fail the check.
            if not (isinstance(phases, np.ndarray) and phases.dtype == np.float64
                    and phases.shape == (self.L,) and np.isfinite(phases).all()):
                raise ValueError(
                    f"FixedPointPlan.{name} must be a 1-D float array of "
                    f"L = {self.L} finite phases"
                )


def standard_oaa_state(c: RusCircuit, j: int, psi: StateVector) -> StateVector:
    """State after j standard iterates following A on ``|0^m>|psi>``."""
    composed = standard_compose(c, j).columns
    return StateVector(c.spec.m + 1, composed @ psi.amps)


def standard_compose(c: RusCircuit, j: int) -> RusCircuit:
    """The j-iterate standard protocol as a circuit in its own right."""
    qcore.check_integer(j, "iteration count j", non_negative=True)
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
    """The deterministic protocol as a circuit; it succeeds with probability 1.
    Raises ``ValueError`` naming the field unless the plan's j is a
    non-negative integer and its chi, phi and varphi are finite."""
    qcore.check_integer(plan.j, "deterministic plan field j", non_negative=True)
    for name in ("chi", "phi", "varphi"):
        value = getattr(plan, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"deterministic plan field {name} must be a finite number, "
                             f"got {value!r}")
    lambda_plan = math.sin((math.pi / 2.0 - plan.chi) / (2 * plan.j + 1)) ** 2
    if not abs(c.spec.lambda0 - lambda_plan) <= 1e-9:
        raise ValueError(
            f"plan is for lambda0={lambda_plan:.12g}, not {c.spec.lambda0:.12g}"
        )
    if plan.j > FP_MAX_LENGTH:
        raise ValueError(
            f"deterministic schedule needs more than {FP_MAX_LENGTH} steps"
        )
    # chi == 0 skips the trailing generalized iterate.
    trailing = plan.chi != 0.0
    phis = np.full(plan.j + trailing, math.pi)
    varphis = phis.copy()
    if trailing:
        phis[-1], varphis[-1] = plan.phi, plan.varphi
    return _phase_schedule(c, phis, varphis)


def apply_deterministic(
    c: RusCircuit, plan: DeterministicPlan, psi: StateVector
) -> StateVector:
    """Run the deterministic protocol; the result succeeds with probability 1."""
    composed = deterministic_compose(c, plan).columns
    return StateVector(c.spec.m + 1, composed @ psi.amps)


def pi3_compose(c: RusCircuit, plan: Pi3Plan) -> RusCircuit:
    """Level-k cube-law composition A_k = -A_{k-1} S A_{k-1}^dag S A_{k-1}.

    The dense 2x2 recursion runs on four Python complex entries per level,
    S scaling the first column by e^{+-i pi/3}; its rounding grows threefold
    per level, so t is checked once, at the end, with ``UnitaryMatrix``.
    """
    s, co, share = _plane(c.spec)
    turn = cmath.exp(1j * plan.sign * math.pi / 3.0)
    # A deep level can overflow; the unitarity check then rejects the
    # non-finite t.
    t00, t01, t10, t11 = s + 0j, co + 0j, co + 0j, -s + 0j
    for _ in range(plan.k):
        # x = -t S and y = t^dag S, then t = (x y) t.
        x00, x01, x10, x11 = -t00 * turn, -t01, -t10 * turn, -t11
        y00, y01 = t00.conjugate() * turn, t10.conjugate()
        y10, y11 = t01.conjugate() * turn, t11.conjugate()
        z00, z01 = x00 * y00 + x01 * y10, x00 * y01 + x01 * y11
        z10, z11 = x10 * y00 + x11 * y10, x10 * y01 + x11 * y11
        t00, t01, t10, t11 = (z00 * t00 + z01 * t10, z00 * t01 + z01 * t11,
                              z10 * t00 + z11 * t10, z10 * t01 + z11 * t11)
    t = ((t00, t01), (t10, t11))
    UnitaryMatrix(t)
    return _composed(c, t, share)


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
    qcore.check_integer(L, "schedule length L")
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

