"""T-count models for running a synthesized circuit to a target failure rate.

Costs count T gates only: ``ct_a`` is the per-attempt cost of the circuit
(and of its inverse), ancilla reflections are priced by a configurable
policy, and Clifford corrections are free.  Every strategy returns the total
cost of reaching overall failure at most ``delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import oaa

# Gate-synthesis cost of one generalized ancilla reflection to accuracy eps.
KMM_SLOPE = 3.21
KMM_OFFSET = 6.93


class ToleranceUnderflow(ValueError):
    """The failure tolerance is too small to share over the reflections."""


@dataclass(frozen=True)
class ReflectionPolicy:
    """How generalized reflections are priced: synthesized to the accuracy
    budget ('kmm'), free ('zero'), or a fixed per-gate value ('fixed')."""

    kind: str = "kmm"
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("kmm", "zero", "fixed"):
            raise ValueError(f"unknown reflection policy {self.kind!r}")
        # Written so that NaN and inf fail the check.
        if self.kind == "fixed" and not 0.0 <= self.value < math.inf:
            raise ValueError("fixed reflection cost must be non-negative and finite")

    def budget(self, delta: float, n_s: int) -> tuple[float | None, float]:
        """Accuracy and T cost of each of n_s reflections sharing delta.

        Only the kmm policy synthesizes to an accuracy, delta / n_s; without
        reflections there is neither an accuracy nor a cost.
        """
        if n_s == 0 or self.kind == "zero":
            return None, 0.0
        if self.kind == "fixed":
            return None, self.value
        epsilon = delta / n_s
        if epsilon == 0.0:
            raise ToleranceUnderflow(
                f"failure tolerance {delta!r} over {n_s} reflections rounds "
                "each accuracy to 0"
            )
        return epsilon, ct_reflection(epsilon)

    @staticmethod
    def parse(text: str) -> "ReflectionPolicy":
        if text in ("kmm", "zero"):
            return ReflectionPolicy(kind=text)
        if text.startswith("fixed:"):
            try:
                value = float(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"cannot parse reflection policy {text!r}") from None
            return ReflectionPolicy(kind="fixed", value=value)
        raise ValueError(f"cannot parse reflection policy {text!r}")


@dataclass(frozen=True)
class CostQuery:
    lambda0: float
    delta: float
    ct_a: float
    reflection_policy: ReflectionPolicy = field(default_factory=ReflectionPolicy)

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda0 <= 1.0:
            raise ValueError("success probability must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("failure tolerance must lie in (0, 1)")
        if not 0.0 <= self.ct_a < math.inf:
            raise ValueError("per-attempt cost must be non-negative and finite")

    @cached_property
    def plan(self) -> oaa.DeterministicPlan:
        """The deterministic plan for lambda0, solved once per query."""
        return oaa.plan_deterministic(self.lambda0)


class CostResult(NamedTuple):
    strategy: str
    total_t: float
    params: dict


def ct_reflection(epsilon: float) -> float:
    """T cost of one generalized reflection synthesized to accuracy epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    inverse = 1.0 / epsilon
    # 1/epsilon overflows below about 2**-1024, a subnormal; -log2 stays
    # finite there.
    bits = math.log2(inverse) if inverse < math.inf else -math.log2(epsilon)
    return max(0.0, KMM_SLOPE * bits - KMM_OFFSET)


def _repetitions(failure: float, delta: float) -> int:
    """Attempts needed to push repeated-failure probability below delta."""
    if failure <= 0.0:
        return 1
    # A success probability below the rounding of 1 - lambda0 leaves failure 1.
    if failure >= 1.0:
        raise ValueError("failure probability 1 cannot be amplified away")
    # Epsilon guard keeps exact integer ratios from rounding up a step.
    return max(1, math.ceil(math.log(delta) / math.log(failure) - 1.0 - 1e-9))


def ct_classical(q: CostQuery) -> CostResult:
    """Repeat the bare circuit until the failure tail drops below delta."""
    reps = _repetitions(1.0 - q.lambda0, q.delta)
    return CostResult("classical", q.ct_a * reps, {"repetitions": reps})


def ct_standard_oaa(q: CostQuery) -> CostResult:
    """Amplify with j plain iterates, then repeat the amplified circuit.

    Ancilla reflections with phase pi are priced at zero (they are Clifford
    for the register sizes this model targets).
    """
    plan = q.plan
    reps = _repetitions(math.sin(plan.chi) ** 2, q.delta)
    return CostResult(
        "standard",
        (2 * plan.j + 1) * q.ct_a * reps,
        {"j": plan.j, "repetitions": reps},
    )


def ct_deterministic_oaa(q: CostQuery) -> CostResult:
    """One run with solved trailing phases; succeeds with certainty.

    The trailing generalized iterate, and its two reflections, is skipped
    when the plain iterates already reach success exactly (chi == 0).
    """
    plan = q.plan
    n_s = 0 if plan.chi == 0.0 else 2
    eps, refl = q.reflection_policy.budget(q.delta, n_s)
    total = (2 * plan.j + 1 + n_s // 2) * q.ct_a + n_s * refl
    return CostResult(
        "deterministic", total, {"j": plan.j, "n_s": n_s, "epsilon_reflection": eps}
    )


def ct_pi3(q: CostQuery) -> CostResult:
    """Level-k cube-law composition sized so residual failure is below delta.

    The level recurrence C(k) = 3 C(k-1) + 2 S telescopes to
    (ct_a + S) 3^k - S with S the per-reflection cost.
    """
    k = oaa.pi3_level_for(1.0 - q.lambda0, q.delta)
    n_s = 3**k - 1
    eps, refl = q.reflection_policy.budget(q.delta, n_s)
    total = (q.ct_a + refl) * 3**k - refl
    return CostResult("pi3", total, {"k": k, "n_s": n_s, "epsilon_reflection": eps})


def ct_fixed_point(q: CostQuery) -> CostResult:
    """Shortest Chebyshev schedule covering lambda0, run once."""
    L = oaa.fp_length_for(q.lambda0, q.delta)
    n_s = 2 * L
    eps, refl = q.reflection_policy.budget(q.delta, n_s)
    total = (2 * L + 1) * q.ct_a + n_s * refl
    return CostResult(
        "fixed_point",
        total,
        {"L": L, "n_s": n_s, "epsilon_reflection": eps,
         "minimum_length": q.lambda0 >= 1.0 - q.delta},
    )


STRATEGIES = ("classical", "standard", "deterministic", "pi3", "fixed_point")


def all_strategies(q: CostQuery) -> list[CostResult]:
    return [
        ct_classical(q),
        ct_standard_oaa(q),
        ct_deterministic_oaa(q),
        ct_pi3(q),
        ct_fixed_point(q),
    ]


def expected_cost_classical(lambda0: float, ct_a: float) -> float:
    """Expected T cost per realized success without amplification."""
    if not 0.0 < lambda0 <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    return ct_a / lambda0


def expected_cost_standard_j1(lambda0: float, ct_a: float) -> float:
    """Expected T cost per realized success after one free-reflection iterate."""
    if not 0.0 < lambda0 <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    theta = math.asin(math.sqrt(lambda0))
    return 3.0 * ct_a / math.sin(3.0 * theta) ** 2


def figure2_data(ct_a: float, delta: float) -> list[tuple[float, CostResult]]:
    """Every strategy's cost across the lambda0 grid, kmm reflections, as
    (lambda0, result) pairs."""
    rows: list[tuple[float, CostResult]] = []
    kmm = ReflectionPolicy()
    for lam0 in np.linspace(0.02, 0.98, 50):
        q = CostQuery(lambda0=float(lam0), delta=delta, ct_a=ct_a, reflection_policy=kmm)
        rows.extend((q.lambda0, result) for result in all_strategies(q))
    return rows
