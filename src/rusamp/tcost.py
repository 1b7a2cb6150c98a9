"""T-count models for running a synthesized circuit to a target failure rate.

Costs count T gates only: ``ct_a`` is the per-attempt cost of the circuit
(and of its inverse), ancilla reflections are priced by a configurable
policy, and Clifford corrections are free.  Every strategy returns the total
cost of reaching overall failure at most ``delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oaa

# Gate-synthesis cost of one generalized ancilla reflection to accuracy eps.
KMM_SLOPE = 3.21
KMM_OFFSET = 6.93


@dataclass(frozen=True)
class ReflectionPolicy:
    """How generalized reflections are priced: synthesized to the accuracy
    budget ('kmm'), free ('zero'), or a fixed per-gate value ('fixed')."""

    kind: str = "kmm"
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("kmm", "zero", "fixed"):
            raise ValueError(f"unknown reflection policy {self.kind!r}")
        if self.kind == "fixed" and self.value < 0:
            raise ValueError("fixed reflection cost must be non-negative")

    def cost(self, epsilon: float | None) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "fixed":
            return self.value
        if epsilon is None:
            raise ValueError("accuracy budget required for the kmm policy")
        return ct_reflection(epsilon)

    @staticmethod
    def parse(text: str) -> "ReflectionPolicy":
        if text in ("kmm", "zero"):
            return ReflectionPolicy(kind=text)
        if text.startswith("fixed:"):
            return ReflectionPolicy(kind="fixed", value=float(text.split(":", 1)[1]))
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
        if self.ct_a < 0:
            raise ValueError("per-attempt cost must be non-negative")


@dataclass(frozen=True)
class CostResult:
    strategy: str
    total_t: float
    params: dict


def ct_reflection(epsilon: float) -> float:
    """T cost of one generalized reflection synthesized to accuracy epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("accuracy must lie in (0, 1)")
    return max(0.0, KMM_SLOPE * math.log2(1.0 / epsilon) - KMM_OFFSET)


def _repetitions(failure: float, delta: float) -> int:
    """Attempts needed to push repeated-failure probability below delta."""
    if failure <= 0.0:
        return 1
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
    plan = oaa.plan_deterministic(q.lambda0)
    reps = _repetitions(math.sin(plan.chi) ** 2, q.delta)
    return CostResult(
        "standard",
        (2 * plan.j + 1) * q.ct_a * reps,
        {"j": plan.j, "repetitions": reps},
    )


def ct_deterministic_oaa(q: CostQuery) -> CostResult:
    """One run with solved trailing phases; succeeds with certainty."""
    plan = oaa.plan_deterministic(q.lambda0)
    if plan.chi == 0.0:
        total = (2 * plan.j + 1) * q.ct_a
        return CostResult(
            "deterministic",
            total,
            {"j": plan.j, "n_s": 0, "epsilon_reflection": None},
        )
    n_s = 2
    eps = q.delta / n_s if q.reflection_policy.kind == "kmm" else None
    total = 2 * (plan.j + 1) * q.ct_a + n_s * q.reflection_policy.cost(eps)
    return CostResult(
        "deterministic",
        total,
        {"j": plan.j, "n_s": n_s, "epsilon_reflection": eps},
    )


def ct_pi3(q: CostQuery) -> CostResult:
    """Level-k cube-law composition sized so residual failure is below delta.

    The level recurrence C(k) = 3 C(k-1) + 2 S telescopes to
    (ct_a + S) 3^k - S with S the per-reflection cost.
    """
    k = oaa.pi3_level_for(1.0 - q.lambda0, q.delta)
    n_s = 3**k - 1
    if n_s == 0:
        return CostResult(
            "pi3", q.ct_a, {"k": 0, "n_s": 0, "epsilon_reflection": None}
        )
    eps = q.delta / n_s if q.reflection_policy.kind == "kmm" else None
    refl = q.reflection_policy.cost(eps)
    total = (q.ct_a + refl) * 3**k - refl
    return CostResult(
        "pi3", total, {"k": k, "n_s": n_s, "epsilon_reflection": eps}
    )


def ct_fixed_point(q: CostQuery) -> CostResult:
    """Shortest Chebyshev schedule covering lambda0, run once."""
    L = oaa.fp_length_for(q.lambda0, q.delta)
    n_s = 2 * L
    eps = q.delta / n_s if q.reflection_policy.kind == "kmm" else None
    total = (2 * L + 1) * q.ct_a + n_s * q.reflection_policy.cost(eps)
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


@dataclass(frozen=True)
class CostRow:
    lambda0: float
    strategy: str
    total_t: float
    j: int | None
    k: int | None
    L: int | None
    n_s: int | None
    epsilon_reflection: float | None


def figure2_data(ct_a: float, delta: float) -> list[CostRow]:
    """Total cost of every strategy across the lambda0 grid, kmm reflections."""
    grid = np.linspace(0.02, 0.98, 50)
    rows: list[CostRow] = []
    for lam0 in grid:
        q = CostQuery(lambda0=float(lam0), delta=delta, ct_a=ct_a)
        for result in all_strategies(q):
            p = result.params
            rows.append(
                CostRow(
                    lambda0=float(lam0),
                    strategy=result.strategy,
                    total_t=result.total_t,
                    j=p.get("j"),
                    k=p.get("k"),
                    L=p.get("L"),
                    n_s=p.get("n_s"),
                    epsilon_reflection=p.get("epsilon_reflection"),
                )
            )
    return rows
