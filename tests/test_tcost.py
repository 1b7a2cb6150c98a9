import math

import numpy as np
import pytest

import conftest
from rusamp import oaa, qcore, rus, tcost

ZERO = tcost.ReflectionPolicy(kind="zero")


def _query(lambda0, delta=1e-6, ct_a=1.0, policy=None):
    return tcost.CostQuery(
        lambda0=lambda0,
        delta=delta,
        ct_a=ct_a,
        reflection_policy=policy or tcost.ReflectionPolicy(),
    )


class TestReflectionCost:
    def test_spot_value(self):
        assert tcost.ct_reflection(1e-6) == pytest.approx(
            3.21 * math.log2(1e6) - 6.93, abs=1e-12
        )
        assert tcost.ct_reflection(1e-6) == pytest.approx(57.05, abs=0.01)

    def test_clamped_at_zero(self):
        assert tcost.ct_reflection(0.5) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tcost.ct_reflection(0.0)
        with pytest.raises(ValueError):
            tcost.ct_reflection(1.5)

    def test_subnormal_accuracy_is_finite(self):
        # 1/eps overflows below about 2**-1024, a subnormal; -log2 takes over.
        for eps in (1.1802353871589618e-312, 5e-324, 5.5e-309):
            assert 1.0 / eps == math.inf
            assert tcost.ct_reflection(eps) == 3.21 * -math.log2(eps) - 6.93
        # Where 1/eps is finite the cost keeps log2(1/eps) to the bit.
        for eps in (5.6e-309, 2.2250738585072014e-308, 1e-300, 5e-7, 1e-6 / 3):
            assert tcost.ct_reflection(eps) == 3.21 * math.log2(1.0 / eps) - 6.93

    def test_accuracy_band_over_gate_counts(self):
        # splitting a 1e-6 budget over 2..100 reflections keeps each gate
        # in a narrow cost band
        costs = [tcost.ct_reflection(1e-6 / n) for n in range(2, 101)]
        assert min(costs) > 60.0
        assert max(costs) < 80.0


class TestPolicy:
    def test_parse(self):
        assert tcost.ReflectionPolicy.parse("kmm").kind == "kmm"
        assert tcost.ReflectionPolicy.parse("zero").budget(1e-6, 2) == (None, 0.0)
        fixed = tcost.ReflectionPolicy.parse("fixed:12.5")
        assert fixed.budget(1e-6, 2) == (None, 12.5)
        with pytest.raises(ValueError):
            tcost.ReflectionPolicy.parse("banana")
        for text in ("fixed:-1", "fixed:nan", "fixed:inf"):
            with pytest.raises(ValueError):
                tcost.ReflectionPolicy.parse(text)

    @pytest.mark.parametrize("n_s", [0, 2, 26])
    @pytest.mark.parametrize("text", ["kmm", "zero", "fixed:0.1"])
    def test_budget(self, text, n_s):
        policy = tcost.ReflectionPolicy.parse(text)
        eps, refl = policy.budget(1e-6, n_s)
        if n_s == 0:
            assert (eps, refl) == (None, 0.0)
            # Level 0 prices no reflection, so its total is ct_a to the bit;
            # 0.1 added and subtracted back would leave 0.30000000000000004.
            r = tcost.ct_pi3(_query(0.5, delta=0.9, ct_a=0.3, policy=policy))
            assert r.params["k"] == 0 and r.total_t == 0.3
        elif text == "kmm":
            assert eps == 1e-6 / n_s
            assert refl == tcost.ct_reflection(1e-6 / n_s)
        else:
            assert (eps, refl) == (None, 0.1 if text == "fixed:0.1" else 0.0)


    def test_accuracy_rounded_to_zero_is_rejected(self):
        policy = tcost.ReflectionPolicy()
        assert policy.budget(1e-320, 2)[0] == 5e-321
        with pytest.raises(tcost.ToleranceUnderflow, match="over 2 reflections"):
            policy.budget(5e-324, 2)
        # Policies without an accuracy take any tolerance.
        assert tcost.ReflectionPolicy(kind="fixed", value=3.0).budget(5e-324, 2) == (None, 3.0)


class TestQueryValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"lambda0": 0.0},
            {"lambda0": 1.5},
            {"delta": 0.0},
            {"delta": 1.0},
            {"ct_a": -1.0},
            {"ct_a": float("nan")},
            {"ct_a": float("inf")},
        ],
    )
    def test_rejects(self, kw):
        base = {"lambda0": 0.5, "delta": 1e-6, "ct_a": 1.0}
        base.update(kw)
        with pytest.raises(ValueError):
            tcost.CostQuery(**base)


class TestClassical:
    def test_rounded_away_success_is_rejected(self):
        # 1 - 1e-17 rounds to 1, so no repetition count can reach delta.
        with pytest.raises(ValueError, match="failure probability 1"):
            tcost.ct_classical(_query(1e-17))

    def test_spot(self):
        r = tcost.ct_classical(_query(0.5))
        assert r.total_t == 19.0
        assert r.params["repetitions"] == 19

    def test_certain_success(self):
        assert tcost.ct_classical(_query(1.0)).total_t == 1.0

    def test_integer_boundary_no_roundup(self):
        # failure^2 == delta exactly: two attempts, not three
        r = tcost.ct_classical(_query(0.5, delta=0.25))
        assert r.params["repetitions"] == 1
        r = tcost.ct_classical(_query(0.5, delta=0.125))
        assert r.params["repetitions"] == 2

    def test_repetitions_track_failure_tail(self):
        # counted with one attempt held out: reps + 1 attempts push the
        # failure tail below delta, reps alone do not
        for lambda0 in (0.1, 0.45, 0.9):
            reps = tcost.ct_classical(_query(lambda0, delta=1e-3)).params[
                "repetitions"
            ]
            assert (1.0 - lambda0) ** (reps + 1) <= 1e-3
            if reps > 1:
                assert (1.0 - lambda0) ** reps > 1e-3


class TestStandard:
    def test_spot(self):
        r = tcost.ct_standard_oaa(_query(0.5))
        assert r.total_t == 19.0
        assert r.params == {"j": 0, "repetitions": 19}

    def test_exact_amplification_single_run(self):
        r = tcost.ct_standard_oaa(_query(0.25))
        assert r.total_t == 3.0
        assert r.params == {"j": 1, "repetitions": 1}

    def test_composed_failure_meets_delta(self):
        delta = 1e-3
        for lambda0 in (0.1, 0.45, 0.8):
            r = tcost.ct_standard_oaa(_query(lambda0, delta=delta))
            circ = conftest.make_circuit(lambda0, m=1)
            grown = oaa.standard_compose(circ, r.params["j"])
            failure = 1.0 - rus.success_probability(grown, qcore.basis_state(1))
            assert failure ** (r.params["repetitions"] + 1) <= delta + 1e-12


class TestDeterministic:
    def test_kmm_spot(self):
        r = tcost.ct_deterministic_oaa(_query(0.5, ct_a=100.0))
        assert r.total_t == pytest.approx(320.52, abs=0.01)
        assert r.params["n_s"] == 2
        assert r.params["epsilon_reflection"] == pytest.approx(5e-7)

    def test_exact_boundary_needs_no_reflections(self):
        r = tcost.ct_deterministic_oaa(_query(0.25, ct_a=10.0))
        assert r.total_t == 30.0
        assert r.params["n_s"] == 0
        assert r.params["epsilon_reflection"] is None

    def test_zero_policy_counts_circuit_calls(self):
        r = tcost.ct_deterministic_oaa(_query(0.5, policy=ZERO))
        # one forward and one adjoint call in the trailing iterate
        assert r.total_t == 2.0


class TestPiOverThree:
    def test_zero_policy_spot(self):
        r = tcost.ct_pi3(_query(0.5, policy=ZERO))
        assert r.total_t == 27.0
        assert r.params["k"] == 3
        assert r.params["n_s"] == 26

    def test_level_zero(self):
        r = tcost.ct_pi3(_query(0.5, delta=0.9))
        assert r.total_t == 1.0
        assert r.params == {"k": 0, "n_s": 0, "epsilon_reflection": None}

    def test_matches_level_recurrence(self):
        # C(k) = 3 C(k-1) + 2 S telescopes to the closed form used
        s = 7.25
        policy = tcost.ReflectionPolicy(kind="fixed", value=s)
        by_recurrence = 1.0
        for k in range(1, 5):
            by_recurrence = 3.0 * by_recurrence + 2.0 * s
            delta = 1.5 * (1.0 - 0.5) ** (3**k)  # forces level exactly k
            r = tcost.ct_pi3(_query(0.5, delta=delta, policy=policy))
            assert r.params["k"] == k
            assert r.total_t == pytest.approx(by_recurrence, rel=1e-12)

    def test_composed_failure_meets_delta(self):
        delta = 1e-3
        for lambda0 in (0.2, 0.45, 0.8):
            r = tcost.ct_pi3(_query(lambda0, delta=delta))
            circ = conftest.make_circuit(lambda0, m=1)
            grown = oaa.pi3_compose(circ, oaa.Pi3Plan(k=r.params["k"]))
            assert 1.0 - rus.success_probability(grown, qcore.basis_state(1)) \
                <= delta + 1e-12


class TestFixedPoint:
    def test_zero_policy_spot(self):
        r = tcost.ct_fixed_point(_query(0.4, policy=ZERO))
        assert r.total_t == 11.0
        assert r.params["L"] == 5
        assert not r.params["minimum_length"]

    def test_minimum_length_flag(self):
        r = tcost.ct_fixed_point(_query(1.0))
        assert r.params["minimum_length"]
        assert r.params["L"] == 1

    def test_schedule_is_shortest_sufficient(self):
        for lambda0 in (0.1, 0.4, 0.7):
            r = tcost.ct_fixed_point(_query(lambda0))
            L = r.params["L"]
            assert oaa.fp_plan(L, 1e-6).w <= lambda0
            if L > 1:
                assert oaa.fp_plan(L - 1, 1e-6).w > lambda0

    def test_composed_success_meets_delta(self):
        delta = 1e-3
        for lambda0 in (0.2, 0.45, 0.8):
            r = tcost.ct_fixed_point(_query(lambda0, delta=delta))
            circ = conftest.make_circuit(lambda0, m=1)
            plan = oaa.fp_plan(r.params["L"], delta)
            grown = oaa.fp_compose(circ, plan)
            assert rus.success_probability(grown, qcore.basis_state(1)) \
                >= 1.0 - delta - 1e-12


class TestAllStrategies:
    def test_order_and_names(self):
        results = tcost.all_strategies(_query(0.3))
        assert tuple(r.strategy for r in results) == tcost.STRATEGIES

    def test_certain_success_costs(self):
        totals = [r.total_t for r in tcost.all_strategies(_query(1.0, policy=ZERO))]
        assert totals == [1.0, 1.0, 1.0, 1.0, 3.0]

    def test_delta_monotonicity(self):
        # loosening the tolerance never raises any strategy's cost
        for loose, tight in ((1e-3, 1e-6), (1e-6, 1e-9)):
            a = tcost.all_strategies(_query(0.3, delta=loose))
            b = tcost.all_strategies(_query(0.3, delta=tight))
            for ra, rb in zip(a, b):
                assert ra.total_t <= rb.total_t + 1e-12


    def test_subnormal_accuracy_costs_are_finite(self):
        # pi3 needs k = 25 here, so each of its 3**25 - 1 reflections gets a
        # subnormal share of delta.
        results = tcost.all_strategies(_query(1e-9, delta=1e-300))
        pi3 = results[3]
        assert pi3.params["k"] == 25
        assert pi3.params["epsilon_reflection"] < 2.2250738585072014e-308
        assert all(math.isfinite(r.total_t) for r in results)


class TestOnePlanPerQuery:
    @pytest.fixture
    def solved(self, monkeypatch):
        """The lambda0 of every deterministic plan solved."""
        calls = []
        solve = oaa.plan_deterministic

        def counted(lambda0):
            calls.append(lambda0)
            return solve(lambda0)

        monkeypatch.setattr(oaa, "plan_deterministic", counted)
        return calls

    def test_all_strategies(self, solved):
        grid = [0.02, 0.25, 0.3, 1.0]
        for lam0 in grid:
            tcost.all_strategies(_query(lam0))
        assert solved == grid

    def test_each_strategy_shares_the_query_plan(self, solved):
        q = _query(0.3)
        tcost.ct_standard_oaa(q)
        tcost.ct_deterministic_oaa(q)
        assert solved == [0.3]
        assert q.plan == oaa.plan_deterministic(0.3)

    def test_figure_grid(self, solved):
        rows = tcost.figure2_data(ct_a=1.0, delta=1e-6)
        assert solved == sorted({lam0 for lam0, _ in rows})
        assert len(solved) == 50


class TestExpectedCost:
    def test_classical_form(self):
        assert tcost.expected_cost_classical(0.25, 2.0) == 8.0

    def test_amplified_form(self):
        theta = math.asin(math.sqrt(0.1))
        assert tcost.expected_cost_standard_j1(0.1, 1.0) == pytest.approx(
            3.0 / math.sin(3.0 * theta) ** 2
        )

    def test_crossover_at_one_third(self):
        for lam0 in np.linspace(0.02, 0.98, 50):
            lam0 = float(lam0)
            amplified = tcost.expected_cost_standard_j1(lam0, 1.0)
            plain = tcost.expected_cost_classical(lam0, 1.0)
            if lam0 < 1.0 / 3.0:
                assert amplified < plain
            else:
                assert amplified >= plain


class TestFigureTwo:
    def test_row_shape(self):
        rows = tcost.figure2_data(ct_a=1.0, delta=1e-6)
        assert len(rows) == 250
        per = {s: [r for _, r in rows if r.strategy == s] for s in tcost.STRATEGIES}
        assert all(len(v) == 50 for v in per.values())

    def test_rows_recompute(self):
        rows = tcost.figure2_data(ct_a=100.0, delta=1e-6)
        for lambda0, row in rows[::17]:
            q = _query(lambda0, ct_a=100.0)
            expect = {
                r.strategy: r.total_t for r in tcost.all_strategies(q)
            }[row.strategy]
            assert row.total_t == expect

    def test_epsilon_only_with_reflections(self):
        for _, row in tcost.figure2_data(ct_a=1.0, delta=1e-6):
            n_s = row.params.get("n_s")
            if n_s in (0, None):
                assert row.params.get("epsilon_reflection") is None
            else:
                assert row.params["epsilon_reflection"] == pytest.approx(1e-6 / n_s)
