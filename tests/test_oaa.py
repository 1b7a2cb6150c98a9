import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from rusamp import oaa, qcore, rus

PROBE = qcore.basis_state(1)


def _success_block_ratio(grown: rus.RusCircuit, base: rus.RusCircuit) -> complex:
    """Scalar amp with (grown success block) == amp * (base target)."""
    block = grown.a_matrix.mat[:2, :2]
    return complex(np.trace(base.spec.target.mat.conj().T @ block) / 2.0)


class TestStandard:
    @pytest.mark.parametrize("lambda0,j", [(0.1, 1), (0.3, 1), (0.5, 2), (0.05, 3)])
    def test_amplification_law(self, lambda0, j):
        circ = conftest.make_circuit(lambda0, m=1)
        theta = math.asin(math.sqrt(lambda0))
        state = oaa.standard_oaa_state(circ, j, PROBE)
        got = conftest.success_mass(state.amps)
        assert got == pytest.approx(math.sin((2 * j + 1) * theta) ** 2, abs=1e-10)

    def test_matches_two_level_oracle(self):
        rng = qcore.rng_stream(50)
        for _ in range(10):
            lambda0 = float(rng.uniform(0.02, 0.6))
            j = int(rng.integers(1, 4))
            circ = conftest.make_circuit(lambda0, m=2, rng=rng)
            state = oaa.standard_oaa_state(circ, j, PROBE)
            amp, _ = conftest.two_level_amplitudes(
                lambda0, [(math.pi, math.pi)] * j
            )
            assert conftest.success_mass(state.amps) == pytest.approx(
                abs(amp) ** 2, abs=1e-10
            )

    def test_composed_circuit_is_runnable(self):
        circ = conftest.make_circuit(0.3, m=1)
        amplified = oaa.standard_compose(circ, j=1)
        theta = math.asin(math.sqrt(0.3))
        assert rus.success_probability(amplified, PROBE) == pytest.approx(
            math.sin(3 * theta) ** 2, abs=1e-10
        )
        # the composed circuit still runs and applies the original target
        rng = qcore.rng_stream(3)
        psi = qcore.random_state(1, rng)
        record = rus.run_rus(amplified, psi, rng)
        expect = qcore.apply(circ.spec.target, psi)
        assert qcore.fidelity(record.final_state, expect) == pytest.approx(
            1.0, abs=1e-10
        )


class TestDeterministic:
    def test_half_success_plan(self):
        # lambda0 = 1/2: theta = pi/4, no plain iterates fit, the trailing
        # phases come out at pi/2 exactly
        plan = oaa.plan_deterministic(0.5)
        assert plan.j == 0
        assert plan.chi == pytest.approx(math.pi / 4)
        assert plan.phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert plan.varphi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_boundary_needs_no_correction(self):
        # lambda0 = 1/4: (2j+1) theta hits pi/2 exactly at j = 1
        plan = oaa.plan_deterministic(0.25)
        assert plan.j == 1
        assert plan.chi == 0.0
        assert plan.phi == 0.0 and plan.varphi == 0.0

    @pytest.mark.parametrize("lambda0", [0.05, 0.2, 0.37, 0.5, 0.75, 0.95])
    def test_unit_success(self, lambda0):
        plan = oaa.plan_deterministic(lambda0)
        for m in (1, 2):
            circ = conftest.make_circuit(lambda0, m=m)
            state = oaa.apply_deterministic(circ, plan, PROBE)
            assert conftest.success_mass(state.amps) > 1.0 - 1e-9

    def test_final_state_is_target(self):
        rng = qcore.rng_stream(60)
        circ = conftest.make_circuit(0.3, m=1, rng=rng)
        plan = oaa.plan_deterministic(0.3)
        psi = qcore.random_state(1, rng)
        state = oaa.apply_deterministic(circ, plan, psi)
        expect = qcore.apply(circ.spec.target, psi)
        ideal = qcore.tensor_state(qcore.basis_state(1), expect)
        assert qcore.fidelity(state, ideal) > 1.0 - 1e-9

    def test_plan_oracle_agreement(self):
        for lambda0 in (0.1, 0.3, 0.6, 0.9):
            plan = oaa.plan_deterministic(lambda0)
            pairs = conftest.deterministic_pairs(plan)
            amp, _ = conftest.two_level_amplitudes(lambda0, pairs)
            assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_rejects_mismatched_circuit(self):
        plan = oaa.plan_deterministic(0.5)
        circ = conftest.make_circuit(0.3, m=1)
        with pytest.raises(ValueError):
            oaa.apply_deterministic(circ, plan, PROBE)


class TestPiOverThree:
    @pytest.mark.parametrize("lambda0", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failure_cubing(self, lambda0, k):
        circ = conftest.make_circuit(lambda0, m=1)
        grown = oaa.pi3_compose(circ, oaa.Pi3Plan(k=k))
        failure = 1.0 - rus.success_probability(grown, PROBE)
        assert failure == pytest.approx((1.0 - lambda0) ** (3**k), abs=1e-10)

    def test_single_level_amplitude(self):
        lambda0 = 0.9
        circ = conftest.make_circuit(lambda0, m=1, trivial_recoveries=True)
        grown = oaa.pi3_compose(circ, oaa.Pi3Plan(k=1))
        amp = _success_block_ratio(grown, circ)
        expect = (
            np.exp(-2j * math.pi / 3)
            * math.sqrt(lambda0)
            * (np.exp(1j * math.pi / 3) + (1.0 - lambda0))
        )
        assert amp == pytest.approx(expect, abs=1e-10)
        assert abs(expect) ** 2 == pytest.approx(1.0 - (1.0 - lambda0) ** 3, abs=1e-12)

    def test_sign_flips_conjugate(self):
        lambda0 = 0.7
        circ = conftest.make_circuit(lambda0, m=1, trivial_recoveries=True)
        plus = oaa.pi3_compose(circ, oaa.Pi3Plan(k=1, sign=1))
        minus = oaa.pi3_compose(circ, oaa.Pi3Plan(k=1, sign=-1))
        ratio_p = _success_block_ratio(plus, circ)
        ratio_m = _success_block_ratio(minus, circ)
        assert ratio_m == pytest.approx(np.conj(ratio_p), abs=1e-10)

    def test_level_for(self):
        assert oaa.pi3_level_for(0.5, 1e-6) == 3
        assert oaa.pi3_level_for(0.9, 1e-6) == 5
        assert oaa.pi3_level_for(0.5, 0.9) == 0
        with pytest.raises(ValueError):
            oaa.pi3_level_for(1.0, 1e-6)

    def test_level_for_is_minimal(self):
        for eps, delta in ((0.3, 1e-4), (0.8, 1e-8), (0.05, 1e-12)):
            k = oaa.pi3_level_for(eps, delta)
            assert eps ** (3**k) <= delta
            if k > 0:
                assert eps ** (3 ** (k - 1)) > delta

    def test_deep_level_stays_normalized(self):
        # The dense recursion returned success probability 1 + 6.4e-11 here.
        circ = conftest.make_circuit(0.1, m=1)
        grown = oaa.pi3_compose(circ, oaa.Pi3Plan(k=12))
        assert grown.spec.lambdas[0] <= 1.0
        assert rus.success_probability(grown, PROBE) <= 1.0 + 1e-14

    @pytest.mark.parametrize("k", [20, 40])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_drifting_recursion_rejected(self, k):
        # Rounding grows threefold per level; by k = 40 it overflows to NaN.
        circ = conftest.make_circuit(0.1, m=1)
        with pytest.raises(ValueError, match="unitarity residual"):
            oaa.pi3_compose(circ, oaa.Pi3Plan(k=k))


class TestChebyshev:
    def test_integer_orders(self):
        xs = np.linspace(-1.0, 1.0, 41)
        np.testing.assert_allclose(
            [oaa.chebyshev_first_kind(2, x) for x in xs],
            2.0 * xs**2 - 1.0,
            atol=1e-12,
        )
        assert oaa.chebyshev_first_kind(0, 0.3) == pytest.approx(1.0)

    def test_outside_interval_uses_cosh(self):
        x = 1000.0
        got = oaa.chebyshev_first_kind(1.0 / 11.0, x)
        assert got == pytest.approx(math.cosh(math.acosh(x) / 11.0), abs=1e-12)
        assert got == pytest.approx(1.24839, abs=1e-4)

    def test_matches_cos_definition_inside(self):
        for order in (0.5, 1.0 / 7.0, 3.0):
            for x in (0.1, 0.5, 0.99):
                assert oaa.chebyshev_first_kind(order, x) == pytest.approx(
                    math.cos(order * math.acos(x)), abs=1e-12
                )


class TestFixedPoint:
    def test_length_thresholds(self):
        assert oaa.fp_length_for(0.36, 1e-6) == 5
        assert oaa.fp_length_for(0.4, 1e-6) == 5
        assert oaa.fp_length_for(0.5, 1e-6) == 4

    def test_threshold_asymptotics(self):
        # w(L) ~ (ln(2/sqrt(delta)) / (2L))^2 for large L
        delta = 1e-6
        for L in (20, 40):
            plan = oaa.fp_plan(L, delta)
            approx = (math.log(2.0 / math.sqrt(delta)) / (2 * L)) ** 2
            assert plan.w == pytest.approx(approx, rel=0.2)

    def test_plan_phase_structure(self):
        plan = oaa.fp_plan(3, 1e-4)
        assert len(plan.phis) == 3
        assert all(-2.0 * math.pi < p < 0.0 for p in plan.phis)
        np.testing.assert_allclose(plan.varphis, plan.phis[::-1])

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_guarantee_above_threshold(self, delta):
        L = oaa.fp_length_for(0.36, delta)
        plan = oaa.fp_plan(L, delta)
        for lambda0 in np.linspace(plan.w, 0.99, 12):
            circ = conftest.make_circuit(float(lambda0), m=1)
            grown = oaa.fp_compose(circ, plan)
            assert rus.success_probability(grown, PROBE) >= 1.0 - delta - 1e-12

    def test_boundary_equality(self):
        plan = oaa.fp_plan(4, 1e-6)
        circ = conftest.make_circuit(plan.w, m=1)
        grown = oaa.fp_compose(circ, plan)
        assert rus.success_probability(grown, PROBE) == pytest.approx(
            1.0 - 1e-6, abs=1e-12
        )

    def test_certain_input_stays_certain(self):
        plan = oaa.fp_plan(2, 1e-3)
        circ = conftest.make_circuit(1.0, m=1, trivial_recoveries=True)
        grown = oaa.fp_compose(circ, plan)
        assert rus.success_probability(grown, PROBE) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_oracle_agreement(self):
        plan = oaa.fp_plan(3, 1e-3)
        for lambda0 in (0.3, 0.5, 0.8):
            circ = conftest.make_circuit(lambda0, m=2)
            grown = oaa.fp_compose(circ, plan)
            amp, _ = conftest.two_level_amplitudes(
                lambda0, list(zip(plan.phis, plan.varphis))
            )
            assert rus.success_probability(grown, PROBE) == pytest.approx(
                abs(amp) ** 2, abs=1e-10
            )


    def test_near_root_failure_weight(self):
        # lambda0 sits near a root of T_{2L+1}: the composed failure weight
        # is 1.4e-10, where rounding in a dense product broke the extracted
        # block structure.
        plan = oaa.fp_plan(800, 1e-6)
        circ = conftest.make_circuit(3.116e-5, m=1)
        grown = oaa.fp_compose(circ, plan)
        _, fail = conftest.two_level_amplitudes(
            3.116e-5, list(zip(plan.phis, plan.varphis))
        )
        assert grown.spec.lambdas[0] >= 1.0 - 1e-6
        assert grown.spec.lambdas[1] == pytest.approx(abs(fail) ** 2, rel=1e-6)

    def test_length_limit(self):
        with pytest.raises(ValueError, match="more than"):
            oaa.fp_length_for(1e-300, 1e-3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        w_bound=st.floats(1e-9, 1.0),
        delta=st.floats(1e-12, 0.5),
    )
    def test_length_is_minimal(self, w_bound, delta):
        L = oaa.fp_length_for(w_bound, delta)
        assert oaa.fp_plan(L, delta).w <= w_bound
        if L > 1:
            assert oaa.fp_plan(L - 1, delta).w > w_bound


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 4),
    lambda0=st.floats(0.02, 0.98),
    kind=st.sampled_from(["standard", "deterministic", "pi3", "fp"]),
    size=st.integers(0, 3),
    inverse_base=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_two_level_path_matches_dense_reference(
    m, lambda0, kind, size, inverse_base, seed
):
    base = conftest.make_circuit(lambda0, m=m, rng=qcore.rng_stream(seed), seed=seed)
    if inverse_base:
        base = rus.inverse_rus(base)
    if kind == "standard":
        got = oaa.standard_compose(base, size)
        want = conftest.dense_phase_schedule(base, [(math.pi, math.pi)] * size)
    elif kind == "deterministic":
        plan = oaa.plan_deterministic(base.spec.lambda0)
        got = oaa.deterministic_compose(base, plan)
        want = conftest.dense_phase_schedule(base, conftest.deterministic_pairs(plan))
    elif kind == "pi3":
        sign = 1 if seed % 2 else -1
        got = oaa.pi3_compose(base, oaa.Pi3Plan(k=size, sign=sign))
        want = conftest.dense_pi3(base, size, sign)
    else:
        plan = oaa.fp_plan(size + 1, 10.0 ** -(seed % 6 + 1))
        got = oaa.fp_compose(base, plan)
        want = conftest.dense_phase_schedule(base, list(zip(plan.phis, plan.varphis)))
    np.testing.assert_allclose(got.a_matrix.mat[:, :2], want[:, :2], atol=1e-12)
    blocks = want[:, :2].reshape(2**m, 2, 2)
    np.testing.assert_allclose(
        got.spec.lambdas, np.sum(np.abs(blocks) ** 2, axis=(1, 2)) / 2.0, atol=1e-12
    )
    # Each gate carries its branch phase: sqrt(lambda'_i) W'_i is block i.
    for weight, gate, block in zip(got.spec.lambdas, got.spec.branch_gates(), blocks):
        np.testing.assert_allclose(np.sqrt(weight) * gate.mat, block, atol=1e-12)
    inverse_blocks = want.conj().T[:, :2].reshape(2**m, 2, 2)
    np.testing.assert_allclose(
        rus.inverse_rus(got).spec.lambdas,
        np.sum(np.abs(inverse_blocks) ** 2, axis=(1, 2)) / 2.0,
        atol=1e-12,
    )


class TestPlanSerialization:
    @pytest.mark.parametrize(
        "plan",
        [
            oaa.StandardPlan(j=2, theta=0.5),
            oaa.plan_deterministic(0.3),
            oaa.Pi3Plan(k=2, sign=-1),
            oaa.fp_plan(3, 1e-4),
        ],
        ids=["standard", "deterministic", "pi3", "fixed_point"],
    )
    def test_round_trip(self, plan):
        again = oaa.plan_from_dict(oaa.plan_to_dict(plan))
        assert type(again) is type(plan)
        for name, value in vars(plan).items():
            got = getattr(again, name)
            if isinstance(value, tuple):
                np.testing.assert_allclose(got, value)
            else:
                assert got == value
