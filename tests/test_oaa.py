import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("j", [2.5, math.nan, math.inf, True, -1, "2"])
    def test_iterate_count_is_a_non_negative_integer(self, j):
        circ = conftest.make_circuit(0.3, m=1)
        with pytest.raises(ValueError, match="iteration count j must be a non-negative integer"):
            oaa.standard_compose(circ, j)

    @pytest.mark.parametrize("j", [oaa.FP_MAX_LENGTH + 1, 10**8])
    def test_iterate_count_limit(self, j):
        # Checked before any j-sized array exists: 10**8 iterates would
        # need a 6.4 GB stack of 2x2 products.
        circ = conftest.make_circuit(0.3, m=1)
        with pytest.raises(ValueError, match="more than"):
            oaa.standard_compose(circ, j)


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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(lambda0=st.floats(1e-6, 1.0), m=st.integers(1, 3))
    @example(lambda0=0.25, m=1)
    @example(lambda0=1.0, m=2)
    def test_composed_success_is_one(self, lambda0, m):
        circ = conftest.make_circuit(lambda0, m=m)
        plan = oaa.plan_deterministic(circ.spec.lambda0)
        composed = oaa.deterministic_compose(circ, plan)
        assert composed.spec.lambda0 == pytest.approx(1.0, abs=1e-12)

    def test_iterate_count_limit(self):
        plan = oaa.plan_deterministic(1e-13)
        assert plan.j > oaa.FP_MAX_LENGTH
        circ = conftest.make_circuit(1e-13, m=1)
        with pytest.raises(ValueError, match="more than"):
            oaa.deterministic_compose(circ, plan)

    def test_rejects_mismatched_circuit(self):
        plan = oaa.plan_deterministic(0.5)
        circ = conftest.make_circuit(0.3, m=1)
        with pytest.raises(ValueError):
            oaa.apply_deterministic(circ, plan, PROBE)

    # j = 1.0 once reached NumPy's TypeError, j = True composed one iterate,
    # and a NaN phi read as "unitarity residual nan".
    @pytest.mark.parametrize("j", [1.0, True, -1, math.nan])
    def test_iteration_count_is_a_non_negative_integer(self, j):
        circ = conftest.make_circuit(0.3, m=1)
        plan = oaa.plan_deterministic(0.3)._replace(j=j)
        with pytest.raises(ValueError, match="plan field j must be a non-negative integer"):
            oaa.deterministic_compose(circ, plan)

    @pytest.mark.parametrize("field", ["chi", "phi", "varphi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_phases_are_finite(self, field, value):
        circ = conftest.make_circuit(0.3, m=1)
        plan = oaa.plan_deterministic(0.3)._replace(**{field: value})
        with pytest.raises(ValueError, match=f"plan field {field} must be a finite number"):
            oaa.deterministic_compose(circ, plan)


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

    @pytest.mark.parametrize("k", [math.nan, 2.5, math.inf, True, -1, "3"])
    def test_depth_is_a_non_negative_integer(self, k):
        with pytest.raises(ValueError, match="recursion depth k must be a non-negative integer"):
            oaa.Pi3Plan(k=k)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, 0, 2])
    def test_sign_is_one_or_minus_one(self, sign):
        # True and 1.0 compare equal to 1, and were once taken for it.
        with pytest.raises(ValueError, match="1 or -1, got"):
            oaa.Pi3Plan(k=1, sign=sign)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [1, 4])
    def test_matches_the_dense_recursion(self, m, sign):
        # The scalar recursion and the dense one round apart, and the gap
        # triples per level: 4.8e-11 at k = 12.  At k = 12 either may drift
        # past UNITARY_ATOL (ROADMAP item 2); no shallower level may.
        for k in range(13):
            for seed, lambda0 in enumerate((0.1, 0.3, 0.5)):
                base = conftest.make_circuit(lambda0, m=m, rng=qcore.rng_stream(seed))
                want = conftest.dense_pi3(base.a_matrix.mat, k, sign)[:, :2]
                try:
                    got = oaa.pi3_compose(base, oaa.Pi3Plan(k=k, sign=sign))
                except ValueError as exc:
                    assert k == 12 and "unitarity residual" in str(exc)
                    continue
                assert np.abs(got.columns - want).max() <= 3**k * 2e-15

    def test_level_for(self):
        assert oaa.pi3_level_for(0.5, 1e-6) == 3
        assert oaa.pi3_level_for(0.9, 1e-6) == 5
        assert oaa.pi3_level_for(0.5, 0.9) == 0
        with pytest.raises(ValueError):
            oaa.pi3_level_for(1.0, 1e-6)

    @pytest.mark.parametrize("epsilon", [math.nan, -0.5, -math.inf, math.inf])
    def test_level_for_rejects_invalid_failure(self, epsilon):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            oaa.pi3_level_for(epsilon, 1e-3)

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
        for m in (1, 4):
            circ = conftest.make_circuit(0.1, m=m)
            with pytest.raises(ValueError, match="unitarity residual"):
                oaa.pi3_compose(circ, oaa.Pi3Plan(k=k))


class TestFixedPoint:
    def test_length_thresholds(self):
        assert oaa.fp_length_for(0.36, 1e-6) == 5
        assert oaa.fp_length_for(0.4, 1e-6) == 5
        assert oaa.fp_length_for(0.5, 1e-6) == 4

    def test_deep_length_is_minimal(self):
        # At 50 digits, w(3,800,450) = 1.0000003182622e-12 lies above the
        # bound and w(3,800,451) = 9.9999979200879e-13 below it.
        assert oaa.fp_length_for(1e-12, 1e-6) == 3_800_451

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

    @pytest.mark.parametrize("L", [2_000, 6_557, 120_181])
    def test_matches_closed_form(self, L):
        delta = 1e-6
        plan = oaa.fp_plan(L, delta)
        # Below, at and above the threshold w, where the guarantee starts.
        for lambda0 in (plan.w / 4.0, plan.w, 0.01, 0.9):
            grown = oaa.fp_compose(conftest.make_circuit(lambda0, m=1), plan)
            assert grown.spec.lambdas[0] == pytest.approx(
                conftest.fixed_point_success(lambda0, L, delta), abs=1e-12
            )

    @pytest.mark.parametrize("L", [1, 7, 320, 2000, 10**5])
    def test_phases_match_the_scalar_formula(self, L):
        # NumPy's tan and arctan2 may round an ulp apart from math's; near
        # tan's pole an angle rounded another way moves a phase by ~1e-11.
        for delta in (1e-2, 1e-6):
            plan = oaa.fp_plan(L, delta)
            spread = math.sqrt(plan.w)
            loop = [-2.0 * math.atan2(1.0, math.tan(2.0 * math.pi * j / (2 * L + 1)) * spread)
                    for j in range(1, L + 1)]
            assert np.abs(plan.phis - loop).max() <= 4 * np.spacing(2.0 * math.pi)

    def test_length_limit(self):
        with pytest.raises(ValueError, match="more than"):
            oaa.fp_plan(oaa.FP_MAX_LENGTH + 1, 1e-3)

    @pytest.mark.parametrize("L", [2.5, math.nan, math.inf, True, "3"])
    def test_length_is_an_integer(self, L):
        # 2.5 gave a plan of length 2.5 with three phases.
        with pytest.raises(ValueError, match="schedule length L must be an integer"):
            oaa.fp_plan(L, 1e-3)

    def test_sizing_has_no_length_limit(self):
        # Sizing is closed form; only materializing the phases is capped.
        L = oaa.fp_length_for(1e-12, 1e-6)
        assert L > oaa.FP_MAX_LENGTH
        with pytest.raises(ValueError, match="more than"):
            oaa.fp_plan(L, 1e-6)

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


# Schedule lengths on both sides of the switch from scalars to NumPy passes.
STRADDLING = [3, oaa.SCALAR_SCHEDULE_LENGTH - 1, oaa.SCALAR_SCHEDULE_LENGTH,
              oaa.SCALAR_SCHEDULE_LENGTH + 5]


class TestFixedPointPlanChecks:
    """A plan is checked where it is built, so no schedule reads a malformed
    one: the scalar path pairs phases with ``zip``, which stops at the
    shorter array."""

    @staticmethod
    def _fields(L):
        plan = oaa.fp_plan(L, 1e-3)
        return {"L": L, "delta": plan.delta, "gamma": plan.gamma, "w": plan.w,
                "phis": plan.phis, "varphis": plan.varphis}

    @pytest.mark.parametrize("L", STRADDLING)
    def test_fp_plan_fields_rebuild_the_plan(self, L):
        plan = oaa.FixedPointPlan(**self._fields(L))
        base = conftest.make_circuit(0.3, m=1)
        want = oaa.fp_compose(base, oaa.fp_plan(L, 1e-3))
        assert oaa.fp_compose(base, plan).columns.tobytes() == want.columns.tobytes()

    @pytest.mark.parametrize("L", STRADDLING)
    @pytest.mark.parametrize("field", ["phis", "varphis"])
    @pytest.mark.parametrize("bad", ["longer", "shorter", "nan", "inf", "2-D", "list", "int"])
    def test_malformed_phases_are_named(self, L, field, bad):
        fields = self._fields(L)
        phases = fields[field]
        fields[field] = {
            "longer": np.append(phases, 0.5),
            "shorter": phases[:-1],
            "nan": np.where(np.arange(L) == L // 2, np.nan, phases),
            "inf": np.where(np.arange(L) == 0, -np.inf, phases),
            "2-D": phases[None],
            "list": phases.tolist(),
            "int": np.arange(L),
        }[bad]
        with pytest.raises(ValueError, match=f"FixedPointPlan.{field} must be a 1-D float array"):
            oaa.FixedPointPlan(**fields)

    @pytest.mark.parametrize("L", [2.5, -1, True])
    def test_length_is_a_non_negative_integer(self, L):
        fields = self._fields(3)
        fields["L"] = L
        with pytest.raises(ValueError, match="schedule length L must be a non-negative integer"):
            oaa.FixedPointPlan(**fields)


class TestPairwiseProduct:
    """The schedule is multiplied as a tree; each length splits the stack
    [A, G_1, ..., G_L] into its own pattern of even and odd passes."""

    @staticmethod
    def _assert_amplitudes(grown, base, pairs):
        # Block i of the composed circuit is t_i0 times the base's gate i.
        t00, t10 = conftest.two_level_amplitudes(base.spec.lambda0, pairs)
        blocks = grown.a_matrix.mat[:, :2].reshape(2, 2, 2)
        gates = base.spec.branch_gates()
        np.testing.assert_allclose(blocks[0], t00 * gates[0].mat, atol=1e-12)
        np.testing.assert_allclose(blocks[1], t10 * gates[1].mat, atol=1e-12)

    @pytest.mark.parametrize("L", range(34))
    def test_standard_matches_sequential_product(self, L):
        base = conftest.make_circuit(0.03, m=1)
        grown = oaa.standard_compose(base, L)
        self._assert_amplitudes(grown, base, [(math.pi, math.pi)] * L)

    @pytest.mark.parametrize("L", range(1, 34))
    def test_fixed_point_matches_sequential_product(self, L):
        base = conftest.make_circuit(0.03, m=1)
        plan = oaa.fp_plan(L, 1e-4)
        grown = oaa.fp_compose(base, plan)
        self._assert_amplitudes(grown, base, list(zip(plan.phis, plan.varphis)))

    @pytest.mark.parametrize("L", [5, 8, 13])
    def test_matches_dense_reference(self, L):
        base = conftest.make_circuit(0.2, m=2, rng=qcore.rng_stream(L))
        plan = oaa.fp_plan(L, 1e-3)
        for got, pairs in (
            (oaa.standard_compose(base, L), [(math.pi, math.pi)] * L),
            (oaa.fp_compose(base, plan), list(zip(plan.phis, plan.varphis))),
        ):
            want = conftest.dense_phase_schedule(base.a_matrix.mat, pairs)[:, :2]
            np.testing.assert_allclose(got.a_matrix.mat[:, :2], want, atol=1e-12)


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
    dense = base.a_matrix.mat
    if kind == "standard":
        got = oaa.standard_compose(base, size)
        want = conftest.dense_phase_schedule(dense, [(math.pi, math.pi)] * size)
    elif kind == "deterministic":
        plan = oaa.plan_deterministic(base.spec.lambda0)
        got = oaa.deterministic_compose(base, plan)
        want = conftest.dense_phase_schedule(dense, conftest.deterministic_pairs(plan))
    elif kind == "pi3":
        sign = 1 if seed % 2 else -1
        got = oaa.pi3_compose(base, oaa.Pi3Plan(k=size, sign=sign))
        want = conftest.dense_pi3(dense, size, sign)
    else:
        plan = oaa.fp_plan(size + 1, 10.0 ** -(seed % 6 + 1))
        got = oaa.fp_compose(base, plan)
        want = conftest.dense_phase_schedule(dense, list(zip(plan.phis, plan.varphis)))
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


COMPOSITIONS = {
    "standard": lambda c: oaa.standard_compose(c, 2),
    "deterministic": lambda c: oaa.deterministic_compose(
        c, oaa.plan_deterministic(c.spec.lambda0)
    ),
    "pi3": lambda c: oaa.pi3_compose(c, oaa.Pi3Plan(k=3)),
    "pi3:neg": lambda c: oaa.pi3_compose(c, oaa.Pi3Plan(k=3, sign=-1)),
    "fp": lambda c: oaa.fp_compose(c, oaa.fp_plan(20, 1e-3)),
}


class TestComposedColumns:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("protocol", list(COMPOSITIONS))
    def test_match_the_dense_composition(self, protocol, m):
        # sqrt(lambda'_i) W'_i against the first two columns of A X.
        for seed in range(4):
            rng = qcore.rng_stream(70 + 10 * m + seed)
            base = conftest.make_circuit(float(rng.uniform(0.05, 0.6)), m=m, rng=rng)
            grown = COMPOSITIONS[protocol](base)
            assert np.abs(grown.columns - grown.a_matrix.mat[:, :2]).max() <= 1e-15

    def test_nested_composition_matches_the_dense_one(self):
        base = conftest.make_circuit(0.1, m=2, rng=qcore.rng_stream(3))
        grown = oaa.fp_compose(oaa.standard_compose(base, 1), oaa.fp_plan(5, 1e-3))
        assert np.abs(grown.columns - grown.a_matrix.mat[:, :2]).max() <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("protocol", list(COMPOSITIONS))
    def test_inverse_bases_match_the_dense_composition(self, protocol, m):
        # An inverse's gates and weights come from its base's complement.
        for seed in range(4):
            rng = qcore.rng_stream(170 + 10 * m + seed)
            base = conftest.make_circuit(float(rng.uniform(0.05, 0.6)), m=m, rng=rng)
            grown = COMPOSITIONS[protocol](rus.inverse_rus(base))
            assert np.abs(grown.columns - grown.a_matrix.mat[:, :2]).max() <= 1e-15

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("outer", list(COMPOSITIONS))
    @pytest.mark.parametrize("inner", list(COMPOSITIONS))
    def test_nested_compositions_match_the_dense_ones(self, inner, outer, m):
        # The outer composition's A is the inner one's A X, built on demand,
        # so the dense reference rounds twice: at m = 3 the columns formed
        # as (a t)_00 C + (a t)_10 P differ from it by up to 1.2e-15 too.
        rng = qcore.rng_stream(270 + m)
        base = conftest.make_circuit(float(rng.uniform(0.05, 0.6)), m=m, rng=rng)
        grown = COMPOSITIONS[outer](COMPOSITIONS[inner](base))
        assert np.abs(grown.columns - grown.a_matrix.mat[:, :2]).max() <= 2e-15

    def test_state_helpers_read_the_columns(self):
        rng = qcore.rng_stream(31)
        base = conftest.make_circuit(0.3, m=3, rng=rng)
        psi = qcore.random_state(1, rng)
        plan = oaa.plan_deterministic(base.spec.lambda0)
        for state, grown in [
            (oaa.standard_oaa_state(base, 1, psi), oaa.standard_compose(base, 1)),
            (oaa.apply_deterministic(base, plan, psi), oaa.deterministic_compose(base, plan)),
        ]:
            assert np.array_equal(state.amps, grown.columns @ psi.amps)



class TestSu2Kernel:
    """``oaa._schedule`` against the polar factor of
    ``conftest.batched_schedule``, the batched 2x2 products it replaced."""

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 7, *STRADDLING[1:], 50, 320, 999, 2000])
    def test_matches_batched_products(self, m, L):
        # The standard schedule repeats one iterate, so its rounding adds up
        # in step: at L = 2000 kernel and oracle alike reach 1.0-1.5e-13
        # against a 50-digit product, and the bound would test the oracle.
        for seed, lambda0 in enumerate((0.003, 0.13, 0.77)):
            base = conftest.make_circuit(lambda0, m=m, rng=qcore.rng_stream(seed))
            s, co, _ = oaa._plane(base.spec)
            schedules = [(np.full(L, math.pi),) * 2] if L < 2000 else []
            if L:
                plan = oaa.fp_plan(L, 1e-3)
                schedules.append((plan.phis, plan.varphis))
            for phis, varphis in schedules:
                want = conftest.polar(np.array(conftest.batched_schedule(s, co, phis, varphis)))
                got = np.array(oaa._schedule(s, co, phis, varphis))
                assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("protocol", ["standard", "fp"])
    def test_scalar_and_array_paths_agree(self, monkeypatch, protocol):
        # Every length from 0 to twice the switch, each multiplied both ways.
        s, co, _ = oaa._plane(conftest.make_circuit(0.13, m=1).spec)
        schedules = []
        for L in range(2 * oaa.SCALAR_SCHEDULE_LENGTH + 1):
            if protocol == "standard":
                schedules.append((np.full(L, math.pi),) * 2)
            elif L:
                plan = oaa.fp_plan(L, 1e-3)
                schedules.append((plan.phis, plan.varphis))
        paths = []
        for switch in (0, 10**9):
            monkeypatch.setattr(oaa, "SCALAR_SCHEDULE_LENGTH", switch)
            paths.append([np.array(oaa._schedule(s, co, *pair)) for pair in schedules])
        # NumPy fuses the multiply-adds of a complex product where Python
        # rounds twice, so the paths part by an ulp or so a tree level:
        # up to 1.3e-15 at L <= 80 over six lambda0 in [0.003, 0.77].
        for array, scalar in zip(*paths):
            assert np.abs(array - scalar).max() <= 2e-15

    def test_lengths_around_powers_of_two(self):
        # Identity columns pad these stacks, or none; against a sequential product.
        base = conftest.make_circuit(0.2, m=1)
        s, co, _ = oaa._plane(base.spec)
        for L in (6, 7, 8, 15, 16, 17):
            plan = oaa.fp_plan(L, 1e-2)
            t00, t10 = conftest.two_level_amplitudes(0.2, list(zip(plan.phis, plan.varphis)))
            (got00, _), (got10, _) = oaa._schedule(s, co, plan.phis, plan.varphis)
            assert abs(got00 - t00) <= 1e-14 and abs(got10 - t10) <= 1e-14


# m = 1 with a Hadamard target, where the old batched products drifted past
# qcore.UNITARY_ATOL at the length limit (residuals 1.98e-10 and 2.55e-10).
DEEP_LAMBDA0 = 0.9974754473483037


def _deep_circuit() -> rus.RusCircuit:
    spec = rus.RusSpec(m=1, lambdas=np.array([DEEP_LAMBDA0, 1.0 - DEEP_LAMBDA0]),
                       target=qcore.HADAMARD, seed=0)
    return rus.build_rus_unitary(spec)


class TestDeepSchedules:
    def test_fixed_point_at_the_length_limit(self):
        L = oaa.FP_MAX_LENGTH
        grown = oaa.fp_compose(_deep_circuit(), oaa.fp_plan(L, 1e-6))
        assert grown.spec.lambdas[0] == pytest.approx(
            conftest.fixed_point_success(DEEP_LAMBDA0, L, 1e-6), abs=1e-12
        )

    def test_standard_at_the_length_limit(self):
        j = oaa.FP_MAX_LENGTH
        grown = oaa.standard_compose(_deep_circuit(), j)
        # sin^2((2j + 1) theta) in 50-digit arithmetic (mpmath); in doubles
        # the angle alone is off by 1.2e-9.
        assert grown.spec.lambdas[0] == pytest.approx(0.08852041007064794, abs=1e-9)

    @pytest.mark.parametrize("L", [10**3, 10**4, 10**5, 10**6])
    def test_schedule_is_unitary_to_rounding(self, L):
        s, co, _ = oaa._plane(_deep_circuit().spec)
        plan = oaa.fp_plan(L, 1e-6)
        pis = np.full(L, math.pi)
        for rows in (oaa._schedule(s, co, plan.phis, plan.varphis), oaa._schedule(s, co, pis, pis)):
            t = np.array(rows)
            assert np.abs(t.conj().T @ t - np.eye(2)).max() <= 1e-14
