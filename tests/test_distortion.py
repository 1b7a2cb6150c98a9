import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from rusamp import distortion, oaa, qcore, rus

BALANCED = complex(1.0 / math.sqrt(2.0))


def _config(trials=1, seed=0, alpha=BALANCED, beta=BALANCED, **kw):
    return distortion.DistortionConfig(
        alpha=alpha,
        beta=beta,
        psi0=qcore.basis_state(1),
        psi1=qcore.basis_state(1),
        trials=trials,
        seed=seed,
        **kw,
    )


class TestBuildDistorter:
    def test_single_ancilla_exact_rotation(self):
        d = distortion.build_distorter(np.array([0.36, 0.64]))
        np.testing.assert_allclose(
            d.mat, np.array([[0.6, -0.8], [0.8, 0.6]]), atol=1e-12
        )

    def test_larger_register_first_column(self):
        # The real symmetric reflection with first column sqrt(gamma), exactly.
        for m in (2, 3, 4):
            gammas = qcore.rng_stream(m).random(2**m)
            gammas /= gammas.sum()
            d = distortion.build_distorter(gammas)
            assert np.array_equal(d.mat, qcore.householder(np.sqrt(gammas)))
            assert d.mat[:, 0].real.tobytes() == np.sqrt(gammas).tobytes()
            assert np.array_equal(d.mat, d.mat.T) and not d.mat.imag.any()
            np.testing.assert_allclose(d.mat @ d.mat.conj().T, np.eye(2**m), atol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            distortion.build_distorter(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            distortion.build_distorter(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            distortion.build_distorter(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            distortion.build_distorter(np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            distortion.build_distorter(np.array([1e308, 1e308, 0.0, 0.0]))


def _assert_frame(cc, gammas):
    # Success block: sqrt(gamma_0) I on control |0>, A's success block on
    # control |1>; failure i reweights the branches by (sqrt(gamma_i),
    # sqrt(lambda_i)), interleaved over the control.
    success = cc.frame.success
    np.testing.assert_allclose(
        success[0::2, 0::2], math.sqrt(gammas[0]) * np.eye(2), atol=1e-12
    )
    np.testing.assert_array_equal(success[1::2, 1::2], cc.base.a_matrix.mat[:2, :2])
    np.testing.assert_array_equal(success[0::2, 1::2], 0.0)
    np.testing.assert_array_equal(success[1::2, 0::2], 0.0)
    lambdas = cc.base.spec.lambdas
    masses = np.empty((len(lambdas), 4))
    masses[:, 0::2] = np.asarray(gammas)[:, None]
    masses[:, 1::2] = lambdas[:, None]
    np.testing.assert_allclose(np.diff(cc.frame.cumulative, axis=0, prepend=0.0),
                               masses[cc.frame.reachable], rtol=0, atol=1e-12)
    for row in (0, 2):
        np.testing.assert_allclose(
            cc.frame.diagonals[:, row], np.sqrt(gammas[1:]), atol=1e-12
        )
        np.testing.assert_allclose(
            cc.frame.diagonals[:, row + 1], np.sqrt(lambdas[1:]), atol=1e-12
        )


class TestBuildConditional:
    def test_control_blocks(self):
        for m, gammas in ((1, [0.36, 0.64]), (2, [0.4, 0.3, 0.2, 0.1])):
            base = conftest.make_circuit(0.3, m=m)
            cc = distortion.build_conditional(base, np.array(gammas), seed=1)
            _assert_frame(cc, gammas)

    def test_undistorted_idle_is_identity(self):
        base = conftest.make_circuit(0.3, m=2)
        cc = distortion.build_conditional(base)
        _assert_frame(cc, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(cc.frame.success[0::2, 0::2], np.eye(2))
        assert cc.distorter is None and cc.gammas is None

    def test_weight_length_checked(self):
        base = conftest.make_circuit(0.3, m=2)
        with pytest.raises(ValueError):
            distortion.build_conditional(base, np.array([0.5, 0.5]))


class TestClosedForms:
    def test_single_shot_spots(self):
        assert distortion.single_shot_overlap(0.25) == pytest.approx(0.9, abs=1e-12)
        assert distortion.single_shot_overlap(0.0) == pytest.approx(0.5)
        assert distortion.single_shot_overlap(1.0) == pytest.approx(1.0)

    def test_m1_matches_general_form(self):
        rng = qcore.rng_stream(14)
        for _ in range(50):
            g0, l0 = rng.uniform(0.0, 1.0, size=2)
            a = math.sqrt(rng.uniform(0.0, 1.0))
            b = math.sqrt(1.0 - a * a)
            general = distortion.average_fidelity_closed(
                a, b, np.array([g0, 1.0 - g0]), np.array([l0, 1.0 - l0])
            )
            reduced = distortion.average_fidelity_m1(a, b, g0, l0)
            assert general == pytest.approx(reduced, abs=1e-14)

    def test_matched_weights_are_distortion_free(self):
        rng = qcore.rng_stream(15)
        for _ in range(20):
            weights = rng.random(4)
            weights /= weights.sum()
            got = distortion.average_fidelity_closed(
                BALANCED, BALANCED, weights, weights
            )
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_blocked_branch_leaves_diagonal(self):
        # gamma_0 lambda_0 = 0: the branches never share a success outcome
        a = math.sqrt(0.3)
        b = math.sqrt(0.7)
        got = distortion.average_fidelity_m1(a, b, 0.0, 0.6)
        assert got == pytest.approx(0.3**2 + 0.7**2, abs=1e-14)

    def test_balanced_spot_value(self):
        assert distortion.average_fidelity_m1(
            BALANCED, BALANCED, 1.0, 0.25
        ) == pytest.approx(0.75, abs=1e-14)

    # Warnings as errors: huge weights are rejected before their sum overflows.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "gammas",
        [[np.nan, 0.5], [-0.2, 1.2], [1.0, 1.0], [0.5, 0.5 + 1e-9], [1e308, 1e308]],
        ids=["nan", "negative", "sum-two", "sum-off", "overflow"],
    )
    def test_rejects_bad_weights(self, gammas):
        lambdas = np.array([0.3, 0.7])
        with pytest.raises(ValueError):
            distortion.average_fidelity_closed(BALANCED, BALANCED, gammas, lambdas)
        with pytest.raises(ValueError):
            distortion.average_fidelity_closed(BALANCED, BALANCED, lambdas, gammas)

    def test_trivial_control_is_exact(self):
        assert distortion.average_fidelity_m1(1.0, 0.0, 0.3, 0.7) == pytest.approx(1.0)
        assert distortion.average_fidelity_m1(0.0, 1.0, 0.3, 0.7) == pytest.approx(1.0)


class TestConfigValidation:
    def test_unnormalized_control(self):
        for alpha in (1.0, np.nan, complex(np.nan, 0.0), np.inf):
            with pytest.raises(ValueError):
                _config(alpha=alpha, beta=0.5)

    def test_trial_count(self):
        with pytest.raises(ValueError):
            _config(trials=0)

    def test_attempt_cap(self):
        with pytest.raises(ValueError):
            _config(trials=10, max_attempts=0)


class TestSimulate:
    def test_immediate_success_overlap(self):
        # undistorted circuit, first attempt succeeds: the surviving state
        # has exactly the single-shot overlap with the ideal one
        base = conftest.make_circuit(0.25, m=1)
        cc = distortion.build_conditional(base)
        cfg = _config(trials=1, seed=0)
        ideal = distortion.ideal_conditional_state(cc, cfg)
        rng = qcore.rng_stream(8)
        seen = 0
        while seen < 20:
            record, final = distortion.simulate_conditional_rus(cc, cfg, rng)
            if record.attempts > 1:
                continue
            seen += 1
            assert qcore.fidelity(final, ideal) == pytest.approx(0.9, abs=1e-12)

    def test_sequence_weights_predict_each_run(self):
        # every outcome sequence fixes the final overlap exactly
        rng = qcore.rng_stream(9)
        base = conftest.make_circuit(0.25, m=2, rng=rng)
        gammas = np.array([0.3, 0.4, 0.2, 0.1])
        cc = distortion.build_conditional(base, gammas, seed=2)
        cfg = _config(trials=1, seed=0)
        ideal = distortion.ideal_conditional_state(cc, cfg)
        lambdas = base.spec.lambdas
        for _ in range(200):
            record, final = distortion.simulate_conditional_rus(cc, cfg, rng)
            g = math.sqrt(np.prod(gammas[list(record.outcomes)]))
            l = math.sqrt(np.prod(lambdas[list(record.outcomes)]))
            predicted = (0.5 * g + 0.5 * l) ** 2 / (0.5 * g * g + 0.5 * l * l)
            assert qcore.fidelity(final, ideal) == pytest.approx(
                predicted, abs=1e-12
            )

    def test_sequence_frequency(self):
        base = conftest.make_circuit(0.25, m=1)
        cc = distortion.build_conditional(base, np.array([0.5, 0.5]))
        cfg = _config(trials=1, seed=0)
        rng = qcore.rng_stream(10)
        n = 10_000
        # (data, control) amplitudes, control least significant.
        start = (np.kron(cfg.psi0.amps, [cfg.alpha, 0])
                 + np.kron(cfg.psi1.amps, [0, cfg.beta]))
        batch = rus.run_batch(cc.frame, start, n, rng)
        hits = batch.sequences().count((1, 0))
        # p = |alpha|^2 gamma_1 gamma_0 + |beta|^2 lambda_1 lambda_0
        p = 0.5 * (0.5 * 0.5) + 0.5 * (0.75 * 0.25)
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) < 4.0 * sigma

    def test_branch_phase_stays_zero(self):
        base = conftest.make_circuit(0.4, m=1, trivial_recoveries=True)
        cc = distortion.build_conditional(base, np.array([0.6, 0.4]))
        cfg = _config(trials=1, seed=0)
        rng = qcore.rng_stream(11)
        target = base.spec.target.mat @ cfg.psi1.amps
        for _ in range(20):
            _, final = distortion.simulate_conditional_rus(cc, cfg, rng)
            assert abs(np.angle(np.vdot(target, final.amps[1::2]))) < 1e-9


class TestMonteCarlo:
    def test_matches_closed_form_m1(self):
        base = conftest.make_circuit(0.25, m=1)
        cc = distortion.build_conditional(base)
        est = distortion.monte_carlo_fidelity(cc, _config(trials=20_000, seed=21))
        assert est.trials == 20_000
        assert est.exhausted == 0
        assert abs(est.mean - 0.75) < 4.0 * est.std_error

    def test_matches_closed_form_m2(self):
        rng = qcore.rng_stream(22)
        base = conftest.make_circuit(0.35, m=2, rng=rng)
        gammas = np.array([0.45, 0.25, 0.2, 0.1])
        cc = distortion.build_conditional(base, gammas, seed=4)
        closed = distortion.average_fidelity_closed(
            BALANCED, BALANCED, gammas, base.spec.lambdas
        )
        est = distortion.monte_carlo_fidelity(cc, _config(trials=20_000, seed=23))
        assert abs(est.mean - closed) < 4.0 * est.std_error

    def test_agrees_with_dense_reference(self):
        # The engine and the dense per-run reference draw one uniform per
        # attempt from equal streams, so runs agree outcome for outcome.
        for m, distorted in itertools.product(range(1, 5), (False, True)):
            rng = qcore.rng_stream(30 + m)
            base = conftest.make_circuit(float(rng.uniform(0.2, 0.6)), m=m, rng=rng)
            gammas = None
            if distorted:
                gammas = rng.random(2**m)
                gammas[0] += 1.0
                gammas /= gammas.sum()
            cc = distortion.build_conditional(base, gammas, seed=m)
            cfg = distortion.DistortionConfig(
                alpha=0.6, beta=0.8j, psi0=qcore.random_state(1, rng),
                psi1=qcore.random_state(1, rng), trials=1, seed=0,
            )
            engine_rng, dense_rng = qcore.rng_stream(m), qcore.rng_stream(m)
            for _ in range(25):
                record, final = distortion.simulate_conditional_rus(cc, cfg, engine_rng)
                outcomes, want = conftest.dense_conditional_run(cc, cfg, dense_rng)
                assert record.outcomes == outcomes
                np.testing.assert_allclose(final.amps, want.amps, rtol=0, atol=1e-12)

    def test_exhaustion_is_counted(self):
        base = conftest.make_circuit(0.2, m=1)
        # misaligned weights keep many runs failing past the cap
        cc = distortion.build_conditional(base, np.array([0.2, 0.8]))
        cfg = _config(trials=2_000, seed=41, max_attempts=1)
        est = distortion.monte_carlo_fidelity(cc, cfg)
        assert est.exhausted > 0
        assert est.trials + est.exhausted == 2_000
        # per-attempt success probability 0.5 gamma_0 + 0.5 lambda_0 = 0.2
        assert est.exhausted == pytest.approx(2_000 * 0.8, abs=4 * math.sqrt(2000 * 0.16))

    @pytest.mark.parametrize("max_attempts", [1, rus.DEFAULT_MAX_ATTEMPTS])
    def test_estimate_is_the_masked_sample(self, max_attempts):
        # Bit for bit the mean and spread over the finished trials' columns,
        # with and without exhausted trials to leave out.
        rng = qcore.rng_stream(44)
        base = conftest.make_circuit(0.35, m=4, rng=rng)
        gammas = rng.random(16) + 0.1
        cc = distortion.build_conditional(base, gammas / gammas.sum(), seed=2)
        cfg = _config(trials=3_000, seed=9, max_attempts=max_attempts)
        est = distortion.monte_carlo_fidelity(cc, cfg)
        batch = rus.run_batch(cc.frame, conftest.conditional_start(cfg), cfg.trials,
                              qcore.rng_stream(cfg.seed), max_attempts)
        ideal = distortion.ideal_conditional_state(cc, cfg).amps
        sample = np.abs(ideal.conj() @ batch.finals[:, ~batch.exhausted]) ** 2
        assert (est.trials, est.exhausted) == (sample.size, cfg.trials - sample.size)
        assert (est.exhausted > 0) == (max_attempts == 1)
        assert est.mean == float(sample.mean())
        assert est.std_error == float(sample.std(ddof=1) / math.sqrt(sample.size))

    def test_deterministic_for_fixed_seed(self):
        base = conftest.make_circuit(0.3, m=1)
        cc = distortion.build_conditional(base, np.array([0.5, 0.5]))
        a = distortion.monte_carlo_fidelity(cc, _config(trials=500, seed=5))
        b = distortion.monte_carlo_fidelity(cc, _config(trials=500, seed=5))
        assert a.mean == b.mean and a.std_error == b.std_error


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 4),
    delta=st.sampled_from([1e-2, 1e-3, 1e-4]),
    a2=st.floats(0.05, 0.95),
    w=st.floats(0.02, 0.9),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_fixed_point_bounds_conditional_distortion(m, delta, a2, w, seed, data):
    # The paper's claim: a fixed-point schedule sized for threshold w holds the
    # undistorted conditional gate's fidelity above a delta-dependent floor
    # for every lambda0 >= w, without knowing lambda0.
    plan = oaa.fp_plan(oaa.fp_length_for(w, delta), delta)
    lambda0 = data.draw(st.floats(plan.w, 0.999, exclude_max=True))
    base = conftest.make_circuit(lambda0, m=m, rng=qcore.rng_stream(seed))
    composed = oaa.fp_compose(base, plan)
    cc = distortion.build_conditional(composed)
    alpha, beta = math.sqrt(a2), math.sqrt(1.0 - a2)
    cfg = distortion.DistortionConfig(
        alpha=alpha, beta=beta, psi0=qcore.basis_state(1),
        psi1=qcore.basis_state(1), trials=20_000, seed=seed,
    )
    lambdas = composed.spec.lambdas
    closed = distortion.average_fidelity_closed(
        alpha, beta, np.eye(2**m)[0], lambdas
    )
    b2 = 1.0 - a2
    assert closed >= 1.0 - 2.0 * a2 * b2 * (1.0 - math.sqrt(1.0 - delta)) - 1e-12
    est = distortion.monte_carlo_fidelity(cc, cfg)
    # A batch with no failed trial has std_error 0 while its mean sits up to
    # |beta|^2 (1 - lambda'_0) above the average, so the band carries that term.
    assert abs(est.mean - closed) <= 4.0 * est.std_error + b2 * (1.0 - lambdas[0])


class TestFigureData:
    def test_left_panel_closed_form(self):
        rows = distortion.figure1_data("left", seed=0)
        assert len(rows) == 200
        curves = {r.curve_id for r in rows}
        assert curves == {"gamma_one", "gamma_over", "gamma_under", "gamma_matched"}
        for r in rows:
            assert r.std == 0.0 and r.n_samples == 1
        matched = [r for r in rows if r.curve_id == "gamma_matched"]
        assert all(abs(r.mean - 1.0) < 1e-12 for r in matched)
        ones = {r.x: r.mean for r in rows if r.curve_id == "gamma_one"}
        over = {r.x: r.mean for r in rows if r.curve_id == "gamma_over"}
        for x, value in over.items():
            if x >= 1.0 / 1.3:
                assert value == ones[x]
        # degradation ordering at small lambda0
        under = {r.x: r.mean for r in rows if r.curve_id == "gamma_under"}
        x0 = min(ones)
        assert under[x0] < 1.0 and ones[x0] < 1.0

    def test_left_panel_values_recompute(self):
        rows = distortion.figure1_data("left", seed=0)
        for r in rows:
            gamma0 = {
                "gamma_one": 1.0,
                "gamma_over": min(1.0, 1.3 * r.x),
                "gamma_under": 0.7 * r.x,
                "gamma_matched": r.x,
            }[r.curve_id]
            expect = distortion.average_fidelity_m1(BALANCED, BALANCED, gamma0, r.x)
            assert r.mean == pytest.approx(expect, abs=1e-14)

    def test_left_panel_spawns_no_streams(self, monkeypatch):
        # The closed-form panel draws nothing; only sampled panels spawn.
        counts = []
        spawn = qcore.substreams
        monkeypatch.setattr(qcore, "substreams",
                            lambda seed, count: counts.append(count) or spawn(seed, count))
        distortion.figure1_data("left", seed=0)
        assert counts == []
        distortion.figure1_data("right", seed=0)
        assert counts == [200]

    def test_right_panel_shape_and_determinism(self):
        rows = distortion.figure1_data("right", seed=7)
        again = distortion.figure1_data("right", seed=7)
        assert rows == again
        assert len(rows) == 200
        for r in rows:
            assert r.n_samples == distortion.DRAWS_PER_POINT
            assert 0.4 < r.mean <= 1.0 + 1e-12
            assert r.seed == 7
        shifted = distortion.figure1_data("right", seed=8)
        assert shifted != rows

    def test_rejects_unknown_panel(self):
        with pytest.raises(ValueError):
            distortion.figure1_data("middle", seed=0)

    def test_figure3_limits(self):
        rows = distortion.figure3_data(seed=3)
        assert len(rows) == 150
        xs = sorted({r.x for r in rows})
        assert xs[0] == pytest.approx(1e-6)
        assert xs[-1] == pytest.approx(1e-1)
        # undistorted curve: all mass on the success outcome, no spread
        # beyond summation rounding
        ones = [r for r in rows if r.curve_id == "gamma_one"]
        assert all(r.std < 1e-12 for r in ones)
        smallest = min(ones, key=lambda r: r.x)
        assert smallest.mean == pytest.approx(0.5 + 0.5 * math.sqrt(1.0 - 1e-6), abs=1e-12)
        under = min(
            (r for r in rows if r.curve_id == "gamma_under"), key=lambda r: r.x
        )
        assert under.mean == pytest.approx(0.5 + 0.5 * math.sqrt(0.7), abs=1e-3)


def _history_case(m: int, distorted: bool, lambda0: float = 0.3, gamma0: float = 0.4):
    """A conditional circuit at ``m`` and a start with both branches weighted."""
    rng = qcore.rng_stream(60 + m)
    base = conftest.make_circuit(lambda0, m=m, rng=rng)
    gammas = None
    if distorted:
        rest = rng.random(2**m - 1)
        gammas = np.concatenate(([gamma0], rest * (1.0 - gamma0) / rest.sum()))
    cc = distortion.build_conditional(base, gammas, seed=m)
    cfg = distortion.DistortionConfig(
        alpha=math.sqrt(0.4), beta=math.sqrt(0.6) * 1j, psi0=qcore.random_state(1, rng),
        psi1=qcore.random_state(1, rng), trials=2_000, seed=m,
    )
    return cc, cfg


class TestHistories:
    @pytest.mark.parametrize("distorted", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_trial_matches_its_history(self, m, distorted):
        cc, cfg = _history_case(m, distorted)
        batch = rus.run_batch(cc.frame, conftest.conditional_start(cfg), cfg.trials,
                              qcore.rng_stream(cfg.seed), 40)
        fids = conftest.history_fidelities(cc, cfg, batch)
        assert batch.exhausted.sum() < cfg.trials // 10
        assert len(np.unique(batch.attempts)) >= 5
        # Distorted histories spread F over many values; an undistorted
        # failure leaves only the control-|1> branch, F = |beta|^2.
        values = np.unique(fids.round(12))
        if distorted:
            assert len(values) >= 5
        else:
            assert len(values) == 2 and values[0] == round(abs(cfg.beta) ** 2, 12)

    def test_std_error_is_the_series_spread(self):
        # At m = 1 the history is its failure count n, with probability
        # P(n) = a g_n^2 + b l_n^2: the series give F's mean, variance and
        # fourth central moment exactly.
        cc, cfg = _history_case(1, True)
        cfg = dataclasses.replace(cfg, trials=20_000, seed=71)
        est = distortion.monte_carlo_fidelity(cc, cfg)
        assert (est.trials, est.exhausted) == (20_000, 0)
        (gamma0, gamma1), (lambda0, lambda1) = cc.gammas, cc.base.spec.lambdas
        n = np.arange(2_000)
        g = math.sqrt(gamma0) * np.sqrt(gamma1) ** n
        l = math.sqrt(lambda0) * np.sqrt(lambda1) ** n
        a, b = abs(cfg.alpha) ** 2, abs(cfg.beta) ** 2
        prob = a * g * g + b * l * l
        fid = (a * g + b * l) ** 2 / prob
        mean = prob @ fid
        assert mean == pytest.approx(distortion.average_fidelity_m1(
            cfg.alpha, cfg.beta, gamma0, lambda0), abs=1e-15)
        var = prob @ (fid - mean) ** 2
        fourth = prob @ (fid - mean) ** 4
        sample_var = est.std_error**2 * est.trials
        # The sample variance spreads by sqrt((mu_4 - sigma^4) / N).
        assert abs(sample_var - var) <= 5.0 * math.sqrt((fourth - var**2) / est.trials)
        assert abs(est.mean - mean) <= 5.0 * math.sqrt(var / est.trials)
