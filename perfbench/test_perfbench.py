"""Tests of the benchmark itself: oracles, perturbation rejection, tracing.

    python3 -m pytest perfbench -q

The oracles must agree with rusamp on small inputs, reject a slightly
wrong output, and the tracing wrappers must leave every output unchanged.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracles as orc  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleMismatch  # noqa: E402

RS = {name: importlib.import_module(f"rusamp.{name}") for name in tracing.MODULES}
oaa, rus, qcore, tcost, distortion = (RS[n] for n in ("oaa", "rus", "qcore", "tcost",
                                                       "distortion"))


def _circuit(lambda0, m, seed=3):
    spec = workloads.SpecInput.draw(np.random.default_rng(seed), m, lambda0)
    return spec, spec.circuit(RS)


def _ops(name, tmp_path, seed=5):
    return workloads.build(name, RS, seed, str(tmp_path / name))


def _by_kind(ops, kind):
    return next(op for op in ops if op.kind == kind)


# -- oracles agree with rusamp ------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("j", [0, 1, 3])
def test_two_level_model_matches_standard_compose(m, j):
    spec, circ = _circuit(0.12, m)
    got = oaa.standard_compose(circ, j)
    t00, t10 = orc.two_level_schedule(spec.lambda0, [(math.pi, math.pi)] * j)
    assert abs(abs(t00) ** 2 - orc.standard_law(spec.lambda0, j)) <= 1e-12
    assert abs(abs(t00) ** 2 + abs(t10) ** 2 - 1.0) <= 1e-12
    orc.check_composed(spec.lambdas, spec.gates, got.spec.lambdas,
                       [g.mat for g in got.spec.branch_gates()], abs(t00) ** 2, "std")


@pytest.mark.parametrize("k,sign", [(1, 1), (2, -1), (4, 1)])
def test_cube_law_and_two_level_pi3_match_pi3_compose(k, sign):
    spec, circ = _circuit(0.2, 2)
    got = oaa.pi3_compose(circ, oaa.Pi3Plan(k=k, sign=sign))
    t00, _ = orc.two_level_pi3(spec.lambda0, k, sign)
    success = 1.0 - orc.cube_law_failure(spec.lambda0, k)
    assert abs(abs(t00) ** 2 - success) <= 1e-12
    orc.check_composed(spec.lambdas, spec.gates, got.spec.lambdas,
                       [g.mat for g in got.spec.branch_gates()], success, "pi3")


@pytest.mark.parametrize("L,delta", [(3, 1e-2), (12, 1e-4), (40, 1e-6)])
def test_fixed_point_closed_form_matches_fp_compose(L, delta):
    plan = oaa.fp_plan(L, delta)
    assert abs(plan.w - orc.fp_threshold(L, delta)) <= 1e-12
    for lambda0 in (plan.w, 0.5 * (plan.w + 1.0), 0.5 * plan.w):
        spec, circ = _circuit(lambda0, 1)
        got = rus.success_probability(oaa.fp_compose(circ, plan), qcore.basis_state(1))
        assert abs(got - orc.fp_success(lambda0, L, delta)) <= 1e-10
        t00, _ = orc.two_level_schedule(lambda0, list(zip(plan.phis, plan.varphis)))
        assert abs(abs(t00) ** 2 - got) <= 1e-10
        if lambda0 >= plan.w:
            assert got >= 1.0 - delta - 1e-12


def test_minimal_length_formula_matches_fp_length_for():
    for delta in (1e-2, 1e-4, 1e-6, 1e-9):
        for w in np.geomspace(1e-5, 0.9, 40):
            assert oaa.fp_length_for(float(w), delta) in orc.fp_min_lengths(float(w), delta)


def test_deterministic_phases_reach_certainty():
    for lambda0 in np.linspace(0.03, 0.97, 25):
        plan = oaa.plan_deterministic(float(lambda0))
        assert plan.j in orc.standard_iterations(float(lambda0))
        pairs = [(math.pi, math.pi)] * plan.j
        if plan.chi:
            pairs.append((plan.phi, plan.varphi))
        t00, _ = orc.two_level_schedule(float(lambda0), pairs)
        assert abs(abs(t00) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize("policy", [("kmm", 0.0), ("zero", 0.0), ("fixed", 33.0)])
def test_cost_formulas_match_all_strategies(policy):
    obj = tcost.ReflectionPolicy(kind=policy[0], value=policy[1])
    for delta in (1e-3, 1e-6):
        for lambda0 in np.linspace(0.02, 0.98, 30):
            q = tcost.CostQuery(lambda0=float(lambda0), delta=delta, ct_a=7.0,
                                reflection_policy=obj)
            for r in tcost.all_strategies(q):
                orc.check_cost(r.strategy, r.total_t, r.params, float(lambda0), delta,
                               7.0, policy, r.strategy)


def test_averaged_fidelity_matches_closed_form_in_rusamp():
    rng = np.random.default_rng(9)
    for m in (1, 3):
        gammas = orc.split_weights(rng, 2**m, 0.4)
        lambdas = orc.split_weights(rng, 2**m, 0.3)
        alpha, beta = complex(0.6), complex(0.0, 0.8)
        want = distortion.average_fidelity_closed(alpha, beta, gammas, lambdas)
        assert abs(orc.averaged_fidelity(alpha, beta, gammas, lambdas) - want) <= 1e-14


def test_sequence_state_matches_conditional_runs():
    rng = np.random.default_rng(4)
    spec, circ = _circuit(0.3, 2)
    gammas = orc.split_weights(rng, 4, 0.5)
    cc = distortion.build_conditional(circ, gammas, seed=1)
    psi0, psi1 = orc.haar_state(rng), orc.haar_state(rng)
    cfg = distortion.DistortionConfig(alpha=complex(0.6), beta=complex(0.8),
                                      psi0=qcore.StateVector(1, psi0),
                                      psi1=qcore.StateVector(1, psi1), trials=1, seed=0)
    stream = qcore.rng_stream(2)
    lengths = set()
    for _ in range(40):
        record, final = distortion.simulate_conditional_rus(cc, cfg, stream)
        want = orc.sequence_state(0.6, 0.8, psi0, psi1, spec.gates[0], gammas,
                                  spec.lambdas, list(record.outcomes))
        assert np.max(np.abs(final.amps - want)) <= 1e-12
        lengths.add(record.attempts)
    assert len(lengths) > 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_round_passes_every_check(name, tmp_path):
    ops = _ops(name, tmp_path)
    failed = []
    for op in ops:
        try:
            out = op.call()
        except Exception:
            failed.append(op.kind)
            continue
        op.check(out)
    assert failed == (["pi3_deep", "pi3_deep"] if name == "amplify" else [])


# -- a perturbed output is rejected ---------------------------------------------------


def test_rejects_perturbed_composition():
    spec, circ = _circuit(0.1, 2)
    got = oaa.standard_compose(circ, 1)
    gates = [g.mat for g in got.spec.branch_gates()]
    success = orc.standard_law(spec.lambda0, 1)
    lambdas = got.spec.lambdas.copy()
    lambdas[0] += 1e-6
    lambdas[1] -= 1e-6
    with pytest.raises(OracleMismatch):
        orc.check_composed(spec.lambdas, spec.gates, lambdas, gates, success, "std")
    turn = np.array([[math.cos(1e-3), -1j * math.sin(1e-3)],
                     [-1j * math.sin(1e-3), math.cos(1e-3)]])
    with pytest.raises(OracleMismatch):
        orc.check_composed(spec.lambdas, spec.gates, got.spec.lambdas,
                           [gates[0] @ turn] + gates[1:], success, "std")
    with pytest.raises(OracleMismatch):
        orc.check_composed(spec.lambdas, spec.gates, got.spec.lambdas, gates,
                           orc.standard_law(spec.lambda0, 2), "std")


def test_rejects_wrong_costs():
    q = tcost.CostQuery(lambda0=0.3, delta=1e-6, ct_a=1.0)
    for r in tcost.all_strategies(q):
        with pytest.raises(OracleMismatch):
            orc.check_cost(r.strategy, r.total_t + 1.0, r.params, 0.3, 1e-6, 1.0,
                           ("kmm", 0.0), r.strategy)
    fp = tcost.ct_fixed_point(q)
    params = dict(fp.params, L=fp.params["L"] + 1, n_s=fp.params["n_s"] + 2,
                  epsilon_reflection=1e-6 / (fp.params["n_s"] + 2))
    with pytest.raises(OracleMismatch):
        orc.check_cost("fixed_point", fp.total_t, params, 0.3, 1e-6, 1.0, ("kmm", 0.0), "fp")


def _rewrite_csv(path, column, row_index, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row_index + 1][col] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_rejects_perturbed_simulate_output(tmp_path):
    ops = _ops("simulate", tmp_path)
    op = _by_kind(ops, "fp")
    seed = op.call()
    op.check(seed)
    runs = os.path.join(op.cli_out, "runs.csv")
    _rewrite_csv(runs, "fidelity", 3, "0.99")
    with pytest.raises(OracleMismatch):
        op.check(seed)
    seed = op.call()
    _rewrite_csv(os.path.join(op.cli_out, "summary.csv"), "value", 2, "0.97")
    with pytest.raises(OracleMismatch):
        op.check(seed)


def test_rejects_perturbed_distortion_output(tmp_path):
    ops = _ops("distortion", tmp_path)
    mc = _by_kind(ops, "mc_m1")
    est = mc.call()
    mc.check(est)
    with pytest.raises(OracleMismatch):
        mc.check(dataclasses.replace(est, mean=est.mean + 10 * est.std_error + 1e-4))
    cond = _by_kind(ops, "conditional")
    runs = cond.call()
    cond.check(runs)
    record, final = runs[0]
    flipped = qcore.StateVector(2, final.amps * np.array([1, -1, 1, -1]))
    with pytest.raises(OracleMismatch):
        cond.check([(record, flipped)] + runs[1:])
    fig = _by_kind(ops, "fig1-left")
    seed = fig.call()
    fig.check(seed)
    path = os.path.join(fig.cli_out, "fig1-left.csv")
    with open(path, newline="") as fh:
        mean = float(list(csv.DictReader(fh))[7]["mean"])
    _rewrite_csv(path, "mean", 7, repr(mean + 1e-9))
    with pytest.raises(OracleMismatch):
        fig.check(seed)


def test_rejects_perturbed_cost_figure(tmp_path):
    op = _by_kind(_ops("amplify", tmp_path), "fig2")
    op.call()
    op.check(None)
    path = os.path.join(op.cli_out, "fig2-cta1.csv")
    _rewrite_csv(path, "total_t", 14, "1234.5")
    with pytest.raises(OracleMismatch):
        op.check(None)


# -- tracing leaves outputs unchanged ---------------------------------------------------


def _fingerprint(obj):
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _fingerprint(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return repr(obj)


def _files(directory):
    out = {}
    for entry in sorted(os.scandir(directory), key=lambda e: e.name):
        data = Path(entry.path).read_bytes()
        if entry.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("timestamp")
            data = json.dumps(manifest, sort_keys=True).encode()
        out[entry.name] = data
    return out


def _outputs(ops, tracer=None):
    results = []
    for op in ops:
        try:
            out = op.call() if tracer is None else tracer.span("bench", op.call)
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
        files = _files(op.cli_out) if op.cli_out else None
        results.append((_fingerprint(out), files))
    return results


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(name, tmp_path):
    ops = _ops(name, tmp_path)
    plain = _outputs(ops)
    originals = {n: vars(RS[n]).copy() for n in tracing.MODULES}
    tracer = tracing.Tracer()
    tracer.install(RS)
    try:
        traced = _outputs(ops, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    for n in tracing.MODULES:
        assert vars(RS[n]) == originals[n]
    for cls in tracing.VALIDATED_CLASSES:
        assert getattr(qcore, cls).__post_init__.__qualname__ == f"{cls}.__post_init__"
    assert tracer.stats["bench"][0] == len(ops)
    assert tracer.stats["qcore.UnitaryMatrix"][0] > 0
    metrics = tracing.layer_metrics(tracer.stats, tracer.counters, 0.0)
    assert [n for n, _ in tracing.PER_LAYER] == list(metrics)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    count, total, self_ns = tracer.stats["outer"]
    assert count == 1 and tracer.stats["inner"][0] == 3
    assert self_ns == total - tracer.stats["inner"][1]
    ids = {s[0]: s for s in tracer.spans}
    assert all(ids[s[1]][2] == "outer" for s in tracer.spans if s[2] == "inner")


# -- the command ---------------------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace, tmp_path):
    ops = _ops("amplify", tmp_path, seed=3)
    failing = sum(op.kind == "pi3_deep" for op in ops)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    proc = _run(["--workload", "amplify", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * len(ops) == result["attempted"] * failing
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[key]}


def test_command_fails_without_the_program(tmp_path):
    proc = _run(["--workload", "simulate", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
