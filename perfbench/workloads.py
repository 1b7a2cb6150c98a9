"""The benchmark's three workloads: seeded inputs, one round of operations
and the check of every output against ``oracles``.

A workload is built from ``--seed`` alone. Its round is a fixed list of
about a hundred operations, interleaved in a seeded order, and a run
repeats that round unchanged: every repetition of an operation does the
same work on the same random draws, and the share of failing operations
never changes. Sizes follow fixed grids and the seed only jitters values
within a grid cell, so the work per round hardly depends on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc
from oracles import expect, expect_close

WORKLOADS = ("simulate", "amplify", "distortion")


@dataclass
class Op:
    kind: str
    call: Callable[[], object]  # one call into the program; returns its output
    check: Callable[[object], None]  # raises OracleMismatch
    cli_out: str | None = None  # directory a CLI operation writes into


def _stratified(rng, lo: float, hi: float, cells: int, cell: int, jitter: float = 0.8):
    """A value inside cell ``cell`` of ``cells`` geometric cells of [lo, hi]."""
    u = (cell + 0.5 + jitter * (float(rng.random()) - 0.5)) / cells
    return lo * (hi / lo) ** u


def _spec_dict(m, lambdas, gates, seed) -> dict:
    def mat(g):
        return [[float(z.real), float(z.imag)] for z in np.asarray(g).reshape(-1)]

    return {"m": m, "lambdas": [float(x) for x in lambdas], "target": mat(gates[0]),
            "recoveries": [mat(g) for g in gates[1:]], "seed": int(seed)}


@dataclass
class SpecInput:
    m: int
    lambdas: np.ndarray
    gates: list  # W_0 (target) first, then the recoveries
    seed: int

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])

    @staticmethod
    def draw(rng, m: int, lambda0: float) -> "SpecInput":
        lambdas = orc.split_weights(rng, 2**m, lambda0)
        gates = [orc.haar_unitary(rng) for _ in range(2**m)]
        return SpecInput(m, lambdas, gates, int(rng.integers(0, 2**31)))

    def circuit(self, rs):
        qcore, rus = rs["qcore"], rs["rus"]
        spec = rus.RusSpec(
            m=self.m, lambdas=self.lambdas, target=qcore.UnitaryMatrix(self.gates[0]),
            recoveries=tuple(qcore.UnitaryMatrix(g) for g in self.gates[1:]),
            seed=self.seed)
        return rus.build_rus_unitary(spec)


def _gates_of(circuit) -> list:
    return [g.mat for g in circuit.spec.branch_gates()]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(data_path: str, command: str, seed) -> dict:
    with open(data_path + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    expect(manifest["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest(),
           f"{data_path}: manifest hash does not match its config")
    expect(manifest["command"] == command, f"{data_path}: manifest command")
    expect(manifest["seed"] == seed, f"{data_path}: manifest seed")
    return manifest


def _run_cli(rs, argv: list[str]) -> None:
    code = rs["cli"].main(argv)
    if code != 0:
        raise RuntimeError(f"rusamp {' '.join(argv)} exited {code}")


# ============================================================================
# simulate: one in-process `rusamp simulate` per operation.

# Expected attempts per operation: trials = attempts x composed success, so
# every operation of a kind does about the same work whatever its lambda0.
# The kinds differ in size, so that sorted by time they form five blocks of
# a fifth of the round each: the median falls inside the pi3 block and the
# 90th percentile inside the fp block, both kinds of near-fixed work.
SIM_ATTEMPTS = {"none": 50, "standard": 80, "pi3": 125, "deterministic": 175,
                "fp": 250}
SIM_LAMBDA0 = (0.05, 0.3)
SIM_SPECS = 20


def _protocol_success(proto: str, lambda0: float) -> list[float]:
    """Composed success probability (one per admissible schedule length)."""
    parts = proto.split(":")
    if parts[0] == "none":
        return [lambda0]
    if parts[0] == "standard":
        return [orc.standard_law(lambda0, int(parts[1]))]
    if parts[0] == "deterministic":
        return [1.0]
    if parts[0] == "pi3":
        return [1.0 - orc.cube_law_failure(lambda0, int(parts[1]))]
    delta = float(parts[1])
    return [orc.fp_success(lambda0, L, delta) for L in orc.fp_min_lengths(lambda0, delta)]


def _check_simulate(spec: SpecInput, proto: str, trials: int, out: str):
    success = _protocol_success(proto, spec.lambda0)

    def check(seed):
        n_out = 2**spec.m
        runs_path = os.path.join(out, "runs.csv")
        rows = _read_csv(runs_path)
        expect(len(rows) == trials, f"{proto}: {len(rows)} rows for {trials} trials")
        attempts = []
        for i, row in enumerate(rows):
            what = f"{proto} trial {i}"
            expect(int(row["trial"]) == i and row["success"] == "1", f"{what}: not a success")
            outcomes = [int(x) for x in row["outcomes"].split(";")]
            orc.check_sequence(outcomes, n_out, what)
            expect(int(row["attempts"]) == len(outcomes), f"{what}: attempts")
            # Without control every successful trial applies the target exactly.
            expect(float(row["fidelity"]) >= 1.0 - orc.FIDELITY_TOL, f"{what}: fidelity")
            attempts.append(len(outcomes))
        if proto == "deterministic":
            expect(max(attempts) == 1, f"{proto}: a trial needed a retry")
        summary = {r["metric"]: r["value"] for r in _read_csv(os.path.join(out, "summary.csv"))}
        expect_close(float(summary["success_probability_input"]), spec.lambda0,
                     orc.PROB_TOL, f"{proto} input success")
        got = float(summary["success_probability_composed"])
        expect(any(abs(got - s) <= orc.PROB_TOL for s in success),
               f"{proto}: composed success {got!r}, expected one of {success}")
        if proto.startswith("fp:"):
            expect(got >= 1.0 - float(proto.split(":")[1]) - orc.PROB_TOL,
                   f"{proto}: below the fixed-point guarantee")
        expect_close(float(summary["mean_attempts"]), float(np.mean(attempts)),
                     1e-12 * max(attempts), f"{proto} mean attempts")
        expect(summary["exhausted"] == "0", f"{proto}: exhausted trials")
        manifest = _check_manifest(runs_path, "simulate", seed)
        expect(manifest["config"]["protocol"] == proto, f"{proto}: manifest protocol")
        _check_manifest(os.path.join(out, "summary.csv"), "simulate", seed)

    return check


def _simulate_ops(rs, rng, outdir: str) -> list[Op]:
    ops = []
    for index in range(SIM_SPECS):
        m = (1, 3)[index % 2]
        lambda0 = _stratified(rng, *SIM_LAMBDA0, SIM_SPECS, index)
        spec = SpecInput.draw(rng, m, lambda0)
        spec_path = os.path.join(outdir, f"spec{index}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(_spec_dict(m, spec.lambdas, spec.gates, spec.seed), fh)
        psi = orc.haar_state(rng)
        psi_text = ",".join(f"{float(z.real)!r}{float(z.imag):+.17g}j" for z in psi)
        j = max((1, 2, 3), key=lambda j: orc.standard_law(lambda0, j))
        k = next(k for k in range(1, 6) if orc.cube_law_failure(lambda0, k) <= 0.1)
        protocols = {
            "none": "none",
            "standard": f"standard:{j}",
            "deterministic": "deterministic",
            "pi3": f"pi3:{k}" + (":neg" if rng.random() < 0.5 else ""),
            "fp": f"fp:{rng.choice(['1e-2', '1e-3', '1e-4'])}",
        }
        for kind, proto in protocols.items():
            out = os.path.join(outdir, f"sim{index}-{kind}")
            trials = round(SIM_ATTEMPTS[kind] * min(_protocol_success(proto, lambda0)))
            op_seed = int(rng.integers(0, 2**31))

            def call(spec_path=spec_path, proto=proto, trials=trials, seed=op_seed,
                     out=out, psi_text=psi_text):
                _run_cli(rs, [
                    "simulate", "--spec", spec_path, "--protocol", proto,
                    f"--psi={psi_text}", "--trials", str(trials),
                    "--seed", str(seed), "--out", out])
                return seed

            ops.append(Op(kind, call, _check_simulate(spec, proto, trials, out), out))
    return ops


# ============================================================================
# amplify: one composition or sizing call per operation.

# lambda0 of the base circuits, each jittered by 5%: the deterministic
# protocol's iteration count (2, 1, 1, 0 here) then never changes with the
# seed, and neither does its cost.
AMP_LAMBDA0 = (0.06, 0.13, 0.2, 0.28)
FP_LENGTHS = (5, 8, 13, 20, 32, 50, 80, 130, 200, 320, 500, 800, 1300, 2000)
# rusamp's fp_compose rejects its own result ("outcome block i is not
# proportional to a unitary") when a composed failure weight lies between
# about 1e-12 and 3e-9: the rounding of thousands of dense products then
# breaks circuit_from_matrix's structure check. Which draws land there
# depends on the seed, so the generator keeps every failure weight above
# FP_MIN_FAILURE_WEIGHT, which needs a tolerance of at least 1e-3.
FP_DELTAS = (1e-2, 1e-3)
FP_MIN_FAILURE_WEIGHT = 1e-7
PI3_DEPTHS = tuple(range(1, 11))
STRATEGY_GRID = 24
# The dense cube-law recursion drifts at depth 20 and rusamp rejects its own
# result ("unitarity residual ~1e-6 exceeds 1e-10"); these inputs do not
# depend on the seed, so the two operations fail in every round.
PI3_FAILING_DEPTH = 20
PI3_FAILING_SEED = 20


def _check_compose(spec: SpecInput, law: float, two_level, what: str):
    """Composed lambda'_0 against a closed-form law and the two-level model
    (amplitudes ``two_level``), the other weights and gates by rescaling."""
    def check(g):
        orc.check_composed(spec.lambdas, spec.gates, g.spec.lambdas, _gates_of(g),
                           law, what)
        expect_close(float(g.spec.lambdas[0]), abs(two_level[0]) ** 2, orc.PROB_TOL,
                     f"{what}: lambda'_0 against the two-level model")
    return check


def _standard_op(rs, spec, circuit, j):
    success = orc.standard_law(spec.lambda0, j)
    t = orc.two_level_schedule(spec.lambda0, [(math.pi, math.pi)] * j)
    return Op("standard", lambda: rs["oaa"].standard_compose(circuit, j),
              _check_compose(spec, success, t, f"standard:{j}"))


def _deterministic_op(rs, spec, circuit, rng):
    oaa, qcore = rs["oaa"], rs["qcore"]
    psi = orc.haar_state(rng)
    psi_state = qcore.StateVector(1, psi)

    def call():
        plan = oaa.plan_deterministic(spec.lambda0)
        return plan, oaa.apply_deterministic(circuit, plan, psi_state)

    def check(out):
        plan, state = out
        expect(plan.j in orc.standard_iterations(spec.lambda0), f"deterministic j {plan.j}")
        pairs = [(math.pi, math.pi)] * plan.j
        if plan.chi != 0.0:
            pairs.append((plan.phi, plan.varphi))
        t00, _ = orc.two_level_schedule(spec.lambda0, pairs)
        expect_close(abs(t00) ** 2, 1.0, orc.PROB_TOL, "deterministic phases")
        expect(orc.states_match(state.amps[:2], spec.gates[0] @ psi),
               "deterministic: success block is not W_0|psi>")
        expect_close(float(np.sum(np.abs(state.amps[2:]) ** 2)), 0.0, orc.PROB_TOL,
                     "deterministic failure mass")

    return Op("deterministic", call, check)


def _pi3_op(rs, spec, circuit, k, sign, kind="pi3"):
    oaa = rs["oaa"]
    success = 1.0 - orc.cube_law_failure(spec.lambda0, k)
    t = orc.two_level_pi3(spec.lambda0, k, sign)
    return Op(kind, lambda: oaa.pi3_compose(circuit, oaa.Pi3Plan(k=k, sign=sign)),
              _check_compose(spec, success, t, f"pi3:{k}:{sign}"))


def _fp_op(rs, rng, m, L):
    oaa = rs["oaa"]
    delta = float(rng.choice(FP_DELTAS))
    w_bound = orc.fp_length_for_threshold(L, delta, rng)
    while True:
        lambda0 = min(0.9, w_bound * float(rng.uniform(1.0, 1.5)))
        spec = SpecInput.draw(rng, m, lambda0)
        success = orc.fp_success(lambda0, L, delta)
        if orc.failure_weights(spec.lambdas, success).min() >= FP_MIN_FAILURE_WEIGHT:
            break
    circuit = spec.circuit(rs)

    def call():
        length = oaa.fp_length_for(w_bound, delta)
        plan = oaa.fp_plan(length, delta)
        return plan, oaa.fp_compose(circuit, plan)

    def check(out):
        plan, g = out
        what = f"fp L={L} delta={delta:g}"
        expect(plan.L in orc.fp_min_lengths(w_bound, delta), f"{what}: length {plan.L}")
        expect_close(plan.w, orc.fp_threshold(plan.L, delta), orc.PROB_TOL, f"{what} w")
        expect(g.spec.lambdas[0] >= 1.0 - delta - orc.PROB_TOL, f"{what}: below 1 - delta")
        t = orc.two_level_schedule(lambda0, list(zip(plan.phis, plan.varphis)))
        _check_compose(spec, success, t, what)(g)

    return Op("fp", call, check)


def _inverse_op(rs, spec, circuit):
    def check(g):
        lambdas = g.spec.lambdas
        expect_close(float(lambdas[0]), spec.lambda0, orc.PROB_TOL, "inverse lambda'_0")
        expect_close(float(np.sum(lambdas)), 1.0, orc.PROB_TOL, "inverse weights")
        # (A^dag)_{i0} = conj(R_{0i}) W_0^dag: every branch gate is W_0^dag.
        for i, gate in enumerate(_gates_of(g)):
            if lambdas[i] > 1e-6:
                expect(orc.gate_matches(gate, spec.gates[0].conj().T),
                       f"inverse: W'_{i} is not W_0^dag up to phase")
    return Op("inverse", lambda: rs["rus"].inverse_rus(circuit), check)


def _policy(rs, rng):
    kind = str(rng.choice(["kmm", "zero", "fixed"]))
    value = float(rng.uniform(10, 80)) if kind == "fixed" else 0.0
    return (kind, value), rs["tcost"].ReflectionPolicy(kind=kind, value=value)


def _strategies_op(rs, rng, delta):
    tcost = rs["tcost"]
    grid = [_stratified(rng, 0.02, 0.98, STRATEGY_GRID, c) for c in range(STRATEGY_GRID)]
    ct_a = float(rng.choice([1.0, 10.0, 100.0]))
    policy, policy_obj = _policy(rs, rng)

    def call():
        return [tcost.all_strategies(tcost.CostQuery(
            lambda0=lam0, delta=delta, ct_a=ct_a, reflection_policy=policy_obj))
            for lam0 in grid]

    def check(results):
        for lam0, per in zip(grid, results):
            expect([r.strategy for r in per] == list(orc.COST_STRATEGIES), "strategy list")
            for r in per:
                orc.check_cost(r.strategy, r.total_t, r.params, lam0, delta, ct_a,
                               policy, f"{r.strategy} at lambda0={lam0:.6g}")
    return Op("strategies", call, check)


def _opt_int(text: str):
    return int(text) if text else None


def _figure_cost_op(rs, name, outdir, rng):
    out = os.path.join(outdir, f"figure-{name}")
    seed = int(rng.integers(0, 2**31))
    delta = 1e-6 if name == "fig2" else 1e-3
    grid = np.linspace(0.02, 0.98, 50)

    def check(_):
        for ct_a in (1, 100):
            path = os.path.join(out, f"{name}-cta{ct_a}.csv")
            rows = _read_csv(path)
            expect(len(rows) == 50 * len(orc.COST_STRATEGIES), f"{path}: row count")
            for i, row in enumerate(rows):
                lam0 = float(row["lambda0"])
                expect_close(lam0, float(grid[i // 5]), 1e-15, f"{path} row {i} lambda0")
                expect(row["strategy"] == orc.COST_STRATEGIES[i % 5], f"{path} row {i}")
                params = {"j": _opt_int(row["j"]), "k": _opt_int(row["k"]),
                          "L": _opt_int(row["L"]), "n_s": _opt_int(row["n_S"]) or 0,
                          "epsilon_reflection": float(row["epsilon_reflection"] or "nan")}
                orc.check_cost(row["strategy"], float(row["total_t"]), params, lam0,
                               delta, float(ct_a), ("kmm", 0.0), f"{path} row {i}")
            _check_manifest(path, f"figure {name}", seed)

    return Op(name, lambda: _run_cli(rs, ["figure", name, "--seed", str(seed),
                                          "--out", out]), check, out)


def _amplify_ops(rs, rng, outdir: str) -> list[Op]:
    # Bases 0 and 4 have one ancilla, the rest four.
    bases = []
    for index in range(8):
        m = 1 if index % 4 == 0 else 4
        lambda0 = AMP_LAMBDA0[index // 2] * float(rng.uniform(0.95, 1.05))
        spec = SpecInput.draw(rng, m, lambda0)
        bases.append((spec, spec.circuit(rs)))
    # Sizes that set an operation's cost (j, k, L, m, delta of the sizing
    # scans) are fixed per slot, so the sorted operation times, and with
    # them the percentiles, keep their order for every seed. About a quarter
    # of the operations act on one ancilla and take well under a
    # millisecond; the median falls among the m = 4 compositions and cost
    # tables that follow, the 90th percentile inside the fp block.
    ops = []
    for index in range(15):
        ops.append(_standard_op(rs, *bases[index % 8], index % 4))
        ops.append(_deterministic_op(rs, *bases[(index + 3) % 8], rng))
    for k in PI3_DEPTHS:
        for base in (bases[4 * (k % 2)], bases[1 + k % 3]):
            ops.append(_pi3_op(rs, *base, k, 1 if k % 2 else -1))
    for L in FP_LENGTHS:
        for m in (1, 4):
            ops.append(_fp_op(rs, rng, m, L))
    for index in range(11):
        if index < 10:
            ops.append(_inverse_op(rs, *bases[(index + 5) % 8]))
        ops.append(_strategies_op(rs, rng, (1e-3, 1e-6, 1e-9)[index % 3]))
    for name in ("fig2", "figd1"):
        ops.append(_figure_cost_op(rs, name, outdir, rng))
    fixed = np.random.default_rng(PI3_FAILING_SEED)
    for m in (1, 4):
        spec = SpecInput.draw(fixed, m, 0.1)
        ops.append(_pi3_op(rs, spec, spec.circuit(rs), PI3_FAILING_DEPTH, 1, "pi3_deep"))
    return ops


# ============================================================================
# distortion: Monte Carlo estimates, conditional runs, closed-form figures.

# Monte Carlo trials per estimate; the m = 4 batches set the peak memory.
# Sorted by time the round is 30 conditional batches mixed with 40 m = 1
# estimates (holding the median), then 27 m = 4 estimates (holding the 90th
# percentile) and three figures.
MC_TRIALS = {1: 3000, 4: 8000}
MC_OPS = {1: 40, 4: 27}
CONDITIONAL_RUNS = 15
CONDITIONAL_OPS = 30
DIST_LAMBDA0 = (0.25, 0.5)


def _control_amplitudes(rng):
    a2 = float(rng.uniform(0.3, 0.7))
    phase = np.exp(1j * float(rng.uniform(0, 2 * math.pi)))
    return complex(math.sqrt(a2)), complex(math.sqrt(1.0 - a2) * phase)


def _distortion_inputs(rng, m, cell, cells):
    lambda0 = _stratified(rng, *DIST_LAMBDA0, cells, cell, jitter=0.3)
    gamma0 = _stratified(rng, *DIST_LAMBDA0, cells, cells - 1 - cell, jitter=0.3)
    spec = SpecInput.draw(rng, m, lambda0)
    gammas = orc.split_weights(rng, 2**m, gamma0)
    alpha, beta = _control_amplitudes(rng)
    psi0, psi1 = orc.haar_state(rng), orc.haar_state(rng)
    return spec, gammas, alpha, beta, psi0, psi1


def _mc_op(rs, rng, m, cell, cells):
    distortion, qcore = rs["distortion"], rs["qcore"]
    spec, gammas, alpha, beta, psi0, psi1 = _distortion_inputs(rng, m, cell, cells)
    cc = distortion.build_conditional(spec.circuit(rs), gammas,
                                      seed=int(rng.integers(0, 2**31)))
    states = qcore.StateVector(1, psi0), qcore.StateVector(1, psi1)
    op_seed = int(rng.integers(0, 2**31))
    closed = orc.averaged_fidelity(alpha, beta, gammas, spec.lambdas)

    def call():
        cfg = distortion.DistortionConfig(alpha=alpha, beta=beta, psi0=states[0],
                                          psi1=states[1], trials=MC_TRIALS[m],
                                          seed=op_seed)
        return distortion.monte_carlo_fidelity(cc, cfg)

    def check(est):
        expect(est.trials == MC_TRIALS[m] and est.exhausted == 0, "Monte Carlo trial count")
        # Six standard errors: a correct estimator leaves this band about
        # once in 5e8 estimates.
        band = max(6.0 * est.std_error, 1e-12)
        expect(abs(est.mean - closed) <= band,
               f"Monte Carlo m={m}: {est.mean!r} vs averaged fidelity {closed!r} "
               f"(6 sigma = {band:.3g})")

    return Op(f"mc_m{m}", call, check)


def _conditional_op(rs, rng, m, cell, cells, distorted: bool):
    distortion, qcore = rs["distortion"], rs["qcore"]
    spec, gammas, alpha, beta, psi0, psi1 = _distortion_inputs(rng, m, cell, cells)
    circuit = spec.circuit(rs)
    if not distorted:
        gammas = np.eye(2**m)[0]
    build_seed = int(rng.integers(0, 2**31))
    cfg = distortion.DistortionConfig(
        alpha=alpha, beta=beta, psi0=qcore.StateVector(1, psi0),
        psi1=qcore.StateVector(1, psi1), trials=1, seed=0)
    op_seed = int(rng.integers(0, 2**31))

    def call():
        cc = distortion.build_conditional(circuit, gammas if distorted else None,
                                          seed=build_seed)
        stream = qcore.rng_stream(op_seed)
        return [distortion.simulate_conditional_rus(cc, cfg, stream)
                for _ in range(CONDITIONAL_RUNS)]

    def check(runs):
        for i, (record, final) in enumerate(runs):
            what = f"conditional run {i} (m={m}, distorted={distorted})"
            outcomes = list(record.outcomes)
            orc.check_sequence(outcomes, 2**m, what)
            expect(record.attempts == len(outcomes), f"{what}: attempts")
            want = orc.sequence_state(alpha, beta, psi0, psi1, spec.gates[0], gammas,
                                      spec.lambdas, outcomes)
            expect(orc.states_match(final.amps, want), f"{what}: final state")

    return Op("conditional", call, check)


def _figure_distortion_op(rs, name, outdir, rng):
    out = os.path.join(outdir, f"figure-{name}")
    seed = int(rng.integers(0, 2**31))

    def call():
        _run_cli(rs, ["figure", name, "--seed", str(seed), "--out", out])

    def check(_):
        path = os.path.join(out, f"{name}.csv")
        rows = _read_csv(path)
        if name == "fig3":
            grid = np.geomspace(1e-6, 1e-1, 50)
            curves = ("gamma_one", "gamma_under", "gamma_matched")
        else:
            grid = np.linspace(0.02, 0.98, 50)
            curves = ("gamma_one", "gamma_over", "gamma_under", "gamma_matched")
        expect(len(rows) == 50 * len(curves), f"{path}: row count")
        for i, row in enumerate(rows):
            what = f"{path} row {i}"
            curve = curves[i // 50]
            x = float(row["x"])
            expect(row["curve_id"] == curve, f"{what}: curve")
            expect_close(x, float(grid[i % 50]), 1e-15 * x, f"{what} x")
            lam0 = 1.0 - x if name == "fig3" else x
            gamma0 = {"gamma_one": 1.0, "gamma_over": min(1.0, lam0 * 1.3),
                      "gamma_under": lam0 * 0.7, "gamma_matched": lam0}[curve]
            mean = float(row["mean"])
            if name == "fig1-left":
                want = orc.averaged_fidelity(2**-0.5, 2**-0.5, [gamma0, 1 - gamma0],
                                             [lam0, 1 - lam0])
                expect_close(mean, want, 1e-12, f"{what} mean")
            else:
                low, high = orc.fidelity_band(gamma0, lam0)
                expect(low - 1e-12 <= mean <= high + 1e-12,
                       f"{what}: mean {mean} outside [{low}, {high}]")
                expect(int(row["n_samples"]) == 1000, f"{what}: n_samples")
                expect(float(row["std"]) >= 0.0, f"{what}: std")
        _check_manifest(path, f"figure {name}", seed)

    return Op(name, call, check, out)


def _distortion_ops(rs, rng, outdir: str) -> list[Op]:
    ops = []
    for m, count in MC_OPS.items():
        for cell in range(count):
            ops.append(_mc_op(rs, rng, m, cell, count))
    cells = CONDITIONAL_OPS // 2
    for cell in range(cells):
        for m in (1, 4):
            ops.append(_conditional_op(rs, rng, m, cell, cells, distorted=cell % 3 != 0))
    for name in ("fig1-left", "fig1-right", "fig3"):
        ops.append(_figure_distortion_op(rs, name, outdir, rng))
    return ops


# ============================================================================

ROUND_MAKERS = {"simulate": _simulate_ops, "amplify": _amplify_ops,
                "distortion": _distortion_ops}


def build(name: str, rs: dict, seed: int, outdir: str) -> list[Op]:
    """The round of workload ``name`` for ``seed``, in its seeded order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(name)]))
    os.makedirs(outdir, exist_ok=True)
    ops = ROUND_MAKERS[name](rs, rng, outdir)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warm_up_ops(ops: list[Op]) -> list[Op]:
    """The first operation of each kind."""
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def bytes_written(op: Op) -> int:
    if op.cli_out is None:
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(op.cli_out) if entry.is_file())
