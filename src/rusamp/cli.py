"""Command-line front end: simulation runs, figure datasets, cost tables.

Every data file is CSV with a header row and 17-significant-digit reals, and
is accompanied by a ``<name>.manifest.json`` recording the command, a hash
of the full configuration, the seed, and the tool version.  Identical
command, configuration, and seed reproduce identical CSV bytes.

Exit codes: 0 on success, 2 on invalid configuration, 3 when a statistical
acceptance bound fails (attempt-cap exhaustion above one part in a thousand).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, distortion, oaa, qcore, rus, tcost

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3

EXHAUSTION_BOUND = 1e-3

FIGURES = ("fig1-left", "fig1-right", "fig2", "fig3", "figd1")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(data_path: str, command: str, config: dict, seed) -> None:
    manifest = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(data_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _thread_cap() -> int:
    raw = os.environ.get("RUSAMP_THREADS")
    if raw is None:
        return 1
    cap = int(raw)
    if cap < 1:
        raise ValueError("RUSAMP_THREADS must be a positive integer")
    return cap


def _parse_psi(text: str) -> qcore.StateVector:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("data state needs two comma-separated amplitudes")
    amps = np.array([complex(p.strip()) for p in parts])
    norm = np.linalg.norm(amps)
    if not 0 < norm < np.inf:
        raise ValueError("data state must be nonzero and finite")
    return qcore.StateVector(1, amps / norm)


def _compose_protocol(circuit: rus.RusCircuit, text: str) -> rus.RusCircuit:
    parts = text.split(":")
    name = parts[0]
    if name == "none" and len(parts) == 1:
        return circuit
    if name == "standard" and len(parts) == 2:
        return oaa.standard_compose(circuit, int(parts[1]))
    if name == "deterministic" and len(parts) == 1:
        plan = oaa.plan_deterministic(circuit.spec.lambda0)
        return oaa.deterministic_compose(circuit, plan)
    if name == "pi3" and len(parts) in (2, 3):
        sign = 1
        if len(parts) == 3:
            if parts[2] != "neg":
                raise ValueError(f"unknown pi3 modifier {parts[2]!r}")
            sign = -1
        return oaa.pi3_compose(circuit, oaa.Pi3Plan(k=int(parts[1]), sign=sign))
    if name == "fp" and len(parts) in (2, 3):
        delta = float(parts[1])
        bound = float(parts[2]) if len(parts) == 3 else circuit.spec.lambda0
        plan = oaa.fp_plan(oaa.fp_length_for(bound, delta), delta)
        return oaa.fp_compose(circuit, plan)
    raise ValueError(f"cannot parse protocol {text!r}")


def cmd_simulate(args) -> int:
    if args.trials < 1 or args.max_attempts < 1:
        raise ValueError("--trials and --max-attempts must be at least 1")
    spec = rus.load_spec(args.spec)
    circuit = rus.build_rus_unitary(spec)
    composed = _compose_protocol(circuit, args.protocol)
    psi = _parse_psi(args.psi)
    target = composed.spec.target.mat @ psi.amps

    rng = qcore.rng_stream(args.seed)
    rows = []
    attempts_seen = []
    fidelities = []
    exhausted = 0
    for trial in range(args.trials):
        try:
            record = rus.run_rus(composed, psi, rng, max_attempts=args.max_attempts)
        except rus.MaxAttemptsExceeded:
            exhausted += 1
            rows.append([trial, args.max_attempts, 0, "", None])
            continue
        fid = float(min(abs(np.vdot(target, record.final_state.amps)) ** 2, 1.0))
        attempts_seen.append(record.attempts)
        fidelities.append(fid)
        rows.append(
            [trial, record.attempts, 1, ";".join(map(str, record.outcomes)), fid]
        )

    os.makedirs(args.out, exist_ok=True)
    config = {
        "spec": rus.spec_to_dict(spec),
        "protocol": args.protocol,
        "psi": args.psi,
        "trials": args.trials,
        "max_attempts": args.max_attempts,
    }
    runs_path = os.path.join(args.out, "runs.csv")
    _write_csv(
        runs_path, ["trial", "attempts", "success", "outcomes", "fidelity"], rows
    )
    _write_manifest(runs_path, "simulate", config, args.seed)

    basis = qcore.basis_state(1)
    exhaustion_rate = exhausted / args.trials
    summary = [
        ["trials", args.trials],
        ["success_probability_input", rus.success_probability(circuit, basis)],
        ["success_probability_composed", rus.success_probability(composed, basis)],
        ["mean_attempts", float(np.mean(attempts_seen)) if attempts_seen else None],
        ["mean_fidelity", float(np.mean(fidelities)) if fidelities else None],
        ["min_fidelity", float(np.min(fidelities)) if fidelities else None],
        ["exhausted", exhausted],
        ["exhaustion_rate", exhaustion_rate],
    ]
    summary_path = os.path.join(args.out, "summary.csv")
    _write_csv(summary_path, ["metric", "value"], summary)
    _write_manifest(summary_path, "simulate", config, args.seed)

    if exhaustion_rate > EXHAUSTION_BOUND:
        print(
            f"attempt cap exhausted in {exhausted}/{args.trials} trials",
            file=sys.stderr,
        )
        return EXIT_STATISTICAL
    return EXIT_OK


_FIGURE_HEADER = ["x", "curve_id", "mean", "std", "n_samples", "seed"]
_COST_HEADER = [
    "lambda0", "strategy", "total_t", "j", "k", "L", "n_S", "epsilon_reflection",
]


def _figure_rows(rows: list[distortion.FigureRow]) -> list[list]:
    return [
        [r.x, r.curve_id, r.mean, r.std, r.n_samples, r.seed] for r in rows
    ]


def _cost_rows(rows: list[tcost.CostRow]) -> list[list]:
    return [
        [r.lambda0, r.strategy, r.total_t, r.j, r.k, r.L, r.n_s,
         r.epsilon_reflection]
        for r in rows
    ]


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    name = args.name

    def emit(stem: str, header: list[str], rows: list[list], config: dict, seed):
        path = os.path.join(args.out, stem + ".csv")
        _write_csv(path, header, rows)
        _write_manifest(path, f"figure {name}", config, seed)

    if name == "fig1-left":
        rows = distortion.figure1_data("left", args.seed)
        emit("fig1-left", _FIGURE_HEADER, _figure_rows(rows),
             {"figure": name, "panel": "left", "ancillas": 1,
              "detuning": distortion.DETUNING}, args.seed)
    elif name == "fig1-right":
        rows = distortion.figure1_data("right", args.seed)
        emit("fig1-right", _FIGURE_HEADER, _figure_rows(rows),
             {"figure": name, "panel": "right", "ancillas": 4,
              "detuning": distortion.DETUNING,
              "draws": distortion.DRAWS_PER_POINT,
              "failure_draw": "iid-uniform-rescaled"}, args.seed)
    elif name == "fig3":
        rows = distortion.figure3_data(args.seed)
        emit("fig3", _FIGURE_HEADER, _figure_rows(rows),
             {"figure": name, "ancillas": 4,
              "detuning": distortion.DETUNING,
              "draws": distortion.DRAWS_PER_POINT,
              "failure_draw": "iid-uniform-rescaled"}, args.seed)
    elif name in ("fig2", "figd1"):
        delta = 1e-6 if name == "fig2" else 1e-3
        for ct_a in (1.0, 100.0):
            rows = tcost.figure2_data(ct_a, delta)
            emit(f"{name}-cta{int(ct_a)}", _COST_HEADER, _cost_rows(rows),
                 {"figure": name, "delta": delta, "ct_a": ct_a,
                  "reflection_policy": "kmm"}, args.seed)
    else:
        raise ValueError(f"unknown figure {name!r}")
    return EXIT_OK


def cmd_tcost(args) -> int:
    policy = tcost.ReflectionPolicy.parse(args.reflection_policy)
    query = tcost.CostQuery(
        lambda0=args.lambda0, delta=args.delta, ct_a=args.ct_a,
        reflection_policy=policy,
    )
    results = tcost.all_strategies(query)
    width = max(len(r.strategy) for r in results)
    for r in results:
        detail = ", ".join(f"{k}={_fmt(v)}" for k, v in r.params.items())
        print(f"{r.strategy:<{width}}  total_t={_fmt(r.total_t)}  [{detail}]")
    if args.out:
        payload = {
            "query": {
                "lambda0": args.lambda0, "delta": args.delta, "ct_a": args.ct_a,
                "reflection_policy": args.reflection_policy,
            },
            "results": [
                {"strategy": r.strategy, "total_t": r.total_t, "params": r.params}
                for r in results
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rusamp",
        description="Simulate repeat-until-success circuits, amplification "
        "protocols, conditional-control distortion, and T-gate cost models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a circuit spec repeatedly")
    sim.add_argument("--spec", required=True, help="path to a circuit spec JSON")
    sim.add_argument(
        "--protocol",
        default="none",
        help="none | standard:J | deterministic | pi3:K[:neg] | fp:DELTA[:WBOUND]",
    )
    sim.add_argument("--psi", default="1,0", help="data state as 'amp0,amp1'")
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-attempts", type=int, default=rus.DEFAULT_MAX_ATTEMPTS)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    fig = sub.add_parser("figure", help="emit a figure dataset")
    fig.add_argument("name", choices=FIGURES)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--out", required=True, help="output directory")
    fig.set_defaults(func=cmd_figure)

    cost = sub.add_parser("tcost", help="evaluate all cost strategies")
    cost.add_argument("--lambda0", type=float, required=True)
    cost.add_argument("--delta", type=float, default=1e-6)
    cost.add_argument("--ct-a", type=float, default=1.0)
    cost.add_argument("--reflection-policy", default="kmm",
                      help="kmm | zero | fixed:V")
    cost.add_argument("--out", help="also write results as JSON")
    cost.set_defaults(func=cmd_tcost)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_cap()
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
