"""Command-line front end: simulation runs, figure datasets, cost tables.

Every data file is CSV with a header row and 17-significant-digit reals, and
is accompanied by a ``<name>.manifest.json`` recording the command, a hash
of the full configuration, the seed, and the tool version.  Identical
command, configuration, and seed reproduce identical CSV bytes.  Each output
file is formatted in memory and written with a single ``write`` call.

Exit codes: 0 on success, 2 on invalid configuration, with one ``error:``
line on standard error, 3 when a statistical acceptance bound fails
(attempt-cap exhaustion above one part in a thousand).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
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


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in one call, newlines as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_json_string = json.encoder.encode_basestring_ascii
_float_text = float.__repr__


def _json_leaves(value):
    """``value`` as JSON leaf texts, encoded as ``json.dumps`` would: a leaf
    is a str, a list stays a list, and a dict becomes a tuple of
    (key text, value) pairs in key order.  Dict keys must be strings."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, float) and math.isfinite(value):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        # Finite floats, most leaves of a spec, are formatted in line.
        return [_float_text(v) if type(v) is float and math.isfinite(v) else _json_leaves(v)
                for v in value]
    if isinstance(value, dict):
        return tuple([(_json_string(k), _json_leaves(v)) for k, v in sorted(value.items())])
    return json.dumps(value)


def _json_layout(tree, pad: str, step: str, colon: str) -> str:
    """The text of ``json.dumps(value, sort_keys=True, ...)`` from the
    leaves of ``value``.  ``pad`` is ``tree``'s line start and ``step`` one
    indentation level, both empty for the compact layout; ``colon`` follows
    each key."""
    if isinstance(tree, str):
        return tree
    if not tree:
        return "[]" if isinstance(tree, list) else "{}"
    inner = pad + step
    if isinstance(tree, list):
        items = [v if type(v) is str else _json_layout(v, inner, step, colon) for v in tree]
        ends = "[]"
    else:
        items = [k + colon + (v if type(v) is str else _json_layout(v, inner, step, colon))
                 for k, v in tree]
        ends = "{}"
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _manifest(command: str, config: dict, seed) -> str:
    """Manifest text; ``config_hash`` hashes the compact canonical encoding.

    Both encodings of ``config`` are laid out from one formatting of its
    leaves.
    """
    config = _json_leaves(config)
    canonical = _json_layout(config, "", "", ":")
    # The manifest's keys, in sorted order.
    manifest = (
        ('"command"', _json_string(command)),
        ('"config"', config),
        ('"config_hash"', _json_string(hashlib.sha256(canonical.encode()).hexdigest())),
        ('"seed"', _json_leaves(seed)),
        ('"timestamp"', _json_string(datetime.now(timezone.utc).isoformat())),
        ('"tool_version"', _json_string(__version__)),
    )
    return _json_layout(manifest, "\n", "  ", ": ") + "\n"


def _parse_psi(text: str) -> qcore.StateVector:
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError("expected two comma-separated amplitudes")
        amps = np.array([complex(p.strip()) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse --psi {text!r}: {exc}") from None
    # Real and imaginary parts, so that a huge modulus cannot overflow here.
    reals = amps.view(np.float64)
    peak = np.max(np.abs(reals))
    if not 0 < peak < np.inf:
        raise ValueError(f"--psi {text!r} must be nonzero and finite")
    # Scaling by a power of two is exact, so the norm neither underflows nor
    # overflows, and amps / norm keeps the bits it has without the scaling.
    amps = np.ldexp(reals, -np.frexp(peak)[1]).view(np.complex128)
    return qcore.StateVector(1, amps / np.linalg.norm(amps))


def _spec_lambda0(circuit: rus.RusCircuit, protocol: str) -> float:
    """The spec's lambda0, for a protocol that takes it as an input."""
    lambda0 = circuit.spec.lambda0
    if not 0.0 < lambda0 <= 1.0:
        raise ValueError(
            f"protocol {protocol!r} needs the spec's lambda0 in (0, 1], got {lambda0!r}"
        )
    return lambda0


def _compose_protocol(circuit: rus.RusCircuit, text: str) -> rus.RusCircuit:
    def number(parse, field: str):
        try:
            return parse(field)
        except ValueError:
            raise ValueError(f"cannot parse protocol {text!r}") from None

    parts = text.split(":")
    name = parts[0]
    if name == "none" and len(parts) == 1:
        return circuit
    if name == "standard" and len(parts) == 2:
        return oaa.standard_compose(circuit, number(int, parts[1]))
    if name == "deterministic" and len(parts) == 1:
        plan = oaa.plan_deterministic(_spec_lambda0(circuit, text))
        return oaa.deterministic_compose(circuit, plan)
    if name == "pi3" and len(parts) in (2, 3):
        sign = 1
        if len(parts) == 3:
            if parts[2] != "neg":
                raise ValueError(f"unknown pi3 modifier {parts[2]!r}")
            sign = -1
        return oaa.pi3_compose(circuit, oaa.Pi3Plan(k=number(int, parts[1]), sign=sign))
    if name == "fp" and len(parts) in (2, 3):
        delta = number(float, parts[1])
        bound = number(float, parts[2]) if len(parts) == 3 else _spec_lambda0(circuit, text)
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
    target = composed.spec.gates[0] @ psi.amps

    try:
        batch = rus.run_batch(composed.frame, psi.amps, args.trials,
                              qcore.rng_stream(args.seed), args.max_attempts)
    except MemoryError as exc:
        raise ValueError(f"--trials {args.trials} needs more memory than there is: {exc}") from exc
    done = ~batch.exhausted
    fids = np.minimum(batch.fidelities(target), 1.0)
    # Every column has a known type, so rows skip _fmt and the csv module;
    # an exhausted trial leaves outcomes and fidelity blank.
    runs = "".join([
        f"{trial},{attempts},1,{';'.join(map(str, outcomes))},{fid:.17g}\n" if ok
        else f"{trial},{attempts},0,,\n"
        for trial, ok, attempts, outcomes, fid in zip(
            range(args.trials), done.tolist(), batch.attempts.tolist(),
            batch.sequences(), fids.tolist(),
        )
    ])
    finished = int(done.sum())
    exhausted = args.trials - finished

    os.makedirs(args.out, exist_ok=True)
    config = {
        "spec": rus.spec_to_dict(spec),
        "protocol": args.protocol,
        "psi": args.psi,
        "trials": args.trials,
        "max_attempts": args.max_attempts,
    }
    # Both data files share one manifest text.
    manifest = _manifest("simulate", config, args.seed)
    runs_path = os.path.join(args.out, "runs.csv")
    _write_text(runs_path, "trial,attempts,success,outcomes,fidelity\n" + runs)
    _write_text(runs_path + ".manifest.json", manifest)

    exhaustion_rate = exhausted / args.trials
    # Success probabilities on the data input |0>, read off the success
    # block's first column.
    success_input, success_composed = (
        float(np.sum(np.abs(c.columns[:2, 0]) ** 2)) for c in (circuit, composed)
    )
    summary = [
        ["trials", args.trials],
        ["success_probability_input", success_input],
        ["success_probability_composed", success_composed],
        ["mean_attempts", float(np.mean(batch.attempts[done])) if finished else None],
        ["mean_fidelity", float(np.mean(fids[done])) if finished else None],
        ["min_fidelity", float(np.min(fids[done])) if finished else None],
        ["exhausted", exhausted],
        ["exhaustion_rate", exhaustion_rate],
    ]
    summary_path = os.path.join(args.out, "summary.csv")
    _write_text(summary_path, "metric,value\n" + "".join(
        [f"{metric},{_fmt(value)}\n" for metric, value in summary]))
    _write_text(summary_path + ".manifest.json", manifest)

    if exhaustion_rate > EXHAUSTION_BOUND:
        print(
            f"attempt cap exhausted in {exhausted}/{args.trials} trials",
            file=sys.stderr,
        )
        return EXIT_STATISTICAL
    return EXIT_OK


# Every column of a figure or cost table has a known type, so rows are
# formatted by one f-string per table, without _fmt or the csv module.
_FIGURE_HEADER = "x,curve_id,mean,std,n_samples,seed\n"
_COST_HEADER = "lambda0,strategy,total_t,j,k,L,n_S,epsilon_reflection\n"


def _figure_text(rows: list[distortion.FigureRow]) -> str:
    return _FIGURE_HEADER + "".join([
        f"{x:.17g},{curve_id},{mean:.17g},{std:.17g},{n_samples},{seed}\n"
        for x, curve_id, mean, std, n_samples, seed in rows
    ])


def _cost_text(rows: list[tuple[float, tcost.CostResult]]) -> str:
    """Strategies leave out the counts they have no value for, and a policy
    without an accuracy leaves epsilon_reflection None: both cells are blank."""
    lines = [_COST_HEADER]
    for lam0, r in rows:
        p = r.params
        eps = p.get("epsilon_reflection")
        lines.append(
            f"{lam0:.17g},{r.strategy},{r.total_t:.17g},{p.get('j', '')},{p.get('k', '')},"
            f"{p.get('L', '')},{p.get('n_s', '')},{'' if eps is None else format(eps, '.17g')}\n"
        )
    return "".join(lines)


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    name = args.name

    def emit(stem: str, text: str, config: dict):
        path = os.path.join(args.out, stem + ".csv")
        _write_text(path, text)
        _write_text(path + ".manifest.json",
                    _manifest(f"figure {name}", config, args.seed))

    # Keys shared by the figures whose failure weights are drawn at random.
    sampled = {"figure": name, "ancillas": 4, "detuning": distortion.DETUNING,
               "draws": distortion.DRAWS_PER_POINT,
               "failure_draw": "iid-uniform-rescaled"}
    if name == "fig1-left":
        emit(name, _figure_text(distortion.figure1_data("left", args.seed)),
             {"figure": name, "panel": "left", "ancillas": 1,
              "detuning": distortion.DETUNING})
    elif name == "fig1-right":
        emit(name, _figure_text(distortion.figure1_data("right", args.seed)),
             {**sampled, "panel": "right"})
    elif name == "fig3":
        emit(name, _figure_text(distortion.figure3_data(args.seed)), sampled)
    elif name in ("fig2", "figd1"):
        delta = 1e-6 if name == "fig2" else 1e-3
        for ct_a in (1.0, 100.0):
            emit(f"{name}-cta{int(ct_a)}", _cost_text(tcost.figure2_data(ct_a, delta)),
                 {"figure": name, "delta": delta, "ct_a": ct_a,
                  "reflection_policy": "kmm"})
    else:
        raise ValueError(f"unknown figure {name!r}")
    return EXIT_OK


def cmd_tcost(args) -> int:
    policy = tcost.ReflectionPolicy.parse(args.reflection_policy)
    query = tcost.CostQuery(
        lambda0=args.lambda0, delta=args.delta, ct_a=args.ct_a,
        reflection_policy=policy,
    )
    try:
        results = tcost.all_strategies(query)
    except tcost.ToleranceUnderflow as exc:
        raise ValueError(f"--delta: {exc}") from None
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
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one ``error:`` line, exit 2, like
    every other configuration error; its subcommand parsers do the same."""

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
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

    fig = sub.add_parser("figure", help="emit a figure dataset")
    fig.add_argument("name", choices=FIGURES)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--out", required=True, help="output directory")

    cost = sub.add_parser("tcost", help="evaluate all cost strategies")
    cost.add_argument("--lambda0", type=float, required=True)
    cost.add_argument("--delta", type=float, default=1e-6)
    cost.add_argument("--ct-a", type=float, default=1.0)
    cost.add_argument("--reflection-policy", default="kmm",
                      help="kmm | zero | fixed:V")
    cost.add_argument("--out", help="also write results as JSON")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so that a replaced module function is the one run.
    commands = {"simulate": cmd_simulate, "figure": cmd_figure, "tcost": cmd_tcost}
    try:
        if "seed" in args:
            qcore.check_integer(args.seed, "--seed", non_negative=True)
        return commands[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
