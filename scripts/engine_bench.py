"""Time one Monte Carlo batch step and one composition across checkouts.

    python3 scripts/engine_bench.py parent=../rusamp-parent change=. [--repeats 40]

Each ``LABEL=PATH`` names a checkout whose ``src/rusamp`` is imported into
this one process under its own module name, so every checkout runs on the
same interpreter, cache and load. For every shape in ``SHAPES`` each
checkout builds its own frame from the spec seeded with ``SEED`` and times
``rusamp.rus.run_batch`` on it; a conditional shape draws its lambda0 and
gamma0 from ``CONDITIONAL_WEIGHTS``. For every ancilla count in
``COMPOSE_SHAPES`` each checkout times ``build_rus_unitary`` on that spec,
then ``oaa.standard_compose(circuit, 2)``, then the composed circuit's
``frame``. For every (m, L) in ``FP_SHAPES`` each checkout builds the
circuit of that spec once and times ``oaa.fp_plan(L, FP_DELTA)`` plus
``oaa.fp_compose`` with it. For every protocol in ``PROTOCOLS`` and each of
its ancilla counts each checkout builds the circuit and the plan once and
times the composition alone; the fixed-point rows at m = 1 take lengths on
both sides of ``oaa.SCALAR_SCHEDULE_LENGTH``. For every ancilla count in
``INVERSE_SHAPES`` each checkout builds the circuit and its ``a_matrix``
once and times ``rus.inverse_rus`` alone; for every ancilla count in
``INVERSE_COMPOSED_SHAPES`` it does the same for that circuit's fixed-point
composition at length ``INVERSE_FP_LENGTH``. For every ancilla count in
``DENSE_SHAPES`` each checkout times ``rus.inverse_rus`` of a circuit it
builds in the timed call, so a checkout that inverts through the full
matrix builds its ``a_matrix`` there too. For every ancilla count in
``SYNTHESIZED_SHAPES`` each checkout times reading the ``a_matrix`` of a
circuit it synthesizes in the timed call. For every
ancilla count in ``CONDITIONAL_BUILD_SHAPES`` each checkout builds the
circuit and its distorter weights once and times
``distortion.build_conditional`` with them. For every name in ``FIGURES`` each
checkout times the ``rusamp.distortion`` call that builds that figure's rows
at ``SEED``. Each
checkout times ``tcost.all_strategies`` over the ``STRATEGY_GRID`` of
lambda0 at ``STRATEGY_DELTA`` with kmm reflections, and, for every name in
``CLI_FIGURES``, ``cli.main(["figure", name, ...])`` into a temporary
directory, which formats and writes the cost tables too. The
calls alternate between checkouts, each batch on a fresh stream of ``SEED``,
and the best of ``--repeats`` counts. Per shape and label it prints the best
microseconds per call and, for a batch, per trial-attempt (the number of live
trials summed over attempts, read from the batch's ``trial_log``); a
composition or a figure prints ``-`` there.
"""

from __future__ import annotations

import os

# BLAS pools read these once, when NumPy loads: pin them first so that every
# product runs on the calling thread, as in perfbench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# (kind, m, width): conditional frames carry a control qubit and a distorter;
# the plain m = 6 frame has more outcomes (64) than register entries.
SHAPES = (
    ("conditional", 1, 1), ("conditional", 1, 3_000), ("conditional", 1, 8_000),
    ("conditional", 4, 1), ("conditional", 4, 3_000), ("conditional", 4, 8_000),
    ("plain", 1, 50), ("plain", 1, 250), ("plain", 3, 50), ("plain", 3, 250),
    ("plain", 6, 2_000),
)
# The range of lambda0 and gamma0 of the conditional shapes, as in
# perfbench's Monte Carlo operations.
CONDITIONAL_WEIGHTS = (0.25, 0.5)
# Ancilla counts m of the composition shapes.
COMPOSE_SHAPES = (1, 4, 6, 8)


def _fixed_point_call(length: int):
    """The composition-only call of a length-``length`` fixed-point schedule."""
    return lambda oaa, c: functools.partial(oaa.fp_compose, c, oaa.fp_plan(length, FP_DELTA))


# Composition-only shapes: each protocol's composition of a prebuilt circuit
# with a prebuilt plan, at each of its ancilla counts m.  The fixed-point
# lengths at m = 1 lie on both sides of the length where schedules move from
# Python scalars to NumPy passes.
PROTOCOLS = {
    "standard:2": ((1, 4), lambda oaa, c: functools.partial(oaa.standard_compose, c, 2)),
    "deterministic": ((1, 4), lambda oaa, c: functools.partial(
        oaa.deterministic_compose, c, oaa.plan_deterministic(c.spec.lambda0))),
    "pi3:5": ((1, 4), lambda oaa, c: functools.partial(oaa.pi3_compose, c, oaa.Pi3Plan(k=5))),
    "pi3:10": ((1,), lambda oaa, c: functools.partial(oaa.pi3_compose, c, oaa.Pi3Plan(k=10))),
    "fp:L=13": ((1, 4), _fixed_point_call(13)),
    **{f"fp:L={length}": ((1,), _fixed_point_call(length)) for length in (5, 32, 64, 128)},
}
# Ancilla counts of the inverse shapes, of synthesized circuits and of
# their fixed-point compositions.
INVERSE_SHAPES = (1, 4)
INVERSE_COMPOSED_SHAPES = (4,)
INVERSE_FP_LENGTH = 13
# Ancilla counts of the dense shapes: build and invert in one call; a
# checkout that inverts through the full matrix builds it there.
DENSE_SHAPES = (4, 6, 8)
# Ancilla counts of the synthesized-matrix shapes: synthesize, then read the
# full unitary, built and checked on that read.
SYNTHESIZED_SHAPES = (8,)
# Ancilla counts of the distorted conditional builds.
CONDITIONAL_BUILD_SHAPES = (4,)
# (m, L) of the fixed-point shapes: schedule lengths of the benchmark's
# fp block, and a deep one.
FP_SHAPES = ((1, 320), (1, 2_000), (1, 100_000), (4, 320), (4, 2_000), (4, 100_000))
FP_DELTA = 1e-3
# Figure datasets, each a call on a checkout's ``distortion`` module.
FIGURES = {
    "fig1-left": lambda distortion: distortion.figure1_data("left", SEED),
    "fig1-right": lambda distortion: distortion.figure1_data("right", SEED),
    "fig3": lambda distortion: distortion.figure3_data(SEED),
}
# The amplify workload's cost-table grid size, at one tolerance and policy.
STRATEGY_GRID = np.linspace(0.02, 0.98, 24).tolist()
STRATEGY_DELTA = 1e-6
# Cost figures run through each checkout's command line.
CLI_FIGURES = ("fig2", "figd1")
LAMBDA0 = 0.3
SEED = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="+", metavar="LABEL=PATH")
    parser.add_argument("--repeats", type=int, default=40, help="calls per shape and label")
    args = parser.parse_args(argv)
    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        init = os.path.join(path, "src", "rusamp", "__init__.py")
        if not sep or not label or not os.path.isfile(init):
            parser.error(f"{item!r}: expected LABEL=PATH of a checkout")
        checkouts.append((label, init))
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    args.checkout = checkouts
    return args


def load_package(init: str, name: str):
    """Import the package at ``init`` as ``name``, with its submodules."""
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("qcore", "rus", "oaa", "distortion", "tcost", "cli"):
        importlib.import_module(f"{name}.{sub}")
    return package


def split(rng, m: int, first: float) -> np.ndarray:
    """2**m weights summing to 1: ``first``, then the rest drawn from ``rng``."""
    rest = rng.random(2**m - 1)
    return np.concatenate(([first], rest * (1.0 - first) / rest.sum()))


def make_spec(pkg, m: int, rng, lambda0: float = LAMBDA0):
    """A spec with success probability ``lambda0`` and gates drawn from ``rng``."""
    qcore = pkg.qcore
    return pkg.rus.RusSpec(
        m=m, lambdas=split(rng, m, lambda0), target=qcore.random_unitary(1, rng),
        recoveries=tuple(qcore.random_unitary(1, rng) for _ in range(2**m - 1)),
        seed=SEED,
    )


def batch_input(pkg, kind: str, m: int):
    """The frame and start state of one shape, built by the checkout ``pkg``."""
    qcore, rus, distortion = pkg.qcore, pkg.rus, pkg.distortion
    rng = qcore.rng_stream(SEED)
    if kind == "plain":
        circuit = rus.build_rus_unitary(make_spec(pkg, m, rng))
        return circuit.frame, qcore.random_state(1, rng).amps
    lambda0, gamma0 = rng.uniform(*CONDITIONAL_WEIGHTS, size=2).tolist()
    circuit = rus.build_rus_unitary(make_spec(pkg, m, rng, lambda0))
    psi = qcore.random_state(1, rng)
    cc = distortion.build_conditional(circuit, split(rng, m, gamma0), seed=SEED)
    state = np.zeros(4, dtype=np.complex128)
    state[0::2] = 0.6 * psi.amps
    state[1::2] = 0.8j * qcore.random_state(1, rng).amps
    return cc.frame, state


def bench(packages, kind: str, m: int, width: int, repeats: int):
    """Best seconds per call and trial-attempts per call, per package."""
    inputs = [batch_input(pkg, kind, m) for pkg in packages]
    best = [np.inf] * len(packages)
    steps = [0] * len(packages)
    for _ in range(repeats):
        for i, (pkg, (frame, state)) in enumerate(zip(packages, inputs)):
            rng = pkg.qcore.rng_stream(SEED)
            start = time.perf_counter()
            batch = pkg.rus.run_batch(frame, state, width, rng)
            best[i] = min(best[i], time.perf_counter() - start)
            steps[i] = batch.trial_log.size
    return best, steps


def best_of(calls, repeats: int):
    """Best seconds per call of each argument-free callable, taken in turn."""
    best = [np.inf] * len(calls)
    for _ in range(repeats):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def compose(pkg, spec):
    """Build, compose and frame: the composition shape's timed call."""
    return pkg.oaa.standard_compose(pkg.rus.build_rus_unitary(spec), 2).frame


def fixed_point(pkg, circuit, length: int):
    """Plan and compose: the fixed-point shape's timed call."""
    return pkg.oaa.fp_compose(circuit, pkg.oaa.fp_plan(length, FP_DELTA))


def inverse_input(pkg, m: int, composed: bool = False):
    """The circuit of the inverse shape, or its fixed-point composition, its
    full matrix already built, as the benchmark's inverse operations find
    it."""
    circuit = pkg.rus.build_rus_unitary(make_spec(pkg, m, pkg.qcore.rng_stream(SEED)))
    if composed:
        circuit = pkg.oaa.fp_compose(circuit, pkg.oaa.fp_plan(INVERSE_FP_LENGTH, FP_DELTA))
    circuit.a_matrix
    return circuit


def dense(pkg, spec):
    """Build and invert: the dense shape's timed call."""
    return pkg.rus.inverse_rus(pkg.rus.build_rus_unitary(spec))


def synthesized_matrix(pkg, spec):
    """Synthesize and read the full unitary: the synthesized shape's timed
    call."""
    return pkg.rus.build_rus_unitary(spec).a_matrix


def conditional_build_input(pkg, m: int):
    """The circuit and distorter weights of the conditional build shape."""
    rng = pkg.qcore.rng_stream(SEED)
    lambda0, gamma0 = rng.uniform(*CONDITIONAL_WEIGHTS, size=2).tolist()
    circuit = pkg.rus.build_rus_unitary(make_spec(pkg, m, rng, lambda0))
    return circuit, split(rng, m, gamma0)


def strategies(pkg):
    """Every strategy's cost over the grid: the cost-table shape's timed call."""
    tcost = pkg.tcost
    return [tcost.all_strategies(tcost.CostQuery(lambda0, STRATEGY_DELTA, 1.0))
            for lambda0 in STRATEGY_GRID]


def cli_figure(pkg, name: str, out: str):
    """One figure through the command line: the CLI figure shape's timed call."""
    if pkg.cli.main(["figure", name, "--seed", str(SEED), "--out", out]) != 0:
        raise RuntimeError(f"figure {name} failed in {pkg.__name__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    packages = [load_package(init, f"rusamp_bench_{i}")
                for i, (_, init) in enumerate(args.checkout)]
    print(f"{'shape':<24} {'label':<12} {'us/call':>10} {'us/trial-attempt':>17}")
    for kind, m, width in SHAPES:
        best, steps = bench(packages, kind, m, width, args.repeats)
        shape = f"{kind} m={m} n={width}"
        for (label, _), seconds, count in zip(args.checkout, best, steps):
            print(f"{shape:<24} {label:<12} {seconds * 1e6:>10.1f} "
                  f"{seconds * 1e6 / count:>17.3f}")
    timed = [
        (f"compose m={m}",
         [functools.partial(compose, pkg, make_spec(pkg, m, pkg.qcore.rng_stream(SEED)))
          for pkg in packages])
        for m in COMPOSE_SHAPES
    ] + [
        (f"fp m={m} L={length}",
         [functools.partial(fixed_point, pkg, pkg.rus.build_rus_unitary(
             make_spec(pkg, m, pkg.qcore.rng_stream(SEED))), length) for pkg in packages])
        for m, length in FP_SHAPES
    ] + [
        (f"{name} m={m}",
         [call(pkg.oaa, pkg.rus.build_rus_unitary(
             make_spec(pkg, m, pkg.qcore.rng_stream(SEED)))) for pkg in packages])
        for name, (shapes, call) in PROTOCOLS.items() for m in shapes
    ] + [
        (f"inverse m={m}",
         [functools.partial(pkg.rus.inverse_rus, inverse_input(pkg, m)) for pkg in packages])
        for m in INVERSE_SHAPES
    ] + [
        (f"inverse composed m={m}",
         [functools.partial(pkg.rus.inverse_rus, inverse_input(pkg, m, composed=True))
          for pkg in packages])
        for m in INVERSE_COMPOSED_SHAPES
    ] + [
        (f"dense m={m}",
         [functools.partial(dense, pkg, make_spec(pkg, m, pkg.qcore.rng_stream(SEED)))
          for pkg in packages])
        for m in DENSE_SHAPES
    ] + [
        (f"synthesized matrix m={m}",
         [functools.partial(synthesized_matrix, pkg,
                            make_spec(pkg, m, pkg.qcore.rng_stream(SEED)))
          for pkg in packages])
        for m in SYNTHESIZED_SHAPES
    ] + [
        (f"conditional build m={m}",
         [functools.partial(pkg.distortion.build_conditional,
                            *conditional_build_input(pkg, m), seed=SEED)
          for pkg in packages])
        for m in CONDITIONAL_BUILD_SHAPES
    ] + [
        (f"figure {name}", [functools.partial(call, pkg.distortion) for pkg in packages])
        for name, call in FIGURES.items()
    ] + [
        ("tcost strategies", [functools.partial(strategies, pkg) for pkg in packages])
    ]
    with tempfile.TemporaryDirectory() as out:
        timed += [
            (f"figure {name}",
             [functools.partial(cli_figure, pkg, name, os.path.join(out, str(i)))
              for i, pkg in enumerate(packages)])
            for name in CLI_FIGURES
        ]
        for shape, calls in timed:
            best = best_of(calls, args.repeats)
            for (label, _), seconds in zip(args.checkout, best):
                print(f"{shape:<24} {label:<12} {seconds * 1e6:>10.1f} {'-':>17}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
