"""Time the package's layers call by call across checkouts.

    python3 scripts/engine_bench.py parent=../rusamp-parent change=. [--repeats 40]

Each ``LABEL=PATH`` names a checkout whose ``src/rusamp`` is imported into
this one process under its own module name, so every checkout runs on the
same interpreter, cache and load.  Two tables list the rows, in the order
they print.

``SHAPES`` lists the Monte Carlo batch steps, (kind, m, width): each
checkout builds its own frame and start state from the spec seeded with
``SEED`` (a conditional shape draws its lambda0 and gamma0 from
``CONDITIONAL_WEIGHTS``) and times ``rusamp.rus.run_batch`` of ``width``
trials, each call on a fresh stream of ``SEED`` made outside the timer.

``CALLS`` lists every other row as its name, a set-up and the set-up's
further arguments.  The set-up builds the row's inputs with one checkout,
outside the timer, and returns the argument-free call to time; its
docstring says what the call does.  To add a row, add one entry to
``CALLS``, and its name to ``tests/test_engine_bench.py``.

The calls alternate between checkouts, and the best of ``--repeats``
counts.  Per row and label it prints the best microseconds per call and,
for a batch, per trial-attempt (the number of live trials summed over
attempts, read from the batch's ``trial_log``); any other row prints ``-``
there.
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
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import weakref  # noqa: E402

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
FP_DELTA = 1e-3
# The amplify workload's cost-table grid size, at one tolerance and policy.
STRATEGY_GRID = np.linspace(0.02, 0.98, 24).tolist()
STRATEGY_DELTA = 1e-6
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


def seeded_spec(pkg, m: int):
    """The spec of ``make_spec`` drawn from a fresh stream of ``SEED``."""
    return make_spec(pkg, m, pkg.qcore.rng_stream(SEED))


def seeded_circuit(pkg, m: int):
    """The circuit of ``seeded_spec``."""
    return pkg.rus.build_rus_unitary(seeded_spec(pkg, m))


def compose_and_frame(pkg, m: int):
    """Build a circuit of a prebuilt spec, compose it with two standard
    iterates, and build the composition's frame."""
    spec = seeded_spec(pkg, m)
    return lambda: pkg.oaa.standard_compose(pkg.rus.build_rus_unitary(spec), 2).frame


def plan_and_compose(pkg, m: int, length: int):
    """Plan a fixed-point schedule and compose it with a prebuilt circuit."""
    circuit = seeded_circuit(pkg, m)
    return lambda: pkg.oaa.fp_compose(circuit, pkg.oaa.fp_plan(length, FP_DELTA))


def compose_standard(pkg, m: int, j: int):
    """The composition alone, of a prebuilt circuit: ``j`` standard iterates."""
    return functools.partial(pkg.oaa.standard_compose, seeded_circuit(pkg, m), j)


def compose_deterministic(pkg, m: int):
    """The composition alone, of a prebuilt circuit and plan."""
    circuit = seeded_circuit(pkg, m)
    return functools.partial(pkg.oaa.deterministic_compose, circuit,
                             pkg.oaa.plan_deterministic(circuit.spec.lambda0))


def compose_pi3(pkg, m: int, k: int):
    """The composition alone, of a prebuilt circuit and plan."""
    return functools.partial(pkg.oaa.pi3_compose, seeded_circuit(pkg, m), pkg.oaa.Pi3Plan(k=k))


def compose_fp(pkg, m: int, length: int):
    """The composition alone, of a prebuilt circuit and plan: below and
    above ``oaa.SCALAR_SCHEDULE_LENGTH`` at m = 1, schedules move from
    Python scalars to NumPy passes."""
    return functools.partial(pkg.oaa.fp_compose, seeded_circuit(pkg, m),
                             pkg.oaa.fp_plan(length, FP_DELTA))


def invert(pkg, m: int, length: int = 0):
    """``rus.inverse_rus`` alone, of a prebuilt circuit or, for a
    ``length``, its fixed-point composition, with its full matrix already
    built, as the benchmark's inverse operations find it."""
    circuit = seeded_circuit(pkg, m)
    if length:
        circuit = pkg.oaa.fp_compose(circuit, pkg.oaa.fp_plan(length, FP_DELTA))
    circuit.a_matrix
    return functools.partial(pkg.rus.inverse_rus, circuit)


def build_and_invert(pkg, m: int):
    """Build a circuit of a prebuilt spec and invert it: a checkout that
    inverts through the full matrix builds it here."""
    spec = seeded_spec(pkg, m)
    return lambda: pkg.rus.inverse_rus(pkg.rus.build_rus_unitary(spec))


def build_and_read_matrix(pkg, m: int):
    """Synthesize a circuit of a prebuilt spec and read its full unitary,
    built on that read."""
    spec = seeded_spec(pkg, m)
    return lambda: pkg.rus.build_rus_unitary(spec).a_matrix


def build_conditional(pkg, m: int):
    """``distortion.build_conditional`` of a prebuilt circuit and distorter
    weights."""
    rng = pkg.qcore.rng_stream(SEED)
    lambda0, gamma0 = rng.uniform(*CONDITIONAL_WEIGHTS, size=2).tolist()
    circuit = pkg.rus.build_rus_unitary(make_spec(pkg, m, rng, lambda0))
    return functools.partial(pkg.distortion.build_conditional, circuit,
                             split(rng, m, gamma0), seed=SEED)


def criterion_07(pkg, m: int):
    """``distortion.monte_carlo_fidelity`` of 100,000 trials on one case of
    acceptance criterion 07 at ``m``: control amplitudes, distorter weights,
    spec, build seed, states and run seed drawn in the criterion's order and
    way, from a fresh stream of ``SEED``, and built outside the timer."""
    qcore, distortion = pkg.qcore, pkg.distortion
    rng = qcore.rng_stream(SEED)
    a2 = float(rng.uniform(0.2, 0.8))
    gamma0 = float(rng.uniform(0.1, 0.99))
    lambda0 = float(rng.uniform(0.1, 0.99))
    gammas = rng.random(2**m) + 1e-3
    gammas[1:] *= (1.0 - gamma0) / gammas[1:].sum()
    gammas[0] = gamma0
    lambdas = rng.random(2**m) + 1e-3
    lambdas /= lambdas.sum()
    lambdas[1:] *= (1.0 - lambda0) / lambdas[1:].sum()
    lambdas[0] = lambda0
    spec = pkg.rus.RusSpec(
        m=m, lambdas=lambdas, target=qcore.random_unitary(1, rng),
        recoveries=tuple(qcore.random_unitary(1, rng) for _ in range(2**m - 1)),
        seed=int(rng.integers(0, 2**31)),
    )
    cc = distortion.build_conditional(pkg.rus.build_rus_unitary(spec), gammas,
                                      seed=int(rng.integers(0, 2**31)))
    cfg = distortion.DistortionConfig(
        alpha=math.sqrt(a2), beta=math.sqrt(1.0 - a2), psi0=qcore.random_state(1, rng),
        psi1=qcore.random_state(1, rng), trials=100_000, seed=int(rng.integers(0, 2**31)),
    )
    return functools.partial(distortion.monte_carlo_fidelity, cc, cfg)


def strategies(pkg):
    """Every strategy's cost over ``STRATEGY_GRID`` at ``STRATEGY_DELTA``,
    with kmm reflections."""
    tcost = pkg.tcost
    return lambda: [tcost.all_strategies(tcost.CostQuery(lambda0, STRATEGY_DELTA, 1.0))
                    for lambda0 in STRATEGY_GRID]


def cli_figure(pkg, name: str):
    """``cli.main(["figure", name, ...])``, which formats and writes the
    cost tables too, into a directory removed with the call."""
    out = tempfile.mkdtemp()

    def call():
        if pkg.cli.main(["figure", name, "--seed", str(SEED), "--out", out]) != 0:
            raise RuntimeError(f"figure {name} failed in {pkg.__name__}")

    weakref.finalize(call, shutil.rmtree, out)
    return call


# (name, set-up, *arguments), in print order.
CALLS = [
    ("compose m=1", compose_and_frame, 1),
    ("compose m=4", compose_and_frame, 4),
    ("compose m=6", compose_and_frame, 6),
    ("compose m=8", compose_and_frame, 8),
    # Schedule lengths of the benchmark's fp block, and a deep one.
    ("fp m=1 L=320", plan_and_compose, 1, 320),
    ("fp m=1 L=2000", plan_and_compose, 1, 2_000),
    ("fp m=1 L=100000", plan_and_compose, 1, 100_000),
    ("fp m=4 L=320", plan_and_compose, 4, 320),
    ("fp m=4 L=2000", plan_and_compose, 4, 2_000),
    ("fp m=4 L=100000", plan_and_compose, 4, 100_000),
    ("standard:2 m=1", compose_standard, 1, 2),
    ("standard:2 m=4", compose_standard, 4, 2),
    ("deterministic m=1", compose_deterministic, 1),
    ("deterministic m=4", compose_deterministic, 4),
    ("pi3:5 m=1", compose_pi3, 1, 5),
    ("pi3:5 m=4", compose_pi3, 4, 5),
    ("pi3:10 m=1", compose_pi3, 1, 10),
    ("fp:L=13 m=1", compose_fp, 1, 13),
    ("fp:L=13 m=4", compose_fp, 4, 13),
    ("fp:L=5 m=1", compose_fp, 1, 5),
    ("fp:L=32 m=1", compose_fp, 1, 32),
    ("fp:L=64 m=1", compose_fp, 1, 64),
    ("fp:L=128 m=1", compose_fp, 1, 128),
    ("inverse m=1", invert, 1),
    ("inverse m=4", invert, 4),
    ("inverse composed m=4", invert, 4, 13),
    ("dense m=4", build_and_invert, 4),
    ("dense m=6", build_and_invert, 6),
    ("dense m=8", build_and_invert, 8),
    ("synthesized matrix m=8", build_and_read_matrix, 8),
    ("conditional build m=4", build_conditional, 4),
    ("figure fig1-left", lambda pkg: functools.partial(pkg.distortion.figure1_data, "left", SEED)),
    ("figure fig1-right",
     lambda pkg: functools.partial(pkg.distortion.figure1_data, "right", SEED)),
    ("figure fig3", lambda pkg: functools.partial(pkg.distortion.figure3_data, SEED)),
    ("tcost strategies", strategies),
    ("figure fig2", cli_figure, "fig2"),
    ("figure figd1", cli_figure, "figd1"),
    ("criterion 07 m=1", criterion_07, 1),
    ("criterion 07 m=4", criterion_07, 4),
]


def main(argv=None) -> int:
    args = parse_args(argv)
    labels = [label for label, _ in args.checkout]
    packages = [load_package(init, f"rusamp_bench_{i}")
                for i, (_, init) in enumerate(args.checkout)]
    print(f"{'shape':<24} {'label':<12} {'us/call':>10} {'us/trial-attempt':>17}")
    for kind, m, width in SHAPES:
        best, steps = bench(packages, kind, m, width, args.repeats)
        shape = f"{kind} m={m} n={width}"
        for label, seconds, count in zip(labels, best, steps):
            print(f"{shape:<24} {label:<12} {seconds * 1e6:>10.1f} "
                  f"{seconds * 1e6 / count:>17.3f}")
    for shape, setup, *params in CALLS:
        best = best_of([setup(pkg, *params) for pkg in packages], args.repeats)
        for label, seconds in zip(labels, best):
            print(f"{shape:<24} {label:<12} {seconds * 1e6:>10.1f} {'-':>17}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
