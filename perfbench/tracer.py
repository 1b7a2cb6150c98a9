"""Spans around rusamp's public functions, installed from outside the package.

A span records name, start, end and parent. Spans stay in memory (up to a
cap) and are written out when the run ends; per-name counts, inclusive time
and self time (a span minus its child spans) are kept for every span, so
the per-layer numbers do not depend on the cap. Functions are replaced on
their module, which reaches every ``module.function`` caller and every call
inside the defining module. The ``StateVector``/``UnitaryMatrix`` validators
are replaced on the class, so that names bound by ``from .qcore import ...``
are timed too.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

MODULES = ("cli", "rus", "oaa", "distortion", "tcost", "qcore")
# Private functions the CLI reaches into; traced while they exist so that
# their work is not counted as CLI self time.
PRIVATE = {"oaa": ("_compose",)}
VALIDATED_CLASSES = ("StateVector", "UnitaryMatrix")

# Spans whose inclusive time is the composition of an amplified circuit.
COMPOSE_SPANS = (
    "oaa.standard_compose",
    "oaa.standard_oaa_state",
    "oaa.apply_deterministic",
    "oaa.pi3_compose",
    "oaa.fp_compose",
)


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        self.stats: dict[str, list[int]] = {}  # name -> [count, total_ns, self_ns]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        return duration

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span (one benchmark operation)."""
        frame = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- installation ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.parent_name()
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                duration = tracer._exit(frame)
                if hook is not None:
                    hook(tracer, parent, args, kwargs, None, exc, duration)
                raise
            duration = tracer._exit(frame)
            if hook is not None:
                hook(tracer, parent, args, kwargs, result, None, duration)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, hook))
        self._patches.append((owner, attr, original))

    def install(self, package: dict) -> None:
        """Wrap the public functions of every module in ``package``."""
        for mod_name in MODULES:
            module = package[mod_name]
            for attr, value in list(vars(module).items()):
                public = not attr.startswith("_")
                if not (public or attr in PRIVATE.get(mod_name, ())):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    name = f"{mod_name}.{attr}"
                    self._patch(module, attr, name, HOOKS.get(name))
        qcore = package["qcore"]
        for cls_name in VALIDATED_CLASSES:
            self._patch(getattr(qcore, cls_name), "__post_init__", f"qcore.{cls_name}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> tuple[dict, dict]:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counters))

    def write(self, path: str) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "names": names,
            "spans": [[i, p, index[n], s, e] for i, p, n, s, e in self.spans],
            "dropped": self.dropped,
            "stats": {k: {"count": v[0], "total_ns": v[1], "self_ns": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- counters taken where the work happens ---------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _run_rus(tracer, parent, args, kwargs, result, exc, duration):
    if result is not None:
        tracer.count("rus.attempts", result.attempts)
        tracer.count("rus.successes")
    elif type(exc).__name__ == "MaxAttemptsExceeded":
        tracer.count("rus.attempts", _arg(args, kwargs, 3, "max_attempts", 10_000))


def _circuit_calls(calls_of):
    # Counted for compositions that return: a rejected result represents none.
    def hook(tracer, parent, args, kwargs, result, exc, duration):
        if exc is None:
            tracer.count("oaa.circuit_calls", calls_of(args, kwargs))
    return hook


def _deterministic_calls(args, kwargs):
    plan = _arg(args, kwargs, 1, "plan")
    return 2 * plan.j + 1 + (2 if plan.chi != 0.0 else 0)


def _private_compose(tracer, parent, args, kwargs, result, exc, duration):
    # Called from an oaa function it is already counted there; called from
    # the CLI it is that command's deterministic-protocol composition.
    if parent is None or not parent.startswith("oaa."):
        pairs = _arg(args, kwargs, 1, "phase_pairs")
        tracer.count("oaa.circuit_calls", 2 * len(pairs) + 1)
        tracer.count("oaa.reach_through_ns", duration)


def _conditional(tracer, parent, args, kwargs, result, exc, duration):
    if result is not None:
        tracer.count("distortion.conditional_attempts", result[0].attempts)


def _monte_carlo(tracer, parent, args, kwargs, result, exc, duration):
    tracer.count("distortion.mc_trials", _arg(args, kwargs, 1, "cfg").trials)


HOOKS = {
    "rus.run_rus": _run_rus,
    "oaa.standard_compose": _circuit_calls(lambda a, k: 2 * _arg(a, k, 1, "j") + 1),
    "oaa.standard_oaa_state": _circuit_calls(lambda a, k: 2 * _arg(a, k, 1, "j") + 1),
    "oaa.apply_deterministic": _circuit_calls(_deterministic_calls),
    "oaa.pi3_compose": _circuit_calls(lambda a, k: 3 ** _arg(a, k, 1, "plan").k),
    "oaa.fp_compose": _circuit_calls(lambda a, k: 2 * _arg(a, k, 1, "plan").L + 1),
    "oaa._compose": _private_compose,
    "distortion.simulate_conditional_rus": _conditional,
    "distortion.monte_carlo_fidelity": _monte_carlo,
}


# -- per-layer metrics ------------------------------------------------------------

PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "B"),
    ("rus.attempts", "count"),
    ("rus.success_per_attempt", "ratio"),
    ("rus.us_per_attempt", "us"),
    ("rus.run_self_ms", "ms"),
    ("rus.build_ms", "ms"),
    ("rus.extract_ms", "ms"),
    ("rus.inverse_ms", "ms"),
    ("qcore.state_inits", "count"),
    ("qcore.unitary_inits", "count"),
    ("qcore.validate_ms", "ms"),
    ("qcore.measure_calls", "count"),
    ("qcore.measure_us", "us"),
    ("qcore.isometry_ms", "ms"),
    ("oaa.circuit_calls", "count"),
    ("oaa.us_per_circuit_call", "us"),
    ("oaa.fp_compose_ms", "ms"),
    ("oaa.pi3_compose_ms", "ms"),
    ("oaa.standard_compose_ms", "ms"),
    ("oaa.deterministic_ms", "ms"),
    ("oaa.fp_length_for_ms", "ms"),
    ("distortion.mc_trials", "count"),
    ("distortion.mc_trials_per_s", "1/s"),
    ("distortion.conditional_attempts", "count"),
    ("distortion.conditional_us_per_attempt", "us"),
    ("distortion.figure_ms", "ms"),
    ("distortion.build_conditional_ms", "ms"),
    ("tcost.strategies_us", "us"),
    ("tcost.figure2_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def combine(setup: tuple[dict, dict], end: tuple[dict, dict], rounds: int):
    """Stats for one set-up pass plus one round: setup + (end - setup) / rounds."""
    stats0, counters0 = setup
    stats1, counters1 = end
    stats = {}
    for name, after in stats1.items():
        before = stats0.get(name, [0, 0, 0])
        stats[name] = [b + (a - b) / rounds for a, b in zip(after, before)]
    counters = {
        key: counters0.get(key, 0) + (value - counters0.get(key, 0)) / rounds
        for key, value in counters1.items()
    }
    return stats, counters


def layer_metrics(stats: dict, counters: dict, overhead_pct: float) -> dict:
    """Per-layer metrics for one set-up pass plus one round of operations."""

    def count(name):
        return stats.get(name, [0, 0, 0])[0]

    def total_ms(*names):
        return sum(stats.get(n, [0, 0, 0])[1] for n in names) / 1e6

    def self_ms(prefix):
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix)) / 1e6

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    attempts = counters.get("rus.attempts", 0)
    calls = counters.get("oaa.circuit_calls", 0)
    # The CLI's deterministic protocol composes through oaa._compose directly.
    reach_ms = counters.get("oaa.reach_through_ns", 0) / 1e6
    compose_ms = total_ms(*COMPOSE_SPANS) + reach_ms
    deterministic_ms = total_ms("oaa.plan_deterministic", "oaa.apply_deterministic") + reach_ms
    mc_trials = counters.get("distortion.mc_trials", 0)
    cond_attempts = counters.get("distortion.conditional_attempts", 0)
    values = {
        "cli.self_ms": self_ms("cli."),
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
        "rus.attempts": attempts,
        "rus.success_per_attempt": per(counters.get("rus.successes", 0), attempts),
        "rus.us_per_attempt": per(total_ms("rus.run_rus"), attempts, 1e3),
        "rus.run_self_ms": stats.get("rus.run_rus", [0, 0, 0])[2] / 1e6,
        "rus.build_ms": total_ms("rus.build_rus_unitary"),
        "rus.extract_ms": total_ms("rus.circuit_from_matrix"),
        "rus.inverse_ms": total_ms("rus.inverse_rus"),
        "qcore.state_inits": count("qcore.StateVector"),
        "qcore.unitary_inits": count("qcore.UnitaryMatrix"),
        "qcore.validate_ms": total_ms("qcore.StateVector", "qcore.UnitaryMatrix"),
        "qcore.measure_calls": count("qcore.measure_ancillas"),
        "qcore.measure_us": per(total_ms("qcore.measure_ancillas"),
                                count("qcore.measure_ancillas"), 1e3),
        "qcore.isometry_ms": total_ms("qcore.complete_isometry"),
        "oaa.circuit_calls": calls,
        "oaa.us_per_circuit_call": per(compose_ms, calls, 1e3),
        "oaa.fp_compose_ms": total_ms("oaa.fp_compose"),
        "oaa.pi3_compose_ms": total_ms("oaa.pi3_compose"),
        "oaa.standard_compose_ms": total_ms("oaa.standard_compose"),
        "oaa.deterministic_ms": deterministic_ms,
        "oaa.fp_length_for_ms": total_ms("oaa.fp_length_for"),
        "distortion.mc_trials": mc_trials,
        "distortion.mc_trials_per_s": per(mc_trials, total_ms("distortion.monte_carlo_fidelity"), 1e3),
        "distortion.conditional_attempts": cond_attempts,
        "distortion.conditional_us_per_attempt": per(
            total_ms("distortion.simulate_conditional_rus"), cond_attempts, 1e3),
        "distortion.figure_ms": total_ms("distortion.figure1_data", "distortion.figure3_data"),
        "distortion.build_conditional_ms": total_ms("distortion.build_conditional"),
        "tcost.strategies_us": per(total_ms("tcost.all_strategies"),
                                   count("tcost.all_strategies"), 1e3),
        "tcost.figure2_ms": total_ms("tcost.figure2_data"),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
