import contextlib
import csv
import hashlib
import io
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import conftest
from rusamp import cli, distortion, oaa, qcore, rus, tcost

GOLDEN = Path(__file__).parent / "golden"


def _write_spec(tmp_path, lambda0=0.3, m=1, seed=7):
    rng = qcore.rng_stream(123)
    lambdas = np.zeros(2**m)
    lambdas[0] = lambda0
    lambdas[-1] = 1.0 - lambda0
    spec = rus.RusSpec(
        m=m,
        lambdas=lambdas,
        target=qcore.random_unitary(1, rng),
        recoveries=tuple(qcore.random_unitary(1, rng) for _ in range(2**m - 1)),
        seed=seed,
    )
    path = tmp_path / "spec.json"
    rus.save_spec(spec, path)
    return path


def _read_summary(out_dir) -> dict:
    with open(Path(out_dir) / "summary.csv", newline="") as fh:
        return {row["metric"]: row["value"] for row in csv.DictReader(fh)}


def _read_runs(out_dir) -> list[dict]:
    with open(Path(out_dir) / "runs.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_plain_run(self, tmp_path):
        spec = _write_spec(tmp_path)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--trials", "200",
             "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        runs = _read_runs(out)
        assert len(runs) == 200
        assert all(r["success"] == "1" for r in runs)
        assert all(r["outcomes"].endswith("0") for r in runs)
        summary = _read_summary(out)
        assert float(summary["success_probability_input"]) == pytest.approx(0.3)
        assert float(summary["mean_fidelity"]) == pytest.approx(1.0, abs=1e-12)
        assert summary["exhausted"] == "0"

    def test_identical_bytes_for_identical_config(self, tmp_path):
        spec = _write_spec(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(
                ["simulate", "--spec", str(spec), "--trials", "100",
                 "--seed", "9", "--out", str(out)]
            )
            assert code == 0
            blobs.append(
                ((out / "runs.csv").read_bytes(), (out / "summary.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_seed_changes_runs(self, tmp_path):
        spec = _write_spec(tmp_path)
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            cli.main(
                ["simulate", "--spec", str(spec), "--trials", "100",
                 "--seed", seed, "--out", str(out)]
            )
            blobs.append((out / "runs.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_manifest_hash_is_config_only(self, tmp_path):
        spec = _write_spec(tmp_path)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(
                ["simulate", "--spec", str(spec), "--trials", "50",
                 "--seed", "3", "--out", str(out)]
            )
            with open(out / "runs.csv.manifest.json") as fh:
                manifest = json.load(fh)
            canonical = json.dumps(
                manifest["config"], sort_keys=True, separators=(",", ":")
            )
            assert manifest["config_hash"] == hashlib.sha256(
                canonical.encode()
            ).hexdigest()
            assert manifest["seed"] == 3
            assert manifest["command"] == "simulate"
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1]

    def test_deterministic_protocol_always_one_attempt(self, tmp_path):
        spec = _write_spec(tmp_path)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "deterministic",
             "--trials", "50", "--out", str(out)]
        )
        assert code == 0
        assert all(r["attempts"] == "1" for r in _read_runs(out))
        summary = _read_summary(out)
        assert float(summary["success_probability_composed"]) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_deep_fixed_point_schedule(self, tmp_path):
        # w = 1e-9 needs L = 120,181; the dense path ran out of precision.
        spec = _write_spec(tmp_path, lambda0=0.1)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "fp:1e-6:1e-9",
             "--trials", "2", "--out", str(out)]
        )
        assert code == 0
        summary = _read_summary(out)
        assert float(summary["success_probability_composed"]) == pytest.approx(
            conftest.fixed_point_success(0.1, 120_181, 1e-6), abs=1e-12
        )
        assert float(summary["success_probability_composed"]) >= 1.0 - 1e-6

    def test_fixed_point_bound_at_the_length_limit(self, tmp_path):
        # w = 1.5e-11 needs L = 981,272; batched 2x2 products drifted to a
        # unitarity residual of 1.9e-10 there, and the run exited 2.
        spec = _write_spec(tmp_path, lambda0=0.9974754473483037)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "fp:1e-6:1.5e-11",
             "--trials", "2", "--out", str(out)]
        )
        assert code == 0
        assert float(_read_summary(out)["success_probability_composed"]) >= 1.0 - 1e-6

    def test_normalizes_psi(self, tmp_path):
        spec = _write_spec(tmp_path)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--psi", "3,4",
             "--trials", "20", "--out", str(out)]
        )
        assert code == 0
        assert float(_read_summary(out)["mean_fidelity"]) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "psi,reference",
        [("1e-160,0", "1,0"), ("1e-320,0", "1,0"), ("1e154,1e154", "1,1"),
         ("1e308,1e308", "1,1")],
    )
    def test_tiny_and_huge_psi(self, tmp_path, capsys, psi, reference):
        # Scaled by a power of two before the norm: no underflow, no overflow.
        spec = _write_spec(tmp_path)
        runs = []
        for name, text in (("got", psi), ("want", reference)):
            out = tmp_path / name
            assert cli.main(
                ["simulate", "--spec", str(spec), f"--psi={text}",
                 "--trials", "30", "--seed", "4", "--out", str(out)]
            ) == 0
            assert capsys.readouterr().err == ""
            runs.append(_read_runs(out))
        got, want = runs
        assert len(got) == len(want) == 30
        for row, ref in zip(got, want):
            assert (row["attempts"], row["outcomes"]) == (ref["attempts"], ref["outcomes"])
            assert abs(float(row["fidelity"]) - float(ref["fidelity"])) <= 1e-15

    def test_exhaustion_exit_code(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, lambda0=0.01)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--trials", "60",
             "--max-attempts", "3", "--out", str(out)]
        )
        assert code == 3
        assert "exhausted" in capsys.readouterr().err
        runs = _read_runs(out)
        failed = [r for r in runs if r["success"] == "0"]
        assert failed
        assert all(r["fidelity"] == "" and r["outcomes"] == "" for r in failed)
        # An exhausted trial reports the cap as its attempt count.
        assert all(r["attempts"] == "3" for r in failed)
        summary = _read_summary(out)
        assert int(summary["exhausted"]) == len(failed)

    def test_gates_unitary_within_the_load_tolerance(self, tmp_path):
        # A target scaled by 1 + 2e-11 passes the 1e-10 unitarity check at
        # load.  A frame that read its masses off the gates summed them to
        # 1 only within 1.2e-11 and exited 2; the masses are the weights.
        data = rus.spec_to_dict(rus.load_spec(_write_spec(tmp_path)))
        data["target"] = [[(1.0 + 2e-11) * x for x in pair] for pair in data["target"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--spec", str(path), "--trials", "50",
                         "--out", str(out)]) == 0
        runs = _read_runs(out)
        assert len(runs) == 50 and all(r["success"] == "1" for r in runs)
        assert all(abs(float(r["fidelity"]) - 1.0) <= 1e-10 for r in runs)


# SHA-256 of each case's output files (name and bytes, sorted by name), with
# every manifest's timestamp line removed.  Recorded before the output path
# was rewritten; any change to a written byte changes a digest.  The
# standard:1 and exhausted digests were recorded again when phase schedules
# became SU(2) products (TestScheduleOracle bounds what moved), and none,
# pi3:2:neg and exhausted when attempts began to draw on unnormalized states
# (TestKernelOracle bounds what moved), standard:1, deterministic,
# pi3:2:neg and fp:1e-3 when composed columns took their closed form
# (TestComposeOracle bounds what moved), pi3:2:neg when the cube-law
# recursion moved to Python scalars (TestCubeLawOracle bounds what moved),
# none when runs began to carry branch masses (TestKernelOracle bounds
# what moved), and none, standard:1 and exhausted when simulate began to
# read its fidelities off the branch histories (TestKernelOracle bounds
# what moved).
OUTPUT_PINS = {
    "none":
        "ee43e6bb8a7a7a52e2abd0b184b9927f39aeb38c17ecbf395459e6efc85fa5be",
    "standard:1":
        "67c06ec9b5e1e957368e80dbee7e019f6d638f43615825726e7ba31fc8b8489f",
    "deterministic":
        "aec12b6ff41baab6a3897238eb6d7bcd42e9f38204d577f72feba77892ed066e",
    "pi3:2:neg":
        "4a99ec90b8eccfe4677677171f8c23aa6fea962599f2eb925399251ec2313efc",
    "fp:1e-3":
        "1385440083d8c415bd75bb0cec5f66ec79a24396b804a4911cbef9f481a7b936",
    "exhausted":
        "fe114a3a669387af45a75332da44a24d29bc276d6fcf2b62a098d1cf178e898e",
    "figure fig2":
        "039cf41ef6f149a8333b9a8df082159ecb4cc596cc6323608a97c0c2dd11dc58",
    "tcost":
        "5c054d7e3fb10ccec6c4f14983adfe6b64de7b826dbd6fbebc772ef0c12bf159",
}


# Extra `simulate` arguments and the expected exit code of each pinned run;
# the last one exhausts some trials, leaving blank outcomes and fidelity.
SIMULATE_CASES = {
    "none": (["--protocol", "none"], 0),
    "standard:1": (["--protocol", "standard:1"], 0),
    "deterministic": (["--protocol", "deterministic"], 0),
    "pi3:2:neg": (["--protocol", "pi3:2:neg"], 0),
    "fp:1e-3": (["--protocol", "fp:1e-3"], 0),
    "exhausted": (["--protocol", "standard:2", "--max-attempts", "2"], 3),
}


def _output_digest(files: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name]
        if name.endswith(".manifest.json"):
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.lstrip().startswith(b'"timestamp":')
            )
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def _dir_files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


class TestOutputBytes:
    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_simulate_pins(self, tmp_path, case):
        extra, code = SIMULATE_CASES[case]
        spec = _write_spec(tmp_path, lambda0=0.2)
        out = tmp_path / "out"
        assert cli.main(
            ["simulate", "--spec", str(spec), "--psi", "0.6,0.8j",
             "--trials", "40", "--seed", "5", "--out", str(out), *extra]
        ) == code
        files = _dir_files(out)
        assert sorted(files) == [
            "runs.csv", "runs.csv.manifest.json",
            "summary.csv", "summary.csv.manifest.json",
        ]
        if case == "exhausted":
            assert ",0,,\n" in files["runs.csv"].decode()
        assert _output_digest(files) == OUTPUT_PINS[case]

    def test_figure_pins(self, tmp_path):
        assert cli.main(["figure", "fig2", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert _output_digest(_dir_files(tmp_path)) == OUTPUT_PINS["figure fig2"]

    def test_tcost_pins(self, tmp_path, capsys):
        out = tmp_path / "costs.json"
        assert cli.main(
            ["tcost", "--lambda0", "0.3", "--ct-a", "100", "--out", str(out)]
        ) == 0
        files = {"costs.json": out.read_bytes(),
                 "stdout": capsys.readouterr().out.encode()}
        assert _output_digest(files) == OUTPUT_PINS["tcost"]


def _cost(strategy: str, total_t: float, **params) -> tcost.CostResult:
    return tcost.CostResult(strategy, total_t, params)


class TestRowFormatters:
    """Cost and figure rows, formatted per table, read as ``csv.writer`` with
    a per-cell formatter wrote them (``conftest.csv_text``)."""

    def test_every_cost_row_shape(self):
        # Blank j/k/L/n_S, an accuracy left blank by the zero and fixed
        # policies, and tiny and huge floats.
        rows = [
            (0.02, _cost("classical", 19.0, repetitions=19)),
            (5e-324, _cost("standard", 1.7976931348623157e308, j=24835, repetitions=35)),
            (0.1, _cost("deterministic", 2.0, j=0, n_s=0, epsilon_reflection=None)),
            (1e-300, _cost("deterministic", 56062.59351075306, j=24835, n_s=2,
                           epsilon_reflection=5e-301)),
            (1e-9, _cost("pi3", 2813235420819256.5, k=25, n_s=847288609442,
                         epsilon_reflection=1.1802353871589618e-312)),
            (0.3, _cost("pi3", 1.0, k=0, n_s=0, epsilon_reflection=None)),
            (0.98, _cost("fixed_point", 0.1, L=1, n_s=2, epsilon_reflection=5e-7,
                         minimum_length=True)),
            (1.0, _cost("fixed_point", 0.0, L=5472020, n_s=10944040,
                        epsilon_reflection=None, minimum_length=False)),
        ]
        assert cli._cost_text(rows) == conftest.cost_table(rows)

    @pytest.mark.parametrize("policy", ["kmm", "zero", "fixed:37.5"])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-300])
    def test_cost_rows_of_every_policy(self, policy, delta):
        rows = [
            (lam0, r) for lam0 in (1e-9, 0.02, 0.25, 0.5, 0.98, 1.0)
            for r in tcost.all_strategies(tcost.CostQuery(
                lam0, delta, 100.0, tcost.ReflectionPolicy.parse(policy)))
        ]
        assert cli._cost_text(rows) == conftest.cost_table(rows)

    @pytest.mark.parametrize("ct_a,delta", [(1.0, 1e-6), (100.0, 1e-6), (1.0, 1e-3)])
    def test_cost_figure_rows(self, ct_a, delta):
        rows = tcost.figure2_data(ct_a, delta)
        assert cli._cost_text(rows) == conftest.cost_table(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(lambda: distortion.figure1_data("left", 0), id="fig1-left"),
            pytest.param(lambda: distortion.figure1_data("right", 3), id="fig1-right"),
            pytest.param(lambda: distortion.figure3_data(5), id="fig3"),
            pytest.param(lambda: [
                distortion.FigureRow(5e-324, "gamma_one", 1.7976931348623157e308, 0.0, 1, 0),
                distortion.FigureRow(1e-6, "gamma_under", np.float64(0.9999999999999999),
                                     np.float64(1e-17), 1000, 2**63),
            ], id="extremes"),
        ],
    )
    def test_figure_rows(self, rows):
        rows = rows()
        assert cli._figure_text(rows) == conftest.figure_table(rows)


def _json_values():
    """JSON-encodable values: every leaf kind, NaN, infinities, non-ASCII
    text, empty and nested containers, tuples, NumPy floats."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
        st.text(),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ), max_leaves=20)


class TestManifestText:
    """Both encodings of a manifest's config come from one formatting of its
    leaves; each must read as ``json.dumps`` wrote it."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(value=_json_values())
    @example(value={"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0})
    @example(value={"": [], "{}": {}, "\u00e9\u6f22\U0001f600": ["\"\\\n\x00"],
                    "b": (True, False, None)})
    @example(value=[[], {}, [[]], [{}]])
    def test_layouts_match_json_dumps(self, value):
        leaves = cli._json_leaves(value)
        assert cli._json_layout(leaves, "", "", ":") == json.dumps(
            value, sort_keys=True, separators=(",", ":"))
        assert cli._json_layout(leaves, "\n", "  ", ": ") == json.dumps(
            value, indent=2, sort_keys=True)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(config=st.dictionaries(st.text(), _json_values(), max_size=5),
           seed=st.one_of(st.none(), st.integers(0, 2**40)))
    def test_manifest_matches_json_dumps(self, config, seed):
        text = cli._manifest("simulate \u00e9", config, seed)
        manifest = json.loads(text)
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert manifest["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert (manifest["command"], manifest["seed"]) == ("simulate \u00e9", seed)
        want = {**manifest, "config": config}
        assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_spec_config_round_trips(self, tmp_path):
        spec = rus.load_spec(_write_spec(tmp_path, m=3))
        config = {"spec": rus.spec_to_dict(spec), "protocol": "none", "trials": 4}
        text = cli._manifest("simulate", config, 7)
        assert json.loads(text)["config"] == config


def _pinned_argv(spec, case, out) -> list[str]:
    """The ``simulate`` arguments of ``TestOutputBytes`` for ``case``."""
    return ["simulate", "--spec", str(spec), "--psi", "0.6,0.8j", "--trials", "40",
            "--seed", "5", "--out", str(out), *SIMULATE_CASES[case][0]]


def _with_dense_columns(circuit: rus.RusCircuit) -> conftest.ColumnsCircuit:
    """``circuit``'s spec with the first two columns of its dense matrix."""
    return conftest.ColumnsCircuit(circuit.spec, circuit.a_matrix.mat[:, :2])


class TestColumnsFirst:
    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_simulate_never_builds_a_dense_matrix(self, tmp_path, monkeypatch, case):
        spec = _write_spec(tmp_path, lambda0=0.2)
        calls = []
        build = rus._synthesized_matrix
        monkeypatch.setattr(
            rus, "_synthesized_matrix", lambda *a: calls.append(a) or build(*a)
        )
        code = cli.main(_pinned_argv(spec, case, tmp_path / "out"))
        assert code == SIMULATE_CASES[case][1]
        assert calls == []

    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_dense_columns_give_the_same_outputs(self, tmp_path, monkeypatch, case):
        # The pins moved from dense-matrix columns to closed-form ones.
        spec = _write_spec(tmp_path, lambda0=0.2)
        code = cli.main(_pinned_argv(spec, case, tmp_path / "columns"))
        build, compose = rus.build_rus_unitary, cli._compose_protocol
        monkeypatch.setattr(rus, "build_rus_unitary",
                            lambda spec: _with_dense_columns(build(spec)))
        # Each protocol composes the circuit that the stand-in's spec gives.
        monkeypatch.setattr(cli, "_compose_protocol",
                            lambda c, text: _with_dense_columns(compose(build(c.spec), text)))
        assert cli.main(_pinned_argv(spec, case, tmp_path / "dense")) == code
        _assert_outputs_agree(tmp_path / "columns", tmp_path / "dense")


def _assert_outputs_agree(got_dir, want_dir) -> None:
    """Integer cells of two ``simulate`` outputs keep their bytes, and float
    cells their value to 1e-15."""
    got, want = _read_runs(got_dir), _read_runs(want_dir)
    assert len(got) == len(want) == 40
    for row, ref in zip(got, want):
        fid, ref_fid = row.pop("fidelity"), ref.pop("fidelity")
        assert row == ref
        assert fid == ref_fid or abs(float(fid) - float(ref_fid)) <= 1e-15
    got, want = _read_summary(got_dir), _read_summary(want_dir)
    assert got.keys() == want.keys()
    for metric in ("trials", "exhausted"):
        assert got.pop(metric) == want.pop(metric)
    for metric, value in got.items():
        ref = want[metric]
        assert value == ref or abs(float(value) - float(ref)) <= 1e-15, metric


# The pinned cases that compose through a phase schedule.
SCHEDULE_CASES = ["standard:1", "deterministic", "fp:1e-3", "exhausted"]


class TestScheduleOracle:
    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_batched_products_give_the_same_outputs(self, tmp_path, monkeypatch, case):
        # The SU(2) kernel moved standard:1 and exhausted: 14 cells by at
        # most 3.3e-16, with the same outcome sequences.
        spec = _write_spec(tmp_path, lambda0=0.2)
        code = cli.main(_pinned_argv(spec, case, tmp_path / "su2"))
        monkeypatch.setattr(oaa, "_schedule", conftest.batched_schedule)
        assert cli.main(_pinned_argv(spec, case, tmp_path / "batched")) == code
        _assert_outputs_agree(tmp_path / "su2", tmp_path / "batched")


class TestKernelOracle:
    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_normalized_kernel_gives_the_same_outputs(self, tmp_path, monkeypatch, case):
        # Drawing on unnormalized states moved none, pi3:2:neg and
        # exhausted: 18, 6 and 12 fidelity cells by at most 4.4e-16, with
        # the same outcome sequences.
        # Branch masses moved none: 21 fidelity cells in runs.csv and
        # mean_fidelity and min_fidelity in summary.csv, by at most 6.7e-16,
        # with the same outcome sequences.
        # Fidelities read off the branch histories moved none, standard:1
        # and exhausted: 33, 39 and 34 fidelity cells in runs.csv and
        # min_fidelity, mean_fidelity, and both in summary.csv, by at most
        # 4.4e-16, with the same outcome sequences.
        spec = _write_spec(tmp_path, lambda0=0.2)
        code = cli.main(_pinned_argv(spec, case, tmp_path / "kernel"))
        # The normalized kernel runs on the frame read off the columns.
        monkeypatch.setattr(rus.RusCircuit, "frame",
                            property(conftest.circuit_diagonal_frame))
        monkeypatch.setattr(rus, "run_batch", conftest.reference_run_batch)
        assert cli.main(_pinned_argv(spec, case, tmp_path / "reference")) == code
        _assert_outputs_agree(tmp_path / "kernel", tmp_path / "reference")

    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_fidelities_are_one_to_rounding(self, tmp_path, case):
        # Each final is W_0 psi in closed form, and the fidelity compares it
        # with W_0 psi.
        spec = _write_spec(tmp_path, lambda0=0.2)
        cli.main(_pinned_argv(spec, case, tmp_path / "out"))
        fids = [float(row["fidelity"]) for row in _read_runs(tmp_path / "out")
                if row["success"] == "1"]
        assert fids and all(1.0 - 1e-15 <= fid <= 1.0 for fid in fids)


class TestComposeOracle:
    @pytest.mark.parametrize("case", list(SIMULATE_CASES))
    def test_parent_composition_gives_the_same_outputs(self, tmp_path, monkeypatch, case):
        # Closed-form columns moved standard:1, deterministic, pi3:2:neg and
        # fp:1e-3: 46 cells by at most 6.7e-16, with the same outcome
        # sequences.
        spec = _write_spec(tmp_path, lambda0=0.2)
        code = cli.main(_pinned_argv(spec, case, tmp_path / "closed"))
        monkeypatch.setattr(oaa, "_composed", conftest.reference_composed)
        assert cli.main(_pinned_argv(spec, case, tmp_path / "reference")) == code
        _assert_outputs_agree(tmp_path / "closed", tmp_path / "reference")


class TestCubeLawOracle:
    def test_array_recursion_gives_the_same_outputs(self, tmp_path, monkeypatch):
        # The scalar recursion moved pi3:2:neg: trial 38's fidelity in
        # runs.csv and min_fidelity in summary.csv, each by 2.2e-16, with
        # the same outcome sequences.
        spec = _write_spec(tmp_path, lambda0=0.2)
        code = cli.main(_pinned_argv(spec, "pi3:2:neg", tmp_path / "scalar"))
        monkeypatch.setattr(oaa, "pi3_compose", conftest.array_pi3_compose)
        assert cli.main(_pinned_argv(spec, "pi3:2:neg", tmp_path / "array")) == code
        _assert_outputs_agree(tmp_path / "scalar", tmp_path / "array")


class TestConfigErrors:
    def test_missing_spec_file(self, tmp_path):
        assert cli.main(
            ["simulate", "--spec", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        ) == 2

    def test_unknown_protocol(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        # Malformed numeric fields get the same message as unknown kinds.
        for protocol in ("warp:1", "standard:1.5", "pi3:x", "fp:abc", "fp:1e-3:"):
            assert cli.main(
                ["simulate", "--spec", str(spec), "--protocol", protocol,
                 "--out", str(tmp_path / "out")]
            ) == 2
            assert capsys.readouterr().err == (
                f"error: cannot parse protocol {protocol!r}\n"
            )
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("psi", ["nan,1", "inf,1"])
    def test_non_finite_psi(self, tmp_path, psi):
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), f"--psi={psi}", "--trials", "2",
             "--out", str(tmp_path / "out")]
        ) == 2

    @pytest.mark.parametrize("psi", [",", "1,", "1,abc", "(1,0", "1", "1,0,0"])
    def test_malformed_psi_is_named(self, tmp_path, capsys, psi):
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), f"--psi={psi}",
             "--out", str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse --psi {psi!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--trials", "--max-attempts"])
    def test_counts_below_one(self, tmp_path, capsys, flag):
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), flag, "0",
             "--out", str(tmp_path / "out")]
        ) == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreachable_fixed_point_bound(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "fp:1e-3:1e-300",
             "--out", str(tmp_path / "out")]
        ) == 2
        assert "more than" in capsys.readouterr().err

    def test_standard_iterate_count_limit(self, tmp_path, capsys):
        # Rejected before the 10**8-iterate schedule is built.
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "standard:100000000",
             "--out", str(tmp_path / "out")]
        ) == 2
        assert "more than" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_drifting_cube_law_depth(self, tmp_path, capsys):
        # The dense recursion reached NaN and failed in an SVD here.
        spec = _write_spec(tmp_path, m=3)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "pi3:40",
             "--out", str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert "unitarity residual" in err
        assert "SVD" not in err

    def test_trials_beyond_memory(self, tmp_path, capsys):
        # NumPy refuses the 28 PiB state array at once and allocates nothing.
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--trials", "1000000000000000",
             "--out", str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: --trials 1000000000000000 needs more memory than there is: "
        )
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_trials_beyond_the_batch_budget(self, tmp_path, capsys, monkeypatch):
        # The budget is lowered so that a regression allocates nothing big:
        # 26 trials of a 2-entry register and 2 outcome rows exceed 100
        # entries.
        monkeypatch.setattr(rus, "MAX_BATCH_ENTRIES", 100)
        spec = _write_spec(tmp_path)
        argv = ["simulate", "--spec", str(spec), "--trials", "26",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --trials 26 needs more memory than there is: 26 trials of 2 "
            "amplitudes and 2 outcome rows exceed the batch limit of 100 entries\n"
        )
        assert not (tmp_path / "out").exists()
        argv[4] = "25"
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("protocol", ["deterministic", "fp:1e-3"])
    def test_zero_lambda0_is_named(self, tmp_path, capsys, protocol):
        spec = _write_spec(tmp_path, lambda0=0.0)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--protocol", protocol,
             "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == (
            f"error: protocol {protocol!r} needs the spec's lambda0 in (0, 1], got 0.0\n"
        )
        assert not (tmp_path / "out").exists()

    def test_invalid_tcost_query(self):
        assert cli.main(["tcost", "--lambda0", "2.0"]) == 2

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--lambda0", "0.5", "--ct-a", "nan"], None),
            (["--lambda0", "0.5", "--ct-a", "inf"], None),
            (["--lambda0", "0.5", "--reflection-policy", "fixed:nan"], None),
            (["--lambda0", "0.5", "--reflection-policy", "fixed:inf"], None),
            (["--lambda0", "1e-17"], None),
            (["--lambda0", "0.5", "--reflection-policy", "fixed:"],
             "cannot parse reflection policy 'fixed:'"),
            (["--lambda0", "0.5", "--reflection-policy", "fixed:abc"],
             "cannot parse reflection policy 'fixed:abc'"),
        ],
        ids=["ct-a-nan", "ct-a-inf", "fixed-nan", "fixed-inf", "rounded-lambda0",
             "fixed-empty", "fixed-junk"],
    )
    def test_tcost_input_errors(self, extra, message, capsys):
        assert cli.main(["tcost", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        if message is not None:
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--spec", "s.json", "--trials", "abc", "--out", "o"],
            ["simulate", "--spec", "s.json", "--seed", "1.5", "--out", "o"],
            ["simulate", "--spec", "s.json", "--max-attempts", "", "--out", "o"],
            ["simulate", "--out", "o"],
            ["simulate", "--spec", "s.json", "--out", "o", "--bogus"],
            ["tcost", "--lambda0", "x"],
            ["tcost", "--lambda0", "0.5", "--ct-a", "1e"],
            ["figure", "fig9", "--out", "o"],
            ["bogus"],
            [],
        ],
    )
    def test_rejected_command_line_is_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_keeps_its_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rusamp simulate [-h] --spec SPEC")

    def test_unknown_figure_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "fig9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: "{not json", id="not-json"),
            pytest.param(lambda d: json.dumps([d]), id="top-level-list"),
            pytest.param(lambda d: json.dumps({**d, "m": None}), id="m-null"),
            pytest.param(
                lambda d: json.dumps({**d, "recoveries": None}), id="recoveries-null"
            ),
            pytest.param(
                lambda d: json.dumps({**d, "target": sum(d["target"], [])}),
                id="flat-gate",
            ),
            pytest.param(lambda d: json.dumps({**d, "m": 1.7}), id="m-float"),
            pytest.param(lambda d: json.dumps({**d, "seed": 0.5}), id="seed-float"),
            pytest.param(
                lambda d: json.dumps({k: v for k, v in d.items() if k != "m"}),
                id="missing-m",
            ),
            pytest.param(
                lambda d: json.dumps({k: v for k, v in d.items() if k != "lambdas"}),
                id="missing-lambdas",
            ),
            pytest.param(lambda d: json.dumps({**d, "m": 100_000}), id="huge-m"),
        ],
    )
    def test_malformed_spec_json(self, tmp_path, capsys, edit):
        path = _write_spec(tmp_path)
        path.write_text(edit(json.loads(path.read_text())))
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda text: "[" * 200_000 + "]" * 200_000, id="whole-file"),
            pytest.param(lambda text: text.replace('"m": 1', '"m": ' + "[" * 5_000 + "1"
                                                   + "]" * 5_000), id="m-field"),
        ],
    )
    def test_deeply_nested_spec_is_named(self, tmp_path, capsys, edit):
        path = _write_spec(tmp_path)
        text = path.read_text()
        assert '"m": 1' in text
        path.write_text(edit(text))
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == (
            f"error: spec {str(path)!r} nests too deeply to read\n"
        )
        assert not (tmp_path / "out").exists()

    def test_non_unitary_recovery(self, tmp_path, capsys):
        path = _write_spec(tmp_path)
        data = json.loads(path.read_text())
        data["recoveries"] = [[[1, 0], [0, 0], [0, 0], [2, 0]]]
        path.write_text(json.dumps(data))
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2
        assert "unitarity residual" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["m", "lambdas", "target", "recoveries", "seed"])
    def test_missing_spec_field_is_named(self, tmp_path, capsys, field):
        path = _write_spec(tmp_path)
        data = json.loads(path.read_text())
        del data[field]
        path.write_text(json.dumps(data))
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == f"error: spec field {field!r} is missing\n"

    def test_huge_ancilla_count(self, tmp_path, capsys):
        # 2**m has more digits than int-to-str conversion allows.
        path = _write_spec(tmp_path, m=3)
        path.write_text(json.dumps({**json.loads(path.read_text()), "m": 100_000}))
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == (
            "error: m=100000 needs 2**m outcome probabilities, got 8\n"
        )

    @pytest.mark.parametrize("command", [["figure", "fig2"], ["simulate"]])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        if command == ["simulate"]:
            command = ["simulate", "--spec", str(_write_spec(tmp_path))]
        assert cli.main(
            [*command, "--seed", "-1", "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == (
            "error: --seed must be a non-negative integer, got -1\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -4, "spec field 'seed' must be a non-negative integer, got -4"),
            ("lambdas", [[0.3], [0.7]],
             "spec field 'lambdas' must be a flat list of numbers, got shape (2, 1)"),
        ],
    )
    def test_bad_spec_field_is_named(self, tmp_path, capsys, field, value, message):
        path = _write_spec(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestParserReuse:
    def _manifest_config(self, out) -> dict:
        with open(out / "runs.csv.manifest.json") as fh:
            return json.load(fh)["config"]

    def test_options_do_not_leak_between_calls(self, tmp_path):
        spec = _write_spec(tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "pi3:2",
             "--max-attempts", "3", "--trials", "5", "--out", str(first)]
        ) == 0
        config = self._manifest_config(first)
        assert (config["protocol"], config["max_attempts"]) == ("pi3:2", 3)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--trials", "5", "--out", str(second)]
        ) == 0
        config = self._manifest_config(second)
        assert config["protocol"] == "none"
        assert config["max_attempts"] == rus.DEFAULT_MAX_ATTEMPTS

    def test_rejected_arguments_leave_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(["tcost", "--lambda0", "0.5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5
        spec = _write_spec(tmp_path)
        out = tmp_path / "out"
        assert cli.main(
            ["simulate", "--spec", str(spec), "--trials", "5", "--out", str(out)]
        ) == 0
        assert self._manifest_config(out)["protocol"] == "none"


class TestFigures:
    @pytest.mark.parametrize(
        "name,files",
        [
            ("fig1-left", ["fig1-left.csv"]),
            ("fig1-right", ["fig1-right.csv"]),
            ("fig2", ["fig2-cta1.csv", "fig2-cta100.csv"]),
            ("fig3", ["fig3.csv"]),
            ("figd1", ["figd1-cta1.csv", "figd1-cta100.csv"]),
        ],
    )
    def test_matches_golden(self, tmp_path, name, files):
        code = cli.main(["figure", name, "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        for f in files:
            produced = (tmp_path / f).read_bytes()
            assert produced == (GOLDEN / f).read_bytes(), f"{f} drifted from golden"
            assert (tmp_path / (f + ".manifest.json")).exists()

    def test_set_seed_recorded(self, tmp_path):
        cli.main(["figure", "fig1-right", "--seed", "11", "--out", str(tmp_path)])
        with open(tmp_path / "fig1-right.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert all(r["seed"] == "11" for r in rows)
        with open(tmp_path / "fig1-right.csv.manifest.json") as fh:
            assert json.load(fh)["seed"] == 11

    def test_repeat_emission_is_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["figure", "fig1-right", "--seed", "5", "--out", str(out)])
            blobs.append((out / "fig1-right.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestTcost:
    def test_table_lists_all_strategies(self, capsys):
        assert cli.main(["tcost", "--lambda0", "0.5", "--delta", "1e-6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        names = [line.split()[0] for line in lines]
        assert names == list(
            ("classical", "standard", "deterministic", "pi3", "fixed_point")
        )

    def test_schedule_longer_than_plan_limit_is_still_costed(self, capsys):
        # fixed_point needs L = 3.8e6 > FP_MAX_LENGTH here; costing it builds
        # no schedule, so the table keeps all five rows.
        assert cli.main(["tcost", "--lambda0", "1e-12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == list(tcost.STRATEGIES)

    def test_subnormal_reflection_accuracy(self, capsys):
        # pi3 shares delta over 3**25 - 1 reflections: 1.18e-312 each.
        assert cli.main(["tcost", "--lambda0", "1e-9", "--delta", "1e-300"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        totals = [float(line.split("total_t=")[1].split()[0]) for line in lines]
        assert len(totals) == 5 and all(math.isfinite(t) for t in totals)
        assert "epsilon_reflection=1.1802353871589618e-312" in lines[3]

    @pytest.mark.parametrize(
        "argv, n_s",
        [(["--lambda0", "0.5", "--delta", "5e-324"], 2),
         (["--lambda0", "1e-9", "--delta", "1e-320"], 847288609442)],
    )
    def test_accuracy_underflow_names_delta(self, argv, n_s, capsys):
        assert cli.main(["tcost", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --delta: failure tolerance {float(argv[3])!r} over {n_s} "
            "reflections rounds each accuracy to 0\n"
        )

    def test_json_output(self, tmp_path):
        out = tmp_path / "costs.json"
        code = cli.main(
            ["tcost", "--lambda0", "0.5", "--ct-a", "100",
             "--reflection-policy", "kmm", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            payload = json.load(fh)
        by_name = {r["strategy"]: r for r in payload["results"]}
        assert by_name["deterministic"]["total_t"] == pytest.approx(320.52, abs=0.01)
        assert by_name["classical"]["total_t"] == 1900.0
        assert payload["query"]["lambda0"] == 0.5

    def test_zero_policy(self, tmp_path):
        out = tmp_path / "costs.json"
        cli.main(
            ["tcost", "--lambda0", "0.5", "--reflection-policy", "zero",
             "--out", str(out)]
        )
        with open(out) as fh:
            payload = json.load(fh)
        totals = {r["strategy"]: r["total_t"] for r in payload["results"]}
        assert totals == {
            "classical": 19.0,
            "standard": 19.0,
            "deterministic": 2.0,
            "pi3": 27.0,
            "fixed_point": 9.0,
        }


# Fields of every kind of malformed or extreme number text.
_JUNK_FIELDS = st.sampled_from(
    ["", " ", "-1", "-0", "1.5", "nan", "inf", "-inf", "1_0", "1__0", "1e400",
     "1e-400", "0x10", "abc", "9" * 30])
_JUNK_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
_EXTREMES = st.sampled_from(["0", "-0.0", "1e-320", "5e-324", "1e-160", "1e154",
                             "1e308", "inf", "-inf", "nan", "-1", "2"])


def _mostly(valid, edge):
    """``valid`` in about three draws of four, else ``edge``."""
    return st.integers(0, 3).flatmap(lambda i: valid if i < 3 else edge)


def _floats(low: float, high: float):
    """Float text, mostly in [low, high], else at an extreme."""
    return _mostly(st.floats(low, high).map(repr), _EXTREMES)


def _protocols():
    # Standard lengths stay under 10**4 or above the 10**6 cap, which is
    # rejected before any work; fixed-point bounds of at least 1e-3, or below
    # 1e-14, keep every schedule length L under 10**4 or above the cap.
    standard = _mostly(st.integers(-3, 10**4 - 1), st.integers(10**6 + 1, 10**30)).map(str)
    pi3 = st.integers(-3, 64).map(str)
    delta = _floats(1e-300, 0.99)
    bound = _mostly((st.floats(1e-3, 1.0) | st.floats(0.0, 1e-14)).map(repr), _EXTREMES)
    return st.one_of(
        st.sampled_from(["none", "deterministic", "deterministic:", "standard", "fp"]),
        st.builds("standard:{}".format, _mostly(standard, _JUNK_FIELDS)),
        st.builds("pi3:{}".format, _mostly(pi3, _JUNK_FIELDS)),
        st.builds("pi3:{}:{}".format, pi3, st.sampled_from(["neg", "pos", ""])),
        st.builds("fp:{}".format, _mostly(delta, _JUNK_FIELDS)),
        st.builds("fp:{}:{}".format, delta, _mostly(bound, _JUNK_FIELDS)),
        # Junk text could spell an uncapped cube-law depth.
        _JUNK_TEXT.filter(lambda text: not text.startswith("pi3:")),
    )


def _psi_texts():
    amplitude = _mostly(_floats(-10.0, 10.0),
                        st.sampled_from(["0.6j", "1+1j", "-1e308j", "", "abc", "(1"]))
    return st.builds("{}{}{}".format, amplitude,
                     _mostly(st.just(","), st.sampled_from([",,", ";", ""])), amplitude)


def _parsed_int(text: str):
    """``text`` as argparse's ``int`` type reads it, or None if it refuses."""
    try:
        return int(text)
    except ValueError:
        return None


def _int_texts(low: int, high: int):
    """Integer text, mostly in [low, high], else junk that argparse refuses
    or that reads as an integer no larger than ``high``."""
    junk = (_JUNK_FIELDS | _JUNK_TEXT).filter(
        lambda text: (_parsed_int(text) or 0) <= high)
    return _mostly(st.integers(low, high).map(str), junk)


def _float_texts(low: float, high: float):
    """``_floats`` text, else junk."""
    return _mostly(_floats(low, high), _JUNK_FIELDS | _JUNK_TEXT)


def _policies():
    fixed = st.builds("fixed:{}".format, _mostly(_floats(0.0, 1e3), _JUNK_FIELDS))
    return _mostly(st.sampled_from(["kmm", "zero"]) | fixed,
                   st.sampled_from(["fixed:", "fixed"]) | _JUNK_TEXT)


# JSON text put in place of one spec field, or of the whole file.
_SPEC_TOKENS = st.sampled_from([
    "null", "true", "false", "0", "-1", "1.5", '"1"', '""', "[]", "{}", "[[]]",
    "[null]", "[true, false]", '{"m": 1}', "NaN", "Infinity", "-Infinity", "1e400",
    "[NaN, 0.5]", "[Infinity, 0.3]", "[1e308, 1e308]", "9" * 400, "-" + "9" * 400,
    "[" + "9" * 400 + ", 0]", "[0.3, 0.7, 0.0]", "[[0.3], [0.7]]", "[[[[0.3]]]]",
    "[[1, 0], [0, 0], [0, 0], [1, 0]]", "[[1, 0], [0, 0], [0, 0]]",
    "[[1, 0, 0], [0, 0, 0], [0, 0, 0], [1, 0, 0]]", '[["a", 0], [0, 0], [0, 0], [1, 0]]',
    "[[NaN, 0], [0, 0], [0, 0], [1, 0]]", "[[[1, 0], [0, 0], [0, 0], [1, 0]]]",
])
# One edit of a spec: drop a field, replace it by a token or by a list nested
# to a depth, or wrap its valid value in lists.
_SPEC_EDITS = st.one_of(
    st.just(("drop", None)),
    st.tuples(st.just("token"), _SPEC_TOKENS),
    st.tuples(st.just("deep"), st.sampled_from([2, 64, 900, 5_000, 200_000])),
    st.tuples(st.just("wrap"), st.integers(1, 40)),
)


def _edited_spec(spec: dict, field: str | None, edit: tuple) -> str:
    """The spec's JSON text after ``edit`` of ``field``, or of the whole
    file for None."""
    kind, arg = edit
    if kind == "drop":
        return "" if field is None else json.dumps(
            {k: v for k, v in spec.items() if k != field})
    if kind == "token":
        text = arg
    else:
        inner = "1" if kind == "deep" else json.dumps(spec if field is None else spec[field])
        text = "[" * arg + inner + "]" * arg
    return text if field is None else json.dumps({**spec, field: "@"}).replace('"@"', text)


@pytest.fixture(scope="module")
def fuzz_specs(tmp_path_factory):
    """Specs with lambda0 >= 0.1, so that runs stay short, and an output directory."""
    specs = [str(_write_spec(tmp_path_factory.mktemp("spec"), lambda0=lambda0, m=m))
             for lambda0, m in ((0.1, 1), (0.5, 2))]
    return specs, str(tmp_path_factory.mktemp("out"))


class TestFuzz:
    """Drawn command lines end in exit 0, 2 or 3, never in a traceback or a
    hang, and each exit 2 prints one ``error:`` line.

    Every size stays small: at most 5 trials and 50 attempts, cube-law depths
    up to 64 and schedules under 10**4 steps unless a cap rejects them first.
    The cube law has no cap, and bounding its work for any ``pi3:K`` is
    ROADMAP item 5. Typed options (``--seed``, ``--trials``,
    ``--max-attempts``, the ``tcost`` numbers) also get junk text, which the
    parser rejects with its own exit 2. Spec files get one edit each: a
    dropped field, a null, a bool, a NaN or Infinity token, a huge integer,
    a wrong shape or a deeply nested list.
    """

    @staticmethod
    def _run(argv: list[str]) -> None:
        err, out = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # the parser rejected the command line
                code = exc.code
        elapsed = time.perf_counter() - start
        text = err.getvalue()
        assert code in (0, 2, 3), (argv, text)
        # A warning reaches stderr in a real run.
        assert not caught, (argv, [str(w.message) for w in caught])
        assert "Traceback" not in text
        if code == 2:
            assert text.startswith("error:") and text.count("\n") == 1, (argv, text)
        # Only a hang, not a slow machine, takes this long for these sizes.
        assert elapsed < 20.0, argv

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=st.integers(0, 1), protocol=_protocols(), psi=_psi_texts(),
           seed=_int_texts(-3, 2**70), trials=_int_texts(1, 5),
           attempts=_int_texts(1, 50))
    def test_simulate(self, fuzz_specs, spec, protocol, psi, seed, trials, attempts):
        specs, out = fuzz_specs
        self._run(["simulate", "--spec", specs[spec], f"--protocol={protocol}",
                   f"--psi={psi}", f"--seed={seed}", f"--trials={trials}",
                   f"--max-attempts={attempts}", "--out", out])

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=st.integers(0, 1), field=st.sampled_from([*rus._SPEC_FIELDS, None]),
           edit=_SPEC_EDITS)
    # Entries that overflow a float sum, or a float, on the one-ancilla spec.
    @example(spec=0, field="lambdas", edit=("token", "[1e308, 1e308]"))
    @example(spec=0, field="lambdas", edit=("token", "[" + "9" * 400 + ", 0]"))
    def test_spec_file(self, fuzz_specs, spec, field, edit):
        specs, out = fuzz_specs
        path = Path(out) / "edited.json"
        path.write_text(_edited_spec(json.loads(Path(specs[spec]).read_text()), field, edit))
        self._run(["simulate", "--spec", str(path), "--trials", "3",
                   "--max-attempts", "50", "--out", out])

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lambda0=_float_texts(1e-12, 1.0), delta=_float_texts(1e-300, 1.0),
           ct_a=_float_texts(0.0, 1e3), policy=_policies())
    def test_tcost(self, lambda0, delta, ct_a, policy):
        self._run(["tcost", f"--lambda0={lambda0}", f"--delta={delta}",
                   f"--ct-a={ct_a}", f"--reflection-policy={policy}"])
