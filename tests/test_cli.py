import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rusamp import cli, qcore, rus

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
        assert float(summary["success_probability_composed"]) >= 1.0 - 1e-6

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

    def test_exhaustion_exit_code(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, lambda0=0.01)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--spec", str(spec), "--trials", "60",
             "--max-attempts", "1", "--out", str(out)]
        )
        assert code == 3
        assert "exhausted" in capsys.readouterr().err
        runs = _read_runs(out)
        failed = [r for r in runs if r["success"] == "0"]
        assert failed
        assert all(r["fidelity"] == "" and r["outcomes"] == "" for r in failed)
        summary = _read_summary(out)
        assert int(summary["exhausted"]) == len(failed)


class TestConfigErrors:
    def test_missing_spec_file(self, tmp_path):
        assert cli.main(
            ["simulate", "--spec", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        ) == 2

    def test_unknown_protocol(self, tmp_path):
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), "--protocol", "warp:1",
             "--out", str(tmp_path / "out")]
        ) == 2

    @pytest.mark.parametrize("psi", ["nan,1", "inf,1"])
    def test_non_finite_psi(self, tmp_path, psi):
        spec = _write_spec(tmp_path)
        assert cli.main(
            ["simulate", "--spec", str(spec), f"--psi={psi}", "--trials", "2",
             "--out", str(tmp_path / "out")]
        ) == 2

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

    def test_invalid_tcost_query(self):
        assert cli.main(["tcost", "--lambda0", "2.0"]) == 2

    def test_invalid_thread_cap(self, monkeypatch):
        monkeypatch.setenv("RUSAMP_THREADS", "0")
        assert cli.main(["tcost", "--lambda0", "0.5"]) == 2
        monkeypatch.setenv("RUSAMP_THREADS", "lots")
        assert cli.main(["tcost", "--lambda0", "0.5"]) == 2

    def test_valid_thread_cap(self, monkeypatch):
        monkeypatch.setenv("RUSAMP_THREADS", "4")
        assert cli.main(["tcost", "--lambda0", "0.5"]) == 0

    def test_unknown_figure_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "fig9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_malformed_spec_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(
            ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]
        ) == 2


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
