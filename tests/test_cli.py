from __future__ import annotations

import json

import numpy as np
import pytest

from jcsense import cli


def write_config(tmp_path, body: dict, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def data_rows(text: str) -> list[list[float]]:
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError:
            continue  # the column-name row
    return rows


class TestConfigResolution:
    def test_defaults_filled(self):
        resolved = cli.resolve_config({"experiment": "qfi_curve"})
        assert resolved["physics"]["Omega"] == 1.0
        assert resolved["numerics"]["n_max"] == "auto"
        assert resolved["output"]["format"] == "csv"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown top-level key"):
            cli.resolve_config({"experiment": "qfi_curve", "extra": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="physics.omega"):
            cli.resolve_config({"experiment": "qfi_curve", "physics": {"omega": 1}})

    def test_removed_d_eta_key_rejected(self):
        # numerics.d_eta had no reader and is no longer part of the schema
        assert "d_eta" not in cli.DEFAULTS["numerics"]
        with pytest.raises(cli.ConfigError, match="numerics.d_eta"):
            cli.resolve_config({"experiment": "qfi_curve", "numerics": {"d_eta": 1e-4}})

    def test_missing_experiment_rejected(self):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.resolve_config({})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown experiment"):
            cli.resolve_config({"experiment": "wigner_movie"})

    def test_critical_point_target_rejected(self):
        with pytest.raises(cli.ConfigError, match="eta_target"):
            cli.resolve_config(
                {"experiment": "qfi_curve", "physics": {"eta_target": 1.0}}
            )

    def test_nonpositive_physics_rejected(self):
        with pytest.raises(cli.ConfigError, match="physics.Omega"):
            cli.resolve_config({"experiment": "qfi_curve", "physics": {"Omega": 0}})


class TestValidateCommand:
    def test_reports_ramp_duration(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fidelity_sweep"})
        assert cli.main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kt_end"] == pytest.approx(31.44, abs=0.01)
        assert report["n_max"] == 121
        assert report["peak_dimension"] == 244
        assert report["estimated_runtime_s"] > 0

    def test_fidelity_sweep_estimate_calibration(self):
        resolved = cli.resolve_config({"experiment": "fidelity_sweep"})
        # the default config's pass takes 3.2 s at the reference core speed
        estimate = cli._estimate_runtime(resolved, 121)
        assert 3.2 / 2 < estimate < 3.2 * 2
        # RHS evaluations grow like the spectral radius, ~sqrt(n_max + 1)
        doubled = cli._estimate_runtime(resolved, 2 * 122 - 1)
        assert doubled / estimate == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_cramer_rao_estimate_calibration(self):
        def estimate(numerics):
            resolved = cli.resolve_config({"experiment": "cramer_rao", "numerics": numerics})
            return cli._estimate_runtime(resolved, 121)

        # measured wall times: the default 500 replicas x 10,000 shots takes
        # 0.24-0.32 s; at 100 shots the per-replica set-up dominates (0.094 s)
        assert 0.28 / 2 < estimate({}) < 0.28 * 2
        assert 0.094 / 2 < estimate({"shots": 100}) < 0.094 * 2
        assert estimate({"replicas": 1000}) == pytest.approx(2 * estimate({}), rel=1e-12)

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "qfi_curve", "bogus": {}})
        assert cli.main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_exit_2_on_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", str(path)]) == 2

    def test_exit_2_on_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "numerics, key",
        [({"shots": 99}, "numerics.shots"), ({"replicas": 1}, "numerics.replicas")],
    )
    def test_exit_2_on_cramer_rao_run_time_failure(self, tmp_path, capsys, numerics, key):
        path = write_config(tmp_path, {"experiment": "cramer_rao", "numerics": numerics})
        assert cli.main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and key in err["message"]
        # the same numerics are fine for an experiment that does not sample
        other = write_config(
            tmp_path, {"experiment": "qfi_curve", "numerics": numerics}, name="other.json"
        )
        assert cli.main(["validate", str(other)]) == 0


class TestRunQfiCurve:
    def test_monotone_diverging_column(self, tmp_path):
        out = tmp_path / "qfi.csv"
        path = write_config(
            tmp_path, {"experiment": "qfi_curve", "output": {"path": str(out)}}
        )
        assert cli.main(["run", str(path)]) == 0
        text = out.read_text()
        assert text.startswith("# jcsense")
        assert "# basis_order: field-fast" in text
        rows = data_rows(text)
        qfi = [r[1] for r in rows]
        assert all(b > a for a, b in zip(qfi, qfi[1:]))
        assert qfi[-1] > 2.4e3  # divergence toward the critical point

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path, {"experiment": "qfi_curve"})
        assert cli.main(["run", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "qfi.json"
        path = write_config(
            tmp_path,
            {"experiment": "qfi_curve",
             "output": {"path": str(out), "format": "json"}},
        )
        assert cli.main(["run", str(path)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["experiment"] == "qfi_curve"
        assert doc["meta"]["basis_order"] == "field-fast"
        assert doc["columns"][0] == "eta"
        assert len(doc["rows"][0]) == len(doc["columns"])

    def test_header_reproduces_run(self, tmp_path):
        # the embedded config block is a valid config for an identical rerun
        out = tmp_path / "qfi.csv"
        path = write_config(
            tmp_path, {"experiment": "qfi_curve", "output": {"path": str(out)}}
        )
        cli.main(["run", str(path)])
        header_line = next(
            line for line in out.read_text().splitlines()
            if line.startswith("# config: ")
        )
        embedded = json.loads(header_line[len("# config: "):])
        out2 = tmp_path / "again.csv"
        embedded["output"]["path"] = str(out2)
        path2 = write_config(tmp_path, embedded, name="embedded.json")
        assert cli.main(["run", str(path2)]) == 0
        # identical but for the output path recorded in the header
        body1 = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
        assert body1 == body2


class TestRunRampCurve:
    def test_exact_unit_kt_row(self, tmp_path):
        out = tmp_path / "ramp.csv"
        path = write_config(
            tmp_path, {"experiment": "ramp_curve", "output": {"path": str(out)}}
        )
        assert cli.main(["run", str(path)]) == 0
        rows = data_rows(out.read_text())
        row = next(r for r in rows if r[0] == 1.0)
        assert row[2] == pytest.approx(2**-0.5, rel=1e-10)


class TestRunMomentsCheck:
    def test_relative_errors_tiny(self, tmp_path):
        out = tmp_path / "moments.csv"
        path = write_config(
            tmp_path, {"experiment": "moments_check", "output": {"path": str(out)}}
        )
        assert cli.main(["run", str(path)]) == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 9
        assert max(r[-1] for r in rows) < 1e-8


class TestRunScaling:
    def test_fit_summary_in_header(self, tmp_path):
        out = tmp_path / "scaling.csv"
        path = write_config(
            tmp_path, {"experiment": "scaling", "output": {"path": str(out)}}
        )
        assert cli.main(["run", str(path)]) == 0
        fits_line = next(
            line for line in out.read_text().splitlines()
            if line.startswith("# fits: ")
        )
        fits = json.loads(fits_line[len("# fits: "):])
        by_name = {f["quantity"]: f for f in fits}
        assert by_name["inverted_variance"]["fitted_exponent"] == pytest.approx(
            8 / 3, abs=0.05
        )


class TestRunCramerRao:
    def test_small_run_and_seed_override(self, tmp_path):
        base = {
            "experiment": "cramer_rao",
            "physics": {"eta_target": 0.8},
            "numerics": {"shots": 1000, "replicas": 40},
        }
        out1, out2, out3 = (tmp_path / n for n in ("c1.csv", "c2.csv", "c3.csv"))
        path = write_config(tmp_path, base)
        assert cli.main(["run", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", str(path), "--out", str(out2)]) == 0
        assert cli.main(["run", str(path), "--out", str(out3), "--seed", "99"]) == 0
        assert data_rows(out1.read_text()) == data_rows(out2.read_text())
        assert data_rows(out1.read_text()) != data_rows(out3.read_text())
        rows = data_rows(out1.read_text())
        assert [int(r[0]) for r in rows] == [10, 100, 1000]


class TestStrictMode:
    def test_truncation_escalates_to_exit_3(self, tmp_path):
        body = {
            "experiment": "fidelity_sweep",
            "physics": {"k": 0.1, "eta_target": 0.9},
            "numerics": {"n_max": 6},
        }
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep.csv"
        assert cli.main(["run", str(path), "--strict", "--out", str(out)]) == 3

    def test_same_run_passes_without_strict(self, tmp_path, recwarn):
        body = {
            "experiment": "fidelity_sweep",
            "physics": {"k": 0.1, "eta_target": 0.9},
            "numerics": {"n_max": 6},
        }
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep.csv"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert out.exists()


class TestOutcomeDumps:
    def test_sidecar_written_when_enabled(self, tmp_path):
        out = tmp_path / "cr.csv"
        body = {
            "experiment": "cramer_rao",
            "physics": {"eta_target": 0.8},
            "numerics": {"shots": 200, "replicas": 5},
            "output": {"path": str(out), "dump_outcomes": True},
        }
        path = write_config(tmp_path, body)
        assert cli.main(["run", str(path)]) == 0
        sidecar = tmp_path / "cr.csv.outcomes.json"
        doc = json.loads(sidecar.read_text())
        assert set(doc["outcomes"]) == {"2", "20", "200"}
        assert len(doc["outcomes"]["200"]) == 5
        assert len(doc["outcomes"]["200"][0]) == 200
        # outcomes are photon counts: non-negative even integers
        values = np.array(doc["outcomes"]["200"][0])
        assert (values >= 0).all() and (values % 2 == 0).all()

    def test_not_written_by_default(self, tmp_path):
        out = tmp_path / "cr.csv"
        body = {
            "experiment": "cramer_rao",
            "physics": {"eta_target": 0.8},
            "numerics": {"shots": 200, "replicas": 5},
            "output": {"path": str(out)},
        }
        path = write_config(tmp_path, body)
        assert cli.main(["run", str(path)]) == 0
        assert not (tmp_path / "cr.csv.outcomes.json").exists()

    def test_requires_output_path(self):
        with pytest.raises(cli.ConfigError, match="dump_outcomes"):
            cli.resolve_config(
                {"experiment": "cramer_rao", "output": {"dump_outcomes": True}}
            )
