from __future__ import annotations

import json
import re
import warnings

import numpy as np
import pytest

from jcsense import cli, dynamics, experiments, metrology, ramp


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

    def test_ramp_tolerances_default_to_evolve_defaults(self):
        numerics = cli.DEFAULTS["numerics"]
        assert (numerics["rtol"], numerics["atol"]) == (dynamics.DEFAULT_RTOL, dynamics.DEFAULT_ATOL)

    def test_scheme_defaults_to_photon_number(self):
        resolved = cli.resolve_config({"experiment": "cramer_rao"})
        assert resolved["numerics"]["scheme"] == "photon_number"

    @pytest.mark.parametrize("scheme", ["x_squared", "p_squared"])
    def test_scheme_accepts_every_measurement_kind(self, scheme):
        resolved = cli.resolve_config(
            {"experiment": "cramer_rao", "numerics": {"scheme": scheme}}
        )
        assert resolved["numerics"]["scheme"] == scheme

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

    @pytest.mark.parametrize("key", ["Omega", "k", "xi", "eta_target"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_physics_exits_2(self, tmp_path, capsys, key, value):
        # Python's json reads NaN and Infinity; each used to pass validation
        # and fail later, in validate itself for a NaN eta_target
        path = tmp_path / "config.json"
        path.write_text(f'{{"experiment": "qfi_curve", "physics": {{"{key}": {value}}}}}')
        assert cli.main(["validate", str(path)]) == 2
        assert f"physics.{key}" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "true"])
    def test_non_finite_or_boolean_tolerance_exits_2(self, tmp_path, capsys, key, value):
        # each used to pass validation; a NaN or infinite rtol then stalled
        # the fidelity_sweep integrator, and true was read as 1
        path = tmp_path / "config.json"
        path.write_text(
            f'{{"experiment": "fidelity_sweep", "physics": {{"k": 0.05, "eta_target": 0.9}},'
            f' "numerics": {{"{key}": {value}}}}}'
        )
        assert cli.main(["validate", str(path)]) == 2
        assert f"numerics.{key}" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "section, key", [(s, k) for s, keys in cli.DEFAULTS.items() for k in keys]
    )
    def test_every_key_is_checked(self, section, key):
        with pytest.raises(cli.ConfigError, match=rf"^{section}\.{key} "):
            cli.resolve_config({"experiment": "qfi_curve", section: {key: [1]}})

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_boolean_precision_exits_2(self, tmp_path, capsys, command):
        # true used to pass validation and crash the renderer with a traceback
        path = write_config(tmp_path, {"experiment": "qfi_curve", "output": {"precision": True}})
        assert cli.main([command, str(path)]) == 2
        assert "output.precision" in json.loads(capsys.readouterr().err)["message"]


class TestValidateCommand:
    def test_reports_ramp_duration(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fidelity_sweep"})
        assert cli.main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kt_end"] == pytest.approx(31.44, abs=0.01)
        # the ramp runs in the adiabatic frame: no Fock cutoff to report
        assert "n_max" not in report and "peak_dimension" not in report
        assert report["estimated_runtime_s"] > 0

    @pytest.mark.parametrize("experiment", sorted(experiments.RUNNERS))
    def test_ramp_duration_only_for_ramp_experiments(self, tmp_path, capsys, experiment):
        path = write_config(tmp_path, {"experiment": experiment})
        assert cli.main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        ramps = experiment in ("ramp_curve", "fidelity_sweep")
        assert ("kt_end" in report, "t_end" in report) == (ramps, ramps)

    @pytest.mark.parametrize("numerics, n_max", [({}, 32), ({"n_max": 64}, 64)])
    def test_moments_check_reports_its_largest_cutoff(self, tmp_path, capsys, numerics, n_max):
        # field-only spaces, one per eta of the table; "auto" gives 32 for all
        path = write_config(tmp_path, {"experiment": "moments_check", "numerics": numerics})
        assert cli.main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_max"] == n_max
        assert report["peak_dimension"] == n_max + 1

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "qfi_curve"},
            {"experiment": "ramp_curve"},
            {"experiment": "scaling"},
            {"experiment": "cramer_rao", "physics": {"eta_target": 1.0 - 1e-9},
             "numerics": {"shots": 100}},
        ],
    )
    def test_no_cutoff_where_no_fock_space_is_built(self, tmp_path, capsys, config):
        path = write_config(tmp_path, config)
        assert cli.main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "n_max" not in report and "peak_dimension" not in report

    @pytest.mark.parametrize("experiment", ["qfi_curve", "ramp_curve", "scaling", "moments_check"])
    def test_no_runtime_guess_without_a_cost_model(self, tmp_path, capsys, experiment):
        path = write_config(tmp_path, {"experiment": experiment})
        assert cli.main(["validate", str(path)]) == 0
        assert "estimated_runtime_s" not in json.loads(capsys.readouterr().out)

    def test_fidelity_sweep_estimate_calibration(self):
        def estimate(physics, numerics=None):
            return cli._estimate_runtime(cli.resolve_config(
                {"experiment": "fidelity_sweep", "physics": physics, "numerics": numerics or {}}
            ))

        # the default config's pass takes 0.060 s at the reference core speed
        assert 0.060 / 2 < estimate({}) < 0.060 * 2
        # measured at the reference core speed: k = Omega/400 (5,952
        # generator evaluations) and the benchmark's smoke ramp, k = 0.05 to
        # eta 0.9 (909)
        assert 0.083 / 2 < estimate({"k": 1 / 400}) < 0.083 * 2
        assert 0.015 / 2 < estimate({"k": 0.05, "eta_target": 0.9}) < 0.015 * 2
        # the frame builds no Fock space: the cutoff does not enter
        assert estimate({}, {"n_max": 16}) == estimate({})

    def test_cramer_rao_estimate_calibration(self):
        def estimate(numerics):
            resolved = cli.resolve_config({"experiment": "cramer_rao", "numerics": numerics})
            return cli._estimate_runtime(resolved)

        # measured wall times: the default 500 replicas x 10,000 shots takes
        # 0.020-0.022 s, and so does 500 x 100: one draw per experiment
        assert 0.021 / 2 < estimate({}) < 0.021 * 2
        assert estimate({"shots": 100}) == estimate({})
        assert estimate({"replicas": 1000}) == pytest.approx(2 * estimate({}), rel=1e-12, abs=0.0)

    def test_cramer_rao_estimate_per_scheme(self):
        def estimate(scheme):
            resolved = cli.resolve_config(
                {"experiment": "cramer_rao", "numerics": {"scheme": scheme}}
            )
            return cli._estimate_runtime(resolved)

        # measured: 13.3-15.4 us per experiment for every scheme; the
        # negative-binomial and gamma draws cost about the same
        assert estimate("x_squared") == estimate("p_squared") == estimate("photon_number")

    @pytest.mark.parametrize("scheme", ["parity", 3, None])
    def test_exit_2_on_unknown_scheme(self, tmp_path, capsys, scheme):
        path = write_config(
            tmp_path, {"experiment": "cramer_rao", "numerics": {"scheme": scheme}}
        )
        assert cli.main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "numerics.scheme" in err["message"]

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


class TestValidateAgreesWithRun:
    @pytest.mark.parametrize(
        "body, flags, code",
        [
            ({"experiment": ["qfi_curve"]}, [], 2),
            ({"experiment": "qfi_curve", "output": {"path": 5}}, [], 2),
            ({"experiment": "cramer_rao"}, ["--seed", "-5"], 2),
            ({"experiment": "qfi_curve", "physics": {"xi": 0.001}}, [], 0),
            ({"experiment": "ramp_curve", "physics": {"xi": 0.001}}, [], 2),
            ({"experiment": "fidelity_sweep", "physics": {"eta_target": 1e-300}}, [], 2),
            ({"experiment": "scaling", "physics": {"xi": 2.0}}, [], 2),
            ({"experiment": "ramp_curve", "physics": {"k": 1e-320}}, [], 2),
        ],
        ids=["list-experiment", "int-path", "negative-seed", "qfi-tiny-xi",
             "ramp-tiny-xi", "zero-duration", "scaling-xi", "infinite-duration"],
    )
    def test_same_exit_code(self, tmp_path, capsys, body, flags, code):
        # each used to crash with a traceback, or pass one command and fail
        # the other
        path = write_config(tmp_path, body)
        assert cli.main(["validate", str(path), *flags]) == code
        assert cli.main(["run", str(path), *flags, "--out", str(tmp_path / "o.csv")]) == code
        if code:
            errors = capsys.readouterr().err.splitlines()
            assert [json.loads(line)["error"] for line in errors] == ["config", "config"]

    @pytest.mark.parametrize("flags", [["--strict"], ["--out", "elsewhere.csv"]])
    def test_validate_takes_no_run_flags(self, tmp_path, flags):
        path = write_config(tmp_path, {"experiment": "qfi_curve"})
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", str(path), *flags])
        assert exc.value.code == 2


class TestRerunIdentity:
    @pytest.mark.parametrize("experiment", sorted(experiments.RUNNERS))
    def test_byte_identical_reruns(self, tmp_path, experiment):
        # the default config of each experiment, seeded sampling included
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path, {"experiment": experiment})
        assert cli.main(["run", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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


class TestRunFidelitySweep:
    @pytest.mark.parametrize("physics", [{}, {"k": 0.05, "eta_target": 0.9}], ids=["default", "smoke"])
    def test_header_work_matches_the_count_model(self, tmp_path, physics):
        # the header states the integrator's work, and _estimate_runtime's
        # count model is within 12% of it
        out = tmp_path / "sweep.csv"
        path = write_config(tmp_path, {"experiment": "fidelity_sweep", "physics": physics})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dynamics.TruncationWarning)
            assert cli.main(["run", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        nfev, steps = (int(re.search(rf"^# {key}: (\d+)$", text, re.M).group(1)) for key in ("nfev", "steps"))
        assert 0 < 3 * steps <= nfev
        model = cli._fidelity_sweep_evaluations(cli.resolve_config(json.loads(path.read_text())))
        assert abs(model - nfev) <= 0.12 * nfev

    def test_header_states_the_worst_norm_defect(self, tmp_path):
        # max_norm_defect is the norm_defect column's maximum, in full
        # precision, and the step keeps it at rounding level
        out = tmp_path / "sweep.csv"
        path = write_config(tmp_path, {"experiment": "fidelity_sweep", "physics": {"k": 0.05, "eta_target": 0.9}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dynamics.TruncationWarning)
            assert cli.main(["run", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        worst = json.loads(re.search(r"^# max_norm_defect: (\S+)$", text, re.M).group(1))
        body = [l for l in text.splitlines() if not l.startswith("#")]
        column = body[0].split(",").index("norm_defect")
        defects = [float(line.split(",")[column]) for line in body[1:]]
        precision = cli.resolve_config(json.loads(path.read_text()))["output"]["precision"]
        assert float(cli._fmt(worst, precision)) == max(defects)
        assert 0.0 <= worst <= 1e-13

    def test_trajectory_work_counts_are_python_ints(self):
        # the header writes nfev and steps through json.dumps, which raises
        # TypeError on a numpy integer
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dynamics.TruncationWarning)
            traj = dynamics.evolve(ramp.RampSchedule(k=0.05, eta_target=0.9), 1.0)
        assert type(traj.nfev) is int and type(traj.steps) is int
        assert json.loads(json.dumps([traj.nfev, traj.steps])) == [traj.nfev, traj.steps]


class TestRunRampCurve:
    def test_exact_unit_kt_row(self, tmp_path):
        out = tmp_path / "ramp.csv"
        path = write_config(
            tmp_path, {"experiment": "ramp_curve", "output": {"path": str(out)}}
        )
        assert cli.main(["run", str(path)]) == 0
        rows = data_rows(out.read_text())
        row = next(r for r in rows if r[0] == 1.0)
        assert row[2] == pytest.approx(2**-0.5, rel=1e-10, abs=0.0)


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


class TestCramerRaoEtaRange:
    @staticmethod
    def near_critical_config(tmp_path, scheme):
        body = {
            "experiment": "cramer_rao",
            "physics": {"eta_target": 0.99999},
            "numerics": {"scheme": scheme, "replicas": 10, "shots": 100},
        }
        return write_config(tmp_path, body)

    # at both seeds a quadrature fan with nu = 1 clips (one or two of ten
    # estimates); a clip is not a truncation
    @pytest.mark.parametrize("seed", ["2026", "2001"])
    @pytest.mark.parametrize("scheme", ["photon_number", "x_squared", "p_squared"])
    def test_nothing_truncated_near_the_critical_point(self, tmp_path, scheme, seed):
        # 1 - eta = 1e-5 would need a Fock cutoff of 2,684; the outcome laws
        # are closed forms at eta, so nothing is truncated at any seed.  A
        # clipped estimate is a property of the draws, not of truncation.
        path, out = self.near_critical_config(tmp_path, scheme), tmp_path / "cr.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", dynamics.TruncationWarning)
            warnings.simplefilter("ignore", metrology.EstimateClippedWarning)
            assert cli.main(["run", str(path), "--seed", seed, "--out", str(out)]) == 0
        assert [int(r[0]) for r in data_rows(out.read_text())] == [1, 10, 100]

    def test_photon_number_runs_strict_near_the_critical_point(self, tmp_path):
        # photon counts clip no fan there: the strict run succeeds
        path, out = self.near_critical_config(tmp_path, "photon_number"), tmp_path / "cr.csv"
        assert cli.main(["run", str(path), "--strict", "--out", str(out)]) == 0
        assert [int(r[0]) for r in data_rows(out.read_text())] == [1, 10, 100]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exit_2_past_the_estimate_clip(self, tmp_path, capsys, command):
        body = {"experiment": "cramer_rao", "physics": {"eta_target": 1.0 - 5e-10}}
        path = write_config(tmp_path, body)
        assert cli.main([command, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "eta_target" in err["message"]

    def test_the_clip_itself_validates(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "cramer_rao", "physics": {"eta_target": metrology.ETA_CLIP}}
        )
        assert cli.main(["validate", str(path)]) == 0
        # experiments that do not sample keep the wider range
        other = write_config(
            tmp_path, {"experiment": "qfi_curve", "physics": {"eta_target": 1.0 - 5e-10}},
            name="other.json",
        )
        assert cli.main(["validate", str(other)]) == 0


class TestStrictMode:
    def test_truncation_escalates_to_exit_3(self, tmp_path):
        # the fast ramp populates the frame's top doublet pair
        body = {"experiment": "fidelity_sweep", "physics": {"k": 0.1, "eta_target": 0.9}}
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep.csv"
        assert cli.main(["run", str(path), "--strict", "--out", str(out)]) == 3

    def test_same_run_passes_without_strict(self, tmp_path, recwarn):
        body = {"experiment": "fidelity_sweep", "physics": {"k": 0.1, "eta_target": 0.9}}
        path = write_config(tmp_path, body)
        out = tmp_path / "sweep.csv"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert out.exists()


class TestClippedEstimates:
    BODY = {
        "experiment": "cramer_rao",
        "physics": {"eta_target": 0.999999999},
        "numerics": {"shots": 1000, "replicas": 200},
    }

    def test_strict_exits_3(self, tmp_path, capsys):
        # about half of the estimates sit at ETA_CLIP: the ratios under-read
        path = write_config(tmp_path, self.BODY)
        out = tmp_path / "cr.csv"
        assert cli.main(["run", str(path), "--strict", "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical" and "to ETA_CLIP" in err["message"]
        assert not out.exists()

    def test_warns_without_strict(self, tmp_path):
        path = write_config(tmp_path, self.BODY)
        out = tmp_path / "cr.csv"
        with pytest.warns(metrology.EstimateClippedWarning) as caught:
            assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert len(caught) == 3  # one per shot count
        assert len(data_rows(out.read_text())) == 3

    def test_header_gives_the_clip_counts(self, tmp_path):
        # a non-strict run states in its artifact what its warnings said
        path = write_config(tmp_path, self.BODY)
        out = tmp_path / "cr.csv"
        with pytest.warns(metrology.EstimateClippedWarning) as caught:
            assert cli.main(["run", str(path), "--out", str(out)]) == 0
        header = {
            key: json.loads(value)
            for key, value in (
                line[2:].split(": ", 1) for line in out.read_text().splitlines()
                if line.startswith("# clipped_")
            )
        }
        assert set(header) == {"clipped_to_zero", "clipped_to_eta_clip"}
        for warning, nu in zip(caught, ("10", "100", "1000")):
            lower, upper = header["clipped_to_zero"][nu], header["clipped_to_eta_clip"][nu]
            assert f"{lower} of 200 photon_number estimates" in str(warning.message)
            assert f"with {nu} shots clipped to 0 and {upper} to ETA_CLIP" in str(warning.message)
            assert 0 < upper < 200

    def test_unclipped_run_states_zero_counts(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "cramer_rao", "output": {"format": "json"}})
        out = tmp_path / "cr.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", metrology.EstimateClippedWarning)
            assert cli.main(["run", str(path), "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        zeros = {"100": 0, "1000": 0, "10000": 0}
        assert meta["clipped_to_zero"] == meta["clipped_to_eta_clip"] == zeros


class TestIntegratorFailure:
    @staticmethod
    def _nan_drive_config(tmp_path, monkeypatch):
        # a drive that turns NaN mid-ramp makes the generator non-finite
        eta_at = ramp.eta_at
        monkeypatch.setattr(
            ramp, "eta_at",
            lambda s, t: float("nan") if t > 0.5 * s.duration else eta_at(s, t),
        )
        body = {"experiment": "fidelity_sweep", "physics": {"k": 0.1, "eta_target": 0.9}}
        return write_config(tmp_path, body), tmp_path / "sweep.csv"

    def test_nan_drive_exits_3(self, tmp_path, monkeypatch, capsys):
        # the run must end with a numerical error, not a table
        path, out = self._nan_drive_config(tmp_path, monkeypatch)
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "time integration failed" in err["message"]
        assert "non-finite generator" in err["message"]
        assert not out.exists()

    def test_nan_drive_exits_3_when_runtime_warnings_are_errors(
        self, tmp_path, monkeypatch, capsys
    ):
        # under -W error::RuntimeWarning the run still exits 3 with the
        # integrator's own error
        path, out = self._nan_drive_config(tmp_path, monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "time integration failed" in err["message"]
        assert "non-finite generator" in err["message"]
        assert not out.exists()


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
        # one total per replica: the photon count summed over its 200 shots,
        # a non-negative even integer
        totals = np.array(doc["outcomes"]["200"])
        assert totals.shape == (5,)
        assert (totals >= 0).all() and (totals % 2 == 0).all()
        # the mean estimate is the mean of the totals' inverses
        rows = data_rows(out.read_text())
        scheme = metrology.MeasurementScheme("photon_number", 200)
        estimates = [metrology.estimate_eta(np.array([t / 200]), scheme) for t in totals]
        assert rows[2][2] == pytest.approx(np.mean(estimates), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("scheme", ["x_squared", "p_squared"])
    def test_quadrature_scheme_dumps_squared_quadratures(self, tmp_path, scheme):
        out = tmp_path / "cr.csv"
        body = {
            "experiment": "cramer_rao",
            "physics": {"eta_target": 0.8},
            "numerics": {"shots": 200, "replicas": 5, "scheme": scheme},
            "output": {"path": str(out), "dump_outcomes": True},
        }
        path = write_config(tmp_path, body)
        # with 2 (and for x_squared 20) shots per replica some estimates clip to 0
        with pytest.warns(metrology.EstimateClippedWarning, match="clipped to 0"):
            assert cli.main(["run", str(path)]) == 0
        doc = json.loads((tmp_path / "cr.csv.outcomes.json").read_text())
        # one total of 200 squared quadratures per replica, near 200 <Q^2>
        totals = np.array(doc["outcomes"]["200"])
        _, sigma = metrology.quadrature_distribution(0.8, scheme)
        assert totals.shape == (5,) and (totals > 0).all()
        assert (np.abs(totals / (200 * sigma**2) - 1.0) < 0.5).all()
        assert json.loads(
            next(line for line in out.read_text().splitlines()
                 if line.startswith("# config: "))[len("# config: "):]
        )["numerics"]["scheme"] == scheme

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
