import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fracsource
from fracsource import cli, config
from fracsource.cli import main
from fracsource.config import (
    build_source_model,
    check_trace_grid,
    columns_to_csv,
    dump_config,
    float_strings,
    load_config,
    trace_from_csv,
    trace_to_csv,
    trace_to_json,
)
from fracsource.disc_spectrum import build_spectrum
from fracsource.errors import ValidationError
from fracsource.forward_model import flux_trace
from fracsource.inversion import (
    ALPHA_FIT_POINTS,
    ALPHA_FIT_WINDOW,
    ALPHA_LEADING_DELTA,
    _window_transform,
)


BASE_CONFIG = {
    "spectrum": {"lambda_max": 30.0},
    "model": {
        "alpha": 0.75,
        "cuts": [0.2, 1.2, "inf"],
        "pieces": [
            {"coefficients": [
                {"m": 0, "k": 1, "re": 1.0},
                {"m": 1, "k": 1, "re": 0.5, "im": 0.3},
                {"m": 2, "k": 1, "re": -0.4, "im": 0.2},
            ]},
            {"coefficients": [
                {"m": 0, "k": 1, "re": -0.6},
                {"m": 1, "k": 1, "re": 0.8, "im": -0.1},
                {"m": 2, "k": 1, "re": 0.25, "im": 0.45},
            ]},
        ],
    },
    "sensors": {"theta1": 0.3, "theta2": 1.3},
    "grid": {"t_max": 4.0, "steps": 4000},
    "noise": {"level": 0.0, "seed": 20240817},
    "inversion": {"changepoint_min_gap": 0.3},
    "output": {"directory": "PLACEHOLDER"},
}


REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                "reference.json")


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["output"]["directory"] = str(tmp_path / "run")
    for path, value in (overrides or {}).items():
        node = doc
        parts = path.split(".")
        for key in parts[:-1]:
            node = node[key]
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        text = dump_config(cfg)
        cfg2 = load_config(text)
        assert dump_config(cfg2) == text
        assert cfg2.raw == cfg.raw

    def test_defaults_applied(self):
        cfg = load_config(json.dumps({"model": {"alpha": 0.8}}))
        assert cfg.grid["steps"] == 4000
        assert cfg.inversion["margin_min"] == 1e-3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            load_config(json.dumps({"notakey": 1}))

    def test_density_piece_projection(self):
        cfg = load_config(json.dumps({
            "model": {"alpha": 0.75, "cuts": [0.0, "inf"], "pieces": [
                {"density": {"kind": "gaussian", "r0": 0.4, "theta0": 1.0,
                             "width": 0.3, "amplitude": 2.0}}]},
        }))
        sp = build_spectrum(30.0)
        model = build_source_model(cfg, sp)
        assert model.is_real_field()
        assert float(np.linalg.norm(model.piece_coeffs[0].values)) > 0.01

    def test_trace_csv_round_trip(self):
        t = np.linspace(0.0, 1.0, 17)
        v = np.sin(t) * 0.1234567890123456
        text = trace_to_csv(t, v)
        t2, v2 = trace_from_csv(text)
        assert np.array_equal(t, t2) and np.array_equal(v, v2)

    def test_csv_bytes_match_the_row_by_row_format(self):
        # the whole-column format writes what a repr per number and row wrote,
        # signed zeros and subnormals included
        t = np.linspace(0.0, 1.0, 9)
        v = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1.0 / 3.0,
                      1.7976931348623157e308, 0.1, np.nextafter(1.0, 2.0)])
        w = np.float32([0.1, -0.0, 1e-40, 3.0, -2.5, 7.0, 1e-8, 0.5, 6.0])
        rows = ["t,flux"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, v)]
        assert trace_to_csv(t, v) == "\n".join(rows) + "\n"
        rows = ["t,a,b"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}"
                            for a, b, c in zip(t, v, w)]
        assert columns_to_csv("t,a,b", t, v, w) == "\n".join(rows) + "\n"
        assert "-0.0" in trace_to_csv(t, v) and "5e-324" in trace_to_csv(t, v)

    @given(st.lists(st.floats()))
    @example([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1e16, 0.1])
    def test_float_strings_are_the_reprs(self, values):
        x = np.array(values, dtype=float)
        assert float_strings(x) == [repr(float(v)) for v in x]

    @given(st.lists(st.floats(width=32)))
    def test_float_strings_of_float32(self, values):
        x = np.array(values, dtype=np.float32)
        assert float_strings(x) == [repr(float(v)) for v in x]

    def test_empty_arrays(self):
        assert float_strings(np.array([])) == []
        assert columns_to_csv("t,flux", np.array([]), np.array([])) == "t,flux\n"
        assert columns_to_csv("t,flux", [], []) == "t,flux\n"

    @given(st.floats(), st.lists(st.floats(), max_size=12))
    @example(0.3, [math.nan, math.inf, -math.inf, -0.0])
    def test_trace_to_json_is_json_dumps(self, angle, values):
        times = np.arange(len(values)) * 0.1
        want = json.dumps({"sensor_angle": angle, "times": times.tolist(),
                           "values": values}, indent=None)
        assert trace_to_json(angle, times, np.array(values)) == want
        assert trace_to_json(angle, float_strings(times), float_strings(values)) == want


# inversion keys of earlier versions, with the values they held; the
# settings are constants of inversion.py, and the keys are unknown keys
REMOVED_INVERSION_KEYS = [("onset_threshold", 5.0), ("onset_floor", 1e-9),
                          ("alpha_fit_window", [20.0, 200.0]), ("alpha_fit_points", 40)]


def _exit_and_error(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


class TestConfigValidation:
    def test_inversion_section_has_three_keys(self):
        assert set(load_config("{}").inversion) == {"changepoint_min_gap", "margin_min",
                                                    "refine"}

    @pytest.mark.parametrize("key, value", REMOVED_INVERSION_KEYS)
    def test_removed_key_exit_2(self, tmp_path, capsys, key, value):
        # invert rejects a config that still holds the key, and plotdata a
        # run directory whose config.json holds it
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run = tmp_path / "run"
        old = write_config(tmp_path, {"grid.steps": 400, f"inversion.{key}": value},
                           name="old.json")
        code, err = _exit_and_error(capsys, [
            "invert", "--config", old, "--quiet",
            str(run / "flux_sensor1.csv"), str(run / "flux_sensor2.csv")])
        assert code == 2
        assert f"inversion.{key}" in err and "[clause: config-schema]" in err, err
        (run / "reconstruction.json").write_text(json.dumps(
            {"alpha_hat": 0.75, "cuts_hat": [0.2, 1.2]}))
        (run / "config.json").write_text(open(old).read())
        code, err = _exit_and_error(capsys, ["plotdata", str(run), "--quiet"])
        assert code == 2
        assert f"inversion.{key}" in err and "[clause: config-schema]" in err, err

    @pytest.mark.parametrize("key, value, clause", [
        ("inversion.refine", "false", "config-schema"),
        ("inversion.changepoint_min_gap", "x", "config-schema"),
        ("inversion.changepoint_min_gap", math.nan, "inversion-config"),
        ("inversion.margin_min", math.nan, "inversion-config"),
        ("inversion.margin_min", -1.0, "inversion-config"),
    ])
    def test_bad_inversion_setting_exit_2(self, tmp_path, capsys, key, value, clause):
        # at the sensor geometry of A7 (delta_theta = pi/2): a margin_min
        # outside (0, 1) would switch the guard off, and both commands check it
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run = tmp_path / "run"
        bad = write_config(tmp_path, {"grid.steps": 400, key: value,
                                      "sensors.theta2": 0.3 + math.pi / 2}, name="bad.json")
        for argv in (["synth", "--config", bad, "--quiet", "--out", str(tmp_path / "bad")],
                     ["invert", "--config", bad, "--quiet",
                      str(run / "flux_sensor1.csv"), str(run / "flux_sensor2.csv")]):
            code, err = _exit_and_error(capsys, argv)
            assert code == 2, argv[0]
            assert key.split(".")[1] in err and f"[clause: {clause}]" in err, err

    @pytest.mark.parametrize("key, value", [
        ("grid.steps", "x"), ("grid.steps", 4000.7), ("grid.steps", True),
        ("noise.level", "x"), ("noise.level", math.nan), ("noise.level", -0.1),
        ("spectrum.lambda_max", "x"), ("sensors.theta1", "x"), ("model.alpha", "x"),
        ("model.eta", "x"), ("model.cuts", "inf"), ("output.directory", 3),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, key, value):
        # a value of another JSON type than its default, or a noise level that
        # is not finite and >= 0: unchecked, each ends in a traceback (exit 1)
        # or in a run that silently differs from the config
        cfg_path = write_config(tmp_path, {key: value})
        code, err = _exit_and_error(capsys, ["synth", "--config", cfg_path, "--quiet"])
        assert code == 2
        assert key in err and "[clause: config-schema]" in err, err
        assert not (tmp_path / "run").exists()

    def test_accepted_types(self):
        # an int where the default is a float, a number where it is null
        cfg = load_config(json.dumps({"grid": {"t_max": 4, "steps": 400},
                                      "model": {"eta": 1}, "noise": {"level": 0}}))
        assert (cfg.grid["t_max"], cfg.model["eta"], cfg.noise["level"]) == (4, 1, 0)

    def test_unreadable_trace_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        missing = str(tmp_path / "missing.csv")
        code, err = _exit_and_error(capsys, [
            "invert", "--config", cfg_path, "--quiet",
            missing, str(tmp_path / "run" / "flux_sensor2.csv")])
        assert code == 2
        assert missing in err and "[clause: trace-file]" in err, err


class TestSpectrumCommand:
    def test_single_mode_export(self, tmp_path):
        cfg_path = write_config(tmp_path, {"spectrum.lambda_max": 6.0})
        assert main(["spectrum", "--config", cfg_path, "--quiet"]) == 0
        rows = json.loads((tmp_path / "run" / "spectrum.json").read_text())
        assert len(rows) == 1

    def test_below_first_eigenvalue_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"spectrum.lambda_max": 5.0})
        assert main(["spectrum", "--config", cfg_path, "--quiet"]) == 2

    def test_rerun_identical_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        main(["spectrum", "--config", cfg_path, "--quiet"])
        first = (tmp_path / "run" / "spectrum.json").read_bytes()
        manifest1 = (tmp_path / "run" / "manifest.json").read_bytes()
        main(["spectrum", "--config", cfg_path, "--quiet"])
        assert (tmp_path / "run" / "spectrum.json").read_bytes() == first
        assert (tmp_path / "run" / "manifest.json").read_bytes() == manifest1


class TestSynthCommand:
    def test_reference_row_count(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        lines = (tmp_path / "run" / "flux_sensor1.csv").read_text().splitlines()
        assert len(lines) == 4002  # header + steps + 1 samples

    def test_zero_source_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "model.pieces": [{"coefficients": []},
                             BASE_CONFIG["model"]["pieces"][1]]})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 2

    def test_same_seed_identical_noisy_files(self, tmp_path):
        cfg_path = write_config(tmp_path, {"noise.level": 0.01,
                                           "grid.steps": 400})
        main(["synth", "--config", cfg_path, "--quiet"])
        first = (tmp_path / "run" / "flux_sensor1_noisy.csv").read_bytes()
        main(["synth", "--config", cfg_path, "--quiet"])
        assert (tmp_path / "run" / "flux_sensor1_noisy.csv").read_bytes() == first

    def test_manifest_lists_every_file(self, tmp_path):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        main(["synth", "--config", cfg_path, "--quiet"])
        run = tmp_path / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        listed = {row["path"] for row in manifest["outputs"]}
        on_disk = {p.name for p in run.iterdir()} - {"manifest.json"}
        assert listed == on_disk
        assert manifest["timestamp"] is None

    def test_traces_equal_separate_flux_trace_calls(self, tmp_path):
        # synth computes the relaxation profiles once for both sensors
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        cfg = load_config(cfg_path)
        model = build_source_model(cfg, build_spectrum(30.0))
        times = cfg.times()
        for i, theta in enumerate((0.3, 1.3), start=1):
            t, v = trace_from_csv((tmp_path / "run" / f"flux_sensor{i}.csv").read_text())
            alone = flux_trace(model, theta, times)
            assert np.array_equal(t, alone.times) and np.array_equal(v, alone.values)

    @pytest.mark.parametrize("level, calls", [(0.01, 5), (0.0, 3)])
    def test_each_array_formatted_once(self, tmp_path, monkeypatch, level, calls):
        # the grid once for every file, then each clean and each noisy trace
        formatted = []

        def counting(values):
            formatted.append(len(values))
            return float_strings(values)

        monkeypatch.setattr(cli, "float_strings", counting)
        monkeypatch.setattr(config, "float_strings", counting)
        doc = json.load(open(REFERENCE_CONFIG))
        doc["noise"]["level"] = level
        doc["output"]["directory"] = str(tmp_path / "run")
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["synth", "--config", str(tmp_path / "cfg.json"), "--quiet"]) == 0
        assert formatted == [4001] * calls
        for i in (1, 2):
            t, v = trace_from_csv((tmp_path / "run" / f"flux_sensor{i}.csv").read_text())
            envelope = json.loads((tmp_path / "run" / f"flux_sensor{i}.json").read_text())
            assert envelope["times"] == t.tolist() and envelope["values"] == v.tolist()

    def test_laplace_samples_emitted(self, tmp_path):
        cfg_path = write_config(tmp_path, {"grid.steps": 400,
                                           "output.laplace_s": [1.0, 5.0]})
        main(["synth", "--config", cfg_path, "--quiet"])
        lines = (tmp_path / "run" / "laplace_sensor1.csv").read_text().splitlines()
        assert lines[0] == "re_s,im_s,re_G,im_G"
        assert len(lines) == 3


class TestInvertCommand:
    def test_wrong_trace_count_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        main(["synth", "--config", cfg_path, "--quiet"])
        assert main(["invert", "--config", cfg_path, "--quiet",
                     str(tmp_path / "run" / "flux_sensor1.csv")]) == 2

    def test_sensor_geometry_exit_2(self, tmp_path, capsys):
        # at delta_theta = pi/2, sin(2 delta_theta) = 0: synth and invert run
        # the same guard, and both name the order and the clause
        cfg_path = write_config(tmp_path, {"grid.steps": 2000})
        main(["synth", "--config", cfg_path, "--quiet"])
        bad_cfg = write_config(tmp_path,
                               {"grid.steps": 2000,
                                "sensors.theta2": 0.3 + math.pi / 2},
                               name="bad.json")
        run = str(tmp_path / "run")
        capsys.readouterr()
        for argv in (["synth", "--config", bad_cfg, "--quiet", "--out",
                      str(tmp_path / "bad_run")],
                     ["invert", "--config", bad_cfg, "--quiet",
                      os.path.join(run, "flux_sensor1.csv"),
                      os.path.join(run, "flux_sensor2.csv")]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("validation error: "), err
            assert "|m| = 2" in err and "[clause: sensor-margin]" in err, err
        assert not (tmp_path / "bad_run").exists()

    @pytest.mark.parametrize("refine", [True, False])
    def test_condition_report(self, tmp_path, refine):
        # the reference geometry, delta_theta = 0.3 - 1.3 = -1 with |m| in
        # {1, 2}: the report holds |2 sin(|m| delta_theta)|, bit for bit
        doc = json.load(open(REFERENCE_CONFIG))
        doc["inversion"]["refine"] = refine
        doc["output"]["directory"] = str(tmp_path / "run")
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        cfg_path = str(tmp_path / "cfg.json")
        run = tmp_path / "run"
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        assert main(["invert", "--config", cfg_path, "--quiet",
                     str(run / "flux_sensor1.csv"), str(run / "flux_sensor2.csv")]) == 0
        recon = json.loads((run / "reconstruction.json").read_text())
        assert recon["condition_report"] == {"1": abs(2 * math.sin(1.0)),
                                             "2": abs(2 * math.sin(2.0))}
        assert ("refine_joint" in dict(recon["stage_log"])) == refine

    def test_onset_one_ulp_past_a_grid_point(self, tmp_path):
        # the flux first crosses the threshold at t = 1.001, and 1.001 - h
        # lies one ulp above the grid point 1.0, so the leading window of the
        # order search starts at t - c0 = -2.2e-16; (-2.2e-16)^alpha is nan,
        # which made invert exit 2 unless t - c0 is clipped at 0
        cfg_path = write_config(tmp_path, {"model.cuts": [1.0005, 2.0, "inf"]})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["invert", "--config", cfg_path, "--quiet",
                         str(run / "flux_sensor1.csv"), str(run / "flux_sensor2.csv")])
        assert code == 0
        recon = json.loads((run / "reconstruction.json").read_text())
        c0_hat = dict(recon["stage_log"])["detect_onset"]["c0_hat"]
        assert c0_hat > load_config(cfg_path).times()[1000]
        assert recon["K_hat"] == 2
        assert abs(recon["alpha_hat"] - 0.75) <= 1e-6
        assert np.max(np.abs(np.array(recon["cuts_hat"]) - [1.0005, 2.0])) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.55, 0.99])
    def test_reference_round_trip_at_extreme_orders(self, tmp_path, alpha):
        # near either end of (1/2, 1): at 0.55 the pole term of the
        # exponential-sum basis is off, at 0.99 the pole lies near the real
        # axis; both must give the A5 accuracy without a RuntimeWarning
        cfg_path = write_config(tmp_path, {"model.alpha": alpha})
        run = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
            assert main(["invert", "--config", cfg_path, "--quiet",
                         str(run / "flux_sensor1.csv"),
                         str(run / "flux_sensor2.csv")]) == 0
        recon = json.loads((run / "reconstruction.json").read_text())
        model = build_source_model(load_config(cfg_path), build_spectrum(30.0))
        h = 4.0 / 4000.0
        assert recon["K_hat"] == 2
        assert abs(dict(recon["stage_log"])["estimate_alpha"]["alpha_vp"] - alpha) <= 5e-3
        assert abs(recon["alpha_hat"] - alpha) <= 1e-4
        assert np.max(np.abs(np.array(recon["cuts_hat"]) - [0.2, 1.2])) <= 2 * h
        n_modes = len(model.spectrum)
        for k, truth in enumerate(model.piece_coeffs):
            rows = recon["coeffs"][k * n_modes:(k + 1) * n_modes]
            assert all(row["piece"] == k + 1 for row in rows)
            got = np.array([complex(row["re"], row["im"]) for row in rows])
            assert (np.linalg.norm(got - truth.values)
                    <= 1e-2 * np.linalg.norm(truth.values))

    @pytest.mark.parametrize("bad_row", ["0.005;0.1", "0.005,nan"],
                             ids=["malformed-row", "nan-flux"])
    def test_bad_trace_row_exit_2(self, tmp_path, capsys, bad_row):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        main(["synth", "--config", cfg_path, "--quiet"])
        run = tmp_path / "run"
        lines = (run / "flux_sensor1.csv").read_text().splitlines()
        lines[5] = bad_row
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["invert", "--config", cfg_path, "--quiet",
                     str(bad), str(run / "flux_sensor2.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[clause: trace-csv]" in err and "line 6" in err

    def _invert_with_grid(self, tmp_path, capsys, edit_times=None, steps=400):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        main(["synth", "--config", cfg_path, "--quiet"])
        run = tmp_path / "run"
        t, v = trace_from_csv((run / "flux_sensor1.csv").read_text())
        if edit_times is not None:
            edit_times(t)
        bad = tmp_path / "bad.csv"
        bad.write_text(trace_to_csv(t, v))
        inv_cfg = write_config(tmp_path, {"grid.steps": steps}, name="inv.json")
        capsys.readouterr()
        code = main(["invert", "--config", inv_cfg, "--quiet",
                     str(bad), str(run / "flux_sensor2.csv")])
        return code, capsys.readouterr().err

    def test_grid_check_accepts_rounding_jitter(self):
        t = np.linspace(0.0, 4.0, 401)
        jitter = np.random.default_rng(3).uniform(-1e-12, 1e-12, t.shape) * (t[1] - t[0])
        check_trace_grid(t + jitter, t, "jittered")

    def test_non_uniform_grid_exit_2(self, tmp_path, capsys):
        def nudge(t):
            t[7] += 1e-6 * (t[1] - t[0])
        code, err = self._invert_with_grid(tmp_path, capsys, nudge)
        assert code == 2
        assert "[clause: trace-grid]" in err and "not uniform" in err

    def test_grid_not_matching_config_exit_2(self, tmp_path, capsys):
        code, err = self._invert_with_grid(tmp_path, capsys, steps=500)
        assert code == 2
        assert "[clause: trace-grid]" in err and "does not match" in err

    def test_header_only_trace_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        main(["synth", "--config", cfg_path, "--quiet"])
        empty = tmp_path / "empty.csv"
        empty.write_text("t,flux\n")
        capsys.readouterr()
        code = main(["invert", "--config", cfg_path, "--quiet",
                     str(empty), str(tmp_path / "run" / "flux_sensor2.csv")])
        assert code == 2
        assert "[clause: trace-grid]" in capsys.readouterr().err


class TestNoScipyImport:
    def test_no_command_imports_scipy(self, tmp_path):
        # SciPy is a test-only dependency: every CLI command and the adjoint
        # weight take their Mittag-Leffler values from the relaxation basis,
        # and the scalar mittag_leffler takes 1/Gamma from math.gamma
        script = (
            "import sys\n"
            "from fracsource.cli import main\n"
            "from fracsource.disc_spectrum import build_spectrum\n"
            "from fracsource.laplace_model import AdjointSpec, adjoint_weight_w\n"
            "from fracsource.specfun import mittag_leffler\n"
            "cfg, out = sys.argv[1:]\n"
            "common = ['--config', cfg, '--out', out, '--quiet']\n"
            "assert main(['spectrum'] + common) == 0\n"
            "assert main(['synth'] + common) == 0\n"
            "assert main(['invert'] + common + [out + '/flux_sensor1.csv',\n"
            "                                   out + '/flux_sensor2.csv']) == 0\n"
            "assert main(['verify'] + common) == 0\n"
            "assert main(['plotdata', out, '--quiet']) == 0\n"
            "adjoint_weight_w(AdjointSpec(theta_z=0.3, N=2, alpha=0.75),\n"
            "                 build_spectrum(30.0), 0.5, 0.3, 1.0)\n"
            "mittag_leffler(0.75, 1.0, -2.0)\n"
            "mittag_leffler(0.75, 1.0, -40.0)\n"
            # np.median's NaN check and np.unique import numpy.ma (about
            # 10 ms cold); numpy.matrixlib is always loaded, so the name is
            # matched exactly
            "print('numpy.ma' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        package_root = os.path.dirname(os.path.dirname(fracsource.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", script, REFERENCE_CONFIG, str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "[]"]


class TestVerifyCommand:
    def test_quadrature_checks_detect_a_scaled_mittag_leffler(self, monkeypatch):
        cfg = load_config(REFERENCE_CONFIG)
        checks = {c["name"]: c for c in cli._verify_checks(cfg)}
        assert checks["laplace_pair"]["measured"] <= 1e-9
        assert checks["ml_unit_mass"]["measured"] <= 1e-9
        # scale every E_{alpha,alpha} value that the two quadratures integrate
        rates = cli.relaxation_rates
        monkeypatch.setattr(cli, "relaxation_rates",
                            lambda *args, **kw: rates(*args, **kw) * (1.0 + 1e-5))
        checks = {c["name"]: c for c in cli._verify_checks(cfg)}
        assert not checks["laplace_pair"]["pass"]  # measures 5e-6, tolerance 1e-6
        # only the mass scales, not 1 - tail, so the gap is 1e-5 times the mass
        # (about 1e-5), against a tolerance of 1e-6
        assert not checks["ml_unit_mass"]["pass"]

    def test_all_checks_pass_near_alpha_one(self, tmp_path):
        # the relaxation basis stays accurate as alpha -> 1
        cfg = load_config(write_config(tmp_path, {"model.alpha": 0.999}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            checks = cli._verify_checks(cfg)
        assert [c["name"] for c in checks] == [
            "laplace_pair", "ml_unit_mass", "measurement_identity",
            "laplace_model_agreement", "orthonormality", "normalizer_identity"]
        assert all(c["pass"] for c in checks), checks

    def test_fault_injection_fails_normalizer(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "verify": {"fault_omega_scale": 1.001}, "grid.steps": 500})
        code = main(["verify", "--config", cfg_path, "--quiet"])
        assert code == 3
        report = json.loads((tmp_path / "run" / "verification.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["normalizer_identity"]["pass"]
        assert not report["all_pass"]

    def test_report_schema(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "verify": {"fault_omega_scale": 1.001}, "grid.steps": 500})
        main(["verify", "--config", cfg_path, "--quiet"])
        report = json.loads((tmp_path / "run" / "verification.json").read_text())
        assert set(report) == {"all_pass", "checks"}
        for c in report["checks"]:
            assert set(c) == {"name", "measured", "tolerance", "pass"}


class TestPlotdataCommand:
    def test_missing_run_exit_2(self, tmp_path):
        assert main(["plotdata", str(tmp_path / "nope"), "--quiet"]) == 2

    def test_full_run_emits_three_csvs(self, tmp_path):
        cfg_path = write_config(tmp_path, {"grid.steps": 2000,
                                           "inversion.refine": False})
        main(["synth", "--config", cfg_path, "--quiet"])
        run = str(tmp_path / "run")
        main(["invert", "--config", cfg_path, "--quiet",
              os.path.join(run, "flux_sensor1.csv"),
              os.path.join(run, "flux_sensor2.csv")])
        assert main(["plotdata", run, "--quiet"]) == 0
        for name in ("plot_flux_vs_t.csv", "plot_alpha_fit.csv",
                     "plot_cuts_compare.csv"):
            assert (tmp_path / "run" / name).exists()
        lines = (tmp_path / "run" / "plot_alpha_fit.csv").read_text().splitlines()
        recon = json.loads((tmp_path / "run" / "reconstruction.json").read_text())
        expected_slope = -(1.0 + recon["alpha_hat"])
        slopes = {float(line.split(",")[3]) for line in lines[1:]}
        assert slopes == {expected_slope}

    def test_alpha_fit_is_the_estimators_transform(self, tmp_path):
        # log_G is log|sum over both sensors of the leading-window transform|
        # on the window estimate_alpha fits: delta = min(changepoint_min_gap,
        # ALPHA_LEADING_DELTA), here 0.1, at the ALPHA_FIT_POINTS points spaced
        # geometrically over ALPHA_FIT_WINDOW
        cfg_path = write_config(tmp_path, {"grid.steps": 2000,
                                           "inversion.changepoint_min_gap": 0.1})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run = tmp_path / "run"
        (run / "reconstruction.json").write_text(json.dumps(
            {"alpha_hat": 0.75, "cuts_hat": [0.2, 1.2]}))
        assert main(["plotdata", str(run), "--quiet"]) == 0
        delta = min(0.1, ALPHA_LEADING_DELTA)
        s = np.geomspace(*ALPHA_FIT_WINDOW, ALPHA_FIT_POINTS)
        traces = [trace_from_csv((run / f"flux_sensor{i}.csv").read_text()) for i in (1, 2)]
        gv = sum(_window_transform(t, -v, 0.2, delta, s) for t, v in traces)
        got = np.loadtxt(run / "plot_alpha_fit.csv", delimiter=",", skiprows=1)
        assert np.array_equal(got[:, 0], np.log(s))
        assert np.array_equal(got[:, 1], np.log(np.abs(gv)))
        # without config.json, the default gap (also 0.1) gives the same file
        first = (run / "plot_alpha_fit.csv").read_bytes()
        (run / "config.json").unlink()
        assert main(["plotdata", str(run), "--quiet"]) == 0
        assert (run / "plot_alpha_fit.csv").read_bytes() == first
        # the tidy flux file holds plain numbers, sensor 1 then sensor 2
        flux = np.loadtxt(run / "plot_flux_vs_t.csv", delimiter=",", skiprows=1)
        assert np.array_equal(flux[:, 0], np.concatenate([traces[0][0], traces[1][0]]))
        assert np.array_equal(flux[:, 1], np.repeat([1.0, 2.0], len(traces[0][0])))
        assert np.array_equal(flux[:, 2], np.concatenate([traces[0][1], traces[1][1]]))

    def test_plots_the_traces_that_invert_fitted(self, tmp_path):
        # after a fit to the 1 %-noise traces, reconstruction.json names them
        # and plotdata plots and transforms those, not the clean ones
        cfg_path = write_config(tmp_path, {"grid.steps": 2000, "noise.level": 0.01,
                                           "inversion.refine": False})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run = tmp_path / "run"
        names = [f"flux_sensor{i}_noisy.csv" for i in (1, 2)]
        assert main(["invert", "--config", cfg_path, "--quiet",
                     *(str(run / name) for name in names)]) == 0
        recon = json.loads((run / "reconstruction.json").read_text())
        assert recon["traces"] == names
        assert main(["plotdata", str(run), "--quiet"]) == 0
        noisy = [trace_from_csv((run / name).read_text()) for name in names]
        clean = [trace_from_csv((run / f"flux_sensor{i}.csv").read_text()) for i in (1, 2)]
        assert not np.array_equal(noisy[0][1], clean[0][1])
        flux = np.loadtxt(run / "plot_flux_vs_t.csv", delimiter=",", skiprows=1)
        assert np.array_equal(flux[:, 2], np.concatenate([noisy[0][1], noisy[1][1]]))
        delta = min(BASE_CONFIG["inversion"]["changepoint_min_gap"], ALPHA_LEADING_DELTA)
        s = np.geomspace(*ALPHA_FIT_WINDOW, ALPHA_FIT_POINTS)
        gv = sum(_window_transform(t, -v, recon["cuts_hat"][0], delta, s) for t, v in noisy)
        got = np.loadtxt(run / "plot_alpha_fit.csv", delimiter=",", skiprows=1)
        assert np.array_equal(got[:, 1], np.log(np.abs(gv)))
