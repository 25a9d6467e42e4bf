import argparse
import gc
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fracsource
from fracsource import cli, config, errors, inversion
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
from fracsource.laplace_model import LaplacePoint, laplace_flux_model

import oracles


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
        assert cfg.inversion["changepoint_min_gap"] == 0.1

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
        model = build_source_model(cfg, sp)   # a real-field model, or it raises
        assert model.dofs.shape == (1, len(sp))
        assert float(np.linalg.norm(model.piece_coeffs[0])) > 0.01

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


def _read_outcome(read, text):
    """The arrays that read returns, as bytes, or its ValidationError."""
    try:
        t, v = read(text)
    except ValidationError as exc:
        return "error", str(exc), exc.clause
    assert t.dtype == v.dtype == np.float64 and t.flags.c_contiguous and v.flags.c_contiguous
    return "values", t.shape, t.tobytes(), v.tobytes()


# a cell as a writer may format it: repr, %.17g, %e, with blanks or a sign
_CELL_FORMATS = (repr, "{:.17g}".format, "{:e}".format, " {!r}\t".format, "{:+}".format)


@st.composite
def _valid_trace_csv(draw):
    rows = draw(st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_CELL_FORMATS),
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_CELL_FORMATS)),
        max_size=40))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    body = [f"{fa(a)},{fb(b)}" for a, fa, b, fb in rows]
    return end.join(["t,flux", *body]) + draw(st.sampled_from(["", end]))


class TestTraceReader:
    """trace_from_csv parses the rows with np.loadtxt and falls back to
    float() on each cell, written into one preallocated (2, n) array, where
    loadtxt raises or skips a line. The outcome is the list loop's
    (oracles.trace_from_csv_loop), bit for bit or message for message."""

    @given(_valid_trace_csv())
    @example("t,flux\n0.0,-0.0\n5e-324,1e308\n")
    def test_valid_files(self, text):
        want = _read_outcome(oracles.trace_from_csv_loop, text)
        assert want[0] == "values"
        assert _read_outcome(trace_from_csv, text) == want

    @pytest.mark.parametrize("edit, message", [
        (None, None),
        (lambda rows: rows.__setitem__(2000, rows[2000] + ",1.0"), "line 2002 is not two numbers"),
        (lambda rows: rows.__setitem__(1500, ""), "line 1502 is not two numbers: ''"),
        (lambda rows: rows.__setitem__(2400, "2.4,inf"), "line 2402 has a non-finite value"),
        (lambda rows: rows.__setitem__(slice(1024, None), ["0.5"] * 1476),
         "line 1026 is not two numbers: '0.5'"),
    ], ids=["valid", "three-fields", "blank-line", "inf", "one-field-from-line-1026"])
    def test_long_files(self, edit, message):
        # on 2500 rows, the values and the line named by an error are the loop's
        rng = np.random.default_rng(11)
        rows = [f"{a!r},{b!r}" for a, b in zip((np.arange(2500) * 1e-3).tolist(),
                                               rng.normal(size=2500).tolist())]
        if edit is not None:
            edit(rows)
        text = "\n".join(["t,flux", *rows]) + "\n"
        want = _read_outcome(oracles.trace_from_csv_loop, text)
        assert _read_outcome(trace_from_csv, text) == want
        if message is None:
            assert want[1] == (2500,)
        else:
            assert want[0] == "error" and message in want[1]

    @pytest.mark.parametrize("text, message", [
        ("t,flux\n0.0,1.0\n0.1,2.0,3.0\n0.2,3.0\n",
         "trace CSV line 3 is not two numbers: '0.1,2.0,3.0'"),
        ("t,flux\n0.0,1.0\n\n0.2,3.0\n", "trace CSV line 3 is not two numbers: ''"),
        ("t,flux\n0.0,1.0\n0.1\n0.2,3.0\n", "trace CSV line 3 is not two numbers: '0.1'"),
        ("t,flux\n0.0,1.0\n0.1,nan\n", "trace CSV line 3 has a non-finite value: '0.1,nan'"),
        ("t,flux\r\n0.0,1.0\r\n0.1,2.0\r\n", None),
        ("t,flux\n0.0,1_0\n0.1,2.5_5\n", None),
        ("t,flux\n0.0,1.0,5\n0.1,2.0,6\n", "trace CSV line 2 is not two numbers: '0.0,1.0,5'"),
        ("t,flux\n0.0\n0.1\n", "trace CSV line 2 is not two numbers: '0.0'"),
        ("t,flux\n0.0,0x10\n", "trace CSV line 2 is not two numbers: '0.0,0x10'"),
        ("t,flux\n0.0,1.0\n0.1,1e999\n", "trace CSV line 3 has a non-finite value: '0.1,1e999'"),
        ("t,flux\n", None),
        ("t;flux\n0.0,1.0\n", "trace CSV must start with header 't,flux'"),
        # rows where loadtxt (comments=None, no quote character) and float()
        # could part
        ("t,flux\n0.0,1.0\n0.1,2.0 # x\n", "trace CSV line 3 is not two numbers: '0.1,2.0 # x'"),
        ("t,flux\n0.0,1.0\n#0.1,2.0\n", "trace CSV line 3 is not two numbers: '#0.1,2.0'"),
        ('t,flux\n0.0,"1.0"\n', "trace CSV line 2 is not two numbers: '0.0,\"1.0\"'"),
        ("t,flux\n 0.0 ,\t1.5 \n0.1,\xa02.5\n", None),
        ("t,flux\n0.0,1d5\n", "trace CSV line 2 is not two numbers: '0.0,1d5'"),
        ("t,flux\n0.0,1.0\n0.1,2.0,\n", "trace CSV line 3 is not two numbers: '0.1,2.0,'"),
        ("t,flux\n0.0,1.0,\n0.1,2.0,\n", "trace CSV line 2 is not two numbers: '0.0,1.0,'"),
        ("t,flux\n0.0,1.0\n0.1,2.0\n\n", None),
        ("t,flux\n0.0,1.0\n0.1,2.0\n  \n", None),
        ("t,flux\n0.0,1.0\n \t\n0.2,3.0\n", "trace CSV line 3 is not two numbers: ' \\t'"),
    ], ids=["three-fields", "blank-middle-line", "missing-field", "nan", "crlf",
            "underscores", "three-fields-every-line", "one-field-every-line", "hex",
            "overflow", "header-only", "bad-header", "hash-in-row", "hash-first",
            "quoted-field", "spaces", "d-exponent", "trailing-comma",
            "trailing-comma-every-line", "blank-last-line", "blank-last-line-spaces",
            "whitespace-middle-line"])
    def test_same_outcome_as_the_loop(self, text, message):
        got = _read_outcome(trace_from_csv, text)
        assert got == _read_outcome(oracles.trace_from_csv_loop, text)
        if message is None:
            assert got[0] == "values"
        else:
            assert got == ("error", message, "trace-csv")

    def test_header_only_gives_empty_arrays_without_a_warning(self):
        # loadtxt warns on empty input, so a header-only file never reaches it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, v = trace_from_csv("t,flux\n")
        assert t.shape == v.shape == (0,)


# inversion keys of earlier versions, with the values they held; the
# settings are constants (margin_min is forward_model.MARGIN_MIN, and
# refine_joint always runs), and the keys are unknown keys
REMOVED_INVERSION_KEYS = [("onset_threshold", 5.0), ("onset_floor", 1e-9),
                          ("alpha_fit_window", [20.0, 200.0]), ("alpha_fit_points", 40),
                          ("margin_min", 1e-3), ("refine", False)]

# every settable value of a config: a leaf of config._DEFAULTS
SETTABLE_VALUES = [
    "spectrum.lambda_max", "model.alpha", "model.cuts", "model.pieces",
    "sensors.theta1", "sensors.theta2", "grid.t_max", "grid.steps", "noise.level",
    "noise.seed", "inversion.changepoint_min_gap", "output.directory", "output.laplace_s",
]


def _exit_and_error(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


class TestConfigValidation:
    def test_settable_values_census(self):
        # a new setting fails here until it is listed in SETTABLE_VALUES
        def leaves(node, path):
            for key, value in node.items():
                name = f"{path}{key}"
                yield from leaves(value, name + ".") if isinstance(value, dict) else [name]

        assert list(leaves(config._DEFAULTS, "")) == SETTABLE_VALUES
        assert len(SETTABLE_VALUES) == 13
        assert list(leaves(load_config("{}").raw, "")) == SETTABLE_VALUES

    def test_inversion_section_has_three_keys(self):
        # of the three keys the inversion section has held, one is settable;
        # margin_min and refine are unknown keys
        assert load_config("{}").inversion == {"changepoint_min_gap": 0.1}
        for key, value in (("margin_min", 1e-3), ("refine", True)):
            with pytest.raises(ValidationError) as err:
                load_config(json.dumps({"inversion": {key: value}}))
            assert err.value.clause == "config-schema"
            assert f"inversion.{key}" in str(err.value)

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
        ("inversion.changepoint_min_gap", math.nan, "config-schema"),
        ("inversion.changepoint_min_gap", 0.0, "inversion-config"),
        ("inversion.changepoint_min_gap", 5.0, "inversion-config"),
        pytest.param("inversion.margin_min", math.nan, "config-schema",
                     id="inversion.margin_min-nan-inversion-setting-removed"),
        pytest.param("inversion.margin_min", -1.0, "config-schema",
                     id="inversion.margin_min--1.0-inversion-setting-removed"),
    ])
    def test_bad_inversion_setting_exit_2(self, tmp_path, capsys, key, value, clause):
        # at the sensor geometry of A7 (delta_theta = pi/2): both commands
        # check the inversion section where they read the config, before
        # the sensor guard; a margin_min that would switch the guard off is
        # an unknown key, as the margin is forward_model.MARGIN_MIN
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
        ("model.cuts", "inf"), ("output.directory", 3),
        pytest.param("grid.t_max", 10 ** 400, id="grid.t_max-beyond-a-double"),
        ("spectrum.lambda_max", math.nan), ("spectrum.lambda_max", math.inf),
        ("grid.t_max", math.nan), ("grid.t_max", math.inf), ("noise.seed", -3),
        ("model.cuts", [0.2, 1.2, math.nan]),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, key, value):
        # a value of another JSON type than its default, a noise level that
        # is not finite and >= 0, an integer beyond the range of a double
        # where a float is expected, a lambda_max or t_max that is not
        # finite, a negative seed or a NaN cut: unchecked, each ends in a
        # traceback (exit 1; OverflowError for the integer and an infinite
        # lambda_max, ValueError from default_rng for the seed) or in a run
        # that silently differs from the config (a NaN last cut ran as an
        # open piece)
        cfg_path = write_config(tmp_path, {key: value})
        code, err = _exit_and_error(capsys, ["synth", "--config", cfg_path, "--quiet"])
        assert code == 2
        assert key in err and "[clause: config-schema]" in err, err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("laplace_s, key", [
        (["x"], "output.laplace_s[0]"), ([True], "output.laplace_s[0]"),
        ([-1], "output.laplace_s[0]"), ([1.0, 0.0], "output.laplace_s[1]"),
        ([1.0, math.inf], "output.laplace_s[1]"), ([1.0, 10 ** 400], "output.laplace_s[1]"),
    ], ids=["string", "bool", "negative", "zero", "inf", "beyond-a-double"])
    def test_bad_laplace_point_exit_2(self, tmp_path, capsys, laplace_s, key):
        # unchecked, "x" ended in a ValueError traceback (exit 1) and -1 in an
        # exit 2 without a clause, both after writing the traces; true ran as
        # s = 1, and 10**400 ended in an OverflowError traceback
        cfg_path = write_config(tmp_path, {"output.laplace_s": laplace_s})
        code, err = _exit_and_error(capsys, ["synth", "--config", cfg_path, "--quiet"])
        assert code == 2
        assert key in err and "[clause: config-schema]" in err, err
        assert not (tmp_path / "run").exists()

    def test_model_gamma_is_unknown(self, tmp_path, capsys):
        # the Sobolev exponent of assumption 1b was checked and never used;
        # the key is gone
        cfg_path = write_config(tmp_path, {"model.gamma": 1.0})
        code, err = _exit_and_error(capsys, ["synth", "--config", cfg_path, "--quiet"])
        assert code == 2
        assert "unknown config key model.gamma" in err, err
        assert "[clause: config-schema]" in err, err

    @pytest.mark.parametrize("command, key, value", [
        ("synth", "model.eta", 0.3), ("verify", "verify", {"fault_omega_scale": 1.0}),
    ], ids=["model.eta", "verify"])
    def test_unread_key_is_unknown(self, tmp_path, capsys, command, key, value):
        # model.eta was checked and never read (the paper's eta is
        # inversion.changepoint_min_gap), and the verify section held only a
        # fault-injection scale of omega; both keys are gone
        cfg_path = write_config(tmp_path, {key: value})
        code, err = _exit_and_error(capsys, [command, "--config", cfg_path, "--quiet"])
        assert code == 2
        assert f"unknown config key {key}" in err, err
        assert "[clause: config-schema]" in err, err
        assert not (tmp_path / "run").exists()

    def test_output_formats_is_unknown(self, tmp_path, capsys):
        # synth always writes the CSV and the JSON trace; the setting is gone
        cfg_path = write_config(tmp_path, {"output.formats": ["csv"]})
        code, err = _exit_and_error(capsys, ["synth", "--config", cfg_path, "--quiet"])
        assert code == 2
        assert "unknown config key output.formats" in err, err
        assert "[clause: config-schema]" in err, err

    def test_accepted_types(self):
        # an int where the default is a float
        cfg = load_config(json.dumps({"grid": {"t_max": 4, "steps": 400},
                                      "noise": {"level": 0}}))
        assert (cfg.grid["t_max"], cfg.noise["level"]) == (4, 0)

    @pytest.mark.parametrize("case", ["missing", "unreadable", "invalid-json"])
    def test_config_file_exit_2(self, tmp_path, capsys, case):
        # unchecked, a missing path was parsed as JSON text and, like a file
        # of invalid JSON, ended in a JSONDecodeError traceback (exit 1)
        path = tmp_path / "config.json"
        if case == "unreadable":
            path.mkdir()
        elif case == "invalid-json":
            path.write_text('{"model": ')
        code, err = _exit_and_error(capsys, ["synth", "--config", str(path), "--quiet"])
        assert code == 2
        assert str(path) in err and "[clause: config-file]" in err, err

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m["cuts"].__setitem__(1, "x"), "model.cuts[1]"),
        (lambda m: m["cuts"].__setitem__(0, True), "model.cuts[0]"),
        (lambda m: m["cuts"].__setitem__(1, -10 ** 400), "model.cuts[1]"),
        (lambda m: m["pieces"][0]["coefficients"][0].__setitem__("re", "x"),
         "model.pieces[0].coefficients[0].re"),
        (lambda m: m["pieces"][1]["coefficients"][2].__setitem__("m", 1.5),
         "model.pieces[1].coefficients[2].m"),
        (lambda m: m["pieces"][0]["coefficients"][1].pop("k"),
         "model.pieces[0].coefficients[1]"),
        (lambda m: m["pieces"][0]["coefficients"].__setitem__(0, 3),
         "model.pieces[0].coefficients[0]"),
        (lambda m: m["pieces"].__setitem__(1, {"density": {"kind": "gaussian", "width": "x"}}),
         "model.pieces[1].density.width"),
        (lambda m: m["pieces"].__setitem__(1, "x"), "model.pieces[1]"),
    ], ids=["cut", "bool-cut", "cut-beyond-a-double", "re", "m", "no-k", "row",
            "density-width", "piece"])
    def test_bad_model_element_exit_2(self, tmp_path, capsys, edit, key):
        # unchecked, each ended in a ValueError, KeyError, TypeError or
        # OverflowError traceback (exit 1) while the model was built
        doc = json.loads(json.dumps(BASE_CONFIG))
        edit(doc["model"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, err = _exit_and_error(capsys, ["synth", "--config", str(path), "--quiet",
                                             "--out", str(tmp_path / "run")])
        assert code == 2
        assert key in err and "[clause: config-schema]" in err, err
        assert not (tmp_path / "run").exists()

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        run = tmp_path_factory.mktemp("traces")
        assert main(["synth", "--config", write_config(run), "--out", str(run), "--quiet"]) == 0
        return [str(run / f"flux_sensor{i}.csv") for i in (1, 2)]

    @pytest.mark.parametrize("command", ["spectrum", "synth", "invert"])
    @pytest.mark.parametrize("edit, clause, named", [
        (lambda c: c["grid"].__setitem__("steps", 1), "grid", "steps >= 2"),
        (lambda c: c["grid"].__setitem__("t_max", -1.0), "grid", "t_max > 0"),
        (lambda c: c["sensors"].__setitem__("theta1", 7.0), "sensor-range", "angle 7.0"),
        (lambda c: c["sensors"].__setitem__("theta2", -0.1), "sensor-range", "angle -0.1"),
        (lambda c: c["model"]["pieces"].__setitem__(1, {}), "piece-schema", "piece needs"),
        (lambda c: c["model"]["pieces"].__setitem__(1, {"density": {"kind": "square"}}),
         "piece-density", "'square'"),
        (lambda c: c["model"]["pieces"][0]["coefficients"][1].__setitem__("m", -1),
         "piece-coefficients", "m >= 0"),
        (lambda c: c["model"]["pieces"][0]["coefficients"][1].__setitem__("re", math.nan),
         "config-schema", "model.pieces[0].coefficients[1].re"),
        (lambda c: c["model"]["pieces"][1]["coefficients"][2].__setitem__("im", math.inf),
         "config-schema", "model.pieces[1].coefficients[2].im"),
        (lambda c: c["model"]["pieces"].__setitem__(
            1, {"density": {"kind": "gaussian", "r0": math.nan}}),
         "config-schema", "model.pieces[1].density.r0"),
        (lambda c: c["model"]["pieces"].__setitem__(
            1, {"density": {"kind": "constant", "amplitude": math.inf}}),
         "config-schema", "model.pieces[1].density.amplitude"),
        (lambda c: c["model"]["pieces"].__setitem__(
            1, {"density": {"kind": "gaussian", "width": 0.0}}),
         "config-schema", "model.pieces[1].density.width"),
    ], ids=["steps-1", "t_max-negative", "theta1-7", "theta2-negative", "empty-piece",
            "square-density", "negative-m", "nan-re", "inf-im", "nan-r0", "inf-amplitude",
            "zero-width"])
    def test_checked_where_the_config_is_loaded(self, tmp_path, capsys, traces, command,
                                                edit, clause, named):
        # load_config is the one place where a config is checked, so every
        # command that reads one rejects it the same way, with the same
        # message (naming the key under config-schema), before any file is
        # written. Before, spectrum ran each of these configs and invert the
        # piece and non-finite ones; synth rejected the grid, sensor and
        # piece cases, but ran the non-finite numbers to nan flux rows and a
        # width of 0 to a divide-by-zero RuntimeWarning
        doc = json.loads(json.dumps(BASE_CONFIG))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        argv = [command, "--config", str(path), "--out", str(out), "--quiet"]
        code, err = _exit_and_error(capsys, argv + (traces if command == "invert" else []))
        assert code == 2
        assert named in err and f"[clause: {clause}]" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "synth", "invert", "verify"])
    @pytest.mark.parametrize("edit, clause", [
        (lambda m: m.__setitem__("alpha", 0.3), "condition-alpha"),
        (lambda m: m.__setitem__("cuts", [1.2, 0.2, "inf"]), "assumption-1a"),
        (lambda m: m.__setitem__("pieces", []), "assumption-1c"),
        (lambda m: m["pieces"][0]["coefficients"].append({"m": 7, "k": 1, "re": 1.0}),
         "piece-coefficients"),
        (lambda m: m["pieces"][1]["coefficients"][0].__setitem__("im", 0.5), "real-field"),
    ], ids=["alpha-0.3", "unordered-cuts", "no-pieces", "mode-outside-spectrum",
            "not-real-field"])
    def test_every_command_checks_the_model(self, tmp_path, capsys, traces, command,
                                            edit, clause):
        # each command builds the source model before it writes a file;
        # before, spectrum and invert ran these configs to exit 0
        doc = json.loads(json.dumps(BASE_CONFIG))
        edit(doc["model"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        argv = [command, "--config", str(path), "--out", str(out), "--quiet"]
        code, err = _exit_and_error(capsys, argv + (traces if command == "invert" else []))
        assert code == 2
        assert err.startswith("validation error: ") and f"[clause: {clause}]" in err, err
        assert not out.exists()

    def test_mode_outside_the_spectrum_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"model.pieces": [
            {"coefficients": [{"m": 7, "k": 1, "re": 1.0}]}], "model.cuts": [0.2, "inf"]})
        code, err = _exit_and_error(capsys, ["synth", "--config", cfg_path, "--quiet"])
        assert code == 2
        assert "(m=7, k=1)" in err and "[clause: piece-coefficients]" in err, err

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
        # spectrum checks the model section as synth does, so the model uses
        # the one mode (0, 1)
        cfg_path = write_config(tmp_path, {"spectrum.lambda_max": 6.0, "model.pieces": [
            {"coefficients": [{"m": 0, "k": 1, "re": re}]} for re in (1.0, -0.6)]})
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

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        # the noise seed is set in the config only: the config commands
        # take --config, --out and --quiet, and argparse rejects --seed
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", cfg_path, "--quiet", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        commands = next(action for action in cli.make_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        for name in ("spectrum", "synth", "invert", "verify"):
            flags = {opt for action in commands[name]._actions
                     for opt in action.option_strings if opt.startswith("--")}
            assert flags == {"--config", "--out", "--quiet", "--help"}, name

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
        # every cell is a plain repr decimal: im_s is 0.0, and re_G and im_G
        # are those of the closed form at s
        cfg_path = write_config(tmp_path, {"grid.steps": 400,
                                           "output.laplace_s": [1.0, 5.0]})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        model = build_source_model(load_config(cfg_path), build_spectrum(30.0))
        for i, theta in enumerate((0.3, 1.3), start=1):
            lines = (tmp_path / "run" / f"laplace_sensor{i}.csv").read_text().splitlines()
            assert lines[0] == "re_s,im_s,re_G,im_G"
            assert len(lines) == 3
            for line, s in zip(lines[1:], (1.0, 5.0)):
                cells = line.split(",")
                assert [float(c) for c in cells[:2]] == [s, 0.0]
                g = laplace_flux_model(model, theta, LaplacePoint(s))
                assert cells[2:] == [repr(g.real), repr(g.imag)]


class TestInvertCommand:
    def test_residual_curve(self, tmp_path, monkeypatch):
        # one line per grid time under the unchanged header, every cell at 9
        # significant digits: the residuals parse back within 5e-9 relative
        # of the result's, the times within 1e-12 of the grid
        cfg_path = write_config(tmp_path, {"grid.steps": 400, "noise.level": 0.01})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        results = []
        reconstruct = cli.reconstruct
        monkeypatch.setattr(cli, "reconstruct",
                            lambda *a: results.append(reconstruct(*a)) or results[-1])
        run = tmp_path / "run"
        assert main(["invert", "--config", cfg_path, "--quiet",
                     *(str(run / f"flux_sensor{i}_noisy.csv") for i in (1, 2))]) == 0
        lines = (run / "residual_curve.csv").read_text().splitlines()
        assert len(lines) == 402 and lines[0] == "t,residual_sensor1,residual_sensor2"
        assert lines[1].startswith("0,")
        cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(cells[:, 0] - np.linspace(0.0, 4.0, 401))) <= 1e-12
        want = np.array(results[0].residuals).T
        assert np.all(np.abs(cells[:, 1:] - want) <= 5e-9 * np.abs(want))
        assert np.all(want != 0.0)

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

    @pytest.mark.parametrize("noisy", [True, False])
    def test_condition_report(self, tmp_path, noisy):
        # the reference geometry, delta_theta = 0.3 - 1.3 = -1 with |m| in
        # {1, 2}: the report holds |2 sin(|m| delta_theta)|, bit for bit,
        # from the geometry alone, on clean and on 1 %-noise traces; every
        # invert ends with refine_joint
        doc = json.load(open(REFERENCE_CONFIG))
        doc["noise"]["level"] = 0.01 if noisy else 0.0
        doc["output"]["directory"] = str(tmp_path / "run")
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        cfg_path = str(tmp_path / "cfg.json")
        run = tmp_path / "run"
        suffix = "_noisy" if noisy else ""
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        assert main(["invert", "--config", cfg_path, "--quiet",
                     str(run / f"flux_sensor1{suffix}.csv"),
                     str(run / f"flux_sensor2{suffix}.csv")]) == 0
        recon = json.loads((run / "reconstruction.json").read_text())
        assert recon["condition_report"] == {"1": abs(2 * math.sin(1.0)),
                                             "2": abs(2 * math.sin(2.0))}
        assert [name for name, _ in recon["stage_log"]] == [
            "detect_onset", "estimate_alpha", "detect_change_points",
            "staged_coefficients", "refine_joint"]

    def test_coarse_grid_exits_before_the_order_stage(self, tmp_path, capsys, monkeypatch):
        # a grid step of 0.1 against changepoint_min_gap 0.3 (at most 0.03
        # allowed): invert exits 2 before it builds any relaxation basis
        cfg_path = write_config(tmp_path, {"grid.steps": 40})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        builds = []
        for name in ("relaxation_design", "relaxation_derivatives"):
            build = getattr(inversion, name)
            monkeypatch.setattr(inversion, name,
                                lambda *args, _build=build: builds.append(args) or _build(*args))
        run = tmp_path / "run"
        code, err = _exit_and_error(capsys, [
            "invert", "--config", cfg_path, "--quiet",
            str(run / "flux_sensor1.csv"), str(run / "flux_sensor2.csv")])
        assert code == 2
        assert "[clause: changepoint-grid]" in err, err
        assert builds == []

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
            assert np.linalg.norm(got - truth) <= 1e-2 * np.linalg.norm(truth)

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

    def test_trace_within_the_grid_tolerance_inverts_on_the_config_grid(self, tmp_path):
        # a first time of 1e-13 is within check_trace_grid's 1e-9 of the
        # step; invert then fits the config grid, so the run writes what the
        # run on the synth traces writes
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run, shifted = tmp_path / "run", tmp_path / "shifted"
        shifted.mkdir()
        for i in (1, 2):
            lines = (run / f"flux_sensor{i}.csv").read_text().splitlines(keepends=True)
            assert lines[1].startswith("0.0,")
            lines[1] = "1e-13," + lines[1][len("0.0,"):]
            (shifted / f"flux_sensor{i}.csv").write_text("".join(lines))
        for directory in (run, shifted):
            assert main(["invert", "--config", cfg_path, "--quiet", "--out", str(directory),
                         str(directory / "flux_sensor1.csv"),
                         str(directory / "flux_sensor2.csv")]) == 0
        for name in ("reconstruction.json", "residual_curve.csv"):
            assert (shifted / name).read_bytes() == (run / name).read_bytes(), name

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

    def test_grid_mismatch_message_prints_plain_floats(self):
        # the grid ends are numpy scalars; the message shows them as floats
        with pytest.raises(ValidationError) as exc:
            check_trace_grid(np.linspace(0.0, 4.0, 401), np.linspace(0.0, 4.0, 501), "x.csv")
        assert "t from 0.0 to 4.0" in str(exc.value) and "np." not in str(exc.value)

    def test_all_zero_traces_exit_2_with_clause(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"grid.steps": 400})
        zero = tmp_path / "zero.csv"
        zero.write_text(trace_to_csv(np.linspace(0.0, 4.0, 401), np.zeros(401)))
        code = main(["invert", "--config", cfg_path, "--quiet", str(zero), str(zero)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: no sample exceeds") and "[clause: empty-signal]" in err


class TestErrorClauses:
    @pytest.mark.parametrize("command", ["spectrum", "synth", "verify"])
    @pytest.mark.parametrize("via", ["--out", "output.directory"])
    def test_output_directory_is_a_file_exit_2(self, tmp_path, capsys, command, via):
        # unchecked, making the directory ended in a FileExistsError
        # traceback (exit 1)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        if via == "--out":
            argv = ["--config", write_config(tmp_path, {"grid.steps": 400}), "--out", str(taken)]
        else:
            argv = ["--config", write_config(tmp_path, {"grid.steps": 400,
                                                        "output.directory": str(taken)})]
        code, err = _exit_and_error(capsys, [command, *argv, "--quiet"])
        assert code == 2
        assert str(taken) in err and "[clause: output-file]" in err, err
        assert taken.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_write_onto_a_directory_leaves_no_temp_file(self, tmp_path):
        # the rename fails after the temp file is written; it is removed
        (tmp_path / "taken").mkdir()
        with pytest.raises(ValidationError) as err:
            config.write_atomic(str(tmp_path / "taken"), "data")
        assert err.value.clause == "output-file" and str(tmp_path / "taken") in str(err.value)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_empty_spectrum_exit_2_with_clause(self, tmp_path, capsys):
        # a cutoff below the first disc eigenvalue j_{0,1}^2 = 5.78
        cfg_path = write_config(tmp_path, {"spectrum.lambda_max": 5.0})
        code = main(["spectrum", "--config", cfg_path, "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: lambda_max=5.0 below") and "[clause: spectrum-range]" in err


class TestGcFreeze:
    def test_main_with_arguments_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["spectrum", "--config", write_config(tmp_path), "--quiet"]) == 0
        assert gc.get_freeze_count() == before

    def test_the_program_freezes_the_objects_of_its_imports(self, tmp_path, monkeypatch):
        # run as the program (argv None), main freezes what exists after the
        # imports, so the interpreter's exit does not collect it
        monkeypatch.setattr(sys, "argv", ["fracsource", "spectrum", "--config",
                                          write_config(tmp_path), "--quiet"])
        try:
            assert main() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


def _python_env(**variables):
    """os.environ without OPENBLAS_NUM_THREADS, the package on the path, and
    variables set."""
    package_root = os.path.dirname(os.path.dirname(fracsource.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return {**env, **variables}


class TestBlasThreads:
    # the command line runs OpenBLAS on one thread unless the variable is
    # set; a library import leaves it alone
    SCRIPT = ("import os, sys\n"
              "import {module}\n"
              "import numpy as np\n"
              "np.linalg.norm(np.ones(32002))\n"
              "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n")

    @pytest.mark.parametrize("module, variables, want", [
        ("fracsource.cli", {}, "1"),
        ("fracsource.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ("fracsource.inversion", {}, "None"),
    ], ids=["cli-default", "cli-set-by-the-user", "library-import"])
    def test_thread_default(self, module, variables, want):
        done = subprocess.run([sys.executable, "-c", self.SCRIPT.format(module=module)],
                              capture_output=True, text=True, timeout=120,
                              env=_python_env(**variables))
        assert done.returncode == 0, done.stderr
        value, tasks = done.stdout.split()
        assert value == want
        if want == "1":
            assert tasks == "1"


class TestNoScipyImport:
    def test_no_command_imports_scipy(self, tmp_path):
        # SciPy is a test-only dependency: every CLI command takes its
        # Mittag-Leffler values from the relaxation basis
        script = (
            "import sys\n"
            "from fracsource.cli import main\n"
            "cfg, out = sys.argv[1:]\n"
            "common = ['--config', cfg, '--out', out, '--quiet']\n"
            "assert main(['spectrum'] + common) == 0\n"
            "assert main(['synth'] + common) == 0\n"
            "assert main(['invert'] + common + [out + '/flux_sensor1.csv',\n"
            "                                   out + '/flux_sensor2.csv']) == 0\n"
            "assert main(['verify'] + common) == 0\n"
            "assert main(['plotdata', out, '--quiet']) == 0\n"
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


def _package_functions():
    """{(file, first line): dotted name} of every function and method defined
    in the package's modules, nested ones included; lambdas,
    comprehensions and the methods of the exception classes of errors.py
    aside."""
    out = {}
    package_dir = os.path.dirname(fracsource.__file__)
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        stem = name[:-3]
        module = importlib.import_module("fracsource" + ("" if stem == "__init__" else "." + stem))
        with open(module.__file__) as fh:
            stack = [(compile(fh.read(), module.__file__, "exec"), [])]
        while stack:
            parent, names = stack.pop()
            for code in parent.co_consts:
                if not isinstance(code, types.CodeType) or code.co_name.startswith("<"):
                    continue
                path = names + [code.co_name]
                stack.append((code, path))
                owner = getattr(errors, path[0], None)
                if (code.co_flags & inspect.CO_OPTIMIZED
                        and not (module is errors and isinstance(owner, type)
                                 and issubclass(owner, BaseException))):
                    out[(module.__file__, code.co_firstlineno)] = ".".join([stem] + path)
    return out


class TestReachability:
    def test_commands_call_every_function(self, tmp_path):
        # the five commands on the reference config, at 1 % noise, synth
        # of a model of two densities and spectrum at lambda_max 900 (whose
        # zero scan reaches Hankel's range, x >= 30) call every function of
        # the package: code that only tests reach belongs in
        # tests/oracles.py. Cached functions run only on a miss, so their
        # caches are emptied first.
        defined = _package_functions()
        for module in (m for m in list(sys.modules.values())
                       if m and m.__name__.split(".")[0] == "fracsource"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        with open(REFERENCE_CONFIG) as fh:
            base = json.load(fh)
        noisy = json.loads(json.dumps(base))
        noisy["noise"]["level"] = 0.01
        densities = json.loads(json.dumps(base))
        densities["model"]["pieces"] = [
            {"density": {"kind": "gaussian", "r0": 0.4, "theta0": 1.0, "width": 0.3}},
            {"density": {"kind": "constant", "amplitude": 0.5}}]
        tall = json.loads(json.dumps(base))
        tall["spectrum"]["lambda_max"] = 900.0
        runs = [(base, ["spectrum", "synth", "invert", "verify", "plotdata"], ""),
                (noisy, ["synth", "invert", "plotdata"], "_noisy"),
                (densities, ["synth"], ""),
                (tall, ["spectrum"], "")]
        called = set()

        def record(frame, event, arg):
            if event == "call":
                called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

        out = str(tmp_path / "run")
        sys.setprofile(record)
        try:
            for i, (doc, commands, suffix) in enumerate(runs):
                cfg = tmp_path / f"config{i}.json"
                cfg.write_text(json.dumps(doc))
                common = ["--config", str(cfg), "--out", out, "--quiet"]
                traces = [f"{out}/flux_sensor{j}{suffix}.csv" for j in (1, 2)]
                for command in commands:
                    argv = {"invert": ["invert", *common, *traces],
                            "plotdata": ["plotdata", out, "--quiet"]}.get(
                                command, [command, *common])
                    assert main(argv) == 0, argv
        finally:
            sys.setprofile(None)
        missed = sorted(name for key, name in defined.items() if key not in called)
        assert missed == [], f"no command calls {missed}"


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

    def test_fault_injection_fails_normalizer(self, tmp_path, monkeypatch):
        # scale every J_{|m|+1}(sqrt(lambda)) that the normalizer check reads
        bessel_j = cli.bessel_j
        monkeypatch.setattr(cli, "bessel_j", lambda m, x: bessel_j(m, x) * 1.001)
        cfg_path = write_config(tmp_path, {"grid.steps": 500})
        code = main(["verify", "--config", cfg_path, "--quiet"])
        assert code == 3
        report = json.loads((tmp_path / "run" / "verification.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["normalizer_identity"]["pass"]
        assert not report["all_pass"]

    def test_report_schema(self, tmp_path, monkeypatch):
        bessel_j = cli.bessel_j
        monkeypatch.setattr(cli, "bessel_j", lambda m, x: bessel_j(m, x) * 1.001)
        cfg_path = write_config(tmp_path, {"grid.steps": 500})
        assert main(["verify", "--config", cfg_path, "--quiet"]) == 3
        report = json.loads((tmp_path / "run" / "verification.json").read_text())
        assert set(report) == {"all_pass", "checks"}
        for c in report["checks"]:
            assert set(c) == {"name", "measured", "tolerance", "pass"}


class TestPlotdataCommand:
    def test_missing_run_exit_2(self, tmp_path):
        assert main(["plotdata", str(tmp_path / "nope"), "--quiet"]) == 2

    @pytest.mark.parametrize("text, key, clause", [
        ("{}", "alpha_hat", "plotdata-input"),
        ('{"alpha_hat": 0.75}', "cuts_hat", "plotdata-input"),
        ("[]", "alpha_hat", "plotdata-input"),
        ('{"alpha_hat": ', "reconstruction.json", "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": []}', "cuts_hat", "plotdata-input"),
        ('{"alpha_hat": "x", "cuts_hat": [0.2]}', "alpha_hat", "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2, "x"]}', "cuts_hat", "plotdata-input"),
        ('{"alpha_hat": %d, "cuts_hat": [0.2]}' % 10 ** 400, "alpha_hat", "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], "traces": 5}', "traces", "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], "traces": ["a.csv", 3]}', "traces",
         "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], '
         '"stage_log": [["estimate_alpha", {"profile": 5}]]}', "estimate_alpha.profile",
         "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], '
         '"stage_log": [["estimate_alpha", {"profile": [[0.52, "x"]]}]]}',
         "estimate_alpha.profile", "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], '
         '"stage_log": [["estimate_alpha", {"profile": [[0.52, 1.0, 2.0]]}]]}',
         "estimate_alpha.profile", "plotdata-input"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], "traces": [""]}', "cannot read trace",
         "trace-file"),
        ('{"alpha_hat": 0.75, "cuts_hat": [0.2], "traces": ["sub"]}', "cannot read trace",
         "trace-file"),
    ], ids=["empty", "no-cuts", "not-an-object", "not-json", "empty-cuts",
            "alpha-not-a-number", "cut-not-a-number", "alpha-beyond-a-double",
            "traces-not-a-list", "trace-not-a-string", "profile-not-a-list",
            "profile-not-numbers", "profile-not-pairs", "trace-named-empty",
            "trace-names-a-directory"])
    def test_incomplete_reconstruction_exit_2(self, tmp_path, capsys, text, key, clause):
        # unchecked, each ended in a KeyError, JSONDecodeError, IndexError,
        # ValueError, OverflowError, TypeError or IsADirectoryError
        # traceback (exit 1); a trace named "" is the run directory itself
        (tmp_path / "reconstruction.json").write_text(text)
        (tmp_path / "sub").mkdir()
        code, err = _exit_and_error(capsys, ["plotdata", str(tmp_path), "--quiet"])
        assert code == 2
        assert key in err and f"[clause: {clause}]" in err, err
        assert not (tmp_path / "plot_flux_vs_t.csv").exists()

    def test_full_run_emits_three_csvs(self, tmp_path):
        cfg_path = write_config(tmp_path, {"grid.steps": 2000})
        main(["synth", "--config", cfg_path, "--quiet"])
        run = str(tmp_path / "run")
        main(["invert", "--config", cfg_path, "--quiet",
              os.path.join(run, "flux_sensor1.csv"),
              os.path.join(run, "flux_sensor2.csv")])
        assert main(["plotdata", run, "--quiet"]) == 0
        for name in ("plot_flux_vs_t.csv", "plot_order_profile.csv",
                     "plot_cuts_compare.csv"):
            assert (tmp_path / "run" / name).exists()
        # the order profile is the one invert recorded, 24 grid alphas
        recon = json.loads((tmp_path / "run" / "reconstruction.json").read_text())
        lines = (tmp_path / "run" / "plot_order_profile.csv").read_text().splitlines()
        profile = dict(recon["stage_log"])["estimate_alpha"]["profile"]
        assert lines[0] == "alpha,vp_residual" and len(lines) == 25
        assert [[float(cell) for cell in line.split(",")] for line in lines[1:]] == profile

    def test_order_profile_is_the_recorded_profile(self, tmp_path):
        # plot_order_profile.csv holds the recorded pairs as plain numbers,
        # with no refit
        cfg_path = write_config(tmp_path, {"grid.steps": 2000})
        assert main(["synth", "--config", cfg_path, "--quiet"]) == 0
        run = tmp_path / "run"
        (run / "reconstruction.json").write_text(json.dumps(
            {"alpha_hat": 0.75, "cuts_hat": [0.2, 1.2],
             "stage_log": [["detect_onset", {"c0_hat": 0.199}],
                           ["estimate_alpha", {"profile": [[0.52, 1.5], [0.54, 2]]}]]}))
        assert main(["plotdata", str(run), "--quiet"]) == 0
        want = "alpha,vp_residual\n0.52,1.5\n0.54,2.0\n"
        assert (run / "plot_order_profile.csv").read_text() == want
        # the tidy flux file holds plain numbers, sensor 1 then sensor 2
        traces = [trace_from_csv((run / f"flux_sensor{i}.csv").read_text()) for i in (1, 2)]
        flux = np.loadtxt(run / "plot_flux_vs_t.csv", delimiter=",", skiprows=1)
        assert np.array_equal(flux[:, 0], np.concatenate([traces[0][0], traces[1][0]]))
        assert np.array_equal(flux[:, 1], np.repeat([1.0, 2.0], len(traces[0][0])))
        assert np.array_equal(flux[:, 2], np.concatenate([traces[0][1], traces[1][1]]))
        # neither the traces nor the config enter the profile
        for name in ("config.json", "flux_sensor1.csv", "flux_sensor2.csv"):
            (run / name).unlink()
        assert main(["plotdata", str(run), "--quiet"]) == 0
        assert (run / "plot_order_profile.csv").read_text() == want
        # a run without a recorded profile gets the header alone
        (run / "reconstruction.json").write_text(json.dumps(
            {"alpha_hat": 0.75, "cuts_hat": [0.2, 1.2]}))
        assert main(["plotdata", str(run), "--quiet"]) == 0
        assert (run / "plot_order_profile.csv").read_text() == "alpha,vp_residual\n"

    def test_plots_the_traces_that_invert_fitted(self, tmp_path):
        # after a fit to the 1 %-noise traces, reconstruction.json names them
        # and plotdata plots those, not the clean ones
        cfg_path = write_config(tmp_path, {"grid.steps": 2000, "noise.level": 0.01})
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
