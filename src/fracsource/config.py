"""Experiment configuration, validation, file persistence, and run manifests.

The config is one JSON document with full defaulting. Every numeric that
this module writes uses repr (shortest round-trip decimal), so reruns with
the same config and seed are byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .disc_spectrum import SpectrumTable, project_function
from .errors import ValidationError
from .forward_model import SourceModel

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "load_config",
    "dump_config",
    "build_source_model",
    "write_atomic",
    "float_strings",
    "columns_to_csv",
    "trace_to_csv",
    "trace_from_csv",
    "read_trace",
    "check_changepoint_min_gap",
    "check_uniform_grid",
    "check_trace_grid",
]

_DEFAULTS = {
    "spectrum": {"lambda_max": 30.0},
    "model": {
        "alpha": 0.75,
        "cuts": [0.2, 1.2, "inf"],
        "pieces": [],
    },
    "sensors": {"theta1": 0.3, "theta2": 1.3},
    "grid": {"t_max": 4.0, "steps": 4000},
    "noise": {"level": 0.0, "seed": 1},
    "inversion": {"changepoint_min_gap": 0.1},
    "output": {"directory": "runs/out", "laplace_s": []},
}


# the JSON types that a value may have, and their name, by its default's type
_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string"),
          list: ((list,), "a list")}


def _check_double(name: str, value) -> None:
    """Raise ValidationError (clause config-schema) if value is a JSON integer
    beyond the range of a double, which float() cannot convert."""
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ValidationError(f"config key {name} is an integer too large for a double",
                              clause="config-schema")


def _check_kind(name: str, default, value) -> None:
    """Raise ValidationError (clause config-schema) unless value has a JSON
    type that _KINDS allows for its default; a bool is no number, and a
    number that must be a float passes _check_double and is finite (JSON
    NaN and Infinity, which the reader accepts, are not)."""
    types, kind = _KINDS[type(default)]
    if not isinstance(value, types) or isinstance(value, bool) != isinstance(default, bool):
        raise ValidationError(f"config key {name} must be {kind}, got {value!r}",
                              clause="config-schema")
    if float in types:
        _check_double(name, value)
        if not math.isfinite(value):
            raise ValidationError(f"config key {name} must be a finite number, got {value!r}",
                                  clause="config-schema")


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ValidationError(f"config section {path or '<root>'} must be an object",
                              clause="config-schema")
    for key in override:
        if key not in defaults:
            raise ValidationError(f"unknown config key {path + '.' if path else ''}{key}",
                                  clause="config-schema")
    out = {}
    for key, dval in defaults.items():
        name = f"{path}.{key}" if path else key
        if key not in override:
            out[key] = json.loads(json.dumps(dval))  # deep copy
        elif isinstance(dval, dict):
            out[key] = _merge(dval, override[key], name)
        else:
            _check_kind(name, dval, override[key])
            out[key] = override[key]
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """The merged config document; each of its sections is an attribute
    (cfg.spectrum, cfg.model, ...), the dict raw[section]."""

    raw: dict

    def __getattr__(self, name):
        if name in _DEFAULTS:
            return self.raw[name]
        raise AttributeError(name)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, float(self.grid["t_max"]), int(self.grid["steps"]) + 1)

    def sensor_angles(self) -> tuple:
        return float(self.sensors["theta1"]), float(self.sensors["theta2"])


# the keys of a piece, a coefficient row and a density, with values of their
# JSON type; a density's numbers are its defaults
_PIECE = {"coefficients": [], "density": {"kind": "", "r0": 0.0, "theta0": 0.0,
                                          "width": 0.2, "amplitude": 1.0}}
_ROW = {"m": 0, "k": 0, "re": 0.0, "im": 0.0}


def _check_model(model: dict) -> None:
    """The elements of model.cuts and model.pieces: a cut is a number, "inf"
    or null; the pieces, their coefficient rows (m and k required) and
    densities hold only the keys and types of _PIECE and _ROW, checked by
    _merge (clause config-schema). A piece needs coefficients or a density
    (clause piece-schema), a row m >= 0 (clause piece-coefficients), a
    density the kind gaussian or constant (clause piece-density), and a
    gaussian a width > 0 (clause config-schema)."""
    for i, cut in enumerate(model["cuts"]):
        _check_double(f"model.cuts[{i}]", cut)
        if cut not in ("inf", None) and (type(cut) not in (int, float) or math.isnan(cut)):
            raise ValidationError(f'config key model.cuts[{i}] must be a number (not NaN), "inf" '
                                  f"or null, got {cut!r}", clause="config-schema")
    for p, piece in enumerate(model["pieces"]):
        _merge(_PIECE, piece, f"model.pieces[{p}]")
        for r, row in enumerate(piece.get("coefficients", [])):
            name = f"model.pieces[{p}].coefficients[{r}]"
            _merge(_ROW, row, name)
            if not {"m", "k"} <= row.keys():
                raise ValidationError(f"config key {name} needs m and k", clause="config-schema")
            if row["m"] < 0:
                raise ValidationError(
                    "specify coefficients for m >= 0 only; the conjugate pair "
                    "is implied", clause="piece-coefficients")
        if "coefficients" in piece:
            continue
        if "density" not in piece:
            raise ValidationError("piece needs 'coefficients' or 'density'",
                                  clause="piece-schema")
        kind = piece["density"].get("kind")
        if kind not in ("gaussian", "constant"):
            raise ValidationError(f"unknown density kind {kind!r}", clause="piece-density")
        width = piece["density"].get("width", _PIECE["density"]["width"])
        if kind == "gaussian" and width <= 0:
            raise ValidationError(f"config key model.pieces[{p}].density.width must be > 0, "
                                  f"got {width!r}", clause="config-schema")


def load_config(text_or_path) -> ExperimentConfig:
    """The config of a JSON file, or of JSON text (a str that starts with
    "{"), merged over the defaults, and the one place where a config is
    checked, for every command. A file that cannot be read or does not hold
    JSON raises ValidationError (clause config-file) naming it; _merge and
    _check_model check the keys, the types and the model's pieces, and every
    number that must be a float is finite (clause config-schema). Then
    grid.steps >= 2 and grid.t_max > 0 (clause grid), each sensor angle in
    [0, 2 pi) (clause sensor-range), noise.level >= 0 and noise.seed >= 0
    (clause config-schema), 0 < inversion.changepoint_min_gap <= grid.t_max
    (clause inversion-config), and each output.laplace_s entry a finite
    number > 0 (clause config-schema). The checks that need the spectrum are
    made where it is built."""
    source, text = "text", text_or_path
    if not (isinstance(text, str) and text.lstrip().startswith("{")):
        source = os.fspath(text_or_path)
        try:
            with open(source, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read config {source}: {exc.strerror}",
                                  clause="config-file") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"config {source} is not valid JSON: {exc}",
                              clause="config-file") from None
    merged = _merge(_DEFAULTS, doc)
    _check_model(merged["model"])
    grid, angle = "grid needs steps >= 2 and t_max > 0", "sensor angle {value} outside [0, 2pi)"
    for name, ok, clause, message in (
            ("grid.steps", lambda v: v >= 2, "grid", grid),
            ("grid.t_max", lambda v: v > 0, "grid", grid),
            ("sensors.theta1", lambda v: 0 <= v < 2 * math.pi, "sensor-range", angle),
            ("sensors.theta2", lambda v: 0 <= v < 2 * math.pi, "sensor-range", angle),
            ("noise.level", lambda v: v >= 0, "config-schema",
             "{name} must be a finite number >= 0, got {value!r}"),
            ("noise.seed", lambda v: v >= 0, "config-schema",
             "{name} must be an integer >= 0, got {value!r}")):
        section, key = name.split(".")
        value = merged[section][key]
        if not ok(value):
            raise ValidationError(message.format(name=name, value=value), clause=clause)
    check_changepoint_min_gap(merged["inversion"]["changepoint_min_gap"],
                              merged["grid"]["t_max"])
    for i, s in enumerate(merged["output"]["laplace_s"]):
        _check_double(f"output.laplace_s[{i}]", s)
        if type(s) not in (int, float) or not 0 < s < math.inf:
            raise ValidationError(f"config key output.laplace_s[{i}] must be a finite number "
                                  f"> 0, got {s!r}", clause="config-schema")
    return ExperimentConfig(raw=merged)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, indent=1, sort_keys=True)


def _coeffs_from_spec(piece_spec, spectrum: SpectrumTable) -> np.ndarray:
    """One piece's complex coefficients, aligned with spectrum.modes, from a
    piece that load_config has checked: explicit (m, k, re, im) rows (m > 0
    also sets the conjugate at -m), where an (m, k) that is no mode of the
    spectrum raises ValidationError (clause piece-coefficients), or a named
    analytic density, with the defaults of _PIECE, to project."""
    if "coefficients" in piece_spec:
        vals = np.zeros(len(spectrum), dtype=complex)
        for row in piece_spec["coefficients"]:
            m, k = row["m"], row["k"]
            c = complex(float(row.get("re", 0.0)), float(row.get("im", 0.0)))
            try:
                vals[spectrum.index_of(m, k)] = c
            except KeyError:
                raise ValidationError(f"no mode (m={m}, k={k}) in the spectrum",
                                      clause="piece-coefficients") from None
            if m > 0:
                vals[spectrum.index_of(-m, k)] = np.conj(c)
        return vals
    d = {**_PIECE["density"], **piece_spec["density"]}
    r0, th0, width, amp = (float(d[key]) for key in ("r0", "theta0", "width", "amplitude"))
    if d["kind"] == "gaussian":
        def f(r, theta):
            dx = r * np.cos(theta) - r0 * math.cos(th0)
            dy = r * np.sin(theta) - r0 * math.sin(th0)
            return amp * np.exp(-(dx * dx + dy * dy) / (2 * width * width))
    else:   # "constant"
        def f(r, theta):
            return amp * np.ones_like(np.asarray(r, dtype=float))
    return project_function(f, spectrum)


def build_source_model(cfg: ExperimentConfig, spectrum: SpectrumTable) -> SourceModel:
    m = cfg.model
    cuts = []
    for c in m["cuts"]:
        if c == "inf" or c is None:
            cuts.append(math.inf)
        else:
            cuts.append(float(c))
    pieces = tuple(_coeffs_from_spec(p, spectrum) for p in m["pieces"])
    if len(pieces) == 0:
        raise ValidationError("model.pieces must not be empty",
                              clause="assumption-1c")
    return SourceModel(alpha=float(m["alpha"]), cuts=tuple(cuts),
                       piece_coeffs=pieces, spectrum=spectrum)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def write_atomic(path: str, data: str) -> None:
    """Write via temp file + rename in the destination directory, which is
    made if missing. An OSError (the directory's name is taken by a file,
    say) raises ValidationError (clause output-file) naming path; the temp
    file never outlives the call."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}",
                              clause="output-file") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def float_strings(values) -> list:
    """repr(float(v)) for each value, from one repr of the whole list."""
    values = np.asarray(values, dtype=float).tolist()
    return repr(values)[1:-1].split(", ") if values else []


def columns_to_csv(header: str, *columns) -> str:
    """The header line, then one line per sample of the columns: arrays,
    written as float_strings, or lists of the cells' strings."""
    cells = [c if isinstance(c, list) else float_strings(c) for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def trace_to_csv(times, values) -> str:
    return columns_to_csv("t,flux", times, values)


def trace_from_csv(text: str):
    """(times, values) of a 't,flux' CSV, as contiguous arrays. A row that is
    not two finite numbers raises ValidationError (clause trace-csv) naming
    its line; the header is line 1.

    numpy's C reader parses the rows. Where it raises, or skips a blank line
    (its shape is then not (rows, 2)), a loop parses each line with float(),
    which gives the reader's values wherever both accept a cell and names
    the first line that is not two numbers; it also accepts what only
    float() reads, such as 1_0."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "t,flux":
        raise ValidationError("trace CSV must start with header 't,flux'",
                              clause="trace-csv")
    rows = lines[1:]
    cells = None
    if rows:   # loadtxt warns on empty input
        try:
            cells = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T
        except ValueError:
            pass
    if cells is None or cells.shape != (2, len(rows)):
        cells = np.empty((2, len(rows)))   # no Python float outlives its cell
        t, v = map(memoryview, cells)   # item writes cost less than on the ndarray
        for i, line in enumerate(rows):
            try:
                a, b = line.split(",")
                t[i], v[i] = float(a), float(b)
            except ValueError:
                raise ValidationError(f"trace CSV line {i + 2} is not two numbers: {line!r}",
                                      clause="trace-csv") from None
    t, v = np.ascontiguousarray(cells)
    bad = ~(np.isfinite(t) & np.isfinite(v))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"trace CSV line {i + 2} has a non-finite value: {lines[i + 1]!r}",
                              clause="trace-csv")
    return t, v


def read_trace(path: str):
    """trace_from_csv of the file at path; a file that cannot be read (a
    directory, say) raises ValidationError (clause trace-file) naming it."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read trace {path}: {exc.strerror}",
                              clause="trace-file") from None
    return trace_from_csv(text)


def check_changepoint_min_gap(gap, record: float) -> None:
    """Raise ValidationError (clause inversion-config) unless the paper's
    eta, the minimum gap between cuts, is a finite number > 0 and at most
    the record length; load_config (against grid.t_max) and reconstruct
    (against the traces' last time) both check it here."""
    if not 0 < gap < math.inf:
        raise ValidationError("inversion.changepoint_min_gap must be a finite number > 0, "
                              f"got {gap!r}", clause="inversion-config")
    if gap > record:
        raise ValidationError(f"inversion.changepoint_min_gap {gap!r} exceeds the record "
                              f"length {record!r}", clause="inversion-config")


def check_uniform_grid(times: np.ndarray, source: str) -> float:
    """The step h of times; ValidationError (clause trace-grid), naming
    source, unless each step is within 1e-9 of h, since the change-point and
    order stages take t[1] - t[0] as the step of the whole grid."""
    h = float(times[-1] - times[0]) / max(len(times) - 1, 1)
    if not (h > 0 and np.all(np.abs(np.diff(times) - h) <= 1e-9 * h)):
        raise ValidationError(f"{source}: time grid is not uniform", clause="trace-grid")
    return h


def check_trace_grid(times: np.ndarray, expected: np.ndarray, source: str):
    """Raise ValidationError (clause trace-grid) unless ``times`` is a
    uniform grid equal to ``expected`` (the config grid), both to 1e-9 of the
    step (check_uniform_grid); ``source`` names the trace in the message."""
    if len(times) < 2:
        raise ValidationError(f"{source}: {len(times)} samples, the config grid has "
                              f"{len(expected)}", clause="trace-grid")
    h = check_uniform_grid(times, source)
    if len(times) != len(expected) or not np.all(np.abs(times - expected) <= 1e-9 * h):
        raise ValidationError(
            f"{source}: time grid ({len(times)} samples, t from {float(times[0])!r} to "
            f"{float(times[-1])!r}) does not match the config grid ({len(expected)} "
            f"samples, t from {float(expected[0])!r} to {float(expected[-1])!r})",
            clause="trace-grid")


def trace_to_json(sensor_angle: float, times, values) -> str:
    """json.dumps of the trace envelope byte for byte, joined from float_strings (or
    such lists); a nan or inf falls back to json.dumps, which writes NaN, Infinity."""
    cols = [c if isinstance(c, list) else float_strings(c) for c in (times, values)]
    parts = (repr(float(sensor_angle)), *map(", ".join, cols))
    if any("n" in part for part in parts):   # no finite repr holds an n
        floats = [float(sensor_angle)] + [[float(v) for v in c] for c in cols]
        return json.dumps(dict(zip(("sensor_angle", "times", "values"), floats)))
    return '{"sensor_angle": %s, "times": [%s], "values": [%s]}' % parts


@dataclass
class RunManifest:
    """Inventory of a run's outputs. The timestamp field exists for schema
    stability but stays null so that reruns are byte-identical."""

    config_sha256: str
    tool_version: str = __version__
    timestamp: object = None
    outputs: list = field(default_factory=list)

    @classmethod
    def for_config(cls, cfg: ExperimentConfig) -> "RunManifest":
        digest = hashlib.sha256(dump_config(cfg).encode()).hexdigest()
        return cls(config_sha256=digest)

    def add(self, path: str, data: str) -> None:
        encoded = data.encode()
        self.outputs.append({
            "path": os.path.basename(path),
            "sha256": hashlib.sha256(encoded).hexdigest(),
            "bytes": len(encoded),
        })

    def to_json(self) -> str:
        return json.dumps({
            "config_sha256": self.config_sha256,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "outputs": sorted(self.outputs, key=lambda x: x["path"]),
        }, indent=1)
