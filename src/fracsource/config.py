"""Experiment configuration, validation, file persistence, and run manifests.

The config is one JSON document with full defaulting. Every numeric written
to disk uses repr (shortest round-trip decimal), so reruns with the same
config and seed are byte-identical.
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
from .disc_spectrum import ModeCoefficients, SpectrumTable, project_function
from .errors import ValidationError
from .forward_model import SensorConfig, SourceModel

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
    number that must be a float passes _check_double."""
    types, kind = _KINDS[type(default)]
    if not isinstance(value, types) or isinstance(value, bool) != isinstance(default, bool):
        raise ValidationError(f"config key {name} must be {kind}, got {value!r}",
                              clause="config-schema")
    if float in types:
        _check_double(name, value)


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
        steps = int(self.grid["steps"])
        t_max = float(self.grid["t_max"])
        if steps < 2 or t_max <= 0:
            raise ValidationError("grid needs steps >= 2 and t_max > 0",
                                  clause="grid")
        return np.linspace(0.0, t_max, steps + 1)

    def sensor_config(self) -> SensorConfig:
        return SensorConfig(theta1=float(self.sensors["theta1"]),
                            theta2=float(self.sensors["theta2"]))


# the keys of a piece, a coefficient row and a density, with values of their JSON type
_PIECE = {"coefficients": [], "density": {"kind": "", "r0": 0.0, "theta0": 0.0,
                                          "width": 0.0, "amplitude": 0.0}}
_ROW = {"m": 0, "k": 0, "re": 0.0, "im": 0.0}


def _check_model(model: dict) -> None:
    """The elements of model.cuts and model.pieces, clause config-schema: a
    cut is a number, "inf" or null; the pieces, their coefficient rows (m
    and k required) and densities hold only the keys and types of _PIECE
    and _ROW, checked by _merge."""
    for i, cut in enumerate(model["cuts"]):
        if cut not in ("inf", None) and type(cut) not in (int, float):
            raise ValidationError(f'config key model.cuts[{i}] must be a number, "inf" or null, '
                                  f"got {cut!r}", clause="config-schema")
        _check_double(f"model.cuts[{i}]", cut)
    for p, piece in enumerate(model["pieces"]):
        _merge(_PIECE, piece, f"model.pieces[{p}]")
        for r, row in enumerate(piece.get("coefficients", [])):
            name = f"model.pieces[{p}].coefficients[{r}]"
            _merge(_ROW, row, name)
            if not {"m", "k"} <= row.keys():
                raise ValidationError(f"config key {name} needs m and k", clause="config-schema")


def load_config(text_or_path) -> ExperimentConfig:
    """The config of a JSON file, or of JSON text (a str that starts with
    "{"), merged over the defaults. A file that cannot be read or does not
    hold JSON raises ValidationError (clause config-file) naming it; _merge
    and _check_model check the keys and types, noise.level must be finite
    and >= 0, each output.laplace_s entry a finite number > 0, and
    inversion.changepoint_min_gap finite and > 0 (clause inversion-config)."""
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
    level = merged["noise"]["level"]
    if not 0 <= level < math.inf:
        raise ValidationError(f"noise.level must be a finite number >= 0, got {level!r}",
                              clause="config-schema")
    gap = merged["inversion"]["changepoint_min_gap"]
    if not 0 < gap < math.inf:
        raise ValidationError("inversion.changepoint_min_gap must be a finite number > 0, "
                              f"got {gap!r}", clause="inversion-config")
    for i, s in enumerate(merged["output"]["laplace_s"]):
        _check_double(f"output.laplace_s[{i}]", s)
        if type(s) not in (int, float) or not 0 < s < math.inf:
            raise ValidationError(f"config key output.laplace_s[{i}] must be a finite number "
                                  f"> 0, got {s!r}", clause="config-schema")
    return ExperimentConfig(raw=merged)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, indent=1, sort_keys=True)


def _coeffs_from_spec(piece_spec, spectrum: SpectrumTable) -> ModeCoefficients:
    """One piece: either explicit (m, k, re, im) triples (m >= 0; m > 0 also
    sets the conjugate at -m) or a named analytic density to project."""
    if "coefficients" in piece_spec:
        vals = np.zeros(len(spectrum), dtype=complex)
        for row in piece_spec["coefficients"]:
            m, k = int(row["m"]), int(row["k"])
            if m < 0:
                raise ValidationError(
                    "specify coefficients for m >= 0 only; the conjugate pair "
                    "is implied", clause="piece-coefficients")
            c = complex(float(row.get("re", 0.0)), float(row.get("im", 0.0)))
            try:
                vals[spectrum.index_of(m, k)] = c
            except KeyError:
                raise ValidationError(f"no mode (m={m}, k={k}) in the spectrum",
                                      clause="piece-coefficients") from None
            if m > 0:
                vals[spectrum.index_of(-m, k)] = np.conj(c)
        return ModeCoefficients(values=vals)
    if "density" in piece_spec:
        d = piece_spec["density"]
        kind = d.get("kind")
        if kind == "gaussian":
            r0 = float(d.get("r0", 0.0))
            th0 = float(d.get("theta0", 0.0))
            width = float(d.get("width", 0.2))
            amp = float(d.get("amplitude", 1.0))

            def f(r, theta):
                dx = r * np.cos(theta) - r0 * math.cos(th0)
                dy = r * np.sin(theta) - r0 * math.sin(th0)
                return amp * np.exp(-(dx * dx + dy * dy) / (2 * width * width))
        elif kind == "constant":
            amp = float(d.get("amplitude", 1.0))

            def f(r, theta):
                return amp * np.ones_like(np.asarray(r, dtype=float))
        else:
            raise ValidationError(f"unknown density kind {kind!r}",
                                  clause="piece-density")
        return project_function(f, spectrum)
    raise ValidationError("piece needs 'coefficients' or 'density'",
                          clause="piece-schema")


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
    """Write via temp file + rename in the destination directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    """(times, values) of a 't,flux' CSV. A row that is not two finite
    numbers raises ValidationError (clause trace-csv) naming its line; the
    header is line 1."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "t,flux":
        raise ValidationError("trace CSV must start with header 't,flux'",
                              clause="trace-csv")
    t, v = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            a, b = line.split(",")
            t.append(float(a))
            v.append(float(b))
        except ValueError:
            raise ValidationError(f"trace CSV line {lineno} is not two numbers: {line!r}",
                                  clause="trace-csv") from None
    t, v = np.asarray(t), np.asarray(v)
    bad = ~(np.isfinite(t) & np.isfinite(v))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"trace CSV line {i + 2} has a non-finite value: {lines[i + 1]!r}",
                              clause="trace-csv")
    return t, v


def check_trace_grid(times: np.ndarray, expected: np.ndarray, source: str):
    """Raise ValidationError (clause trace-grid) unless ``times`` is a
    uniform grid equal to ``expected`` (the config grid), both to 1e-9 of the
    step; ``source`` names the trace in the message. The change-point and
    order stages take t[1] - t[0] as the step of the whole trace."""
    if len(times) < 2:
        raise ValidationError(f"{source}: {len(times)} samples, the config grid has "
                              f"{len(expected)}", clause="trace-grid")
    h = float(times[-1] - times[0]) / (len(times) - 1)
    if not (h > 0 and np.all(np.abs(np.diff(times) - h) <= 1e-9 * h)):
        raise ValidationError(f"{source}: time grid is not uniform", clause="trace-grid")
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
