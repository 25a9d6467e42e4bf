"""Command-line front end: spectrum | synth | invert | verify | plotdata.

Exit codes: 0 success, 2 validation failure, 3 numerical failure. All output
files go through atomic writes and are byte-identical across reruns with the
same config and seed.

OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS is set: no command
builds a matrix larger than 32002 x 12, and a second thread only spins beside
the first while numpy starts. The package's __init__ loads no numpy, so the
variable is set here before numpy is.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy loads OpenBLAS

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    RunManifest,
    build_source_model,
    check_trace_grid,
    columns_to_csv,
    dump_config,
    float_strings,
    load_config,
    read_trace,
    trace_to_csv,
    trace_to_json,
    write_atomic,
)
from .disc_spectrum import build_spectrum, eigenfunction_eval, project_function, spectrum_to_json
from .errors import ConditioningError, FracsourceError, ValidationError
from .forward_model import (
    FluxTrace,
    check_sensor_geometry,
    flux_trace,
    flux_traces,
    relaxation_design,
    relaxation_rates,
    verify_measurement_identity,
)
from .inversion import reconstruct, result_to_json
from .laplace_model import LaplacePoint, laplace_flux_model, numeric_laplace
from .specfun import _panel_nodes, bessel_j


def _info(args, msg):
    if not args.quiet:
        print(msg)


def _out_dir(cfg: ExperimentConfig, args) -> str:
    return args.out or cfg.output["directory"]


def _emit(manifest: RunManifest, directory: str, name: str, data: str):
    path = os.path.join(directory, name)
    write_atomic(path, data)
    manifest.add(path, data)


def _finish(manifest: RunManifest, directory: str):
    write_atomic(os.path.join(directory, "manifest.json"), manifest.to_json())


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    directory = _out_dir(cfg, args)
    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    build_source_model(cfg, spectrum)   # the model section is checked as synth checks it
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "spectrum.json", spectrum_to_json(spectrum))
    _finish(manifest, directory)
    _info(args, f"spectrum: {len(spectrum)} modes -> {directory}/spectrum.json")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    directory = _out_dir(cfg, args)
    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    model = build_source_model(cfg, spectrum)
    angles = cfg.sensor_angles()
    check_sensor_geometry(spectrum, angles[0] - angles[1])
    times = cfg.times()
    traces = flux_traces(model, angles, times)
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "config.json", dump_config(cfg))
    _emit(manifest, directory, "spectrum.json", spectrum_to_json(spectrum))
    t_str = float_strings(times)   # each array is formatted once, for every file
    for i, tr in enumerate(traces, start=1):
        v_str = float_strings(tr.values)
        _emit(manifest, directory, f"flux_sensor{i}.csv", trace_to_csv(t_str, v_str))
        _emit(manifest, directory, f"flux_sensor{i}.json",
              trace_to_json(tr.sensor_angle, t_str, v_str))
    level = float(cfg.noise["level"])
    if level > 0:
        rng = np.random.default_rng(int(cfg.noise["seed"]))
        for i, tr in enumerate(traces, start=1):
            sigma = level * float(np.max(np.abs(tr.values)))
            noisy = tr.values + rng.normal(0.0, sigma, size=len(tr.values))
            _emit(manifest, directory, f"flux_sensor{i}_noisy.csv",
                  trace_to_csv(t_str, float_strings(noisy)))
    s_real = np.array(cfg.output["laplace_s"], dtype=float)
    if len(s_real):
        for i, th in enumerate(angles, start=1):
            g = np.array([laplace_flux_model(model, th, LaplacePoint(s)) for s in s_real])
            _emit(manifest, directory, f"laplace_sensor{i}.csv", columns_to_csv(
                "re_s,im_s,re_G,im_G", s_real, np.zeros(len(s_real)), g.real, g.imag))
    _finish(manifest, directory)
    _info(args, f"synth: {len(times)} samples x {len(traces)} sensors -> {directory}")
    return 0


def cmd_invert(args) -> int:
    cfg = load_config(args.config)
    directory = _out_dir(cfg, args)
    if len(args.traces) != 2:
        raise ValidationError("invert requires exactly two trace files",
                              clause="sensor-count")
    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    build_source_model(cfg, spectrum)   # the model section is checked as synth checks it
    grid = cfg.times()
    traces = []
    for path, theta in zip(args.traces, cfg.sensor_angles()):
        t, v = read_trace(path)
        check_trace_grid(t, grid, path)
        traces.append(FluxTrace(sensor_angle=theta, times=grid, values=v))
    result = reconstruct(tuple(traces), spectrum, cfg.inversion["changepoint_min_gap"])
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "reconstruction.json",
          result_to_json(result, spectrum, [os.path.basename(p) for p in args.traces]))
    # noise-level values that no command reads back: 9 significant digits,
    # formatted in one pass
    curve = np.column_stack((grid, *result.residuals)).ravel().tolist()
    _emit(manifest, directory, "residual_curve.csv", "t,residual_sensor1,residual_sensor2\n"
          + ("%.9g,%.9g,%.9g\n" * len(grid)) % tuple(curve))
    _finish(manifest, directory)
    _info(args, f"invert: alpha_hat={result.alpha_hat:.6f} "
                f"cuts={['%.4f' % c for c in result.cuts_hat]} K={result.K_hat}")
    return 0


def _verify_checks(cfg: ExperimentConfig):
    """Cross-module identity suite; returns a list of check dicts."""
    checks = []

    def add(name, measured, tolerance):
        checks.append({"name": name, "measured": float(measured),
                       "tolerance": float(tolerance),
                       "pass": bool(measured <= tolerance)})

    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    model = build_source_model(cfg, spectrum)

    # Laplace pair: int_0^inf e^(-st) t^(a-1) E_{a,a}(-lam t^a) dt = 1/(s^a + lam),
    # integrated in v = t^a by composite Gauss-Legendre on panels graded
    # geometrically toward v = 0, where exp(-s v^(1/a)) has its cusp. One
    # relaxation_rates call per order serves every (s, lam): at t = v^(1/a)
    # it is lam t^(a-1) E_{a,a}(-lam v) = (lam v / t) E_{a,a}(-lam v)
    v, w = _panel_nodes(np.concatenate([[0.0], np.geomspace(1e-12, 200.0, 40)]), 20)
    lam1 = 5.783185962946785  # j_{0,1}^2, the first Dirichlet eigenvalue of the disc
    lams = np.array([1.0, lam1])
    worst = 0.0
    for alpha in (0.6, 0.8):
        t = v ** (1.0 / alpha)
        e = relaxation_rates(alpha, lams, [0.0], t)[:, :, 0] * (t / v)[:, None] / lams
        e = dict(zip(lams, e.T))
        for s, lam in ((1.0, 1.0), (2.0, lam1), (5.0, 1.0), (10.0, lam1)):
            val = float(w @ (np.exp(-s * t) * e[lam])) / alpha
            worst = max(worst, abs(val - 1.0 / (s ** alpha + lam)))
    add("laplace_pair", worst, 1e-6)

    # L1 unit mass via the exact antiderivative identity, on the same kind of
    # rule: lam/a int_0^(T^a) E_{a,a}(-lam v) dv = 1 - E_{a,1}(-lam T^a), the
    # right side read from relaxation_design
    alpha, lam = 0.75, lam1
    v_max = 2.75e5 / lam  # T^alpha, with lam T^alpha = 2.75e5
    big_t = np.array([v_max ** (1.0 / alpha)])
    one_minus_tail = float(relaxation_design(alpha, [lam], [0.0, math.inf], big_t)[0, 0, 0])
    v, w = _panel_nodes(np.concatenate([[0.0], np.geomspace(1e-6, v_max, 40)]), 20)
    t = v ** (1.0 / alpha)
    mass = float(w @ (relaxation_rates(alpha, [lam], [0.0], t)[:, 0, 0] * t / v)) / alpha
    add("ml_unit_mass", abs(mass - one_minus_tail), 1e-6)

    # measurement identity on the configured model
    times = cfg.times()
    theta1 = cfg.sensor_angles()[0]
    add("measurement_identity", verify_measurement_identity(model, theta1, times), 5e-4)

    # closed-form transform vs numeric transform on a long grid
    t_long = np.linspace(0.0, max(30.0, float(times[-1])), 30001)
    tr = flux_trace(model, theta1, t_long)
    worst = 0.0
    for s in (1.0, 2.0, 5.0, 10.0, 20.0):
        gm = laplace_flux_model(model, theta1, LaplacePoint(s))
        gn = numeric_laplace(tr, LaplacePoint(s))
        worst = max(worst, abs(gm - gn))
    add("laplace_model_agreement", worst, 1e-4)

    # orthonormality of the leading modes
    sp_g = spectrum if len(spectrum) >= 12 else build_spectrum(60.0)
    n = min(12, len(sp_g))
    gram = project_function(lambda r, th: np.stack(
        [eigenfunction_eval(mo, r, th) for mo in sp_g.modes[:n]]), sp_g)[:, :n]
    add("orthonormality", float(np.max(np.abs(gram - np.eye(n)))), 1e-8)

    # normalizer closed form
    worst = 0.0
    for mo in spectrum.modes:
        resid = abs(abs(mo.omega * math.sqrt(math.pi)
                        * bessel_j(abs(mo.m) + 1, math.sqrt(mo.lam))) - 1.0)
        worst = max(worst, resid)
    add("normalizer_identity", worst, 1e-10)
    return checks


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    directory = _out_dir(cfg, args)
    checks = _verify_checks(cfg)
    all_pass = all(c["pass"] for c in checks)
    report = json.dumps({"all_pass": all_pass, "checks": checks}, indent=1)
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "verification.json", report)
    _finish(manifest, directory)
    for c in checks:
        _info(args, f"  [{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
                    f"{c['measured']:.3e} (tol {c['tolerance']:.0e})")
    return 0 if all_pass else 3


def cmd_plotdata(args) -> int:
    run_dir = args.run
    recon_path = os.path.join(run_dir, "reconstruction.json")
    config_path = os.path.join(run_dir, "config.json")
    if not os.path.isdir(run_dir) or not os.path.exists(recon_path):
        raise ValidationError(f"{run_dir} is not a completed run directory",
                              clause="plotdata-input")
    try:
        with open(recon_path) as fh:
            recon = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {recon_path}: {exc}",
                              clause="plotdata-input") from None

    def finite(v):   # a JSON number that is a finite double
        return type(v) in (int, float) and abs(v) <= sys.float_info.max

    def list_of(ok, min_len=0):
        return lambda v: isinstance(v, list) and len(v) >= min_len and all(map(ok, v))

    # the traces that invert fitted, by file name in the run directory (the
    # clean synth traces for runs without the key), and the profile of the
    # order stage (none for runs without it)
    missing = object()
    doc = recon if isinstance(recon, dict) else {}
    names = doc.get("traces", [f"flux_sensor{i}.csv" for i in (1, 2)])
    log = doc.get("stage_log")
    order = next((entry[1] for entry in (log if isinstance(log, list) else [])
                  if isinstance(entry, list) and len(entry) == 2
                  and entry[0] == "estimate_alpha" and isinstance(entry[1], dict)), {})
    profile = order.get("profile", [])
    for key, value, kind, ok in (
            ("alpha_hat", doc.get("alpha_hat", missing), "a finite number", finite),
            ("cuts_hat", doc.get("cuts_hat", missing), "a non-empty list of finite numbers",
             list_of(finite, min_len=1)),
            ("traces", names, "a list of file names", list_of(lambda v: isinstance(v, str))),
            ("estimate_alpha.profile", profile,
             "a list of [alpha, vp_residual] pairs of finite numbers",
             list_of(lambda pair: list_of(finite)(pair) and len(pair) == 2))):
        if value is missing:
            raise ValidationError(f"{recon_path} holds no {key}", clause="plotdata-input")
        if not ok(value):
            raise ValidationError(f"{recon_path}: {key} must be {kind}, got {value!r}",
                                  clause="plotdata-input")
    cfg = load_config(config_path) if os.path.exists(config_path) else None

    # tidy flux curves
    rows = []
    for i, name in enumerate(names, start=1):
        trace_path = os.path.join(run_dir, os.path.basename(name))
        if os.path.exists(trace_path):
            t, v = read_trace(trace_path)
            rows.append((float_strings(t), [str(i)] * len(t), float_strings(v)))
    write_atomic(os.path.join(run_dir, "plot_flux_vs_t.csv"), columns_to_csv(
        "t,sensor,flux", *(sum(col, []) for col in zip(*rows))))

    # the order stage's variable-projection residual over the alphas it searched
    write_atomic(os.path.join(run_dir, "plot_order_profile.csv"),
                 columns_to_csv("alpha,vp_residual", *zip(*profile)))

    # reconstructed vs configured cuts
    lines = ["kind,index,time"]
    if cfg is not None:
        for i, c in enumerate(cfg.model["cuts"]):
            if c != "inf" and c is not None and np.isfinite(float(c)):
                lines.append(f"true,{i},{float(c)!r}")
    for i, c in enumerate(recon["cuts_hat"]):
        lines.append(f"reconstructed,{i},{float(c)!r}")
    write_atomic(os.path.join(run_dir, "plot_cuts_compare.csv"),
                 "\n".join(lines) + "\n")
    _info(args, "plotdata: wrote plot_flux_vs_t.csv, plot_order_profile.csv, "
                f"plot_cuts_compare.csv in {run_dir}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsource",
        description="Forward synthesis and inverse reconstruction for "
                    "time-fractional diffusion on the unit disc.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("spectrum", help="export the eigensystem table")
    common(p)
    p.set_defaults(fn=cmd_spectrum)
    p = sub.add_parser("synth", help="synthesize two-sensor flux traces")
    common(p)
    p.set_defaults(fn=cmd_synth)
    p = sub.add_parser("invert", help="reconstruct the source from traces")
    common(p)
    p.add_argument("traces", nargs="*", help="two trace CSV files")
    p.set_defaults(fn=cmd_invert)
    p = sub.add_parser("verify", help="run the cross-module identity suite")
    common(p)
    p.set_defaults(fn=cmd_verify)
    p = sub.add_parser("plotdata", help="emit plot-ready CSVs from a run")
    p.add_argument("run", help="completed run directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    """Run one command. As the program (python -m fracsource.cli or the
    fracsource script, argv None) it first calls gc.freeze(), so that the
    interpreter's exit skips collecting the objects created at import (the
    package, numpy); called with an argument list, as tests do in-process,
    it leaves the collector alone."""
    if argv is None:
        gc.freeze()
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FracsourceError as exc:
        suffix = f" [clause: {exc.clause}]" if exc.clause else ""
        if isinstance(exc, ConditioningError):
            print(f"numerical failure: {exc}{suffix}", file=sys.stderr)
            return 3
        kind = "validation error" if isinstance(exc, ValidationError) else "error"
        print(f"{kind}: {exc}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
