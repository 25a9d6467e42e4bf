"""Command-line front end: spectrum | synth | invert | verify | plotdata.

Exit codes: 0 success, 2 validation failure, 3 numerical failure. All output
files go through atomic writes and are byte-identical across reruns with the
same config and seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    RunManifest,
    build_inversion_config,
    build_source_model,
    check_trace_grid,
    columns_to_csv,
    dump_config,
    float_strings,
    load_config,
    trace_from_csv,
    trace_to_csv,
    trace_to_json,
    write_atomic,
)
from .disc_spectrum import build_spectrum, eigenfunction_eval, project_function, spectrum_to_json
from .errors import AccuracyError, ConditioningError, FracsourceError, ValidationError
from .forward_model import (
    FluxTrace,
    check_sensor_geometry,
    flux_trace,
    flux_traces,
    relaxation_design,
    relaxation_rates,
    verify_measurement_identity,
)
from .inversion import (ALPHA_FIT_POINTS, ALPHA_FIT_WINDOW, ALPHA_LEADING_DELTA, InversionConfig,
                        _window_transform, predicted_flux, reconstruct, result_to_json)
from .laplace_model import LaplacePoint, LaplaceSamples, laplace_flux_model, numeric_laplace
from .specfun import _panel_nodes, bessel_j


def _info(args, msg):
    if not args.quiet:
        print(msg)


def _out_dir(cfg: ExperimentConfig, args) -> str:
    return args.out or cfg.output["directory"]


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.raw["noise"]["seed"] = int(args.seed)
    return cfg


def _emit(manifest: RunManifest, directory: str, name: str, data: str):
    path = os.path.join(directory, name)
    write_atomic(path, data)
    manifest.add(path, data)


def _finish(manifest: RunManifest, directory: str):
    write_atomic(os.path.join(directory, "manifest.json"), manifest.to_json())


def cmd_spectrum(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    directory = _out_dir(cfg, args)
    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "spectrum.json", spectrum_to_json(spectrum))
    _finish(manifest, directory)
    _info(args, f"spectrum: {len(spectrum)} modes -> {directory}/spectrum.json")
    return 0


def cmd_synth(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    directory = _out_dir(cfg, args)
    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    model = build_source_model(cfg, spectrum)
    sensors = cfg.sensor_config()
    check_sensor_geometry(spectrum, sensors.theta1 - sensors.theta2,
                          build_inversion_config(cfg).margin_min)
    times = cfg.times()
    traces = flux_traces(model, sensors.angles, times)
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "config.json", dump_config(cfg))
    _emit(manifest, directory, "spectrum.json", spectrum_to_json(spectrum))
    t_str = float_strings(times)   # each array is formatted once, for every file
    formats = cfg.output["formats"]
    for i, tr in enumerate(traces, start=1):
        v_str = float_strings(tr.values)
        if "csv" in formats:
            _emit(manifest, directory, f"flux_sensor{i}.csv", trace_to_csv(t_str, v_str))
        if "json" in formats:
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
    s_list = [float(s) for s in cfg.output.get("laplace_s", [])]
    if s_list:
        horizon_ok = math.exp(-min(s_list) * times[-1]) <= 1e-10
        for i, (tr, th) in enumerate(zip(traces, sensors.angles), start=1):
            pts = [LaplacePoint(s) for s in s_list]
            vals = [laplace_flux_model(model, th, p) for p in pts]
            _emit(manifest, directory, f"laplace_sensor{i}.csv",
                  LaplaceSamples(points=tuple(pts), values=np.array(vals)).to_csv())
        if not horizon_ok:
            _info(args, "note: laplace samples computed from the closed form "
                        "(trace horizon too short for quadrature)")
    _finish(manifest, directory)
    _info(args, f"synth: {len(times)} samples x {len(traces)} sensors -> {directory}")
    return 0


def cmd_invert(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    directory = _out_dir(cfg, args)
    if len(args.traces) != 2:
        raise ValidationError("invert requires exactly two trace files",
                              clause="sensor-count")
    spectrum = build_spectrum(float(cfg.spectrum["lambda_max"]))
    sensors = cfg.sensor_config()
    grid = cfg.times()
    traces = []
    for path, theta in zip(args.traces, sensors.angles):
        try:
            with open(path) as fh:
                t, v = trace_from_csv(fh.read())
        except OSError as exc:
            raise ValidationError(f"cannot read trace {path}: {exc.strerror}",
                                  clause="trace-file") from None
        check_trace_grid(t, grid, path)
        traces.append(FluxTrace(sensor_angle=theta, times=t, values=v))
    result = reconstruct(tuple(traces), spectrum, build_inversion_config(cfg))
    manifest = RunManifest.for_config(cfg)
    _emit(manifest, directory, "reconstruction.json",
          result_to_json(result, spectrum, [os.path.basename(p) for p in args.traces]))
    model_flux = predicted_flux(result, spectrum, traces[0].times, sensors.angles)
    _emit(manifest, directory, "residual_curve.csv", columns_to_csv(
        "t,residual_sensor1,residual_sensor2", traces[0].times,
        *(f - tr.values for f, tr in zip(model_flux, traces))))
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
    model = build_source_model(cfg, spectrum)
    times = cfg.times()
    sensors = cfg.sensor_config()
    add("measurement_identity",
        verify_measurement_identity(model, sensors.theta1, times), 5e-4)

    # closed-form transform vs numeric transform on a long grid
    t_long = np.linspace(0.0, max(30.0, float(times[-1])), 30001)
    tr = flux_trace(model, sensors.theta1, t_long)
    worst = 0.0
    for s in (1.0, 2.0, 5.0, 10.0, 20.0):
        gm = laplace_flux_model(model, sensors.theta1, LaplacePoint(s))
        gn = numeric_laplace(tr, LaplacePoint(s))
        worst = max(worst, abs(gm - gn))
    add("laplace_model_agreement", worst, 1e-4)

    # orthonormality of the leading modes
    sp_g = spectrum if len(spectrum) >= 12 else build_spectrum(60.0)
    n = min(12, len(sp_g))
    gram_err = 0.0
    for i in range(n):
        mo = sp_g.modes[i]
        coeffs = project_function(
            lambda r, th, mo=mo: eigenfunction_eval(mo, r, th), sp_g)
        row = coeffs.values[:n].copy()
        row[i] -= 1.0
        gram_err = max(gram_err, float(np.max(np.abs(row))))
    add("orthonormality", gram_err, 1e-8)

    # normalizer closed form (fault-injection hook scales omega)
    fault = float(cfg.verify.get("fault_omega_scale", 1.0))
    worst = 0.0
    for mo in spectrum.modes:
        omega = mo.omega * fault
        resid = abs(abs(omega * math.sqrt(math.pi)
                        * bessel_j(abs(mo.m) + 1, math.sqrt(mo.lam))) - 1.0)
        worst = max(worst, resid)
    add("normalizer_identity", worst, 1e-10)
    return checks


def cmd_verify(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
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
    with open(recon_path) as fh:
        recon = json.load(fh)
    cfg = load_config(config_path) if os.path.exists(config_path) else None

    outputs = []
    # tidy flux curves of the traces that invert fitted, found by name in
    # the run directory (the clean synth traces for runs without the key)
    names = recon.get("traces") or [f"flux_sensor{i}.csv" for i in (1, 2)]
    traces = []
    for i, name in enumerate(names, start=1):
        trace_path = os.path.join(run_dir, os.path.basename(name))
        if os.path.exists(trace_path):
            with open(trace_path) as fh:
                traces.append((i, *trace_from_csv(fh.read())))
    rows = [(float_strings(t), [str(i)] * len(t), float_strings(v)) for i, t, v in traces]
    write_atomic(os.path.join(run_dir, "plot_flux_vs_t.csv"), columns_to_csv(
        "t,sensor,flux", *(sum(col, []) for col in zip(*rows))))
    outputs.append("plot_flux_vs_t.csv")

    # log|G| against log s with the fitted alpha line: the window and the
    # transform summed over both sensors that estimate_alpha fits
    gap = cfg.inversion["changepoint_min_gap"] if cfg else InversionConfig.changepoint_min_gap
    c0, delta = float(recon["cuts_hat"][0]), min(gap, ALPHA_LEADING_DELTA)
    s = np.geomspace(*ALPHA_FIT_WINDOW, ALPHA_FIT_POINTS)
    log_s = np.log(s)
    columns = []
    if len(traces) == 2:
        gv = sum(_window_transform(t, -v, c0, delta, s) for _, t, v in traces)
        log_g = np.log(np.maximum(np.abs(gv), 1e-300))
        slope = -(1.0 + float(recon["alpha_hat"]))
        fit = slope * log_s + float(np.mean(log_g - slope * log_s))
        columns = [log_s, log_g, fit, np.full(len(log_s), slope)]
    write_atomic(os.path.join(run_dir, "plot_alpha_fit.csv"),
                 columns_to_csv("log_s,log_G,fit,slope", *columns))
    outputs.append("plot_alpha_fit.csv")

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
    outputs.append("plot_cuts_compare.csv")
    _info(args, f"plotdata: wrote {', '.join(outputs)} in {run_dir}")
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
        p.add_argument("--seed", type=int, default=None, help="noise seed override")
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
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError,) as exc:
        clause = getattr(exc, "clause", None)
        suffix = f" [clause: {clause}]" if clause else ""
        print(f"validation error: {exc}{suffix}", file=sys.stderr)
        return 2
    except (AccuracyError, ConditioningError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FracsourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
