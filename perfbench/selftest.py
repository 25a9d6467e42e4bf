"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time and busy-time arithmetic on nested spans, the counting
of failed and wrong operations (one deliberately corrupted trace, one
corrupted reconstruction, one operation that exits non-zero), the unit
printing, and the tracer, on a coarse two-eigenvalue toy config that the
real CLI synthesizes and inverts in a few seconds. Exits 0 when every check
holds.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile

import checks
import layers
import run
from layers import Span

TOY = {
    "spectrum": {"lambda_max": 15.0},
    "model": {"alpha": 0.75, "cuts": [0.2, 1.2, "inf"], "pieces": [
        {"coefficients": [{"m": 0, "k": 1, "re": 1.0}, {"m": 1, "k": 1, "re": 0.5, "im": 0.3}]},
        {"coefficients": [{"m": 0, "k": 1, "re": -0.6}, {"m": 1, "k": 1, "re": 0.8, "im": -0.1}]},
    ]},
    "sensors": {"theta1": 0.3, "theta2": 1.3},
    "grid": {"t_max": 4.0, "steps": 400},
    "noise": {"level": 0.0, "seed": 1},
    "inversion": {"changepoint_min_gap": 0.3},
}


def check_span_arithmetic():
    # a: [0, 10] with children b [1, 4] and c [3, 6] (overlapping, as worker
    # threads do) and d [8, 9]; b has child e [2, 3]; f nests inside a same-name f
    spans = [Span(0, "m.a", 0.0, 10.0, -1, 0, {}),
             Span(1, "m.b", 1.0, 4.0, 0, 0, {}),
             Span(2, "m.c", 3.0, 6.0, 0, 0, {}),
             Span(3, "m.d", 8.0, 9.0, 0, 0, {}),
             Span(4, "m.e", 2.0, 3.0, 1, 0, {}),
             Span(5, "m.f", 20.0, 25.0, -1, 0, {}),
             Span(6, "m.f", 21.0, 22.0, 5, 0, {})]
    selfs = layers.self_times(spans)
    assert math.isclose(selfs[0], 10.0 - 6.0), selfs
    assert math.isclose(selfs[1], 2.0) and math.isclose(selfs[4], 1.0), selfs
    assert math.isclose(selfs[5], 4.0), selfs
    assert math.isclose(layers.busy(spans, "m.f"), 5.0)
    assert math.isclose(layers.busy(spans, "m.b", "m.e"), 3.0)
    assert layers.count_under(spans, "m.e", "m.a") == 1 and layers.count_under(spans, "m.c", "m.b") == 0
    assert layers.covered([(0, 2), (1, 3), (5, 6)]) == 4
    log = [("refine_joint", {"iterations": 13, "warning": "divergence: 10 consecutive"})]
    assert layers.refine_stop(log) == (13, layers.STOP_DIVERGED)
    assert layers.refine_stop([("refine_joint", {"iterations": 50})]) == (50, layers.STOP_CAP)
    assert layers.refine_stop([("refine_joint", {"iterations": 4})]) == (4, layers.STOP_CONVERGED)


def check_oracle():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x), independent of both branches of ml_neg
    mp = checks.mp
    with mp.workdps(30):
        for x in (0.5, 3.0, 12.0, 40.0):
            want = mp.exp(mp.mpf(x) ** 2) * mp.erfc(x)
            assert abs(checks.ml_neg(0.5, x) - want) < 1e-15 * want, x


def check_toy_pipeline(work: str):
    cfg = json.loads(json.dumps(TOY))
    cfg["output"] = {"directory": os.path.join(work, "out")}
    wl = run.Workload(cfg, ("synth", "invert"), work, seed=1)
    try:
        synth = wl.run("synth")
        invert = wl.run("invert")
        assert not (synth.failed or invert.failed or invert.wrong), (synth, invert)
        assert run.tally([synth, invert]) == {"failed": 0, "wrong": 0, "ops": 2, "inverts": 1}

        # corrupted reconstruction: alpha off by 1e-3 is a wrong answer
        recon = os.path.join(wl.out, "reconstruction.json")
        with open(recon) as fh:
            doc = json.load(fh)
        doc["alpha_hat"] += 1e-3
        with open(recon, "w") as fh:
            json.dump(doc, fh)
        bad = run.Op("invert", 1.0, 0, 1.0)
        wl.check(bad)
        assert bad.wrong and not bad.failed

        # corrupted trace: one sample at an oracle index moved by 1e-6
        path = os.path.join(wl.out, "flux_sensor1.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        row = wl.oracle.indices[2] + 1
        t, v = lines[row].split(",")
        lines[row] = f"{t},{float(v) + 1e-6!r}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            wl.oracle.check(wl.cfg, wl.out)
        except checks.CheckFailed:
            pass
        else:
            raise AssertionError("corrupted trace passed the oracle check")

        # an operation that exits non-zero: invert with a missing trace file
        os.remove(path)
        missing = wl.run("invert")
        assert missing.failed and missing.code != 0, missing
        assert run.tally([synth, bad, missing]) == {"failed": 1, "wrong": 1, "ops": 3,
                                                    "inverts": 2}

        # traced synth: spans of the real CLI, with flux_trace under cmd_synth
        traced = wl.run("synth", traced=True)
        assert not traced.failed, traced
        names = {s.name for s in traced.spans}
        assert {"cli.cmd_synth", "forward_model.flux_trace", layers.ML} <= names, names
        metrics = layers.op_metrics(traced.spans)
        assert metrics["forward_model.flux_trace_calls"] == 2
        assert metrics["forward_model.samples"] == 2 * 401
        assert 0 < metrics["cli.self_s"] < traced.wall_s
    finally:
        wl.close()


def check_unit_printing():
    report = {"invert_s": (1.25, "median of 3"), "peak_rss_mb": (100.5, "max over 6 ops")}
    counts = {"failed": 1, "wrong": 0, "ops": 6, "inverts": 3}
    lines = run.report_lines(report, run.END_TO_END_UNITS, counts)
    assert lines == ["invert_s = 1.25 s (median of 3)",
                     "peak_rss_mb = 100.5 MB (max over 6 ops)",
                     "wrong_frac = 0 1 (0 of 3 inverts)",
                     "failed_frac = 0.166667 1 (1 of 6 ops)"], lines
    for key, unit in layers.UNITS.items():
        assert key.split(".")[0] in {"specfun", "disc_spectrum", "forward_model",
                                     "laplace_model", "inversion", "config", "cli",
                                     "trace"} and unit, key


def main() -> int:
    work_root = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        for check in (check_span_arithmetic, check_oracle, check_unit_printing):
            check()
            print(f"ok {check.__name__}")
        check_toy_pipeline(work)
        print("ok check_toy_pipeline")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
