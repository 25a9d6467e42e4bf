"""Benchmark of the fracsource command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One benchmark process runs a closed loop with
a single client: every CLI operation (synth, invert, verify) is a fresh
``python3 -m fracsource.cli`` process, started only after the previous one
has exited, so each operation pays import time and the per-alpha cutoff
searches as a user does. A pass runs synth three times, each other
operation once, then synth twice more; passes repeat until S seconds have
been measured (at least one pass). Every output is checked (see checks.py). With ``--trace 1`` one
pass (one of each operation) runs under tracer.py and one untraced pass
measures the tracing overhead; the report then holds the per-layer metrics
of layers.py instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

import checks
import layers
from workloads import REFERENCE, WORKLOADS, load_reference, make_config

# The machine's speed drifts over tens of seconds, so the samples of the
# short operations are split between both ends of what they bracket:
# fresh-interpreter imports behind setup_s before and after the passes, and
# synth samples (short, its threads share two cores with OpenBLAS) before and
# after the other operations of a pass.
SETUP_IMPORTS = (5, 4)
SYNTH_SAMPLES = (3, 2)
RUN_DEADLINE_S = 170.0  # every child is killed past this point of the run
THREADS = "2"           # FRACSOURCE_THREADS for every child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# files each operation must write; removed before it runs
OUTPUTS = {"synth": ["flux_sensor1.csv", "flux_sensor2.csv"],
           "invert": ["reconstruction.json"],
           "verify": ["verification.json"]}

# verify_s is printed, not reported: only grid16k_verify runs verify, and
# pipeline_s carries its time into the result
END_TO_END = ("setup_s", "synth_s", "invert_s", "pipeline_s", "peak_rss_mb")
END_TO_END_UNITS = {"setup_s": "s", "synth_s": "s", "invert_s": "s",
                    "pipeline_s": "s", "peak_rss_mb": "MB", "verify_s": "s"}


@dataclass
class Op:
    kind: str
    wall_s: float
    code: int
    rss_mb: float
    failed: bool = False
    wrong: bool = False
    note: str = ""
    spans: list = field(default_factory=list)


def run_child(cmd, env, limit_s, log) -> tuple:
    """(wall seconds, exit code, max RSS in MB) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(max(limit_s, 0.1), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Workload:
    """Generated config, output directory and the checks of one workload."""

    def __init__(self, cfg: dict, ops: tuple, work: str, seed: int):
        self.cfg, self.ops, self.work = cfg, ops, work
        self.out = cfg["output"]["directory"]
        self.noisy = float(cfg["noise"]["level"]) > 0
        self.cfg_path = os.path.join(work, "config.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        self.oracle = checks.TraceOracle.for_config(cfg, seed)
        self.env = dict(os.environ, FRACSOURCE_THREADS=THREADS,
                        PYTHONPATH=os.pathsep.join(
                            [os.path.join(ROOT, "src")]
                            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.log = open(os.path.join(work, "stderr.log"), "ab")
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.last_score = None

    @classmethod
    def named(cls, name: str, seed: int, work: str) -> "Workload":
        cfg = make_config(name, load_reference(ROOT), os.path.join(work, "out"))
        return cls(cfg, WORKLOADS[name], work, seed)

    def close(self):
        self.log.close()

    def cli_args(self, kind: str) -> list:
        args = [kind, "--config", self.cfg_path, "--quiet"]
        if kind == "invert":
            suffix = "_noisy" if self.noisy else ""
            args += [os.path.join(self.out, f"flux_sensor{i}{suffix}.csv") for i in (1, 2)]
        return args

    def run(self, kind: str, traced: bool = False) -> Op:
        for name in OUTPUTS[kind] + ["manifest.json"]:
            path = os.path.join(self.out, name)
            if os.path.exists(path):
                os.remove(path)
        spans_path = os.path.join(self.work, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--"]
        else:
            cmd = [sys.executable, "-m", "fracsource.cli"]
        wall, code, rss = run_child(cmd + self.cli_args(kind), self.env,
                                    self.deadline - time.perf_counter(), self.log)
        op = Op(kind, wall, code, rss)
        if code != 0:
            op.failed, op.note = True, f"exit {code}"
            return op
        try:
            self.check(op)
        except checks.CheckFailed as exc:
            op.failed, op.note = True, str(exc)
        if traced:
            with open(spans_path) as fh:
                op.spans = layers.load_spans(json.load(fh)["spans"])
        return op

    def check(self, op: Op) -> None:
        if op.kind == "synth":
            self.oracle.check(self.cfg, self.out)
        elif op.kind == "invert":
            self.last_score = checks.score_reconstruction(
                self.cfg, os.path.join(self.out, "reconstruction.json"))
            score = self.last_score
            op.wrong = not score.ok
            op.note = (f"alpha err {score.alpha_abs_err:.3g}, cut err {score.cut_max_err_steps:.3g}"
                       f" steps, coeff err {score.coeff_rel_err:.3g}, K {score.k_hat}")
        else:
            checks.check_verification(os.path.join(self.out, "verification.json"))

    def bytes_written(self) -> int:
        with open(os.path.join(self.out, "manifest.json")) as fh:
            return sum(int(o["bytes"]) for o in json.load(fh)["outputs"])


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": blas.get("openblas configuration", blas.get("name")),
        "FRACSOURCE_THREADS": THREADS,
        "seed": seed,
    }


def measure_setup(wl: Workload, count: int) -> list:
    return [run_child([sys.executable, "-c", "import fracsource.cli"], wl.env,
                      wl.deadline - time.perf_counter(), wl.log)[0]
            for _ in range(count)]


def pass_plan(ops: tuple) -> list:
    before, after = SYNTH_SAMPLES
    rest = [kind for kind in ops if kind != "synth"]
    return ["synth"] * before + rest + ["synth"] * after


def median_of(samples: list) -> tuple:
    return statistics.median(samples), f"median of {len(samples)}"


def pass_time(ops: list) -> float:
    """Time of one synth, invert (and verify) of a pass: the median of each
    kind's samples, summed."""
    kinds = dict.fromkeys(op.kind for op in ops)
    return sum(statistics.median(op.wall_s for op in ops if op.kind == k) for k in kinds)


def end_to_end(setup: list, passes: list) -> dict:
    """metric -> (value, how it was taken)."""
    ops = [op for p in passes for op in p]
    walls = {k: [op.wall_s for op in ops if op.kind == k] for k in ("synth", "invert", "verify")}
    values = {
        "setup_s": median_of(setup),
        "synth_s": median_of(walls["synth"]),
        "invert_s": median_of(walls["invert"]),
        "pipeline_s": median_of([pass_time(p) for p in passes]),
        "peak_rss_mb": (max(op.rss_mb for op in ops), f"max over {len(ops)} ops"),
    }
    if walls["verify"]:
        values["verify_s"] = median_of(walls["verify"])
    return values


def per_layer(wl: Workload, traced: list, plain: list, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass; file-derived ones stay 0 when
    the operation that writes the file failed."""
    m = {key: 0 for key in {**layers.UNITS, **layers.PRINTED_ONLY}}
    for op in traced:
        for key, val in layers.op_metrics(op.spans).items():
            m[key] += val
    if m["specfun.ml_points"]:
        m["specfun.ml_ns_per_point"] = m["specfun.ml_busy_s"] / m["specfun.ml_points"] * 1e9
    invert = next(op for op in traced if op.kind == "invert")
    inv = layers.op_metrics(invert.spans)
    m["specfun.ml_share_of_invert"] = inv["specfun.ml_busy_s"] / invert.wall_s
    m["inversion.refine_share_of_invert"] = inv["inversion.refine_s"] / invert.wall_s
    spectrum = os.path.join(wl.out, "spectrum.json")
    if os.path.exists(spectrum):
        with open(spectrum) as fh:
            modes = json.load(fh)
        m["disc_spectrum.modes"] = len(modes)
        m["disc_spectrum.distinct_lambdas"] = len({round(mo["lambda"], 9) for mo in modes})
    score = wl.last_score
    if score is not None:
        with open(os.path.join(wl.out, "reconstruction.json")) as fh:
            iterations, stop = layers.refine_stop(json.load(fh)["stage_log"])
        m["inversion.refine_iterations"] = iterations
        m["inversion.refine_stop"] = stop
        if iterations:
            m["inversion.refine_builds_per_iteration"] = (
                m["inversion.refine_design_builds"] / iterations)
        m["inversion.alpha_abs_err"] = score.alpha_abs_err
        m["inversion.cut_max_err_steps"] = score.cut_max_err_steps
        m["inversion.coeff_rel_err"] = score.coeff_rel_err
        m["inversion.k_hat"] = score.k_hat
    m["config.bytes_written"] = bytes_written
    m["trace.overhead_s"] = statistics.mean(
        t.wall_s - p.wall_s for t, p in zip(traced, plain))
    return m


def tally(ops: list) -> dict:
    """Failed operations (non-zero exit or failed output check), wrong ones
    (an invert that exits 0 but misses the accuracy bounds), and their bases."""
    return {"failed": sum(op.failed for op in ops), "wrong": sum(op.wrong for op in ops),
            "ops": len(ops), "inverts": sum(op.kind == "invert" for op in ops)}


def report_lines(report: dict, units: dict, counts: dict) -> list:
    lines = [f"{key} = {fmt(val)} {units[key]} ({how})" for key, (val, how) in report.items()]
    wrong = counts["wrong"] / counts["inverts"] if counts["inverts"] else 0.0
    lines.append(f"wrong_frac = {fmt(wrong)} 1 ({counts['wrong']} of {counts['inverts']} inverts)")
    lines.append(f"failed_frac = {fmt(counts['failed'] / counts['ops'])} 1 "
                 f"({counts['failed']} of {counts['ops']} ops)")
    return lines


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def bench(args, work: str) -> dict:
    wl = Workload.named(args.workload, args.seed, work)
    try:
        env = environment(args.seed)
        plan = wl.ops if args.trace else pass_plan(wl.ops)
        print(f"workload {args.workload}: {' -> '.join(plan)} per pass, "
              f"closed loop, 1 client, one process per op")
        passes = []
        if args.trace:
            traced, bytes_written = [], 0
            for kind in wl.ops:
                traced.append(wl.run(kind, traced=True))
                if traced[-1].code == 0:
                    bytes_written += wl.bytes_written()
            score = wl.last_score
            plain = [wl.run(kind) for kind in wl.ops]
            wl.last_score = score
            passes = [traced, plain]
            report = {k: (v, "one traced pass" if k in layers.UNITS else "printed only")
                      for k, v in per_layer(wl, traced, plain, bytes_written).items()}
            units = {**layers.UNITS, **layers.PRINTED_ONLY}
        else:
            setup = measure_setup(wl, SETUP_IMPORTS[0])
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append([wl.run(kind) for kind in plan])
            setup += measure_setup(wl, SETUP_IMPORTS[1])
            report = end_to_end(setup, passes)
            units = END_TO_END_UNITS
        reported = layers.UNITS if args.trace else END_TO_END
        ops = [op for p in passes for op in p]
        for op in ops:
            if op.failed or op.wrong:
                print(f"FAILED {op.kind}: {op.note}")
        counts = tally(ops)
        print("\n".join(report_lines(report, units, counts)))
        print("env " + json.dumps(env, sort_keys=True))
        return {
            "correct": counts["failed"] == 0 and counts["wrong"] == 0,
            "attempted": counts["ops"],
            "failed": sum(op.failed or op.wrong for op in ops),
            "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in report.items()
                        if k in reported},
        }
    finally:
        wl.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in ("src/fracsource/cli.py", REFERENCE)
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not a fracsource checkout, missing {missing}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
