"""Per-layer metrics from the spans of one traced pass.

A span is (id, name, start, end, parent, size, params); ``name`` is
``<module>.<function>``. Busy time of a function is the total duration of its
spans that have no ancestor of the same name; self time of a span is its
duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

from collections import namedtuple

Span = namedtuple("Span", "sid name start end parent size params")

SMALL_CALL_POINTS = 64
ML = "specfun.mittag_leffler_neg_real"

# metric name -> unit; the order is the order of the report
UNITS = {
    "specfun.ml_calls": "count",
    "specfun.ml_points": "count",
    "specfun.ml_busy_s": "s",
    "specfun.ml_ns_per_point": "ns",
    "specfun.ml_small_calls": "count",
    "specfun.ml_param_sets": "count",
    "specfun.ml_share_of_invert": "ratio",
    "specfun.frac_int_calls": "count",
    "disc_spectrum.build_s": "s",
    "disc_spectrum.modes": "count",
    "disc_spectrum.distinct_lambdas": "count",
    "disc_spectrum.project_calls": "count",
    "forward_model.flux_trace_calls": "count",
    "forward_model.samples": "count",
    "forward_model.flux_trace_busy_s": "s",
    "forward_model.identity_calls": "count",
    "laplace_model.calls": "count",
    "inversion.onset_s": "s",
    "inversion.order_s": "s",
    "inversion.changepoints_s": "s",
    "inversion.amplitudes_split_s": "s",
    "inversion.refine_s": "s",
    "inversion.refine_share_of_invert": "ratio",
    "inversion.predicted_flux_s": "s",
    "inversion.order_design_builds": "count",
    "inversion.refine_design_builds": "count",
    "inversion.refine_iterations": "count",
    "inversion.refine_builds_per_iteration": "ratio",
    "inversion.refine_stop": "code",
    "inversion.alpha_abs_err": "1",
    "inversion.cut_max_err_steps": "steps",
    "inversion.coeff_rel_err": "1",
    "inversion.k_hat": "count",
    "config.csv_write_s": "s",
    "config.csv_read_s": "s",
    "config.write_s": "s",
    "config.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Busy times of paths only verify reaches. They are printed but not
# reported: on the workloads without verify they are 0 on every run, and a
# time that never changes cannot be told from one that is not measured. The
# call counts above stand in for them in the report.
PRINTED_ONLY = {
    "specfun.ml_small_busy_s": "s",
    "specfun.frac_int_busy_s": "s",
    "disc_spectrum.project_busy_s": "s",
    "forward_model.identity_busy_s": "s",
    "laplace_model.busy_s": "s",
}

# refine_stop codes, read from the refine_joint entry of the stage log
STOP_CONVERGED, STOP_CAP, STOP_DIVERGED = 0, 1, 2


def load_spans(raw: list) -> list:
    return [Span(*row) for row in raw]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """sid -> duration minus the union of its children's intervals, each
    clipped to the span."""
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return {s.sid: (s.end - s.start) - covered(children.get(s.sid, ()))
            for s in spans}


def ancestors(span, by_id):
    while span.parent in by_id:
        span = by_id[span.parent]
        yield span


def outermost(spans, names) -> list:
    """Spans with a name in ``names`` that have no ancestor with such a name."""
    by_id = {s.sid: s for s in spans}
    return [s for s in spans if s.name in names
            and not any(a.name in names for a in ancestors(s, by_id))]


def busy(spans, *names) -> float:
    return sum(s.end - s.start for s in outermost(spans, set(names)))


def count_under(spans, name, stage) -> int:
    """Number of ``name`` spans that have a ``stage`` span as an ancestor."""
    by_id = {s.sid: s for s in spans}
    return sum(1 for s in spans if s.name == name
               and any(a.name == stage for a in ancestors(s, by_id)))


def op_metrics(spans) -> dict:
    """Metrics of one process's spans that sum across the pass."""
    ml = [s for s in spans if s.name == ML]
    small = [s for s in ml if s.size <= SMALL_CALL_POINTS]
    param_sets = {(s.params.get("alpha"), s.params.get("beta"), s.params.get("tol"))
                  for s in ml}
    laplace = [s for s in spans if s.name.startswith("laplace_model.")]

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    selfs = self_times(spans)
    flux = [s for s in spans if s.name == "forward_model.flux_trace"]
    return {
        "specfun.ml_calls": len(ml),
        "specfun.ml_points": sum(s.size for s in ml),
        "specfun.ml_busy_s": busy(spans, ML),
        "specfun.ml_small_calls": len(small),
        "specfun.ml_small_busy_s": sum(s.end - s.start for s in outermost(small, {ML})),
        "specfun.ml_param_sets": len(param_sets),
        "specfun.frac_int_calls": calls("specfun.fractional_integral"),
        "specfun.frac_int_busy_s": busy(spans, "specfun.fractional_integral"),
        "disc_spectrum.build_s": busy(spans, "disc_spectrum.build_spectrum"),
        "disc_spectrum.project_calls": calls("disc_spectrum.project_function"),
        "disc_spectrum.project_busy_s": busy(spans, "disc_spectrum.project_function"),
        "forward_model.flux_trace_calls": len(flux),
        "forward_model.samples": sum(s.size for s in flux),
        "forward_model.flux_trace_busy_s": busy(spans, "forward_model.flux_trace"),
        "forward_model.identity_calls": calls("forward_model.verify_measurement_identity"),
        "forward_model.identity_busy_s": busy(
            spans, "forward_model.verify_measurement_identity"),
        "laplace_model.calls": len(laplace),
        "laplace_model.busy_s": busy(spans, *{s.name for s in laplace}),
        "inversion.onset_s": busy(spans, "inversion.detect_onset"),
        "inversion.order_s": busy(spans, "inversion.estimate_alpha"),
        "inversion.changepoints_s": busy(spans, "inversion.detect_change_points"),
        "inversion.amplitudes_split_s": busy(
            spans, "inversion.solve_mode_amplitudes", "inversion.split_multiplicity"),
        "inversion.refine_s": busy(spans, "inversion.refine_joint"),
        "inversion.predicted_flux_s": busy(spans, "inversion.predicted_flux"),
        "inversion.order_design_builds": count_under(spans, ML, "inversion.estimate_alpha"),
        "inversion.refine_design_builds": count_under(spans, ML, "inversion.refine_joint"),
        "config.csv_write_s": busy(spans, "config.trace_to_csv"),
        "config.csv_read_s": busy(spans, "config.trace_from_csv"),
        "config.write_s": busy(spans, "config.write_atomic"),
        "cli.self_s": sum(selfs[s.sid] for s in spans
                          if s.name.startswith("cli.cmd_")),
    }


def refine_stop(stage_log: list, max_iterations: int = 50) -> tuple:
    """(iterations, stop code) from the refine_joint entry of a stage log."""
    log = dict((name, d) for name, d in stage_log).get("refine_joint")
    if log is None:
        return 0, STOP_CONVERGED
    iterations = int(log.get("iterations", 0))
    if "divergence" in str(log.get("warning", "")):
        return iterations, STOP_DIVERGED
    return iterations, STOP_CAP if iterations >= max_iterations else STOP_CONVERGED
