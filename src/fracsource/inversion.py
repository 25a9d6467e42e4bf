"""Staged reconstruction of (alpha, cuts, mode coefficients, K) from
two-sensor boundary flux traces.

Every stage reads the one two-sensor problem that reconstruct sets up
(_two_sensor_problem). Stage order mirrors the identifiability structure:
onset first, then the order alpha from the leading window where only the
first piece acts, then interior change points from second-difference kinks,
then the coefficients by one least-squares solve of the two-sensor operator
(_project: the relaxation basis times each sensor's grouped amplitudes
b_{j,k,l} = sum_{lam_n=lam_j} s_n a_n(z_l) p_{k,n}). These staged values are
where the estimator starts: the joint fit refine_joint, variable-projection
Gauss-Newton over alpha and the cuts, with the coefficients eliminated by
the same solve. The order stage is the same machinery on a smaller
problem: the window's fits go through _project, and refine_joint polishes
its best grid point.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_changepoint_min_gap, check_uniform_grid
from .disc_spectrum import SpectrumTable
from .errors import (
    ConditioningError,
    EmptySignalError,
    ShapeError,
    ValidationError,
)
from .forward_model import (
    _dof_map,
    _phases,
    check_sensor_geometry,
    relaxation_derivatives,
    relaxation_design,
)

__all__ = [
    "ReconstructionResult",
    "detect_onset",
    "estimate_alpha",
    "detect_change_points",
    "refine_joint",
    "reconstruct",
    "result_to_json",
]


ONSET_THRESHOLD = 5.0            # noise-sigma multiplier of the onset threshold
ONSET_FLOOR = 1e-9               # floor of the onset threshold, relative to the trace peak
ALPHA_LEADING_DELTA = 0.2        # cap on the leading-window length
MAX_REFINE_ITERATIONS = 50
REFINE_TOL = 1e-10               # relative-decrease stop of refine_joint


@dataclass(eq=False)
class ReconstructionResult:
    alpha_hat: float
    cuts_hat: list
    coeffs_hat: np.ndarray   # complex (K, modes), aligned with spectrum.modes
    residual_norm: float
    stage_log: list = field(default_factory=list)
    condition_report: dict = field(default_factory=dict)
    residuals: list = field(default_factory=list)   # model minus trace, per sensor

    @property
    def K_hat(self) -> int:
        return len(self.coeffs_hat)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.cuts_hat[:-1], self.cuts_hat[1:])):
            raise ShapeError("cuts_hat must be strictly increasing")


def _median(values: np.ndarray):
    """np.median of a 1-D array without its NaN check, which imports
    numpy.ma (about 10 ms of a cold start)."""
    s = np.sort(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def _noise_sigma(values: np.ndarray) -> float:
    """Robust noise scale from first differences (smooth drift cancels)."""
    d = np.diff(values)
    return float(1.4826 * _median(np.abs(d - _median(d))) / math.sqrt(2.0))


def _pre_onset_sigma(t: np.ndarray, values: np.ndarray, c0: float) -> float | None:
    """Noise scale from the samples of both sensors (the rows of values on
    the grid t) before the onset c0, where the model is exactly zero: the
    root mean square of those samples, or None (no estimate) with fewer than
    16 of them per sensor. Noiseless synthesis writes exact zeros there, so
    its estimate is exactly 0."""
    pre = t < c0 - 1e-12
    if np.count_nonzero(pre) < 16:
        return None
    samples = values[:, pre].ravel()
    return math.sqrt(float(samples @ samples) / len(samples))


def detect_onset(t: np.ndarray, values: np.ndarray) -> float:
    """First time of the grid t where the flux of either sensor (a row of
    values) exceeds max(ONSET_THRESHOLD * _noise_sigma, ONSET_FLOOR * peak)
    in magnitude, peak the larger of the two traces' largest magnitudes,
    minus one grid step, clamped at 0."""
    floor = ONSET_FLOOR * float(np.max(np.abs(values)))
    above = [np.abs(v) > max(ONSET_THRESHOLD * _noise_sigma(v), floor) for v in values]
    idx = np.flatnonzero(np.logical_or(*above))
    if not len(idx):
        raise EmptySignalError("no sample exceeds the onset threshold")
    return max(float(t[idx[0]]) - float(t[1] - t[0]), 0.0)


def estimate_alpha(t: np.ndarray, values: np.ndarray, c0_hat: float, lams: np.ndarray,
                   changepoint_min_gap: float, sigma: float):
    """Order estimate from the leading window t in [c0, c0 + delta], delta =
    min(changepoint_min_gap, ALPHA_LEADING_DELTA), where only the first piece
    acts: the variable-projection problem (t_w, values_w, lams, phases_w)
    of the relaxation basis {1 - E_{alpha,1}(-lambda_j tau^alpha)}, lams
    the distinct eigenvalues, whose phase maps [I_J | 0] and [0 | I_J]
    fit each sensor's trace (a row of values) with its own amplitudes. Each
    alpha of a 0.02 grid over [0.52, 0.98] is scored by the squared residual
    of _project at the onset c0_hat, and refine_joint polishes the best grid
    point over alpha and the window's onset, from c0_hat, with the
    noise-floor stop at sigma.

    Returns (alpha_hat, diagnostics dict): the diagnostics hold alpha_vp, the
    polished order, and its vp_residual; evaluations, the window design
    builds (the grid's, the polish's start and its line-search candidates);
    the polish's iterations and stop; the grid's profile as [alpha,
    vp_residual] pairs; and its local minima, the grid alphas whose residual
    is strictly below the left neighbour's and not above the right one's (a
    grid end compares with its one neighbour by the same rule)."""
    delta = min(changepoint_min_gap, ALPHA_LEADING_DELTA)
    mask = (t >= c0_hat - 1e-12) & (t <= c0_hat + delta + 1e-12)
    n_lams = len(lams)
    window = (t[mask], values[:, mask], lams,
              [np.eye(n_lams, 2 * n_lams), np.eye(n_lams, 2 * n_lams, n_lams)])
    y = -window[1].ravel()

    def project(alpha):
        # one piece [c0_hat, inf): columns 1 - E_{alpha,1}(-lam_j tau^alpha)
        return _project(relaxation_design(alpha, lams, [c0_hat, math.inf], window[0]),
                        window[3], y)

    profile = []
    for a in np.arange(0.52, 0.995, 0.02):
        r = project(a)[0]
        profile.append((float(a), float(r @ r)))
    best = min(profile, key=lambda pair: pair[1])[0]
    theta, (r, _), log = refine_joint(window, np.array([best, c0_hat]), project(best)[:4],
                                      sigma, changepoint_min_gap)
    padded = [(None, math.inf), *profile, (None, math.inf)]
    diag = {"vp_residual": float(r @ r), "alpha_vp": float(theta[0]),
            "evaluations": len(profile) + 1 + log["candidates"],
            "iterations": log["iterations"], "stop": log["stop"],
            "minima": [a for (_, left), (a, v), (_, right)
                       in zip(padded, padded[1:], padded[2:]) if left > v <= right],
            "profile": profile}
    return float(theta[0]), diag


def detect_change_points(t: np.ndarray, values: np.ndarray, c0_hat: float,
                         changepoint_min_gap: float, sigma: float | None):
    """Interior cut candidates from local maxima of the second difference of
    the summed two-sensor flux (the rows of values on the grid t);
    lag-smoothed when the noise estimate (sigma, the _pre_onset_sigma of
    reconstruct, else _noise_sigma of the sum) is above 1e-9 of the sum's
    peak, pruned to changepoint_min_gap keeping the larger magnitude, or of
    equal ones the earlier. reconstruct has checked that the grid step is at
    most a tenth of changepoint_min_gap."""
    h = float(t[1] - t[0])
    summed = values[0] + values[1]
    scale = float(np.max(np.abs(summed))) or 1.0
    if sigma is None:  # an early onset
        sigma = _noise_sigma(summed)
    if sigma > 1e-9 * scale:
        lag = int(np.clip(round(0.1 * changepoint_min_gap / h), 1, 80))
    else:
        lag = 1
    work = np.convolve(summed, np.ones(lag) / lag, mode="same")
    d2 = np.abs(work[:-2 * lag] - 2.0 * work[lag:-lag] + work[2 * lag:])
    centers = t[lag:-lag]
    mad = 1.4826 * float(_median(np.abs(d2 - _median(d2))))
    thresh = max(8.0 * mad, 1e-4 * float(np.max(d2)))
    idx = 1 + np.flatnonzero((d2[1:-1] >= np.maximum(d2[:-2], d2[2:])) & (d2[1:-1] >= thresh))
    kept = []
    for tc in centers[idx[np.argsort(-d2[idx], kind="stable")]].tolist():
        if (c0_hat + changepoint_min_gap - 1e-9 < tc < t[-1] - changepoint_min_gap
                and all(abs(tc - k) >= changepoint_min_gap for k in kept)):
            kept.append(tc)
    return sorted(kept)


def _sigma_ratio(svals: np.ndarray) -> float:
    """Smallest over largest singular value; 0 for a zero matrix."""
    return float(svals[-1] / svals[0]) if svals[0] > 0 else 0.0


def _two_sensor_problem(traces, spectrum: SpectrumTable):
    """(t, values, lams, phases), which every stage reads: the grid of both
    traces (ShapeError unless they share it, to 1e-12; check_uniform_grid
    that it is uniform), the (2, n_t) trace values, the distinct eigenvalues
    and the phase matrix of each sensor (forward_model._phases, the map of
    synthesis). _project's right side is -values.ravel()."""
    t, other = traces[0].times, traces[1].times
    if len(other) != len(t) or not np.allclose(other, t, rtol=0, atol=1e-12):
        raise ShapeError("traces must share a common time grid")
    check_uniform_grid(t, "traces")
    return (t, np.stack([tr.values for tr in traces]),
            np.array([lam for lam, _ in spectrum.distinct_eigenvalues]),
            _phases(spectrum, [tr.sensor_angle for tr in traces]))


def _project(design: np.ndarray, phases, y: np.ndarray):
    """(r, p, q, svals, R_D) for the two-sensor operator op = (I_2 x D) [M_1; M_2],
    D the (n_t, J, K) design as n_t x JK, M_l the map of sensor l's phase
    rows: p the least-squares coefficients, r = op @ p - y, q an orthonormal
    basis of the range of op and svals its singular values, all from QRs of
    D = Q_D R_D (R_D as (JK, J, K)) and of the small [R_D M_1; R_D M_2] = Q_G R_G.

    This is the paper's two-sensor elimination, solved for every piece and
    time at once. With a_n(z) = exp(i m theta) / sqrt(pi lam), the grouped
    amplitude b_l of a +-m pair at sensor l, scaled to
    s_l = sign * sqrt(pi lam) * b_l, is exp(i m theta_l) p_+ + exp(-i m theta_l) p_-,
    and the 2x2 solve is
        p_+ = (exp(-i m theta_2) s_1 - exp(-i m theta_1) s_2) / d,
        p_- = (exp(i m theta_1) s_2 - exp(i m theta_2) s_1) / d,
    with determinant d = 2i sin(|m| (theta_1 - theta_2)), which
    check_sensor_geometry keeps away from 0. An m = 0 mode has p = s_l."""
    n_t, n_lams, n_pieces = design.shape
    qd, rd = np.linalg.qr(design.reshape(n_t, -1))
    rd = rd.reshape(-1, n_lams, n_pieces)
    # R_D M_l[:, (k, d)] = sum_j R_D[:, (j, k)] phase_l[j, d]
    qg, rg = np.linalg.qr(np.vstack([np.einsum("ajk,jd->akd", rd, phase)
                                     .reshape(len(rd), -1) for phase in phases]))
    q = np.vstack([qd @ blk for blk in np.split(qg, len(phases))])
    p, _, _, svals = np.linalg.lstsq(rg, q.T @ y, rcond=None)
    return q @ (rg @ p) - y, p, q, svals, rd


def _jacobian(alpha: float, lams: np.ndarray, cuts, t: np.ndarray, w: np.ndarray):
    """[d(op @ p)/d alpha, d(op @ p)/dc_k] for the sensor stack of _project,
    one column for alpha, then one per cut, from one relaxation_derivatives
    call; w[l, j, k] = (phase_l @ p_k)_j is the weight of design column
    (j, k) at sensor l.

    Design column (j, k) is A_{j,c_{k+1}} - A_{j,c_k}, with A = 1 at the
    infinite last bound, so A_{j,c_k} enters column (j, k) with sign - and
    column (j, k-1) with sign +. Both the cut column of c_k (dA_{j,c}/dc =
    lam_j (t-c)^(alpha-1) E_{alpha,alpha}(-lam_j (t-c)^alpha) for t > c, 0
    for t <= c) and the terms of the alpha column (dA_{j,c_k}/dalpha) are
    weighted by that same jump w_{k-1} - w_k."""
    rates, slopes = relaxation_derivatives(alpha, lams, cuts, t)
    jump = -w
    jump[:, :, 1:] += w[:, :, :-1]
    return np.hstack([np.einsum("tjk,ljk->lt", slopes, jump).reshape(-1, 1),
                      np.einsum("tjk,ljk->ltk", rates, jump).reshape(-1, len(cuts))])


def refine_joint(problem, theta: np.ndarray, projection, sigma: float,
                 min_gap: float):
    """Variable-projection Gauss-Newton on theta = (alpha, cuts), minimizing
    the stacked two-sensor time-domain residual of problem, the (t, values,
    lams, phases) of _two_sensor_problem (reconstruct) or of the leading
    window of estimate_alpha, whose one cut is the window's onset; never
    increases the residual of the start. Returns (theta, projection, log).

    The coefficients are eliminated (Golub and Pereyra, 1973): for each theta
    the relaxation basis D is built once and the real coefficient vector is
    the least-squares solution for the two-sensor operator, through one QR of
    D and one of a small stacked matrix (_project, which also gives the staged
    coefficients). projection is _project's (r, p, q, svals) at the start
    (_staged_result's, or the window's at its best grid point; the callers
    keep no reference) and (r, p) at the end.
    The Jacobian is Kaufman's (1975), J = (I - QQ^T) [d(op p)/d alpha,
    d(op p)/dc_k], each column exact and from one pass over the relaxation
    basis (_jacobian); the explicit 2 n_t x dof q serves only that product
    and goes with J once the step is formed. Each step is line-searched over
    twelve halvings within the feasible region: alpha in (1/2, 1), cuts in
    [0, t_max] at least min_gap / 4 apart, which holds at the staged start.
    A step with no decrease leaves theta unchanged, so the loop stops there.

    The loop also stops at the noise floor: a candidate at scale s of the
    step is evaluated only while the Gauss-Newton predicted decrease
    s (2 - s) ||J step||^2 of the squared residual is at least sigma^2, one
    unit of chi^2; below it further steps would fit the noise (on noisy
    data they chase the cusp that every cut has at each grid point).
    Both problems get _pre_onset_sigma, the root mean square of both
    sensors' samples before the onset, where the model is exactly zero, or 0
    without an estimate; at 0 (noiseless data) the rule is off.

    The log holds iterations (accepted steps), candidates (line-search
    candidates evaluated, one design build each), initial_residual (the
    projected residual at the start), noise_sigma (sigma above),
    final_residual, sigma_ratio (smallest over largest singular value of the
    final op) and stop: "converged" (relative decrease below
    REFINE_TOL = 1e-10, or residual at the 1e-13 * ||y|| floor), "noise-floor"
    (predicted decrease below sigma^2 at the next scale), "no-decrease" (no
    line-search candidate lowered the residual) or "cap"
    (MAX_REFINE_ITERATIONS = 50 accepted steps). A no-decrease stop with ten
    iterations still to go also writes the warning "divergence: 10
    consecutive rejected steps"; it means the line search found no
    decrease, not that the iterates diverged.
    """
    t, values, lams, phases = problem
    y = -values.ravel()
    n_pieces = len(theta) - 1

    def feasible(theta):
        alpha, cuts = theta[0], theta[1:]
        return (0.5 < alpha < 1.0 and cuts[0] >= 0 and cuts[-1] <= t[-1]
                and all(b - a >= min_gap / 4 for a, b in zip(cuts[:-1], cuts[1:])))

    r, p, q, svals = projection
    del projection   # the callers keep no reference, so q goes after the first step
    cost = float(r @ r)
    log = {"iterations": 0, "candidates": 0, "initial_residual": math.sqrt(cost),
           "noise_sigma": sigma}
    floor = (1e-13 * float(np.linalg.norm(values))) ** 2
    stop = "cap"
    for it in range(MAX_REFINE_ITERATIONS):
        w = np.stack([phase @ p.reshape(n_pieces, -1).T for phase in phases])
        cols = _jacobian(theta[0], lams, theta[1:], t, w)
        jac = cols - q @ (q.T @ cols)
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        predicted = jac @ step
        gain = float(predicted @ predicted)
        del q, cols, jac, predicted   # only one q at a time: the candidates build theirs
        scale = 1.0
        for _ in range(12):
            if scale * (2.0 - scale) * gain < sigma * sigma:
                stop = "noise-floor"
                break
            cand = theta + scale * step
            if feasible(cand):
                log["candidates"] += 1
                got = _project(relaxation_design(cand[0], lams, list(cand[1:]) + [math.inf], t),
                               phases, y)
                if float(got[0] @ got[0]) <= cost:
                    break
                del got
            scale *= 0.5
        else:
            # a rejected step is a fixed point: the loop would repeat it
            if it + 9 < MAX_REFINE_ITERATIONS:
                log["warning"] = "divergence: 10 consecutive rejected steps"
            stop = "no-decrease"
        if stop != "cap":
            break
        r, p, q, svals, _ = got
        cc = float(r @ r)
        rel_change = (cost - cc) / max(cost, 1e-300)
        theta, cost = cand, cc
        log["iterations"] = it + 1
        if rel_change < REFINE_TOL or cost <= floor:
            stop = "converged"
            break
    log["final_residual"] = math.sqrt(cost)
    log["stop"] = stop
    log["sigma_ratio"] = _sigma_ratio(svals)
    return theta, (r, p), log


def _staged_result(problem, alpha: float, cuts: list, stage_log: list):
    """The _project result (r, p, q, svals) at the staged alpha and cuts,
    where refine_joint starts. Raises ConditioningError when the relaxation
    design is numerically rank-deficient. Appends staged_coefficients to
    stage_log: each sensor's relative residual and the design's sigma_ratio."""
    t, values, lams, phases = problem
    r, p, q, op_svals, rd = _project(relaxation_design(alpha, lams, cuts + [math.inf], t),
                                     phases, -values.ravel())
    svals = np.linalg.svd(rd.reshape(len(rd), -1), compute_uv=False)  # D's
    if svals[0] > 0 and svals[-1] ** 2 < 1e-14 * svals[0] ** 2:
        raise ConditioningError(
            "design matrix rank-deficient; closest eigenvalue window "
            f"around lambda = {lams[-1]:.4f}")
    residuals = [float(np.linalg.norm(rl)) / (float(np.linalg.norm(v)) or 1.0)
                 for rl, v in zip(np.split(r, len(values)), values)]
    stage_log.append(("staged_coefficients", {"relative_residuals": residuals,
                                              "sigma_ratio": _sigma_ratio(svals)}))
    return r, p, q, op_svals


def reconstruct(traces, spectrum: SpectrumTable, changepoint_min_gap: float
                ) -> ReconstructionResult:
    """Full pipeline on one two-sensor problem: onset, order, change points
    and the staged coefficients, then the joint fit refine_joint from them.
    The noise scale _pre_onset_sigma is taken right after the onset, so the
    order stage's polish and the joint fit share one noise-floor stop.
    changepoint_min_gap is the paper's eta, at most the true minimum gap
    between cuts. Before any stage runs it must be finite, > 0 and at most
    the record length t[-1] (clause inversion-config), the traces must
    share one grid (ShapeError), that grid must be uniform (clause
    trace-grid), and its step must be at most a tenth of the gap (clause
    changepoint-grid).
    When eta >= (t_max - c0_hat) / 2 no interior cut fits, and the
    detect_change_points entry of the stage log carries a note saying so.
    The result's residuals (model flux minus trace, per sensor) and its
    residual_norm, ||r|| / ||y||, are those of the final projection."""
    if len(traces) != 2:
        raise ValidationError("exactly two sensor traces required",
                              clause="sensor-count")
    check_changepoint_min_gap(changepoint_min_gap, float(traces[0].times[-1]))
    condition_report = check_sensor_geometry(
        spectrum, traces[0].sensor_angle - traces[1].sensor_angle)
    problem = _two_sensor_problem(traces, spectrum)
    t, values, lams, _ = problem
    h = float(t[1] - t[0])
    if h > changepoint_min_gap / 10.0 + 1e-15:
        raise ValidationError(
            f"grid step {h} too coarse for changepoint_min_gap={changepoint_min_gap}",
            clause="changepoint-grid")
    stage_log = []
    c0_hat = detect_onset(t, values)
    stage_log.append(("detect_onset", {"c0_hat": c0_hat}))
    sigma = _pre_onset_sigma(t, values, c0_hat)
    alpha_hat, diag = estimate_alpha(t, values, c0_hat, lams, changepoint_min_gap, sigma or 0.0)
    stage_log.append(("estimate_alpha", diag))
    interior = detect_change_points(t, values, c0_hat, changepoint_min_gap, sigma)
    note = ({"note": "no interior cut fits: changepoint_min_gap >= (t_max - c0_hat) / 2"}
            if changepoint_min_gap >= (t[-1] - c0_hat) / 2 else {})
    stage_log.append(("detect_change_points", {"cuts": list(interior), **note}))
    cuts = [c0_hat] + interior
    theta, (r, p), log = refine_joint(
        problem, np.array([alpha_hat] + cuts), _staged_result(problem, alpha_hat, cuts, stage_log),
        sigma or 0.0, changepoint_min_gap)
    stage_log.append(("refine_joint", log))
    return ReconstructionResult(
        alpha_hat=float(theta[0]),
        cuts_hat=[float(cut) for cut in theta[1:]],
        coeffs_hat=p.reshape(len(theta) - 1, -1) @ _dof_map(spectrum),
        residual_norm=log["final_residual"] / (float(np.linalg.norm(values)) or 1.0),
        stage_log=stage_log,
        condition_report=condition_report,
        residuals=[-rl for rl in np.split(r, len(traces))],
    )


def result_to_json(result: ReconstructionResult, spectrum: SpectrumTable,
                   traces=None) -> str:
    """The reconstruction.json document; traces, when given, are the file
    names of the input traces, recorded under "traces"."""
    coeff_rows = []
    for k, pc in enumerate(result.coeffs_hat):
        for i, mo in enumerate(spectrum.modes):
            coeff_rows.append({
                "m": mo.m, "k": mo.k, "lambda": mo.lam, "piece": k + 1,
                "re": float(pc[i].real), "im": float(pc[i].imag),
            })
    payload = {
        "alpha_hat": result.alpha_hat,
        "cuts_hat": [c for c in result.cuts_hat],
        "K_hat": result.K_hat,
        "coeffs": coeff_rows,
        "residual_norm": result.residual_norm,
        "condition_report": {str(k): v for k, v in result.condition_report.items()},
        "stage_log": result.stage_log,
    }
    if traces is not None:
        payload["traces"] = list(traces)
    return json.dumps(payload, indent=1)
