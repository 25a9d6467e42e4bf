"""Staged reconstruction of (alpha, cuts, mode coefficients, K) from
two-sensor boundary flux traces.

Stage order mirrors the identifiability structure: onset first, then the
order alpha from the leading window where only the first piece acts, then
interior change points from second-difference kinks, then the coefficients
by one least-squares solve of the two-sensor operator (_project: the
relaxation basis times each sensor's grouped amplitudes
b_{j,k,l} = sum_{lam_n=lam_j} s_n a_n(z_l) p_{k,n}). These staged values are
where the estimator starts: the joint fit refine_joint, variable-projection
Gauss-Newton over alpha and the cuts, with the coefficients eliminated by
the same solve.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .disc_spectrum import ModeCoefficients, SpectrumTable
from .errors import (
    ConditioningError,
    EmptySignalError,
    ShapeError,
    ValidationError,
)
from .forward_model import (
    _grouped,
    check_sensor_geometry,
    relaxation_derivatives,
    relaxation_design,
)

__all__ = [
    "InversionConfig",
    "ReconstructionResult",
    "detect_onset",
    "estimate_alpha",
    "detect_change_points",
    "refine_joint",
    "reconstruct",
    "result_to_json",
]


ONSET_THRESHOLD = 5.0            # noise-sigma multiplier of the onset threshold
ONSET_FLOOR = 1e-9               # absolute floor of the onset threshold
ALPHA_LEADING_DELTA = 0.2        # cap on the leading-window length
MAX_REFINE_ITERATIONS = 50
REFINE_TOL = 1e-10               # relative-decrease stop of refine_joint


@dataclass(frozen=True)
class InversionConfig:
    # the paper's eta: <= the true minimum gap; load_config checks its range
    changepoint_min_gap: float = 0.1


@dataclass
class ReconstructionResult:
    alpha_hat: float
    cuts_hat: list
    coeffs_hat: list
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


def _common_grid(traces) -> np.ndarray:
    t = traces[0].times
    for tr in traces[1:]:
        if len(tr.times) != len(t) or not np.allclose(tr.times, t, rtol=0, atol=1e-12):
            raise ShapeError("traces must share a common time grid")
    return t


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


def _pre_onset_sigma(traces, c0: float) -> float | None:
    """Noise scale from the samples of both sensors before the onset c0,
    where the model is exactly zero: the root mean square of those samples,
    or None (no estimate) with fewer than 16 of them per sensor. Noiseless
    synthesis writes exact zeros there, so its estimate is exactly 0."""
    t = _common_grid(traces)
    pre = t < c0 - 1e-12
    if np.count_nonzero(pre) < 16:
        return None
    samples = np.concatenate([tr.values[pre] for tr in traces])
    return math.sqrt(float(samples @ samples) / len(samples))


def detect_onset(traces) -> float:
    """First grid time where either |flux| exceeds max(ONSET_THRESHOLD *
    _noise_sigma, ONSET_FLOOR), minus one grid step, clamped at 0."""
    t = _common_grid(traces)
    h = float(t[1] - t[0])
    crossing = None
    for tr in traces:
        sigma = _noise_sigma(tr.values)
        thresh = max(ONSET_THRESHOLD * sigma, ONSET_FLOOR)
        idx = np.flatnonzero(np.abs(tr.values) > thresh)
        if len(idx):
            tc = t[idx[0]]
            crossing = tc if crossing is None else min(crossing, tc)
    if crossing is None:
        raise EmptySignalError("no sample exceeds the onset threshold")
    return max(float(crossing) - h, 0.0)


def estimate_alpha(traces, c0_hat: float, cfg: InversionConfig,
                   spectrum: SpectrumTable):
    """Order estimate from the leading window t in [c0, c0 + delta], delta =
    min(changepoint_min_gap, ALPHA_LEADING_DELTA): a variable-projection fit
    of the relaxation basis {1 - E_{alpha,1}(-lambda_j tau^alpha)} on the
    window, minimized by Brent's method (_brent_min) within 0.025 of the best
    point of a 0.02 grid over [0.52, 0.98]. Returns (alpha_hat, diagnostics
    dict): the diagnostics hold alpha_vp, the best point that the search
    evaluated, and its vp_residual, the number of evaluations (window
    builds, the grid's included), the grid's profile as [alpha, vp_residual]
    pairs, and its local minima, the grid alphas whose residual is strictly
    below the left neighbour's and not above the right one's; a grid end
    compares with its one neighbour by the same rule."""
    t = _common_grid(traces)
    delta = min(cfg.changepoint_min_gap, ALPHA_LEADING_DELTA)
    lams = np.array([lam for lam, _ in spectrum.distinct_eigenvalues])
    mask = (t >= c0_hat - 1e-12) & (t <= c0_hat + delta + 1e-12)
    window = t[mask]
    targets = [-tr.values[mask] for tr in traces]
    evaluations = 0

    def vp_residual(alpha):
        # one piece [c0_hat, inf): columns 1 - E_{alpha,1}(-lam_j tau^alpha)
        nonlocal evaluations
        evaluations += 1
        design = relaxation_design(alpha, lams, [c0_hat, math.inf], window)[:, :, 0]
        total = 0.0
        for y in targets:
            w, *_ = np.linalg.lstsq(design, y, rcond=None)
            r = y - design @ w
            total += float(r @ r)
        return total

    profile = [(float(a), vp_residual(a)) for a in np.arange(0.52, 0.995, 0.02)]
    best = min(profile, key=lambda pair: pair[1])[0]
    alpha_hat, residual = _brent_min(vp_residual, max(0.5005, best - 0.025),
                                     min(0.9995, best + 0.025))
    padded = [(None, math.inf), *profile, (None, math.inf)]
    diag = {"vp_residual": residual, "alpha_vp": alpha_hat, "evaluations": evaluations,
            "minima": [a for (_, left), (a, v), (_, right)
                       in zip(padded, padded[1:], padded[2:]) if left > v <= right],
            "profile": profile}
    return float(np.clip(alpha_hat, 0.5005, 0.9995)), diag


def _brent_min(f, lo, hi, tol=1e-8):
    """Brent's minimization on [lo, hi] (Algorithms for Minimization without
    Derivatives, 1973, ch. 5): parabolic steps through the three best points,
    golden-section steps when a parabola is not trusted, and no two
    evaluations closer than the absolute tolerance tol. Stops when the
    bracket lies within 2 tol of its best point x on both sides, so a
    unimodal f has its minimum within 2 tol of x. Returns (x, f(x)), the
    best point evaluated."""
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        p = q = 0.0
        if abs(e) > tol:   # the parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q   # its minimum is inside the bracket, and the step halves
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x <= m else -tol
        else:
            e = (a if x >= m else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def detect_change_points(traces, c0_hat: float, cfg: InversionConfig):
    """Interior cut candidates from local maxima of the second difference of
    the summed two-sensor flux; lag-smoothed when the noise estimate
    (_pre_onset_sigma, else _noise_sigma of the sum) is above 1e-9 of the
    sum's peak, pruned to changepoint_min_gap keeping the larger magnitude.
    reconstruct has checked that the grid step is at most a tenth of
    changepoint_min_gap."""
    t = _common_grid(traces)
    h = float(t[1] - t[0])
    summed = np.zeros(len(t))
    for tr in traces:
        summed += tr.values
    scale = float(np.max(np.abs(summed))) or 1.0
    sigma = _pre_onset_sigma(traces, c0_hat)
    if sigma is None:  # an early onset
        sigma = _noise_sigma(summed)
    if sigma > 1e-9 * scale:
        lag = int(np.clip(round(0.1 * cfg.changepoint_min_gap / h), 1, 80))
    else:
        lag = 1
    if lag > 1:
        kernel = np.ones(lag) / lag
        work = np.convolve(summed, kernel, mode="same")
    else:
        work = summed
    d2 = np.abs(work[:-2 * lag] - 2.0 * work[lag:-lag] + work[2 * lag:])
    centers = t[lag:-lag]
    mad = 1.4826 * float(_median(np.abs(d2 - _median(d2))))
    thresh = max(8.0 * mad, 1e-4 * float(np.max(d2)))
    cands = []
    for i in range(1, len(d2) - 1):
        if d2[i] >= thresh and d2[i] >= d2[i - 1] and d2[i] >= d2[i + 1]:
            cands.append((float(d2[i]), float(centers[i])))
    cands.sort(key=lambda p: -p[0])
    kept = []
    for _, tc in cands:
        if tc <= c0_hat + cfg.changepoint_min_gap - 1e-9:
            continue
        if tc >= t[-1] - cfg.changepoint_min_gap:
            continue
        if all(abs(tc - k) >= cfg.changepoint_min_gap for k in kept):
            kept.append(tc)
    return sorted(kept)


def _sigma_ratio(svals: np.ndarray) -> float:
    """Smallest over largest singular value; 0 for a zero matrix."""
    return float(svals[-1] / svals[0]) if svals[0] > 0 else 0.0


def _dof_map(spectrum: SpectrumTable) -> np.ndarray:
    """C of the real parametrization of one conjugate-symmetric coefficient
    set: dof i is the coefficient of an m = 0 mode i, and a +-m pair
    (i, i + 1) has dofs (Re p, Im p) of its +m coefficient p. C (dofs x
    modes) is complex, and a piece's coefficients are its dof row times C."""
    c = np.zeros((len(spectrum), len(spectrum)), dtype=complex)
    for _, idx in spectrum.distinct_eigenvalues:
        c[idx[0], idx] = 1.0
        if len(idx) == 2:
            c[idx[1], idx] = (1j, -1j)
    return c


def _phases(spectrum: SpectrumTable, c: np.ndarray, angles) -> list:
    """One phase matrix per sensor angle: _grouped of the rows of C (real),
    which maps the dofs of a piece to its grouped amplitudes."""
    return [_grouped(spectrum, c, theta).real for theta in angles]


def _two_sensor_problem(traces, spectrum: SpectrumTable):
    """(t, lams, C, phases, y) of the least-squares problem of _project:
    the common grid, the distinct eigenvalues, C of the dof map, one phase
    matrix per sensor and the stacked negated traces."""
    c = _dof_map(spectrum)
    return (_common_grid(traces),
            np.array([lam for lam, _ in spectrum.distinct_eigenvalues]), c,
            _phases(spectrum, c, [tr.sensor_angle for tr in traces]),
            np.concatenate([-tr.values for tr in traces]))


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
    the stacked two-sensor time-domain residual of problem (the tuple of
    _two_sensor_problem); never increases the residual of the start.
    Returns (theta, projection, log).

    The coefficients are eliminated (Golub and Pereyra, 1973): for each theta
    the relaxation basis D is built once and the real coefficient vector is
    the least-squares solution for the two-sensor operator, through one QR
    of D and one of a small stacked matrix (_project, which also gives the
    staged coefficients). projection is the _project result (r, p, q, svals)
    at theta, in and out; reconstruct starts from that of _staged_result.
    The Jacobian is Kaufman's (1975),
    J = (I - QQ^T) [d(op p)/d alpha, d(op p)/dc_k], every column exact and
    from one pass over the relaxation basis (_jacobian). Each step is
    line-searched over twelve halvings within the feasible region: alpha in
    (1/2, 1), cuts in [0, t_max] at least min_gap / 4 apart, which holds at
    the staged start. A step with no decrease leaves theta unchanged, so the
    loop stops there.

    The loop also stops at the noise floor: a candidate at scale s of the
    step is evaluated only while the Gauss-Newton predicted decrease
    s (2 - s) ||J step||^2 of the squared residual is at least sigma^2, one
    unit of chi^2; below it further steps would fit the noise (on noisy
    data they chase the cusp that every cut has at each grid point).
    reconstruct passes _pre_onset_sigma, the root mean square of both
    sensors' samples before the first cut, where the model is exactly zero,
    or 0 without an estimate; at 0 (noiseless data) the rule is off.

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
    t, lams, _, phases, y = problem
    n_pieces = len(theta) - 1

    def feasible(theta):
        alpha, cuts = theta[0], theta[1:]
        return (0.5 < alpha < 1.0 and cuts[0] >= 0 and cuts[-1] <= t[-1]
                and all(b - a >= min_gap / 4 for a, b in zip(cuts[:-1], cuts[1:])))

    r, p, q, svals = projection
    cost = float(r @ r)
    log = {"iterations": 0, "candidates": 0, "initial_residual": math.sqrt(cost),
           "noise_sigma": sigma}
    floor = (1e-13 * float(np.linalg.norm(y))) ** 2
    stop = "cap"
    for it in range(MAX_REFINE_ITERATIONS):
        w = np.stack([phase @ p.reshape(n_pieces, -1).T for phase in phases])
        cols = _jacobian(theta[0], lams, theta[1:], t, w)
        jac = cols - q @ (q.T @ cols)
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        predicted = jac @ step
        gain = float(predicted @ predicted)
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
    return theta, (r, p, q, svals), log


def _staged_result(problem, alpha: float, cuts: list, stage_log: list):
    """The _project result (r, p, q, svals) at the staged alpha and cuts,
    where refine_joint starts. Raises ConditioningError when the relaxation
    design is numerically rank-deficient. Appends staged_coefficients to
    stage_log: each sensor's relative residual and the design's sigma_ratio."""
    t, lams, _, phases, y = problem
    r, p, q, op_svals, rd = _project(relaxation_design(alpha, lams, cuts + [math.inf], t),
                                     phases, y)
    svals = np.linalg.svd(rd.reshape(len(rd), -1), compute_uv=False)  # D's
    if svals[0] > 0 and svals[-1] ** 2 < 1e-14 * svals[0] ** 2:
        raise ConditioningError(
            "design matrix rank-deficient; closest eigenvalue window "
            f"around lambda = {lams[-1]:.4f}")
    residuals = [float(np.linalg.norm(rl)) / (float(np.linalg.norm(yl)) or 1.0)
                 for rl, yl in zip(np.split(r, len(phases)), np.split(y, len(phases)))]
    stage_log.append(("staged_coefficients", {"relative_residuals": residuals,
                                              "sigma_ratio": _sigma_ratio(svals)}))
    return r, p, q, op_svals


def reconstruct(traces, spectrum: SpectrumTable, cfg: InversionConfig | None = None
                ) -> ReconstructionResult:
    """Full pipeline on one two-sensor problem: onset, order, change points
    and the staged coefficients, then the joint fit refine_joint from them.
    The grid step must be at most a tenth of changepoint_min_gap (clause
    changepoint-grid), checked before any stage runs. The result's
    residuals (model flux minus trace, per sensor) and its residual_norm,
    ||r|| / ||y||, are those of the final projection."""
    cfg = cfg or InversionConfig()
    if len(traces) != 2:
        raise ValidationError("exactly two sensor traces required",
                              clause="sensor-count")
    condition_report = check_sensor_geometry(
        spectrum, traces[0].sensor_angle - traces[1].sensor_angle)
    t = _common_grid(traces)
    h = float(t[1] - t[0])
    if h > cfg.changepoint_min_gap / 10.0 + 1e-15:
        raise ValidationError(
            f"grid step {h} too coarse for changepoint_min_gap="
            f"{cfg.changepoint_min_gap}", clause="changepoint-grid")
    stage_log = []
    c0_hat = detect_onset(traces)
    stage_log.append(("detect_onset", {"c0_hat": c0_hat}))
    alpha_hat, diag = estimate_alpha(traces, c0_hat, cfg, spectrum)
    stage_log.append(("estimate_alpha", diag))
    interior = detect_change_points(traces, c0_hat, cfg)
    stage_log.append(("detect_change_points", {"cuts": list(interior)}))
    problem = _two_sensor_problem(traces, spectrum)
    _, _, c, _, y = problem
    cuts = [c0_hat] + interior
    projection = _staged_result(problem, alpha_hat, cuts, stage_log)
    theta, projection, log = refine_joint(
        problem, np.array([alpha_hat] + cuts), projection,
        _pre_onset_sigma(traces, c0_hat) or 0.0, cfg.changepoint_min_gap)
    stage_log.append(("refine_joint", log))
    n_pieces = len(theta) - 1
    return ReconstructionResult(
        alpha_hat=float(theta[0]),
        cuts_hat=[float(cut) for cut in theta[1:]],
        coeffs_hat=[ModeCoefficients(values=v)
                    for v in projection[1].reshape(n_pieces, -1) @ c],
        residual_norm=log["final_residual"] / (float(np.linalg.norm(y)) or 1.0),
        stage_log=stage_log,
        condition_report=condition_report,
        residuals=[-rl for rl in np.split(projection[0], len(traces))],
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
                "re": float(pc.values[i].real), "im": float(pc.values[i].imag),
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
