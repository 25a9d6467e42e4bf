"""Staged reconstruction of (alpha, cuts, mode coefficients, K) from
two-sensor boundary flux traces.

Stage order mirrors the identifiability structure: onset first, then the
order alpha from the leading window where only the first piece acts, then
interior change points from second-difference kinks, then the coefficients
by one least-squares solve of the two-sensor operator (_project: the
relaxation basis times each sensor's grouped amplitudes
b_{j,k,l} = sum_{lam_n=lam_j} a_n(z_l) p_{k,n}), then an optional joint
polish: variable-projection Gauss-Newton over alpha and the cuts, with the
coefficients eliminated by the same solve.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .disc_spectrum import (
    ModeCoefficients,
    SpectrumTable,
    boundary_coefficient,
    normalizer_sign,
)
from .errors import (
    ConditioningError,
    EmptySignalError,
    ShapeError,
    ValidationError,
)
from .forward_model import (
    check_sensor_geometry,
    relaxation_design,
    relaxation_flux,
    relaxation_rates,
)

__all__ = [
    "InversionConfig",
    "ReconstructionResult",
    "detect_onset",
    "estimate_alpha",
    "fit_log_slope",
    "detect_change_points",
    "refine_joint",
    "reconstruct",
    "result_to_json",
]


ONSET_THRESHOLD = 5.0            # noise-sigma multiplier of the onset threshold
ONSET_FLOOR = 1e-9               # absolute floor of the onset threshold
ALPHA_FIT_WINDOW = (20.0, 200.0)  # Laplace points of the order stage's slope fit
ALPHA_FIT_POINTS = 40
ALPHA_LEADING_DELTA = 0.2        # cap on the leading-window length
MAX_REFINE_ITERATIONS = 50
REFINE_TOL = 1e-10               # relative-decrease stop of refine_joint
MERGE_NORM_RATIO = 1e-3          # K-hat degenerate-piece pruning


@dataclass(frozen=True)
class InversionConfig:
    changepoint_min_gap: float = 0.1      # the paper's eta: <= the true minimum gap
    margin_min: float = 1e-3              # threshold of the sensor-geometry guard
    refine: bool = True                   # run the joint polish refine_joint

    def __post_init__(self):
        for name, hi in (("changepoint_min_gap", math.inf), ("margin_min", 1.0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 < value < hi):
                raise ValidationError(f"{name} must be a number in (0, {hi}), got {value!r}",
                                      clause="inversion-config")
        if not isinstance(self.refine, bool):
            raise ValidationError(f"refine must be true or false, got {self.refine!r}",
                                  clause="inversion-config")


@dataclass
class ReconstructionResult:
    alpha_hat: float
    cuts_hat: list
    coeffs_hat: list
    K_hat: int
    residual_norm: float
    stage_log: list = field(default_factory=list)
    condition_report: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.K_hat != len(self.coeffs_hat):
            raise ShapeError("K_hat must equal the number of coefficient sets")
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


def _pre_onset_sigma(traces, c0: float) -> float:
    """Noise scale from the samples of both sensors before the onset c0,
    where the model is exactly zero: the root mean square of those samples,
    or 0 with fewer than 16 of them per sensor. Noiseless synthesis writes
    exact zeros there, so its estimate is exactly 0."""
    t = _common_grid(traces)
    pre = t < c0 - 1e-12
    if np.count_nonzero(pre) < 16:
        return 0.0
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


def fit_log_slope(s: np.ndarray, magnitudes: np.ndarray):
    """Least-squares slope/intercept of log|F| against log s."""
    ls = np.log(np.asarray(s, dtype=float))
    lg = np.log(np.asarray(magnitudes, dtype=float))
    design = np.stack([ls, np.ones_like(ls)], axis=1)
    coef, *_ = np.linalg.lstsq(design, lg, rcond=None)
    resid = lg - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid ** 2)))


def _window_transform(t, y, c0, delta, s_points):
    """Laplace transform of the time-shifted leading window, piecewise-linear
    interpolant integrated exactly."""
    mask = (t >= c0 - 1e-12) & (t <= c0 + delta + 1e-12)
    tau = t[mask] - c0
    g = y[mask]
    t0, t1 = tau[:-1], tau[1:]
    g0, g1 = g[:-1], g[1:]
    h = t1 - t0
    slope = (g1 - g0) / h
    out = np.empty(len(s_points))
    for i, sv in enumerate(s_points):
        x = sv * h
        emx = np.exp(-x)
        f0 = (1 - emx) / sv
        f1 = (1 - (1 + x) * emx) / (sv * sv)
        out[i] = float(np.sum(np.exp(-sv * t0) * (g0 * f0 + slope * f1)))
    return out


def estimate_alpha(traces, c0_hat: float, cfg: InversionConfig,
                   spectrum: SpectrumTable):
    """Order estimate from the leading window t in [c0, c0 + delta], delta =
    min(changepoint_min_gap, ALPHA_LEADING_DELTA): a variable-projection fit
    of the relaxation basis {1 - E_{alpha,1}(-lambda_j tau^alpha)} on the
    window, golden-section searched within 0.025 of the best point of a 0.02
    grid over [0.52, 0.98]. The large-s fit log|G~(s)| ~ -(1+alpha) log s
    of the window's transform at ALPHA_FIT_POINTS points spaced geometrically
    over ALPHA_FIT_WINDOW gives the diagnostic alpha_slope, which does not
    enter the estimate. Returns (alpha_hat, diagnostics dict)."""
    t = _common_grid(traces)
    delta = min(cfg.changepoint_min_gap, ALPHA_LEADING_DELTA)
    s = np.geomspace(*ALPHA_FIT_WINDOW, ALPHA_FIT_POINTS)
    gv = np.zeros(len(s))
    for tr in traces:
        gv += _window_transform(t, -tr.values, c0_hat, delta, s)
    slope, _, resid = fit_log_slope(s, np.maximum(np.abs(gv), 1e-300))
    diag = {"slope": slope, "alpha_slope": float(np.clip(-slope - 1.0, 0.501, 0.999)),
            "slope_fit_rms": resid}
    if resid > 0.5:
        diag["warning"] = "ill-posed-fit: large residual in the log-log slope fit"

    lams = np.array([lam for lam, _ in spectrum.distinct_eigenvalues])
    mask = (t >= c0_hat - 1e-12) & (t <= c0_hat + delta + 1e-12)
    window = t[mask]
    targets = [-tr.values[mask] for tr in traces]

    def vp_residual(alpha):
        # one piece [c0_hat, inf): columns 1 - E_{alpha,1}(-lam_j tau^alpha)
        design = relaxation_design(alpha, lams, [c0_hat, math.inf], window)[:, :, 0]
        total = 0.0
        for y in targets:
            w, *_ = np.linalg.lstsq(design, y, rcond=None)
            r = y - design @ w
            total += float(r @ r)
        return total

    vals = {a: vp_residual(a) for a in np.arange(0.52, 0.995, 0.02)}
    best = min(vals, key=vals.get)
    lo_b = max(0.5005, best - 0.025)
    hi_b = min(0.9995, best + 0.025)
    alpha_hat = _brent_min(vp_residual, lo_b, hi_b)
    diag["vp_residual"] = vp_residual(alpha_hat)
    diag["alpha_vp"] = alpha_hat
    return float(np.clip(alpha_hat, 0.5005, 0.9995)), diag


def _brent_min(f, lo, hi):
    """Golden-section minimization on [lo, hi], to a bracket of 1e-8."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def detect_change_points(traces, c0_hat: float, cfg: InversionConfig):
    """Interior cut candidates from local maxima of the second difference of
    the summed two-sensor flux; lag-smoothed when noise demands it, pruned to
    changepoint_min_gap keeping the larger magnitude."""
    t = _common_grid(traces)
    h = float(t[1] - t[0])
    if h > cfg.changepoint_min_gap / 10.0 + 1e-15:
        raise ValidationError(
            f"grid step {h} too coarse for changepoint_min_gap="
            f"{cfg.changepoint_min_gap}", clause="changepoint-grid")
    summed = np.zeros(len(t))
    for tr in traces:
        summed += tr.values
    scale = float(np.max(np.abs(summed))) or 1.0
    # noise level from the pre-onset segment (identically zero for noiseless
    # synthesis); first-difference MAD as the fallback for early onsets
    pre = summed[t < c0_hat - 1e-12]
    if len(pre) >= 16:
        sigma = float(np.std(pre))
    else:
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


def _dof_map(spectrum: SpectrumTable):
    """(C, G) of the real parametrization of one conjugate-symmetric
    coefficient set: dof i is the coefficient of an m = 0 mode i, and a
    +-m pair (i, i + 1) has dofs (Re p, Im p) of its +m coefficient p.
    C (dofs x modes) is complex, and a piece's coefficients are its dof
    row times C. G (eigenvalues x modes) is the group incidence signed by
    each mode's normalizer sign, so Re((G a(z)) C^T), with a(z) the
    boundary coefficients, maps the dofs of a piece to its grouped
    amplitudes b_j = sum s_n a_n(z) p_n at z, which are real."""
    groups = spectrum.distinct_eigenvalues
    c = np.zeros((len(spectrum), len(spectrum)), dtype=complex)
    g = np.zeros((len(groups), len(spectrum)))
    for j, (_, idx) in enumerate(groups):
        g[j, idx] = [normalizer_sign(spectrum.modes[i]) for i in idx]
        c[idx[0], idx] = 1.0
        if len(idx) == 2:
            c[idx[1], idx] = (1j, -1j)
    return c, g


def _phases(spectrum: SpectrumTable, dof_map, angles) -> list:
    """One phase matrix Re((G a(z)) C^T) per sensor angle."""
    c, g = dof_map
    return [((g * [boundary_coefficient(mo, theta) for mo in spectrum.modes])
             @ c.T).real for theta in angles]


def _two_sensor_problem(traces, spectrum: SpectrumTable):
    """(t, lams, C, phases, y) of the least-squares problem of _project:
    the common grid, the distinct eigenvalues, C of the dof map, one phase
    matrix per sensor and the stacked negated traces."""
    c, g = _dof_map(spectrum)
    return (_common_grid(traces),
            np.array([lam for lam, _ in spectrum.distinct_eigenvalues]), c,
            _phases(spectrum, (c, g), [tr.sensor_angle for tr in traces]),
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


def _cut_jacobian(alpha: float, lams: np.ndarray, cuts, t: np.ndarray,
                  w: np.ndarray):
    """d(op @ p)/dc_k for the sensor stack of _project, one column per cut,
    from one relaxation_rates call; w[l, j, k] = (phase_l @ p_k)_j is the
    weight of design column (j, k) at sensor l.

    dA_{j,c}/dc = lam_j (t-c)^(alpha-1) E_{alpha,alpha}(-lam_j (t-c)^alpha) for
    t > c and 0 for t <= c, where A_{j,c} = 1. Design column (j, k) is
    A_{j,c_{k+1}} - A_{j,c_k}, so c_k enters column (j, k) with sign - and
    column (j, k-1) with sign +."""
    n_pieces = len(cuts)
    deriv = relaxation_rates(alpha, lams, cuts, t)
    jump = -w
    jump[:, :, 1:] += w[:, :, :-1]
    return np.einsum("tjk,ljk->ltk", deriv, jump).reshape(-1, n_pieces)


def refine_joint(initial: ReconstructionResult, traces, spectrum: SpectrumTable,
                 cfg: InversionConfig, start=None) -> ReconstructionResult:
    """Variable-projection Gauss-Newton on theta = (alpha, cuts), minimizing
    the stacked two-sensor time-domain residual; never increases the
    residual of the staged start.

    The coefficients are eliminated (Golub and Pereyra, 1973): for each theta
    the relaxation basis D is built once and the real coefficient vector is
    the least-squares solution for the two-sensor operator, through one QR
    of D and one of a small stacked matrix (_project, which also gives the
    staged coefficients). The Jacobian is Kaufman's
    (1975), J = (I - QQ^T) [d(op p)/d alpha, d(op p)/dc_k]: the alpha column
    is a central difference of D at fixed p, the cut columns are
    closed-form (_cut_jacobian). Each step is line-searched over twelve
    halvings; a step with no decrease leaves theta unchanged, so the loop
    stops there.

    The loop also stops at the noise floor, before the line search, when
    the Gauss-Newton predicted decrease ||J step||^2 of the squared residual
    is below sigma^2, less than one unit of chi^2: further steps would fit
    the noise (on noisy data they chase the cusp that every cut has at each
    grid point). sigma is _pre_onset_sigma, the root mean square of both
    sensors' samples before the first cut, where the model is exactly zero;
    it is 0 on noiseless data and with fewer than 16 such samples, and the
    rule is then off.

    start, when given, is the _project result (r, p, q, svals) at the
    staged alpha and cuts, which reconstruct has from _staged_result;
    without it refine_joint projects there itself.

    The log entry holds initial_residual (the projected residual at the
    staged alpha and cuts), noise_sigma (sigma above), final_residual,
    iterations (accepted steps), sigma_ratio (smallest over largest singular value of
    the final op) and stop: "converged" (relative decrease below
    REFINE_TOL = 1e-10, or residual at the 1e-13 * ||y|| floor), "noise-floor"
    (predicted decrease below sigma^2), "no-decrease" (no line-search
    candidate lowered the residual) or "cap" (MAX_REFINE_ITERATIONS = 50
    accepted steps). A no-decrease stop with ten iterations still to go also
    writes the warning "divergence: 10 consecutive rejected steps"; it
    means the line search found no decrease, not that the iterates
    diverged.
    """
    t, lams, c, phases, y = _two_sensor_problem(traces, spectrum)
    n_pieces = initial.K_hat

    def design(alpha, cuts):
        return relaxation_design(alpha, lams, list(cuts) + [math.inf], t)

    def feasible(theta):
        alpha, cuts = theta[0], theta[1:]
        return (0.5 < alpha < 1.0 and cuts[0] >= 0 and cuts[-1] <= t[-1]
                and all(b - a >= cfg.changepoint_min_gap / 4
                        for a, b in zip(cuts[:-1], cuts[1:])))

    def project(theta):
        """_project at theta; None outside the feasible region."""
        if not feasible(theta):
            return None
        return _project(design(theta[0], theta[1:]), phases, y)

    theta = np.concatenate([[initial.alpha_hat], initial.cuts_hat])
    if not feasible(theta):
        raise ValidationError("initial refine point outside the feasible region",
                              clause="refine-start")
    r, p, q, svals = start or project(theta)[:4]
    cost = float(r @ r)
    sigma = _pre_onset_sigma(traces, theta[1])
    log = {"iterations": 0, "initial_residual": math.sqrt(cost),
           "noise_sigma": sigma}
    fd_step = 1e-5
    floor = (1e-13 * float(np.linalg.norm(y))) ** 2
    stop = "cap"
    for it in range(MAX_REFINE_ITERATIONS):
        cols = np.zeros((len(y), 1 + n_pieces))
        up, down = theta.copy(), theta.copy()
        up[0] += fd_step
        down[0] -= fd_step
        w = np.stack([phase @ p.reshape(n_pieces, -1).T for phase in phases])
        if feasible(up) and feasible(down):
            diff = design(up[0], up[1:]) - design(down[0], down[1:])
            cols[:, 0] = np.einsum("tjk,ljk->lt", diff, w).reshape(-1) / (2 * fd_step)
        cols[:, 1:] = _cut_jacobian(theta[0], lams, theta[1:], t, w)
        jac = cols - q @ (q.T @ cols)
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        predicted = jac @ step
        if float(predicted @ predicted) < sigma * sigma:
            stop = "noise-floor"
            break
        scale = 1.0
        for _ in range(12):
            cand = theta + scale * step
            got = project(cand)
            if got is not None and float(got[0] @ got[0]) <= cost:
                break
            scale *= 0.5
        else:
            # a rejected step is a fixed point: the loop would repeat it
            if it + 9 < MAX_REFINE_ITERATIONS:
                log["warning"] = "divergence: 10 consecutive rejected steps"
            stop = "no-decrease"
            break
        r, p, q, svals, _ = got
        cc = float(r @ r)
        rel_change = (cost - cc) / max(cost, 1e-300)
        theta, cost = cand, cc
        log["iterations"] = it + 1
        if rel_change < REFINE_TOL or cost <= floor:
            stop = "converged"
            break
    denom = float(np.linalg.norm(y)) or 1.0
    log["final_residual"] = math.sqrt(cost)
    log["stop"] = stop
    log["sigma_ratio"] = _sigma_ratio(svals)
    return ReconstructionResult(
        alpha_hat=float(theta[0]),
        cuts_hat=[float(c) for c in theta[1:]],
        coeffs_hat=[ModeCoefficients(values=v) for v in p.reshape(n_pieces, -1) @ c],
        K_hat=n_pieces,
        residual_norm=math.sqrt(cost) / denom,
        stage_log=initial.stage_log + [("refine_joint", log)],
        condition_report=initial.condition_report,
    )


def _staged_result(traces, spectrum, c0_hat, alpha_hat, interior, stage_log,
                   condition_report):
    """(result, projection): the coefficients at the staged alpha and cuts,
    after degenerate-piece pruning, and the _project result (r, p, q, svals)
    they come from, which is where refine_joint starts. condition_report is
    that of check_sensor_geometry."""
    t, lams, c, phases, y = _two_sensor_problem(traces, spectrum)

    def solve(cuts):
        """(coefficient rows of the pieces, diagnostics, projection) at
        alpha_hat, cuts."""
        design = relaxation_design(alpha_hat, lams, cuts + [math.inf], t)
        r, p, q, op_svals, rd = _project(design, phases, y)
        svals = np.linalg.svd(rd.reshape(len(rd), -1), compute_uv=False)  # D's
        if svals[0] > 0 and svals[-1] ** 2 < 1e-14 * svals[0] ** 2:
            raise ConditioningError(
                "design matrix rank-deficient; closest eigenvalue window "
                f"around lambda = {lams[-1]:.4f}")
        residuals = [float(np.linalg.norm(rl)) / (float(np.linalg.norm(yl)) or 1.0)
                     for rl, yl in zip(np.split(r, len(traces)), np.split(y, len(traces)))]
        diag = {"relative_residuals": residuals, "sigma_ratio": _sigma_ratio(svals)}
        return p.reshape(len(cuts), -1) @ c, diag, (r, p, q, op_svals)

    cuts_hat = [c0_hat] + list(interior)
    values, diag, projection = solve(cuts_hat)
    # degenerate-piece pruning: a vanishing piece norm or a vanishing jump
    # between neighbors means the change point was spurious
    tol = MERGE_NORM_RATIO * float(np.max(np.linalg.norm(values, axis=1)))
    drop = 1 + np.flatnonzero((np.linalg.norm(values[1:], axis=1) <= tol)
                              | (np.linalg.norm(np.diff(values, axis=0), axis=1) <= tol))
    if len(drop):
        stage_log.append(("merge_pieces", {"dropped_cuts": drop.tolist()}))
        cuts_hat = [cut for k, cut in enumerate(cuts_hat) if k not in drop]
        values, diag, projection = solve(cuts_hat)
    stage_log.append(("staged_coefficients", diag))
    coeffs = [ModeCoefficients(values=v) for v in values]
    return ReconstructionResult(
        alpha_hat=alpha_hat,
        cuts_hat=cuts_hat,
        coeffs_hat=coeffs,
        K_hat=len(coeffs),
        residual_norm=max(diag["relative_residuals"]),
        stage_log=stage_log,
        condition_report=condition_report,
    ), projection


def reconstruct(traces, spectrum: SpectrumTable, cfg: InversionConfig | None = None
                ) -> ReconstructionResult:
    """Full staged pipeline: onset, order, change points, coefficients,
    then the optional joint polish."""
    cfg = cfg or InversionConfig()
    if len(traces) != 2:
        raise ValidationError("exactly two sensor traces required",
                              clause="sensor-count")
    condition_report = check_sensor_geometry(
        spectrum, traces[0].sensor_angle - traces[1].sensor_angle, cfg.margin_min)
    stage_log = []
    c0_hat = detect_onset(traces)
    stage_log.append(("detect_onset", {"c0_hat": c0_hat}))
    alpha_hat, diag = estimate_alpha(traces, c0_hat, cfg, spectrum)
    stage_log.append(("estimate_alpha", diag))
    interior = detect_change_points(traces, c0_hat, cfg)
    stage_log.append(("detect_change_points", {"cuts": list(interior)}))
    result, projection = _staged_result(traces, spectrum, c0_hat, alpha_hat,
                                        interior, stage_log, condition_report)
    if cfg.refine:
        result = refine_joint(result, traces, spectrum, cfg, projection)
    return result


def predicted_flux(result: ReconstructionResult, spectrum: SpectrumTable,
                   times: np.ndarray, sensor_angles) -> list:
    """Flux traces implied by a reconstruction, one array per sensor angle,
    by the same grouped-amplitude sum that synthesizes traces."""
    bounds = list(result.cuts_hat) + [math.inf]
    fluxes = relaxation_flux(result.alpha_hat, bounds, result.coeffs_hat, spectrum,
                             sensor_angles, times)
    return [f.real for f in fluxes]


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
        "stage_log": [[name, _jsonable(d)] for name, d in result.stage_log],
    }
    if traces is not None:
        payload["traces"] = list(traces)
    return json.dumps(payload, indent=1)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
