"""Closed-form spectral solution for piecewise-constant-in-time sources and
boundary-flux synthesis.

Each eigenmode obeys a fractional relaxation ODE whose Duhamel integral has
the exact antiderivative (1/lambda)(1 - E_{alpha,1}(-lambda t^alpha)), so the
mode amplitude under a source that is constant on [c_{k-1}, c_k) is a finite
difference of Mittag-Leffler relaxation profiles. The boundary flux weights
each mode by -lambda_n s_n a_n(z) (disc_spectrum.sensor_weights, their one
definition), so it is a sum of these differences, one per (distinct
eigenvalue, piece), weighted by the grouped amplitudes (_grouped).

relaxation_design builds that relaxation basis, relaxation_rates its
derivatives in the cuts, and relaxation_derivatives those and its
derivatives in alpha in one pass (refinement's Jacobian). All write each
profile as an exponential sum (E_{alpha,1}(-lambda t^alpha) is completely
monotone) on one node lattice that does not depend on alpha, so on a uniform
grid every build is a product with cached shift tables. Only
relaxation_design builds the basis: synthesis (flux_traces), the order
search, the amplitude solve and refinement all use it. E_{alpha,alpha} is
read from relaxation_rates at cut 0 by verify_measurement_identity, on the
shift tables of its own flux_trace.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .disc_spectrum import SpectrumTable, sensor_weights
from .errors import SensorGeometryError, ShapeError, ValidationError
from .specfun import fractional_integral

__all__ = [
    "SourceModel",
    "SensorConfig",
    "FluxTrace",
    "check_sensor_geometry",
    "flux_trace",
    "flux_traces",
    "relaxation_design",
    "relaxation_rates",
    "relaxation_derivatives",
    "relaxation_flux",
    "verify_measurement_identity",
    "grouped_amplitudes",
]

# threshold of the sensor-geometry guard on min |sin(|m| delta_theta)|
MARGIN_MIN = 1e-3


@dataclass(frozen=True)
class SourceModel:
    """The unknown tuple (alpha, {c_k}, {p_{k,n}}) in mode coordinates.

    cuts has K+1 entries c_0 < ... < c_K with c_K = inf allowed; piece k
    (1-based in the math, 0-based here) is active on [c_{k-1}, c_k).
    """

    alpha: float
    cuts: tuple
    piece_coeffs: tuple
    spectrum: SpectrumTable

    def __post_init__(self):
        if not 0.5 < self.alpha < 1.0:
            raise ValidationError(
                f"alpha={self.alpha} outside (1/2, 1)", clause="condition-alpha")
        cuts = tuple(float(c) for c in self.cuts)
        if len(cuts) < 2:
            raise ValidationError("need at least c_0 and c_1", clause="assumption-1a")
        if cuts[0] < 0:
            raise ValidationError("c_0 must be >= 0", clause="assumption-1a")
        if any(not np.isfinite(c) for c in cuts[:-1]):
            raise ValidationError("only the last cut may be infinite",
                                  clause="assumption-1a")
        gaps = np.diff([c for c in cuts if np.isfinite(c)])
        if np.any(gaps <= 0) or (np.isfinite(cuts[-1]) and cuts[-1] <= cuts[-2]):
            raise ValidationError("cuts must be strictly increasing",
                                  clause="assumption-1a")
        pieces = tuple(self.piece_coeffs)
        if len(pieces) != len(cuts) - 1:
            raise ShapeError("need exactly K coefficient sets for K+1 cuts")
        norms = []
        for pc in pieces:
            if len(pc) != len(self.spectrum):
                raise ShapeError("piece coefficients do not match the spectrum")
            norms.append(float(np.linalg.norm(pc.values)))
        if any(n == 0.0 for n in norms):
            raise ValidationError("every piece must have nonzero norm",
                                  clause="assumption-1c")
        for a, b in zip(pieces[:-1], pieces[1:]):
            if float(np.linalg.norm(a.values - b.values)) == 0.0:
                raise ValidationError("consecutive pieces must differ",
                                      clause="assumption-1c")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "piece_coeffs", pieces)

    @property
    def n_pieces(self) -> int:
        return len(self.piece_coeffs)

    def is_real_field(self, tol: float = 1e-10) -> bool:
        return all(pc.is_real_field(self.spectrum, tol) for pc in self.piece_coeffs)


def check_sensor_geometry(spectrum: SpectrumTable, delta_theta: float) -> dict:
    """The sensor-geometry guard of synthesis and inversion: the condition
    report {|m|: |2 sin(|m| delta_theta)|} over the represented |m| != 0, in
    the order of the modes. Each value is the modulus of the determinant
    2i sin(|m| delta_theta) of the two-sensor solve of a +-m pair, and half
    the smallest is the irrationality margin min |sin(|m| delta_theta)|.

    Raises SensorGeometryError naming the |m| of that margin when it is
    below MARGIN_MIN."""
    report = {mo.m: abs(2.0 * math.sin(mo.m * delta_theta))
              for mo in spectrum.modes if mo.m > 0}
    if report:
        m = min(report, key=report.get)
        if report[m] < 2.0 * MARGIN_MIN:
            raise SensorGeometryError(
                f"sensor margin |sin({m} * delta_theta)| = {report[m] / 2:.3g} "
                f"below {MARGIN_MIN} at |m| = {m}, delta_theta = {delta_theta}", m=m)
    return report


@dataclass(frozen=True)
class SensorConfig:
    """Exactly two boundary observation angles."""

    theta1: float
    theta2: float

    def __post_init__(self):
        for th in (self.theta1, self.theta2):
            if not 0.0 <= th < 2.0 * np.pi:
                raise ValidationError(f"sensor angle {th} outside [0, 2pi)",
                                      clause="sensor-range")

    @property
    def angles(self):
        return (self.theta1, self.theta2)


@dataclass(frozen=True)
class FluxTrace:
    """Sampled boundary flux du/dnu at one sensor angle."""

    sensor_angle: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ShapeError("times and values must be 1-d arrays of equal length")
        if times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise ShapeError("times must be strictly increasing and start at 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def grouped_amplitudes(model: SourceModel, theta_z: float) -> np.ndarray:
    """_grouped of the model's pieces."""
    return _grouped(model.spectrum, [pc.values for pc in model.piece_coeffs], theta_z)


def _grouped(spectrum: SpectrumTable, rows, theta_z: float) -> np.ndarray:
    """b[j, k] = sum over modes with lambda_n = lambda_j of s_n a_n(z) p_{k,n},
    s_n a_n(z) the sensor_weights and p_k the coefficient row k (an array
    over the modes). These grouped amplitudes are the only combinations of
    the coefficients a single sensor sees, one per (distinct eigenvalue,
    piece)."""
    weights = sensor_weights(spectrum, theta_z)
    groups = spectrum.distinct_eigenvalues
    out = np.zeros((len(groups), len(rows)), dtype=complex)
    for j, (_, idx) in enumerate(groups):
        idx = list(idx)
        for k, row in enumerate(rows):
            out[j, k] = np.sum(weights[idx] * row[idx])
    return out


# Exponential-sum form of the relaxation profiles. For 0 < alpha < 1,
#   E_{alpha,1}(-lam tau^alpha) = int_0^inf e^{-r tau} K(r) dr,
#   r K(r) = (1/pi) lam sin(alpha pi) r^alpha / (r^{2 alpha} + 2 lam r^alpha cos(alpha pi) + lam^2)
# (complete monotonicity; Gorenflo, Kilbas, Mainardi and Rogosin, 2014), and
# lam tau^(alpha-1) E_{alpha,alpha}(-lam tau^alpha) is the same integral with an
# extra factor r. The trapezoidal rule in u = log r runs on the fixed lattice
# u_q = q * _NODE_STEP, so the exponential factors depend only on the grid.
_NODE_STEP = 0.25
_TAU_LOW = 1e-18          # below r = _TAU_LOW / tau_max, e^{-r tau} rounds to 1
_TAU_HIGH = 800.0         # above r = _TAU_HIGH / tau_min, e^{-r tau} underflows
# Below r = _TAYLOR_RATE / tau_max the factors e^{-r tau} are replaced by
# their first _TAYLOR_TERMS Taylor terms in tau (remainder below 6e-15 of
# those nodes' weight), which folds about two thirds of the nodes into 8
# columns: 77 of the 233 nodes stay exponentials on the 16000-step grid of
# [0, 4].
_TAYLOR_RATE = 1.0 / 16.0
_TAYLOR_TERMS = 8
_ROW_BLOCK = 2048         # rows per block on grids without shift tables
_LAM_BLOCK = 1024         # eigenvalues per node-sum block; a power of two (_profiles)
# The accuracy route: a uniform grid gets shift tables only while
# n * (fast nodes + _TAYLOR_TERMS) <= _SHIFT_MAX_CELLS (about 24000 steps
# on [0, t_max] with t_max / h = n). The shift m h differs from the grid's
# own t_i - t_{i_c} by the rounding of the times, about ulp(t_max), and next
# to a late cut, where a profile is steep, that cost 1.8e-13 on the
# 30001-point grid of verify (bound 1e-13); longer grids are summed at exact
# tau. The bound is the old 16 MB cap of the unfactored table, in cells.
_SHIFT_MAX_CELLS = 1 << 21
# Shift factors are clipped at e^_EXP_FLOOR (2.5e-96): a product of three of
# them (e^{-delta r}, baby, giant) and a node weight stays a normal float,
# and BLAS products that meet subnormal numbers run about ten times slower.
_EXP_FLOOR = -220.0


def _node_weights(alpha: float, lams: np.ndarray, q_lo: int, q_hi: int, parts):
    """Nodes r_q = exp(q h_u), q_lo <= q <= q_hi, and the trapezoidal weights
    of each part (see _profiles), stacked as columns (part, j): "value"
    w[q, j] = (h_u/pi) lam_j sin(alpha pi) r_q^alpha
    / ((r_q^alpha + lam_j cos(alpha pi))^2 + (lam_j sin(alpha pi))^2), "rate"
    r_q w[q, j] and "alpha" dw[q, j]/dalpha; the denominator is written as a
    sum of squares, which does not cancel as alpha -> 1."""
    u = np.arange(q_lo, q_hi + 1) * _NODE_STEP
    r = np.exp(u)
    ra = np.exp(alpha * u)[:, None]
    s, c = math.sin(alpha * math.pi), math.cos(alpha * math.pi)
    den = (ra + lams * c) ** 2 + (lams * s) ** 2
    w = (_NODE_STEP / math.pi) * s * lams * ra / den
    cols = {"value": w, "rate": w * r[:, None]}
    if "alpha" in parts:
        dden = (2.0 * (ra + lams * c) * (u[:, None] * ra - math.pi * lams * s)
                + 2.0 * math.pi * lams ** 2 * s * c)
        cols["alpha"] = w * (u[:, None] - dden / den) + _NODE_STEP * c * lams * ra / den
    return r, np.hstack([cols[part] for part in parts])


def _q_top(tau_min: float) -> int:
    """Last lattice index whose factor e^{-r tau} does not underflow for
    tau >= tau_min."""
    return math.ceil(math.log(_TAU_HIGH / tau_min) / _NODE_STEP)


def _basis(x: np.ndarray, r_fast: np.ndarray) -> np.ndarray:
    """Columns (-x)^k / k!, k < _TAYLOR_TERMS, then e^{-x r_q} for the fast
    nodes; a product with _fold of the weights is sum_q e^{-x r_q} w_q."""
    out = np.empty((len(x), _TAYLOR_TERMS + len(r_fast)))
    slow, fast = out[:, :_TAYLOR_TERMS], out[:, _TAYLOR_TERMS:]
    slow[:, 0] = 1.0
    slow[:, 1:] = -x[:, None] / np.arange(1, _TAYLOR_TERMS)
    np.cumprod(slow, axis=1, out=slow)
    np.multiply.outer(-x, r_fast, out=fast)
    np.maximum(fast, -700.0, out=fast)      # skips the slow underflow path of exp
    np.exp(fast, out=fast)
    return out


def _fold(r: np.ndarray, w: np.ndarray, n_slow: int) -> np.ndarray:
    """The weights of _basis: the moments sum_q w_q r_q^k of the first n_slow
    (slow) nodes, then the weights of the fast nodes."""
    moments = np.power.outer(r[:n_slow], np.arange(_TAYLOR_TERMS)).T @ w[:n_slow]
    return np.vstack([moments, w[n_slow:]])


def _stride(n: int) -> int:
    """Rows per giant step of _stride_powers on an n-row grid: the power of
    two nearest sqrt(n), so both tables have about sqrt(n) rows."""
    return 1 << round(math.log2(n) / 2)


def _stride_powers(rates: np.ndarray, h: float, rows: int, stride: int):
    """(baby, giant): baby[b] = e^{-b h rates} for b < stride and
    giant[g] = e^{-g stride h rates} for g < ceil(rows / stride), so that
    e^{-m h rates} = baby[m mod stride] giant[m div stride] for m < rows.
    Unlike a running product's, its rounding does not grow with m."""
    return [np.exp(np.multiply.outer(np.arange(0, top, by) * -h, rates))
            for top, by in ((stride, 1), (rows, stride))]


@functools.lru_cache(maxsize=2)
def _shift_tables(n: int, h: float, q_lo: int, q_hi: int):
    """(taylor, baby, giant) for the shifts x = m h, with m below n rounded
    up to a multiple of the stride: the Taylor columns of _basis, transposed
    to _TAYLOR_TERMS rows, and _stride_powers of the fast nodes
    q_lo <= q <= q_hi, clipped at e^_EXP_FLOOR, with baby transposed to one
    row per node. Read-only and shared by every cut and order; at 16001
    rows they hold 1.2 MB, where the unfactored n x 85 table held 10.9 MB."""
    r = np.exp(np.arange(q_lo, q_hi + 1) * _NODE_STEP)
    baby, giant = (np.maximum(p, math.exp(_EXP_FLOOR))
                   for p in _stride_powers(r, h, n, _stride(n)))
    taylor = _basis(np.arange(len(baby) * len(giant)) * h, r[:0])
    tables = (np.ascontiguousarray(taylor.T), np.ascontiguousarray(baby.T), giant)
    for table in tables:
        table.flags.writeable = False
    return tables


def _uniform_step(times: np.ndarray):
    """The step h of times when t_i = t_0 + i h to within a few ulps, else None."""
    n = len(times)
    if n < 3:
        return None
    h = float(times[-1] - times[0]) / (n - 1)
    ideal = times[0] + np.arange(n) * h
    if not np.max(np.abs(times - ideal)) <= 8.0 * np.spacing(abs(times[-1])):
        return None
    return h


def _profiles(alpha: float, lams, cuts, times, parts) -> np.ndarray:
    """P[i, p, j, b] for each part p of parts at tau = t_i - c_b > 0:
    "value" E_{alpha,1}(-lam_j tau^alpha), "rate"
    lam_j tau^(alpha-1) E_{alpha,alpha}(-lam_j tau^alpha) = -d value/dtau and
    "alpha" d value/dalpha, each as sum_q e^{-r_q tau} w_qj + tail + pole (see
    relaxation_design) with that part's weights (_node_weights); where
    tau <= 0, 1 for "value" and 0 for the others. One call serves all parts:
    their weights are stacked as columns of the same products with the same
    exponential factors. Tail and pole are differentiated in closed form
    (for "alpha", d/dalpha of the pole's coefficient and of
    e^{-r* tau}, which gives a term tau e^{-r* tau}); the lattice bounds are
    held fixed."""
    lams = np.asarray(lams, dtype=float)
    cuts = np.asarray(cuts, dtype=float)
    times = np.asarray(times, dtype=float)
    n, n_parts = len(times), len(parts)
    out = np.zeros((n, n_parts, len(lams), len(cuts)))
    out[:, [part == "value" for part in parts]] = 1.0
    starts = np.searchsorted(times, cuts, side="right")   # first t_i > c
    if np.all(starts == n):
        return out
    # below r_lo, e^{-r tau} rounds to 1 (tau <= tau_max) and
    # r^alpha <= 3e-9 lam, so the closed-form tail is exact to ~1e-17
    tau_max = float(times[-1]) - min(float(np.min(cuts)), 0.0)
    u_lo = min(math.log(_TAU_LOW / tau_max), math.log(3e-9 * float(np.min(lams))) / alpha)
    q_lo = math.floor(u_lo / _NODE_STEP)
    q_fast = math.floor(math.log(_TAYLOR_RATE / tau_max) / _NODE_STEP) + 1
    n_slow = q_fast - q_lo
    live = starts < n
    deltas = times[starts[live]] - cuts[live]
    q_hi = _q_top(float(np.min(deltas)))
    h = _uniform_step(times)
    tables = None
    if h is not None:
        q_tab = _q_top(h)
        if n * (q_tab - q_fast + 1 + _TAYLOR_TERMS) <= _SHIFT_MAX_CELLS:
            tables = _shift_tables(n, h, q_fast, q_tab)
            q_hi = max(q_hi, q_tab)   # a cut before t_0 may have delta > h
    # node sums over blocks of _LAM_BLOCK eigenvalues (the last up to twice that) to
    # bound memory; each starts at a multiple of it, on the BLAS column tiles
    # of an unblocked call, so the blocking changes no value
    for j0 in range(0, max(len(lams) - _LAM_BLOCK, 0) + 1, _LAM_BLOCK):
        js = slice(j0, j0 + _LAM_BLOCK if j0 + 2 * _LAM_BLOCK <= len(lams) else None)
        r, w = _node_weights(alpha, lams[js], q_lo, q_hi, parts)
        # rows summed at their exact tau: the first row after each cut, whose
        # tau may lie anywhere in (0, h], and without shift tables all later rows
        for b, c, i0 in zip(np.flatnonzero(live), cuts[live], starts[live]):
            blocks = [(i0, i0 + 1)]
            if tables is None:
                blocks += [(lo, lo + _ROW_BLOCK) for lo in range(i0 + 1, n, _ROW_BLOCK)]
            for lo, hi in blocks:
                tau = times[lo:hi] - c
                if len(tau):
                    top = _q_top(float(tau[0])) - q_lo + 1
                    out[lo:lo + len(tau), :, js, b] = (
                        _basis(tau, r[n_slow:top]) @ _fold(r[:top], w[:top], n_slow)
                    ).reshape(len(tau), n_parts, -1)
        if tables is not None and np.min(starts) + 1 < n:
            # later rows: t_i - c = delta + m h with delta = t_{i0} - c, so
            # e^{-(t_i - c) r} = e^{-delta r} baby[m mod s] giant[m div s],
            # for all cuts at once: the Taylor columns are one product, and
            # entry [m div s, (column, m mod s)] of giant @ (folded weights x
            # baby) is row m of the exponentials
            taylor, baby, giant = tables
            stride = baby.shape[1]
            steps = -(-(n - int(np.min(starts))) // stride)
            top = n_slow + len(baby)
            shifted = np.exp(np.maximum(-np.multiply.outer(r[:top], deltas), _EXP_FLOOR))
            folded = _fold(r[:top], (shifted[:, None, :] * w[:top, :, None]).reshape(top, -1),
                           n_slow)
            fast = giant[:steps] @ (folded[_TAYLOR_TERMS:, :, None]
                                    * baby[:, None, :]).reshape(len(baby), -1)
            body = folded[:_TAYLOR_TERMS].T @ taylor[:, :steps * stride]
            body.reshape(-1, steps, stride)[:] += fast.reshape(steps, -1, stride).transpose(1, 0, 2)
            body = body.reshape(w.shape[1], len(deltas), -1)
            for col, b in enumerate(np.flatnonzero(live)):
                out[starts[b] + 1:, :, js, b] = body[:, col, 1:n - starts[b]].T.reshape(
                    -1, n_parts, w.shape[1] // n_parts)
    # closed forms: the lattice below q_lo, where e^{-r tau} = 1 and
    # r K(r) ~ sin(alpha pi) r^alpha / (pi lam), summed as a geometric series;
    # and for alpha > 2/3 the trapezoidal error of the pole of the integrand
    # at u* = (log lam + i pi (1 - alpha)) / alpha (Trefethen and Weideman,
    # SIAM Rev. 56, 2014). For alpha <= 2/3 that pole lies outside the strip
    # |Im u| < pi/2 in which e^{-e^u tau} decays, and it adds nothing.
    s = math.sin(alpha * math.pi)
    tail = []
    for part in parts:
        ex = alpha + (part == "rate")
        tail.append(s * math.exp(ex * q_lo * _NODE_STEP) * _NODE_STEP
                    / (math.pi * lams * math.expm1(ex * _NODE_STEP)))
        if part == "alpha":   # d/dalpha of sin(alpha pi) e^{alpha q_lo h_u} / expm1(alpha h_u)
            tail[-1] = tail[-1] * (math.pi / math.tan(alpha * math.pi) + q_lo * _NODE_STEP
                                   - _NODE_STEP / -math.expm1(-ex * _NODE_STEP))
    for b, i0 in enumerate(starts):
        out[i0:, :, :, b] += tail
    if alpha > 2.0 / 3.0:
        u_star = (np.log(lams) + 1j * math.pi * (1.0 - alpha)) / alpha
        r_star = np.exp(u_star)
        # the lattice contains u = 0, so only the phase of u*/h_u mod 1 matters
        phase = np.mod(u_star.real / _NODE_STEP, 1.0) + 1j * u_star.imag / _NODE_STEP
        turn = np.exp(-2j * math.pi * phase)
        # the term is Im(coef e^{-r* tau}) + Im(slope tau e^{-r* tau}); for
        # "alpha", du*/dalpha = -(u* + i pi) / alpha
        du = -(u_star + 1j * math.pi) / alpha
        coef, slope = np.zeros((2, n_parts, len(lams)), dtype=complex)
        for k, part in enumerate(parts):
            if part == "alpha":
                coef[k] = 2j / (alpha * (turn - 1.0)) * (
                    2j * math.pi * turn * du / (_NODE_STEP * (turn - 1.0)) - 1.0 / alpha)
                slope[k] = -2j * r_star * du / (alpha * (turn - 1.0))
            else:
                coef[k] = 2j * (r_star if part == "rate" else 1.0) / (alpha * (turn - 1.0))
        # the term decays like e^{-tau Re r*}; it is summed while it can
        # exceed 1e-18
        tau_stop = float(np.max(np.log((np.abs(coef) + np.abs(slope) * tau_max) * 1e18)
                                / r_star.real))
        stops = np.searchsorted(times, cuts + tau_stop, side="right")
        if h is not None:
            # tau = delta + m h, so e^{-r* tau} = e^{-r* delta} z^m with
            # z = e^{-r* h} for every cut, from the strided powers of the grid
            rows = int(np.max(stops - starts))
            z_lo, z_hi = _stride_powers(r_star, h, rows, _stride(n))
            zm = (z_hi[:, None] * z_lo).reshape(-1, 1, len(lams))
        n_terms = 1 + ("alpha" in parts)   # the tau e^{-r* tau} term only for "alpha"
        for b in np.flatnonzero(stops > starts):
            c, i0, i1 = cuts[b], starts[b], stops[b]
            tau = (times[i0:i1] - c)[:, None, None]
            for g, factor in [(coef, 1.0), (slope, tau)][:n_terms]:
                if h is not None:
                    g = g * np.exp(-r_star * (times[i0] - c))
                    z = zm[:i1 - i0]
                    out[i0:i1, :, :, b] -= factor * (g.real * z.imag + g.imag * z.real)
                else:
                    arg = tau * r_star.imag
                    out[i0:i1, :, :, b] -= factor * np.exp(-tau * r_star.real) * (
                        g.imag * np.cos(arg) - g.real * np.sin(arg))
    return out


def relaxation_design(alpha: float, lams, bounds, times) -> np.ndarray:
    """The relaxation basis D[i, j, k] = A_{j,c_{k+1}}(t_i) - A_{j,c_k}(t_i),
    shape (n_t, J, K) for K + 1 bounds c_0 < ... < c_K, where
    A_{j,c}(t) = E_{alpha,1}(-lambda_j clip(t - c, 0)^alpha) and A = 1 for an
    infinite bound.

    Representation: at tau = t - c > 0,
    A_{j,c} = sum_q e^{-r_q tau} w_qj + tail_j + pole_j(tau), the trapezoidal
    rule in u = log r for E_{alpha,1}(-lambda tau^alpha) =
    int_0^inf e^{-r tau} K(r) dr. Only the weights w_qj depend on alpha and
    lambda_j.

    Nodes: the lattice u_q = q / 4, from log(1e-18 / tau_max), below which
    e^{-r tau} rounds to 1 and the rest of the lattice is summed in closed
    form (tail_j; lower still if r^alpha > 3e-9 lambda_min there), up to
    log(800 / h), above which e^{-r h} underflows: 228 nodes on the
    4000-step grid of [0, 4]. The 156 of them with r tau_max <= 1/16 enter
    through the first 8 Taylor terms of e^{-r tau} (see _TAYLOR_RATE), so
    72 stay exponentials. For alpha > 2/3, pole_j removes the quadrature
    error of the integrand's pole in closed form. On a uniform grid
    e^{-(t_i - c) r} = e^{-delta r} e^{-(i - i_c) h r}, with i_c the first
    row after c and delta = t_{i_c} - c, so cached shift tables serve every
    cut and every order: the Taylor columns at m h, and the factors
    e^{-m h r_q} = e^{-(m mod s) h r_q} e^{-(m div s) s h r_q} as two tables
    of s and ceil(n / s) rows, s the power of two nearest sqrt(n)
    (_stride_powers; 1.2 MB at 16001 rows). A build is then two matrix
    products for all finite bounds. The pole term, Im(coef_j e^{-r*_j delta}
    z_j^(i - i_c)) with z_j = e^{-r*_j h}, is a geometric sequence in the
    row, from the same strided powers, one for all bounds. Other grids sum
    it at exact tau.

    Rows (times increasing): tau <= 0 gives exactly 1. The first row after
    a bound has 0 < tau = delta <= h and is summed at its own tau over nodes
    up to log(800 / delta). Grids that are not uniform, or longer than the
    accuracy route _SHIFT_MAX_CELLS allows (the 30001-point grid of verify),
    are summed at their exact tau in row blocks. Each value agrees with the
    scalar Mittag-Leffler evaluator of the test oracles to 1e-13 for
    alpha <= 0.985 (5e-14 at most where measured) and with mpmath to
    1.4e-13 up to 0.999;
    the error grows as alpha -> 1, to 7e-13 at 0.9999, where the pole lies
    3e-4 off the real u axis. A value can depend in its last bits on the
    other bounds, eigenvalues and rows of the call (4.4e-16 where
    measured): the BLAS products round by their tiling, and the stride
    follows the number of rows.
    """
    bounds = np.asarray(bounds, dtype=float)
    finite = np.isfinite(bounds)
    profiles = np.ones((len(times), len(lams), len(bounds)))
    if finite.any():
        profiles[:, :, finite] = _profiles(alpha, lams, bounds[finite], times, ("value",))[:, 0]
    return profiles[:, :, 1:] - profiles[:, :, :-1]


def relaxation_rates(alpha: float, lams, cuts, times) -> np.ndarray:
    """dA_{j,c}/dc at each finite cut, shape (n_t, J, len(cuts)):
    lambda_j tau^(alpha-1) E_{alpha,alpha}(-lambda_j tau^alpha) at
    tau = t_i - c > 0 and 0 where tau <= 0, by
    d/dtau E_{alpha,1}(-lambda tau^alpha) = -lambda tau^(alpha-1) E_{alpha,alpha}(-lambda tau^alpha).
    The same construction as relaxation_design, with weights r_q w_qj."""
    return _profiles(alpha, lams, cuts, times, ("rate",))[:, 0]


def relaxation_derivatives(alpha: float, lams, cuts, times):
    """(relaxation_rates, dA_{j,c}/dalpha) at each finite cut, each of shape
    (n_t, J, len(cuts)), from one pass of the construction of
    relaxation_design: the weights r_q w_qj and dw_qj/dalpha share its
    exponential factors, and the tail and pole terms are differentiated in
    closed form. The derivative in alpha is 0 where tau <= 0."""
    both = _profiles(alpha, lams, cuts, times, ("rate", "alpha"))
    return both[:, 0], both[:, 1]


def relaxation_flux(alpha: float, bounds, piece_coeffs, spectrum: SpectrumTable,
                    sensor_angles, times) -> list:
    """Complex flux -sum_{j,k} b_{j,k} D[:, j, k] at each sensor angle, with
    b the grouped amplitudes of piece_coeffs and D one relaxation_design
    shared by all angles: the sum that synthesis (flux_traces) writes."""
    lams = np.array([lam for lam, _ in spectrum.distinct_eigenvalues])
    design = relaxation_design(alpha, lams, bounds, times)
    out = []
    for theta in sensor_angles:
        b = _grouped(spectrum, [pc.values for pc in piece_coeffs], theta)
        vals = np.zeros(design.shape[0], dtype=complex)
        for j in range(design.shape[1]):
            for k in range(design.shape[2]):
                vals -= b[j, k] * design[:, j, k]
        out.append(vals)
    return out


def flux_trace(model: SourceModel, sensor_angle: float, times) -> FluxTrace:
    """Boundary flux du/dnu(z, t) on the grid; real-field models only."""
    return flux_traces(model, [sensor_angle], times)[0]


def flux_traces(model: SourceModel, sensor_angles, times) -> list:
    """flux_trace at each sensor angle, from one relaxation basis."""
    times = np.asarray(times, dtype=float)
    if not model.is_real_field():
        raise ValidationError("flux_trace requires conjugate-symmetric "
                              "(real-field) coefficients", clause="real-field")
    fluxes = relaxation_flux(model.alpha, model.cuts, model.piece_coeffs,
                             model.spectrum, sensor_angles, times)
    out = []
    for sensor_angle, values in zip(sensor_angles, fluxes):
        if float(np.max(np.abs(values.imag))) > 1e-10:
            raise ShapeError("flux imaginary part exceeded tolerance")
        out.append(FluxTrace(sensor_angle=float(sensor_angle), times=times,
                             values=values.real))
    return out


def _cumulative_power_integral(x: np.ndarray, f: np.ndarray, alpha: float) -> np.ndarray:
    """H(x_i) = int_0^{x_i} s^(alpha-1) f(s) ds with piecewise-linear f,
    kernel moments taken exactly."""
    n = len(x)
    out = np.zeros(n, dtype=float)
    x0, x1 = x[:-1], x[1:]
    h = x1 - x0
    m0 = (x1 ** alpha - x0 ** alpha) / alpha
    m1 = (x1 ** (alpha + 1.0) - x0 ** (alpha + 1.0)) / (alpha + 1.0)
    # int s^(a-1) [f0 (x1-s) + f1 (s-x0)]/h ds
    seg = (f[:-1] * (x1 * m0 - m1) + f[1:] * (m1 - x0 * m0)) / h
    out[1:] = np.cumsum(seg)
    return out


def verify_measurement_identity(model: SourceModel, sensor_angle: float,
                                times) -> float:
    """Max-abs gap between I^alpha of the synthesized flux and the direct
    quadrature of the measurement series; both sides computed numerically.
    times is a uniform grid from 0, as the config grid is."""
    times = np.asarray(times, dtype=float)
    trace = flux_trace(model, sensor_angle, times)
    lhs = fractional_integral(-trace.values, float(times[1] - times[0]), model.alpha)

    alpha = model.alpha
    groups = model.spectrum.distinct_eigenvalues
    lams = np.array([lam for lam, _ in groups])
    b = grouped_amplitudes(model, sensor_angle).real
    inv_gamma_a = 1.0 / math.gamma(alpha)
    # F_k(s) = sum_j b[j,k] (1/Gamma(a) - E_{a,a}(-lambda_j s^a)) on the grid,
    # E_{a,a} from the cut column lambda s^(a-1) E_{a,a}(-lambda s^a) at cut 0,
    # whose shift tables the flux_trace above has built
    e_aa = np.empty((len(lams), len(times)))
    e_aa[:, 0] = inv_gamma_a
    e_aa[:, 1:] = (relaxation_rates(alpha, lams, [0.0], times)[1:, :, 0]
                   * times[1:, None] ** (1.0 - alpha) / lams).T
    # peel two Taylor terms of 1/G(a) - E_{a,a}(-lam s^a) = lam s^a/G(2a) - ...
    # and integrate them exactly so the s=0 endpoint costs no accuracy order
    g2, g3 = math.gamma(2 * alpha), math.gamma(3 * alpha)
    rhs = np.zeros(len(times))
    for k in range(model.n_pieces):
        lead1 = float(np.sum(b[:, k] * lams)) / g2
        lead2 = -float(np.sum(b[:, k] * lams ** 2)) / g3
        fk = -lead1 * times ** alpha - lead2 * times ** (2 * alpha)
        for j in range(len(lams)):
            fk += b[j, k] * (inv_gamma_a - e_aa[j])
        h_k = _cumulative_power_integral(times, fk, alpha)

        def h_exact(x):
            return (np.interp(x, times, h_k)
                    + lead1 * x ** (2 * alpha) / (2 * alpha)
                    + lead2 * x ** (3 * alpha) / (3 * alpha))

        lo = np.clip(times - model.cuts[k], 0.0, None)
        rhs += h_exact(lo)
        if np.isfinite(model.cuts[k + 1]):
            hi = np.clip(times - model.cuts[k + 1], 0.0, None)
            rhs -= h_exact(hi)
    return float(np.max(np.abs(lhs - rhs)))
