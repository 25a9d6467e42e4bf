"""Closed-form spectral solution for piecewise-constant-in-time sources and
boundary-flux synthesis.

Each eigenmode obeys a fractional relaxation ODE whose Duhamel integral has
the exact antiderivative (1/lambda)(1 - E_{alpha,1}(-lambda t^alpha)), so the
mode amplitude under a source that is constant on [c_{k-1}, c_k) is a finite
difference of Mittag-Leffler relaxation profiles. The boundary flux weights
each mode by -lambda_n * a_n(z), so it is a sum of these differences, one
per (distinct eigenvalue, piece), weighted by the grouped amplitudes.

relaxation_design builds that relaxation basis from one Mittag-Leffler
batch. It is the only builder of it: synthesis (flux_traces), the order
search, the amplitude solve, refinement and the residual curves of the
inversion all use it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disc_spectrum import (
    SpectrumTable,
    boundary_coefficient,
    eigenfunction_eval,
    normalizer_sign,
)
from .errors import DomainError, ShapeError, ValidationError
from .specfun import (
    SampledTrace,
    fractional_integral,
    mittag_leffler,
    mittag_leffler_neg_real,
)

__all__ = [
    "SourceModel",
    "SensorConfig",
    "FluxTrace",
    "irrationality_margin",
    "duhamel_mode_response",
    "flux_trace",
    "flux_traces",
    "relaxation_design",
    "relaxation_flux",
    "verify_measurement_identity",
    "solve_field",
    "grouped_amplitudes",
]


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
    eta: float | None = None
    gamma: float = 1.0

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
        eta = self.eta if self.eta is not None else (
            float(np.min(gaps)) if len(gaps) else math.inf)
        if not eta > 0:
            raise ValidationError("minimum gap eta must be positive",
                                  clause="assumption-1a")
        if len(gaps) and float(np.min(gaps)) < eta - 1e-12:
            raise ValidationError(
                f"cut gap {float(np.min(gaps)):.6g} below declared eta={eta}",
                clause="assumption-1a")
        if not self.gamma > 0:
            raise ValidationError("gamma must be positive", clause="assumption-1b")
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
        object.__setattr__(self, "eta", eta)

    @property
    def n_pieces(self) -> int:
        return len(self.piece_coeffs)

    def is_real_field(self, tol: float = 1e-10) -> bool:
        return all(pc.is_real_field(self.spectrum, tol) for pc in self.piece_coeffs)


def irrationality_margin(spectrum: SpectrumTable, delta_theta: float) -> float:
    """min over represented |m| != 0 of |sin(|m| * delta_theta)|; infinite
    when only m=0 modes are present."""
    ms = sorted({abs(mo.m) for mo in spectrum.modes if mo.m != 0})
    if not ms:
        return math.inf
    return float(min(abs(math.sin(m * delta_theta)) for m in ms))


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

    def validate_margin(self, spectrum: SpectrumTable, margin_min: float = 1e-3):
        margin = irrationality_margin(spectrum, self.theta1 - self.theta2)
        if margin < margin_min:
            raise ValidationError(
                f"sensor margin {margin:.3g} below {margin_min} for "
                f"delta_theta={self.theta1 - self.theta2}", clause="sensor-margin")
        return margin

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
    """b[j, k] = sum over modes with lambda_n = lambda_j of s_n a_n(z) p_{k,n},
    s_n the normalizer sign of the mode.

    These grouped amplitudes are the only combinations of the coefficients a
    single sensor sees, one per (distinct eigenvalue, piece).
    """
    return _grouped(model.spectrum, model.piece_coeffs, theta_z)


def _grouped(spectrum: SpectrumTable, piece_coeffs, theta_z: float) -> np.ndarray:
    groups = spectrum.distinct_eigenvalues
    out = np.zeros((len(groups), len(piece_coeffs)), dtype=complex)
    for j, (_, idx) in enumerate(groups):
        a = np.array([normalizer_sign(spectrum.modes[i])
                      * boundary_coefficient(spectrum.modes[i], theta_z)
                      for i in idx])
        for k, pc in enumerate(piece_coeffs):
            out[j, k] = np.sum(a * pc.values[list(idx)])
    return out


def relaxation_design(alpha: float, lams, bounds, times) -> np.ndarray:
    """The relaxation basis D[i, j, k] = A_{j,c_{k+1}}(t_i) - A_{j,c_k}(t_i),
    shape (n_t, J, K) for K + 1 bounds c_0 < ... < c_K, where
    A_{j,c}(t) = E_{alpha,1}(-lambda_j clip(t - c, 0)^alpha) and A = 1 for an
    infinite bound.

    Every finite profile comes from one mittag_leffler_neg_real batch,
    ordered eigenvalue-major; the values of the batch's middle band depend
    on its composition, so every caller shares this one construction.
    """
    lams = np.asarray(lams, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    times = np.asarray(times, dtype=float)
    finite = np.isfinite(bounds)
    profiles = np.ones((len(times), len(lams), len(bounds)))
    if finite.any():
        powers = np.clip(times - bounds[finite, None], 0.0, None) ** alpha
        vals = mittag_leffler_neg_real(alpha, 1.0, (lams[:, None, None] * powers).ravel())
        profiles[:, :, finite] = vals.reshape(len(lams), -1, len(times)).transpose(2, 0, 1)
    return profiles[:, :, 1:] - profiles[:, :, :-1]


def relaxation_flux(alpha: float, bounds, piece_coeffs, spectrum: SpectrumTable,
                    sensor_angles, times) -> list:
    """Complex flux -sum_{j,k} b_{j,k} D[:, j, k] at each sensor angle, with
    b the grouped amplitudes of piece_coeffs and D one relaxation_design
    shared by all angles. Synthesis and the residual curves of a
    reconstruction both go through this sum."""
    lams = np.array([lam for lam, _ in spectrum.distinct_eigenvalues])
    design = relaxation_design(alpha, lams, bounds, times)
    out = []
    for theta in sensor_angles:
        b = _grouped(spectrum, piece_coeffs, theta)
        vals = np.zeros(design.shape[0], dtype=complex)
        for j in range(design.shape[1]):
            for k in range(design.shape[2]):
                vals -= b[j, k] * design[:, j, k]
        out.append(vals)
    return out


def duhamel_mode_response(lam: float, alpha: float, piece_values,
                          cuts, t: float) -> complex:
    """Amplitude u_n(t) of one eigenmode under the piecewise-constant source.

    u_n(t) = sum_{k: c_{k-1} < t} (p_k/lam) * [E_{a,1}(-lam (t-min(c_k,t))^a)
                                              - E_{a,1}(-lam (t-c_{k-1})^a)].

    This is the Duhamel formula that relaxation_design tabulates, evaluated
    point by point with the scalar mittag_leffler and so independent of it;
    tests keep it as the reference for the closed form (TestDuhamel checks
    it against quadrature of the Duhamel integral).
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if not np.isfinite(t):
        raise DomainError("t must be finite")
    cuts = [float(c) for c in cuts]
    total = 0.0 + 0.0j
    for k, p in enumerate(piece_values):
        c_lo, c_hi = cuts[k], cuts[k + 1]
        if t <= c_lo:
            break
        hi_arg = lam * max(t - min(c_hi, t), 0.0) ** alpha
        lo_arg = lam * (t - c_lo) ** alpha
        e_hi = mittag_leffler(alpha, 1.0, -hi_arg).real
        e_lo = mittag_leffler(alpha, 1.0, -lo_arg).real
        total += (complex(p) / lam) * (e_hi - e_lo)
    return total


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


def solve_field(model: SourceModel, points, t: float):
    """Eigenexpansion u(x, t) = sum_n u_n(t) phi_n(x) at (r, theta) points.

    The series solution of the direct problem that the boundary flux is
    derived from; tests use it as the reference for the zero initial value,
    the Dirichlet condition and the steady state (TestSolveField).
    """
    out = []
    amps = []
    for n, mo in enumerate(model.spectrum.modes):
        pv = [pc.values[n] for pc in model.piece_coeffs]
        amps.append(duhamel_mode_response(mo.lam, model.alpha, pv, model.cuts, t))
    for (r, theta) in points:
        val = 0.0 + 0.0j
        for n, mo in enumerate(model.spectrum.modes):
            val += amps[n] * eigenfunction_eval(mo, r, theta)
        out.append(val)
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
    quadrature of the measurement series; both sides computed numerically."""
    times = np.asarray(times, dtype=float)
    trace = flux_trace(model, sensor_angle, times)
    lhs = fractional_integral(
        SampledTrace(times=times, values=-trace.values), model.alpha).values

    alpha = model.alpha
    groups = model.spectrum.distinct_eigenvalues
    lams = np.array([lam for lam, _ in groups])
    b = grouped_amplitudes(model, sensor_angle).real
    inv_gamma_a = 1.0 / math.gamma(alpha)
    # F_k(s) = sum_j b[j,k] (1/Gamma(a) - E_{a,a}(-lambda_j s^a)) on the grid
    e_aa = np.empty((len(lams), len(times)))
    for j, lam in enumerate(lams):
        e_aa[j] = mittag_leffler_neg_real(alpha, alpha, lam * times ** alpha)
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
