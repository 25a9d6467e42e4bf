"""Closed-form spectral solution for piecewise-constant-in-time sources and
boundary-flux synthesis.

Each eigenmode obeys a fractional relaxation ODE whose Duhamel integral has
the exact antiderivative (1/lambda)(1 - E_{alpha,1}(-lambda t^alpha)), so the
mode amplitude under a source that is constant on [c_{k-1}, c_k) is a finite
difference of Mittag-Leffler relaxation profiles. The boundary flux weights
each mode by -lambda_n * a_n(z).
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
    groups = model.spectrum.distinct_eigenvalues
    out = np.zeros((len(groups), model.n_pieces), dtype=complex)
    for j, (_, idx) in enumerate(groups):
        a = np.array([normalizer_sign(model.spectrum.modes[i])
                      * boundary_coefficient(model.spectrum.modes[i], theta_z)
                      for i in idx])
        for k, pc in enumerate(model.piece_coeffs):
            out[j, k] = np.sum(a * pc.values[list(idx)])
    return out


def _relaxation_profiles(alpha: float, lams: np.ndarray, cuts, times: np.ndarray,
                         ml_tol: float = 1e-12) -> np.ndarray:
    """A[j, b, i] = E_{alpha,1}(-lambda_j * max(times_i - c_b, 0)^alpha) for
    every cut boundary; an infinite boundary row is identically 1. All finite
    evaluations go through one vectorized Mittag-Leffler call."""
    n_b = len(cuts)
    out = np.empty((len(lams), n_b, len(times)))
    xs = []
    slots = []
    for j, lam in enumerate(lams):
        for b, c in enumerate(cuts):
            if not np.isfinite(c):
                out[j, b, :] = 1.0
                continue
            dt = np.clip(times - c, 0.0, None)
            xs.append(lam * dt ** alpha)
            slots.append((j, b))
    if xs:
        flat = np.concatenate(xs)
        vals = mittag_leffler_neg_real(alpha, 1.0, flat, tol=ml_tol)
        n = len(times)
        for idx, (j, b) in enumerate(slots):
            out[j, b, :] = vals[idx * n:(idx + 1) * n]
    return out


def duhamel_mode_response(lam: float, alpha: float, piece_values,
                          cuts, t: float) -> complex:
    """Amplitude u_n(t) of one eigenmode under the piecewise-constant source.

    u_n(t) = sum_{k: c_{k-1} < t} (p_k/lam) * [E_{a,1}(-lam (t-min(c_k,t))^a)
                                              - E_{a,1}(-lam (t-c_{k-1})^a)].
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
    """flux_trace at each sensor angle. The relaxation profiles do not depend
    on the sensor, so they are computed once for all angles."""
    times = np.asarray(times, dtype=float)
    if not model.is_real_field():
        raise ValidationError("flux_trace requires conjugate-symmetric "
                              "(real-field) coefficients", clause="real-field")
    lams = np.array([lam for lam, _ in model.spectrum.distinct_eigenvalues])
    profiles = _relaxation_profiles(model.alpha, lams, model.cuts, times)
    out = []
    for sensor_angle in sensor_angles:
        values = _flux_values(model, sensor_angle, profiles)
        if float(np.max(np.abs(values.imag))) > 1e-10:
            raise ShapeError("flux imaginary part exceeded tolerance")
        out.append(FluxTrace(sensor_angle=float(sensor_angle), times=times,
                             values=values.real))
    return out


def _flux_values(model: SourceModel, sensor_angle: float,
                 profiles: np.ndarray) -> np.ndarray:
    """Complex flux samples -sum_{j,k} b_{j,k} [A_{j,c_k} - A_{j,c_{k-1}}]
    from the profiles A of _relaxation_profiles."""
    b = grouped_amplitudes(model, sensor_angle)
    vals = np.zeros(profiles.shape[2], dtype=complex)
    for j in range(b.shape[0]):
        for k in range(model.n_pieces):
            vals -= b[j, k] * (profiles[j, k + 1] - profiles[j, k])
    return vals


def solve_field(model: SourceModel, points, t: float):
    """Eigenexpansion u(x, t) = sum_n u_n(t) phi_n(x) at (r, theta) points."""
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
