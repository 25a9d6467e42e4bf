"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the implementation paths it checks:
Bessel values come from the plain power series, Bessel zeros from bisection
on that series, Mittag-Leffler reference values from the erfcx identity, the
frozen high-precision file, the power series in mpmath or the scalar
evaluator mittag_leffler below, and integrals from generic quadrature.

mittag_leffler is a three-regime global scheme for complex arguments (power
series with a cancellation certificate, optimal-truncation asymptotics, and a
collapsed-ray contour integral with adaptive panel refinement), plus a
half-order split recursion for orders above one and for arguments too close
to the contour rays. It takes 1/Gamma from math.gamma. The package computes
Mittag-Leffler values from its exponential-sum relaxation basis instead, so
the evaluator is an independent reference for that basis, and it serves the
pointwise Duhamel sums below.

pole_term_one_shot, detect_change_points_loop and trace_from_csv_loop keep
earlier forms of three package paths that must give the same bits: the pole
term of the relaxation basis with all its strided powers multiplied out at
once, the change-point candidate scan as a Python loop, and the trace
reader that appends each cell's float to a list.

The last section holds the paper's adjoint constructions: the boundary
mollifier delta_z^N and the adjoint field w_z^N, through which the paper
relates the unknowns to the boundary data, and the modal weight of the
normal derivative. The package ships that relation as the measurement
identity of verify; the tests check these constructions against the
package's sign conventions and spectrum.
"""
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import erfcx

from fracsource.disc_spectrum import (
    SpectrumTable,
    boundary_coefficient,
    eigenfunction_eval,
    normalizer_sign,
)
from fracsource.errors import DomainError, ValidationError
from fracsource.forward_model import _NODE_STEP, _stride, _stride_powers, relaxation_rates
from fracsource.inversion import _median, _noise_sigma
from fracsource.specfun import _bessel_j_unchecked, _panel_nodes

_EPS = float(np.finfo(float).eps)

_DATA = os.path.join(os.path.dirname(__file__), "data")


def bessel_series(m: int, x: float, terms: int = 60) -> float:
    """J_m(x) by the defining power series; float64 cancellation limits
    accuracy to ~5e-12 for x <= 10 (worse beyond)."""
    half = 0.5 * x
    term = half ** m / math.factorial(m)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + m))
        total += term
    return total


def bessel_zero_bisect(m: int, k: int) -> float:
    """k-th positive zero of J_m via sign-scan + bisection on the series."""
    x = max(m, 0.5)
    found = 0
    f_prev = bessel_series(m, x)
    step = 0.05
    while found < k:
        x_next = x + step
        f = bessel_series(m, x_next)
        if f == 0.0:
            found += 1
            if found == k:
                return x_next
        elif math.copysign(1.0, f) != math.copysign(1.0, f_prev):
            found += 1
            if found == k:
                a, b = x, x_next
                fa = f_prev
                for _ in range(200):
                    mid = 0.5 * (a + b)
                    fm = bessel_series(m, mid)
                    if fm == 0.0 or b - a < 1e-14:
                        return mid
                    if math.copysign(1.0, fm) == math.copysign(1.0, fa):
                        a, fa = mid, fm
                    else:
                        b = mid
                return 0.5 * (a + b)
        x, f_prev = x_next, f
    raise RuntimeError("unreachable")


def ml_half_beta_one(x: float) -> float:
    """E_{1/2,1}(-x) = erfcx(x) for x >= 0."""
    return float(erfcx(x))


def ml_half_beta_half(x: float) -> float:
    """E_{1/2,1/2}(-x) = 1/sqrt(pi) - x*erfcx(x) for x >= 0."""
    return float(1.0 / math.sqrt(math.pi) - x * erfcx(x))


def frozen_ml_values():
    """High-precision Mittag-Leffler references (series/Talbot cross-checked)."""
    with open(os.path.join(_DATA, "ml_oracle_values.json")) as fh:
        return json.load(fh)


def frozen_ml_near_one():
    """E_{alpha,1}(-lam tau^alpha) at alpha in {0.985, 0.9995}, rows with keys
    alpha, lam, tau (a point of linspace(0, 4, 4001)) and value: the power
    series summed with mpmath at 60 digits, agreeing to 1e-25 with adaptive
    mpmath quadrature of int_0^inf e^{-r tau} K(r) dr."""
    with open(os.path.join(_DATA, "ml_near_one_values.json")) as fh:
        return json.load(fh)


def ml_mpmath(alpha: float, beta: float, x: float):
    """E_{alpha,beta}(-x) as an mpmath number, from the power series with
    enough digits to absorb its cancellation (the largest term is about
    exp(x^(1/alpha)))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30 + int(x ** (1.0 / alpha) / 2.3)):
        a, b, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        total, k = mp.mpf(0), 0
        while True:
            term = (-xm) ** k * mp.rgamma(a * k + b)
            total += term
            k += 1
            if k > 2 * x ** (1.0 / alpha) / alpha + 10 and abs(term) < 1e-25 * abs(total):
                return total


@functools.lru_cache(maxsize=None)
def _leggauss(nodes: int):
    """Gauss-Legendre rule on [-1, 1]; leggauss(400) takes about 20 ms."""
    return np.polynomial.legendre.leggauss(nodes)


def duhamel_quadrature(lam, alpha, piece, c_lo, c_hi, t, ml_aa, nodes=400):
    """Mode amplitude by direct quadrature of the Duhamel convolution.

    u(t) = p * int_{c_lo}^{min(c_hi, t)} (t-tau)^(a-1) E_{a,a}(-lam (t-tau)^a) dtau,
    computed with the substitution v = (t-tau)^alpha that removes the kernel
    singularity. ml_aa(alpha, x_array) supplies E_{alpha,alpha}(-x).
    """
    if t <= c_lo:
        return 0.0
    hi = min(c_hi, t)
    v_lo = (t - hi) ** alpha
    v_hi = (t - c_lo) ** alpha
    x, w = _leggauss(nodes)
    v = 0.5 * (v_lo + v_hi) + 0.5 * (v_hi - v_lo) * x
    wv = 0.5 * (v_hi - v_lo) * w
    vals = ml_aa(alpha, lam * v) / alpha
    return piece * float(np.sum(vals * wv))


# ---------------------------------------------------------------------------
# Scalar Mittag-Leffler evaluator
# ---------------------------------------------------------------------------

class AccuracyError(Exception):
    """mittag_leffler could not certify the requested accuracy.

    Carries the best error bound that was achieved.
    """

    def __init__(self, message, achieved_bound=None):
        super().__init__(message)
        self.achieved_bound = achieved_bound


@dataclass(frozen=True)
class MLAccuracy:
    """Accuracy request for Mittag-Leffler evaluation."""

    abs_tol: float = 1e-12
    max_terms: int = 600

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


def _rgamma(x):
    """1/Gamma(x) of a float, or elementwise of an array, from math.gamma.

    It is 0 at the poles of Gamma (the non-positive integers) and above
    x = 171.62, where Gamma overflows. Below about -171.09, Gamma is
    subnormal or underflows to a signed 0, and the result is the infinity of
    Gamma's sign. scipy.special.rgamma already returns that infinity below
    about -170.64; between there and -171.09 this returns the finite 1/Gamma
    instead, of the same sign and with a modulus above 5e307."""
    if np.ndim(x):
        return np.array([_rgamma(v) for v in np.ravel(x)]).reshape(np.shape(x))
    try:
        g = math.gamma(x)
    except (ValueError, OverflowError):  # a pole, or x above 171.62
        return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


def _ml_series(alpha: float, beta: float, z: complex, tol: float, max_terms: int):
    """Defining power series with a running cancellation certificate.

    Returns (value, bound) with value None when the certificate exceeds tol.
    The certificate charges max|term| * eps * n_terms: term arguments of the
    reciprocal gamma are rounded in double precision, which pollutes exactly
    at that scale once cancellation is severe.
    """
    zc = complex(z)
    term = complex(_rgamma(beta))
    total = term
    max_abs = abs(term)
    zk = 1.0 + 0.0j
    k = 0
    ta = math.inf
    abz = abs(zc)
    tail_arg = abz ** (1.0 / alpha) + 2.0
    while k < max_terms:
        k += 1
        zk *= zc
        if abs(zk) > 1e250:
            return None, math.inf
        term = zk * float(_rgamma(alpha * k + beta))
        total += term
        ta = abs(term)
        if ta > max_abs:
            max_abs = ta
        if ta < tol * 1e-2 and alpha * k + beta > tail_arg:
            break
    bound = max_abs * _EPS * (k + 5) + ta
    if ta >= tol * 1e-2 or bound > tol / 4.0:
        return None, bound
    return total, bound


def _ml_asymptotic(alpha: float, beta: float, z: complex, tol: float):
    """Large-|z| expansion with optimal truncation.

    The error bound looks past reciprocal-gamma zeros (poles of Gamma) when
    picking the first omitted term. Inside the wedge |arg z| < alpha*pi the
    exponentially large/oscillating term is added.
    """
    z = complex(z)
    w_abs = abs(z) ** (1.0 / alpha)
    # beyond optimal truncation an exponentially small remainder survives;
    # the 0.35 envelope is an empirical floor over alpha in (0.3, 1)
    if math.exp(-0.35 * w_abs) > tol / 10.0:
        return None, math.inf
    kmax = int(min(200, 2 * w_abs + 20))
    look = max(3, int(math.ceil(1.0 / alpha)) + 1)
    if kmax <= look + 1:
        return None, math.inf
    ks = np.arange(1, kmax + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = -np.power(1.0 / z, ks) * _rgamma(beta - alpha * ks)
    mags = np.abs(terms)
    best_k, best_bound = None, math.inf
    for k in range(kmax - look):
        bound = float(np.max(mags[k + 1:k + 1 + look]))
        if bound < best_bound:
            best_bound, best_k = bound, k
    if best_k is None or best_bound > tol / 5.0:
        return None, best_bound
    total = complex(np.sum(terms[:best_k + 1]))
    if abs(np.angle(z)) < alpha * np.pi:
        w = z ** (1.0 / alpha)
        if w.real > 700.0:
            return None, math.inf
        total += (1.0 / alpha) * z ** ((1.0 - beta) / alpha) * np.exp(w)
    return total, best_bound


def _ray_edges(alpha: float, z: complex, cut: float, chi_min: float) -> np.ndarray:
    """Panel edges on [chi_min, cut]: geometric ladder (grades the chi^p cusp
    at 0 when beta < 1) plus sinh-graded clusters at the near-axis roots of
    chi^2 - 2 chi z cos(a pi) + z^2."""
    es = [chi_min]
    es += list(np.geomspace(max(chi_min, 1e-10), cut, 44))
    for root in (z * np.exp(1j * alpha * np.pi), z * np.exp(-1j * alpha * np.pi)):
        r0, d0 = root.real, abs(root.imag)
        if r0 > 0 and d0 < 0.5 * cut:
            d0 = max(d0, 1e-8)
            t = np.linspace(-np.arcsinh(r0 / d0), np.arcsinh((cut - r0) / d0), 24)
            es += list(r0 + d0 * np.sinh(t))
    edges = np.unique(np.clip(np.asarray(es), chi_min, cut))
    return edges


def _ml_ray_integral(alpha: float, beta: float, z: complex, tol: float):
    """Contour integral with both rays collapsed onto [0, inf).

    Exact for 0 < alpha < 1 and beta <= 1 when z is off the rays
    arg z = +-alpha*pi; the caller adds the wedge residue. Panels are refined
    until two successive node counts agree within 0.3*tol.
    """
    z = complex(z)
    ia = 1.0 / alpha
    cut = max((np.log(10.0 / tol) + 2.0) ** alpha, 1.5 * abs(z) + 2.0)
    sin_b = np.sin(np.pi * (1 - beta))
    sin_ba = np.sin(np.pi * (1 - beta + alpha))
    cos_a = np.cos(alpha * np.pi)
    chi_min = 0.0 if beta == 1.0 else 1e-10
    edges = _ray_edges(alpha, z, cut, chi_min)
    # analytic stub for the chi^p cusp on [0, chi_min]
    stub = 0.0 + 0.0j
    if chi_min > 0:
        p = (1.0 - beta) * ia
        stub = (ia / np.pi) * (-sin_ba / z) * chi_min ** (1.0 + p) / (1.0 + p)
    prev, val = None, None
    for nodes in (16, 24, 36, 54):
        chi, w = _panel_nodes(edges, nodes)
        num = chi * sin_b - z * sin_ba
        den = chi * chi - 2 * chi * z * cos_a + z * z
        pref = np.exp(((1.0 - beta) * ia) * np.log(chi)) if beta != 1.0 else 1.0
        kern = (ia / np.pi) * pref * np.exp(-(chi ** ia)) * num / den
        val = stub + complex(np.sum(kern * w))
        est = max(abs(val - prev) if prev is not None else math.inf,
                  50.0 * _EPS * abs(val))
        if prev is not None and abs(val - prev) < 0.2 * tol:
            return val, est
        prev = val
    return val, est


def mittag_leffler(alpha: float, beta: float, z: complex,
                   accuracy: MLAccuracy | None = None, _depth: int = 0) -> complex:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    alpha must lie in (0, 2). Raises AccuracyError when the requested
    absolute tolerance cannot be certified.
    """
    acc = accuracy or MLAccuracy()
    tol = acc.abs_tol
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha={alpha} outside (0, 2)")
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DomainError("z must be finite")
    if z == 0:
        return complex(_rgamma(beta))
    if alpha == 1.0 and beta == 1.0:
        return complex(np.exp(z))
    if alpha > 1.0:
        # half-order split: E_{a,b}(z) = (E_{a/2,b}(sqrt z) + E_{a/2,b}(-sqrt z))/2
        w = z ** 0.5
        half = MLAccuracy(abs_tol=tol / 2, max_terms=acc.max_terms)
        return 0.5 * (mittag_leffler(alpha / 2, beta, w, half, _depth)
                      + mittag_leffler(alpha / 2, beta, -w, half, _depth))
    if beta > 1.0 and abs(z) > 0.5:
        # reduce beta below 1 so the ray integrand stays bounded at 0
        sub_acc = MLAccuracy(abs_tol=tol * abs(z) / 2, max_terms=acc.max_terms)
        sub = mittag_leffler(alpha, beta - alpha, z, sub_acc, _depth)
        return (sub - complex(_rgamma(beta - alpha))) / z

    val, bound = _ml_series(alpha, beta, z, tol, acc.max_terms)
    if val is not None:
        return val
    series_bound = bound
    val, bound = _ml_asymptotic(alpha, beta, z, tol)
    if val is not None:
        return val

    arg = abs(np.angle(z))
    wedge = alpha * np.pi
    if np.sin(abs(arg - wedge)) * abs(z) < 0.02 * (1 + abs(z)):
        # too close to the contour rays; halve the order instead
        if _depth >= 6:
            raise AccuracyError(
                f"mittag_leffler({alpha}, {beta}, {z}): cannot certify {tol}",
                achieved_bound=min(series_bound, bound))
        w = z ** 0.5
        half = MLAccuracy(abs_tol=tol / 2, max_terms=acc.max_terms)
        return 0.5 * (mittag_leffler(alpha / 2, beta, w, half, _depth + 1)
                      + mittag_leffler(alpha / 2, beta, -w, half, _depth + 1))
    total, est = _ml_ray_integral(alpha, beta, z, tol)
    if est > tol:
        raise AccuracyError(
            f"mittag_leffler({alpha}, {beta}, {z}): contour integral stalled",
            achieved_bound=est)
    if arg < wedge:
        total += (1.0 / alpha) * z ** ((1.0 - beta) / alpha) * np.exp(z ** (1.0 / alpha))
    return total


# ---------------------------------------------------------------------------
# Pointwise Duhamel sums
# ---------------------------------------------------------------------------

def duhamel_mode_response(lam: float, alpha: float, piece_values,
                          cuts, t: float) -> complex:
    """Amplitude u_n(t) of one eigenmode under the piecewise-constant source.

    u_n(t) = sum_{k: c_{k-1} < t} (p_k/lam) * [E_{a,1}(-lam (t-min(c_k,t))^a)
                                              - E_{a,1}(-lam (t-c_{k-1})^a)].

    This is the Duhamel formula that relaxation_design tabulates, evaluated
    point by point with the scalar mittag_leffler and so independent of it;
    TestDuhamel checks it against quadrature of the Duhamel integral.
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


def solve_field(model, points, t: float):
    """Eigenexpansion u(x, t) = sum_n u_n(t) phi_n(x) at (r, theta) points.

    The series solution of the direct problem that the boundary flux is
    derived from; TestSolveField checks its zero initial value, its
    Dirichlet condition and its steady state.
    """
    amps = []
    for n, mo in enumerate(model.spectrum.modes):
        pv = [pc[n] for pc in model.piece_coeffs]
        amps.append(duhamel_mode_response(mo.lam, model.alpha, pv, model.cuts, t))
    out = []
    for (r, theta) in points:
        val = 0.0 + 0.0j
        for n, mo in enumerate(model.spectrum.modes):
            val += amps[n] * eigenfunction_eval(mo, r, theta)
        out.append(val)
    return out


# ---------------------------------------------------------------------------
# Earlier forms of the pole term and the trace reader
# ---------------------------------------------------------------------------

def pole_term_one_shot(out, alpha, lams, cuts, times, starts, parts, tau_max, h):
    """forward_model._pole_term as it was before it ran in row blocks: on a
    uniform grid the powers z^m of every row form one rows x J complex
    array zm, and each cut's update is one expression over all its rows."""
    n, n_parts = len(times), len(parts)
    u_star = (np.log(lams) + 1j * math.pi * (1.0 - alpha)) / alpha
    r_star = np.exp(u_star)
    phase = np.mod(u_star.real / _NODE_STEP, 1.0) + 1j * u_star.imag / _NODE_STEP
    turn = np.exp(-2j * math.pi * phase)
    du = -(u_star + 1j * math.pi) / alpha
    coef, slope = np.zeros((2, n_parts, len(lams)), dtype=complex)
    for k, part in enumerate(parts):
        if part == "alpha":
            coef[k] = 2j / (alpha * (turn - 1.0)) * (
                2j * math.pi * turn * du / (_NODE_STEP * (turn - 1.0)) - 1.0 / alpha)
            slope[k] = -2j * r_star * du / (alpha * (turn - 1.0))
        else:
            coef[k] = 2j * (r_star if part == "rate" else 1.0) / (alpha * (turn - 1.0))
    tau_stop = float(np.max(np.log((np.abs(coef) + np.abs(slope) * tau_max) * 1e18)
                            / r_star.real))
    stops = np.searchsorted(times, cuts + tau_stop, side="right")
    if h is not None:
        rows = int(np.max(stops - starts))
        z_lo, z_hi = _stride_powers(r_star, h, rows, _stride(n))
        zm = (z_hi[:, None] * z_lo).reshape(-1, 1, len(lams))
    n_terms = 1 + ("alpha" in parts)
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


def detect_change_points_loop(t, values, c0_hat, changepoint_min_gap, sigma):
    """inversion.detect_change_points as it was before its vectorized scan:
    a Python loop over the second difference collects the local maxima above
    the threshold, and a stable sort orders them by size."""
    h = float(t[1] - t[0])
    summed = values[0] + values[1]
    scale = float(np.max(np.abs(summed))) or 1.0
    if sigma is None:
        sigma = _noise_sigma(summed)
    if sigma > 1e-9 * scale:
        lag = int(np.clip(round(0.1 * changepoint_min_gap / h), 1, 80))
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
        if (c0_hat + changepoint_min_gap - 1e-9 < tc < t[-1] - changepoint_min_gap
                and all(abs(tc - k) >= changepoint_min_gap for k in kept)):
            kept.append(tc)
    return sorted(kept)


def trace_from_csv_loop(text: str):
    """config.trace_from_csv as it was before it filled one array: float()
    on each cell, appended to two lists."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "t,flux":
        raise ValidationError("trace CSV must start with header 't,flux'",
                              clause="trace-csv")
    t, v = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            a, b = line.split(",")
            t.append(float(a))
            v.append(float(b))
        except ValueError:
            raise ValidationError(f"trace CSV line {lineno} is not two numbers: {line!r}",
                                  clause="trace-csv") from None
    t, v = np.asarray(t), np.asarray(v)
    bad = ~(np.isfinite(t) & np.isfinite(v))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"trace CSV line {i + 2} has a non-finite value: {lines[i + 1]!r}",
                              clause="trace-csv")
    return t, v


# ---------------------------------------------------------------------------
# Adjoint constructions
# ---------------------------------------------------------------------------

def normal_derivative_weight(mode, theta: float) -> complex:
    """Outward normal derivative d phi_n/d nu at the boundary point
    z = (1, theta): -sign * lambda * a_n(z), where the sign restores the
    signed normalizer that the closed form implicitly assumes.

    This is the modal weight of the paper's sparse boundary measurement
    du/dnu(z, t) = sum_n u_n(t) d phi_n/d nu(z) for one mode; the package
    takes -1/lambda_n times it from sensor_weights, and the tests check it
    against finite differences of eigenfunction_eval to pin the sign
    convention of boundary_coefficient and normalizer_sign."""
    return -normalizer_sign(mode) * mode.lam * boundary_coefficient(mode, theta)


@dataclass(frozen=True)
class AdjointSpec:
    """Mollifier parameters: sensor angle, harmonic truncation N, order."""

    theta_z: float
    N: int
    alpha: float

    def __post_init__(self):
        if self.N < 0:
            raise DomainError("N must be >= 0")


def delta_z_eval(spec: AdjointSpec, r, theta):
    """Truncated boundary mollifier sum_{|l|<=N} xi_l(z) xi_{-l}(r, theta);
    real-valued: (1/2pi)(1 + 2 sum_{l=1}^N r^l cos(l (theta_z - theta))).

    This is the paper's adjoint mollifier, the data of the adjoint system at
    the sensor z; tests use it as the reference for the boundary limit of
    adjoint_weight_w and for the projections a_n(z) (TestDeltaMollifier).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0) or np.any(r > 1):
        raise DomainError("r must lie in [0, 1]")
    acc = np.ones(np.broadcast(r, theta).shape)
    for el in range(1, spec.N + 1):
        acc = acc + 2.0 * r ** el * np.cos(el * (spec.theta_z - theta))
    out = acc / (2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def adjoint_weight_w(spec: AdjointSpec, spectrum: SpectrumTable, r, theta,
                     t: float):
    """Adjoint field w_z^N(x, t) as its eigenexpansion over modes with
    |m| <= N: sum a-bar_n(z) t^(a-1) [1/Gamma(a) - E_{a,a}(-lam_n t^a)] phi_n.

    This is the adjoint solution through which the paper relates the
    unknowns to the boundary data; tests check its truncation, its decay and
    its boundary limit t^(a-1) delta_z^N / Gamma(a) (TestAdjointWeight).
    E_{a,a} comes from the relaxation basis, J_|m|(sqrt(lam_n) r) from one
    Bessel call per order |m|, and the sign s_n of a-bar_n from
    normalizer_sign, which also signs the package's sensor_weights.
    """
    if not t > 0:
        raise DomainError("t must be positive")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0) or np.any(r > 1):
        raise DomainError("r must lie in [0, 1]")
    r, theta = np.broadcast_arrays(r, theta)
    alpha = spec.alpha
    modes = [mo for mo in spectrum.modes if abs(mo.m) <= spec.N]
    total = np.zeros(r.shape, dtype=complex)
    if not modes:  # a table built by hand may hold no order |m| <= N
        return complex(total) if total.ndim == 0 else total
    m = np.array([mo.m for mo in modes])
    lam = np.array([mo.lam for mo in modes])
    omega = np.array([mo.omega for mo in modes])
    sign = np.array([normalizer_sign(mo) for mo in modes])
    # the cut-0 rate at t is lam t^(a-1) E_{a,a}(-lam t^a); a +-m pair
    # shares its eigenvalue, so each distinct one is evaluated once
    lam_u, group = np.unique(lam, return_inverse=True)
    e_aa = relaxation_rates(alpha, lam_u, [0.0], [t])[0, group, 0] * t ** (1.0 - alpha) / lam
    weight = (sign * t ** (alpha - 1.0) * (1.0 / math.gamma(alpha) - e_aa) * omega
              / (math.sqrt(math.pi) * np.sqrt(lam)))
    for order in np.unique(np.abs(m)).tolist():
        sel = np.abs(m) == order
        k = np.sqrt(lam[sel])
        radial = _bessel_j_unchecked(order, np.multiply.outer(k, r))
        phase = np.exp(1j * np.multiply.outer(m[sel], theta - spec.theta_z))
        total += np.tensordot(weight[sel], radial * phase, axes=1)
    return complex(total) if total.ndim == 0 else total
