"""Scalar special functions and fractional-integral quadrature.

Everything here is deterministic and pure: no caches with observable state,
no randomized algorithms. The Mittag-Leffler evaluator is a three-regime
global scheme (power series with a cancellation certificate, optimal-truncation
asymptotics, and a collapsed-ray contour integral with adaptive panel
refinement), plus a half-order split recursion for orders above one and for
arguments too close to the contour rays. It is a scalar evaluator for complex
arguments: the reference for forward_model.duhamel_mode_response and the tests.
Batches on the negative real axis (synthesis, inversion, verify and
laplace_model.adjoint_weight_w) come from the exponential-sum relaxation basis
of forward_model instead. The evaluator takes 1/Gamma from math.gamma, and
no CLI command calls it.

Bessel J_m of integer order is plain numpy. For x >= max(30, m^2/2) it is
Hankel's asymptotic expansion with 24 terms, O(1) per point. Below that it
is the trapezoidal rule on Bessel's integral
J_m(x) = (2 pi)^-1 int_0^2pi cos(m tau - x sin tau) d tau, with about
2(x + m) + 64 nodes: the integrand is periodic and entire, so the rule
converges geometrically. J_m(0) is exact. The zeros come from one sign scan
per order, polished by a vectorized safeguarded Newton iteration.

The only caches are the Gauss-Legendre rules and the Hankel coefficients.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, BracketingError, DomainError

_EPS = float(np.finfo(float).eps)

__all__ = [
    "MLAccuracy",
    "SampledTrace",
    "mittag_leffler",
    "bessel_j",
    "bessel_j_zeros",
    "fractional_integral",
]


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


@dataclass(frozen=True)
class SampledTrace:
    """A function sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        if times.ndim != 1 or values.ndim != 1 or len(times) != len(values):
            raise DomainError("times and values must be 1-d arrays of equal length")
        if len(times) < 2:
            raise DomainError("a trace needs at least two samples")
        if not np.all(np.diff(times) > 0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def is_uniform(self) -> bool:
        dt = np.diff(self.times)
        return bool(np.allclose(dt, dt[0], rtol=1e-12, atol=1e-15))


# ---------------------------------------------------------------------------
# Mittag-Leffler machinery
# ---------------------------------------------------------------------------

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


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    """Gauss-Legendre rule on [-1, 1]; read-only, since every caller shares it."""
    x, w = leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(edges: np.ndarray, nodes: int):
    x, w = _gauss_legendre(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), \
        (half[:, None] * w[None, :]).ravel()


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
# Bessel functions
# ---------------------------------------------------------------------------

_BESSEL_BLOCK = 1 << 16  # entries of one points x nodes block of the trapezoidal rule
_HANKEL_TERMS = 24


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind, integer order."""
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= 200):
        raise DomainError(f"order m={m} outside supported integer range [0, 200]")
    x = float(x)
    if not 0.0 <= x <= 1e4:
        raise DomainError(f"argument x={x} outside supported range [0, 1e4]")
    return float(_bessel_j_unchecked(int(m), x))


def _bessel_j_unchecked(m: int, x) -> np.ndarray:
    """J_m(x) elementwise for an integer m >= 0 and x >= 0; no range checks.

    Hankel's expansion where x >= max(30, m^2/2), the trapezoidal rule on
    Bessel's integral below that, and the exact values at x = 0. The rule's
    error is absolute (below 1e-15 for x < 30, up to 2e-14 near x = 1e4),
    so values far smaller than that (x << m) carry no relative accuracy.
    """
    x = np.asarray(x, dtype=float)
    x_far = max(30.0, 0.5 * m * m)
    if x.ndim == 0 and x >= x_far:  # in Python floats, ten times faster than 0-d arrays
        return np.float64(_bessel_hankel(m, float(x)))
    flat = x.ravel()
    out = np.empty_like(flat)
    far = flat >= x_far
    if far.any():
        out[far] = _bessel_hankel(m, flat[far])
    near = ~far
    if near.any():
        out[near] = _bessel_trapezoid(m, flat[near])
    out[flat == 0.0] = 1.0 if m == 0 else 0.0
    return out.reshape(x.shape)


def _bessel_trapezoid(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x) = (2 pi)^-1 int_0^2pi cos(m tau - x sin tau) d tau by the
    trapezoidal rule on 2n points, folded onto [0, pi] by symmetry.

    The integrand is periodic and entire, so the rule's error is the aliased
    J_(2n-m)(x), negligible once 2n - m > 2x + m + 64; n > x + m + 32 grows
    with x in steps of 16, so a value does not depend on the rest of its
    batch. Distinct x are evaluated once, in blocks of at most _BESSEL_BLOCK
    matrix entries.
    """
    xs, inv = np.unique(x, return_inverse=True)
    halves = m + 48 + 16 * (xs // 16).astype(int)
    out = np.empty_like(xs)
    lo = 0
    while lo < xs.size:
        n = int(halves[lo])
        hi = min(int(np.searchsorted(halves, n, side="right")),
                 lo + max(1, _BESSEL_BLOCK // (n + 1)))
        tau = np.arange(n + 1) * (math.pi / n)
        w = np.full(n + 1, 1.0 / n)
        w[[0, n]] = 0.5 / n
        out[lo:hi] = np.cos(m * tau - np.multiply.outer(xs[lo:hi], np.sin(tau))) @ w
        lo = hi
    return out[inv]


@functools.lru_cache(maxsize=256)
def _hankel_coefficients(m: int):
    """Coefficients of P and Q in Hankel's expansion, each a polynomial in
    1/x^2, highest power first: a_k = prod_j (4m^2 - (2j - 1)^2) / (k! 8^k),
    alternating in sign. For x >= max(30, m^2/2) the first omitted term is
    below 1e-19."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4.0 * m * m - (2 * k - 1) ** 2) / (8.0 * k))
    p = [a[2 * j] * (-1) ** j for j in range(_HANKEL_TERMS // 2)]
    q = [a[2 * j + 1] * (-1) ** j for j in range(_HANKEL_TERMS // 2)]
    return tuple(zip(p[::-1], q[::-1]))


def _bessel_hankel(m: int, x):
    """Hankel's expansion sqrt(2/(pi x)) (P cos chi - Q sin chi), with
    chi = x - (2m + 1) pi/4, for an array or a float x. cos chi and sin chi
    come from cos x, sin x and the exact values of the phase: rounding
    x - phase would cost up to ulp(x) of the argument."""
    y2 = 1.0 / (x * x)
    p = q = 0.0
    for cp, cq in _hankel_coefficients(m):  # Horner in 1/x^2
        p = p * y2 + cp
        q = q * y2 + cq
    half = math.sqrt(0.5)
    cos_ph = half if m % 4 in (0, 3) else -half  # cos((2m + 1) pi/4)
    sin_ph = half if m % 4 in (0, 1) else -half
    fn = math if isinstance(x, float) else np
    cos_x, sin_x = fn.cos(x), fn.sin(x)
    cos_chi = cos_x * cos_ph + sin_x * sin_ph
    sin_chi = sin_x * cos_ph - cos_x * sin_ph
    return fn.sqrt(2.0 / (math.pi * x)) * (p * cos_chi - q / x * sin_chi)


def bessel_j_zeros(m: int, count: int) -> np.ndarray:
    """First `count` positive zeros of J_m, strictly increasing.

    One sign scan with step 0.5 (below the smallest spacing of consecutive
    zeros, which exceeds 3) brackets every zero between a start below
    j_(m,1) (Olver's estimate minus 1.5) and (count + m/2 + 1) pi, which
    lies above j_(m,count) for every m >= 0. Newton then polishes all
    brackets at once, with bisection wherever a step leaves its bracket.
    """
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= 200):
        raise DomainError(f"order m={m} outside supported integer range [0, 200]")
    count = int(count)
    if count < 1:
        raise DomainError("count must be >= 1")
    m = int(m)
    if m >= 1:
        mt = float(m) ** (1.0 / 3.0)
        start = m + 1.8557571 * mt + 1.033150 / mt - 1.5
    else:
        start = 1.0
    grid = start + 0.5 * np.arange(int(2.0 * ((count + 0.5 * m + 1.0) * math.pi - start)) + 2)
    neg = _bessel_j_unchecked(m, grid) < 0.0
    left = np.flatnonzero(neg[:-1] != neg[1:])
    if left.size < count:
        raise BracketingError(f"could not bracket zero {left.size + 1} of J_{m}")
    left = left[:count]
    zeros = _polish_zeros(m, grid[left], grid[left + 1])
    if count > 1 and not np.all(np.diff(zeros) > 2.0):
        raise BracketingError(f"zero spacing check failed for J_{m}")
    if np.any(np.abs(_bessel_j_unchecked(m, zeros)) > 1e-11):
        raise BracketingError(f"zero residual check failed for J_{m}")
    return zeros


def _polish_zeros(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Safeguarded Newton on every bracket [a, b] of a sign change at once:
    start at the midpoints, shrink each bracket to the iterate's side, and
    bisect wherever a Newton step leaves its bracket. A point stops on an
    exact zero or a step below 5e-16 max(1, x). Updates a and b in place."""
    neg_a = _bessel_j_unchecked(m, a) < 0.0
    x = 0.5 * (a + b)
    live = np.arange(x.size)
    for _ in range(100):
        xl = x[live]
        f = _bessel_j_unchecked(m, xl)
        if m == 0:
            df = -_bessel_j_unchecked(1, xl)
        else:  # J_m' = J_(m-1) - (m/x) J_m
            df = _bessel_j_unchecked(m - 1, xl) - (m / xl) * f
        right = (f < 0.0) == neg_a[live]  # the zero lies right of xl
        a[live] = np.where(right, xl, a[live])
        b[live] = np.where(right, b[live], xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = xl - f / df
        outside = ~((a[live] <= x_new) & (x_new <= b[live]))
        x_new[outside] = 0.5 * (a[live] + b[live])[outside]
        hit = f == 0.0
        x[live] = np.where(hit, xl, x_new)
        done = hit | (np.abs(x_new - xl) < 5e-16 * np.maximum(1.0, xl))
        live = live[~done]
        if live.size == 0:
            break
    return x


# ---------------------------------------------------------------------------
# Riemann-Liouville fractional integral by product integration
# ---------------------------------------------------------------------------

def fractional_integral(trace: SampledTrace, beta: float) -> SampledTrace:
    """(I^beta psi)(t) on the grid of `trace`.

    The piecewise-linear interpolant of psi is integrated exactly against the
    (t - tau)^(beta-1) kernel, so the endpoint singularity costs no accuracy
    order: the error is O(h^2) for smooth psi. The grid must be uniform.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta={beta} outside (0, 1)")
    t = trace.times
    if t[0] != 0.0:
        raise DomainError("trace must start at t=0")
    if not trace.is_uniform:
        raise DomainError("fractional_integral needs a uniform time grid")
    out = _frac_int_uniform(np.asarray(trace.values), float(t[1] - t[0]), beta)
    return SampledTrace(times=t, values=out)


def _power_increments(d: np.ndarray, p: float) -> np.ndarray:
    """d^p - (d-1)^p for integer-valued d >= 1, cancellation-safe via expm1."""
    out = np.empty_like(d)
    out[d == 1.0] = 1.0
    big = d > 1.0
    dd = d[big]
    out[big] = dd ** p * (-np.expm1(p * np.log1p(-1.0 / dd)))
    return out


def _frac_int_uniform(psi: np.ndarray, h: float, beta: float) -> np.ndarray:
    """Uniform-grid product integration as a discrete convolution.

    For output index i, interval j contributes psi_j*a(i-j) + psi_{j+1}*b(i-j)
    with lag-only weights, so the sum is a convolution up to one ghost
    interval left of t=0 that is subtracted afterwards. The convolution is
    taken by FFT, O(n log n) instead of the O(n^2) direct sum.
    """
    n = len(psi)
    d = np.arange(1, n + 1, dtype=float)
    inc = _power_increments(d, beta)
    inc1 = _power_increments(d, beta + 1.0)
    m0 = h ** beta * inc / beta                           # int u^(b-1) du
    m1 = h ** (beta + 1.0) * (d * inc / beta - inc1 / (beta + 1.0))
    a = np.concatenate([[0.0], m0 - m1 / h])  # weight of psi_j at lag d=i-j
    b = np.concatenate([[0.0], m1 / h])       # weight of psi_{j+1} at lag d=i-j
    c = np.zeros(n)
    c[0] = b[1]
    c[1:] = a[1:n]
    c[1:] += b[2:n + 1]
    # the first n terms of the convolution psi * c, as a product of
    # transforms zero-padded past 2n - 1 (so nothing wraps around)
    size = 1 << (2 * n - 1).bit_length()
    c_hat = np.fft.rfft(c, size)

    def conv_real(x):
        return np.fft.irfft(np.fft.rfft(x, size) * c_hat, size)[:n]

    if np.iscomplexobj(psi):
        conv = conv_real(psi.real) + 1j * conv_real(psi.imag)
    else:
        conv = conv_real(psi)
    conv[1:] -= psi[0] * b[2:n + 1]
    conv[0] = 0.0
    return conv / math.gamma(beta)
