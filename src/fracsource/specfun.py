"""Bessel functions, Gauss-Legendre panels and fractional-integral quadrature.

Everything here is deterministic and pure: no caches with observable state,
no randomized algorithms. Mittag-Leffler values come from the
exponential-sum relaxation basis of forward_model, which every command uses.

Bessel J_m of integer order is plain numpy. For x >= max(30, m^2/2) it is
Hankel's asymptotic expansion with 24 terms, O(1) per point. Below that it
is the trapezoidal rule on Bessel's integral
J_m(x) = (2 pi)^-1 int_0^2pi cos(m tau - x sin tau) d tau, with about
2(x + m) + 64 nodes: the integrand is periodic and entire, so the rule
converges geometrically. J_m(0) is exact. Zeros up to a bound come from one
sign scan per order, polished by a vectorized safeguarded Newton iteration.

The only caches are the Gauss-Legendre rules and the Hankel coefficients.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BracketingError, DomainError

__all__ = [
    "bessel_j",
    "bessel_j_zeros",
    "fractional_integral",
]


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    """Gauss-Legendre rule on [-1, 1]; read-only, since every caller shares it.
    A command that builds no rule never loads numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(edges: np.ndarray, nodes: int):
    """Nodes and weights of the composite rule with `nodes` points on each
    panel [edges[i], edges[i + 1]]."""
    x, w = _gauss_legendre(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), \
        (half[:, None] * w[None, :]).ravel()


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
    flat = x.ravel()
    out = np.empty_like(flat)
    far = flat >= max(30.0, 0.5 * m * m)
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
    with x in steps of 16, so the rule a value gets does not depend on the
    rest of its batch. Its last bits can: the BLAS product rounds by the
    rows of its block (j_(10,2) of build_spectrum(400) moved by 1 ulp when
    its order's batch of zeros shrank). Distinct x are evaluated once, in
    blocks of at most _BESSEL_BLOCK matrix entries.
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


def _bessel_hankel(m: int, x: np.ndarray) -> np.ndarray:
    """Hankel's expansion sqrt(2/(pi x)) (P cos chi - Q sin chi), with
    chi = x - (2m + 1) pi/4. cos chi and sin chi come from cos x, sin x and
    the exact values of the phase: rounding x - phase would cost up to
    ulp(x) of the argument."""
    y2 = 1.0 / (x * x)
    p = q = 0.0
    for cp, cq in _hankel_coefficients(m):  # Horner in 1/x^2
        p = p * y2 + cp
        q = q * y2 + cq
    half = math.sqrt(0.5)
    cos_ph = half if m % 4 in (0, 3) else -half  # cos((2m + 1) pi/4)
    sin_ph = half if m % 4 in (0, 1) else -half
    cos_x, sin_x = np.cos(x), np.sin(x)
    cos_chi = cos_x * cos_ph + sin_x * sin_ph
    sin_chi = sin_x * cos_ph - cos_x * sin_ph
    return np.sqrt(2.0 / (math.pi * x)) * (p * cos_chi - q / x * sin_chi)


def bessel_j_zeros(m: int, upper: float) -> np.ndarray:
    """Every positive zero of J_m up to `upper`, strictly increasing; empty
    when j_(m,1) > upper.

    One sign scan with step 0.5 (below the smallest spacing of consecutive
    zeros, which exceeds 3) from a start below j_(m,1) (Olver's estimate
    minus 1.5) to the first grid point past `upper` brackets every such
    zero. Newton then polishes those brackets at once, with bisection
    wherever a step leaves its bracket.
    """
    if not (isinstance(m, (int, np.integer)) and 0 <= m <= 200):
        raise DomainError(f"order m={m} outside supported integer range [0, 200]")
    upper = float(upper)
    if not (math.isfinite(upper) and upper > 0.0):
        raise DomainError(f"upper={upper} must be a finite number > 0")
    m = int(m)
    if m >= 1:
        mt = float(m) ** (1.0 / 3.0)
        start = m + 1.8557571 * mt + 1.033150 / mt - 1.5
    else:
        start = 1.0
    grid = start + 0.5 * np.arange(int(2.0 * (upper - start)) + 2)
    neg = _bessel_j_unchecked(m, grid) < 0.0
    left = np.flatnonzero(neg[:-1] != neg[1:])
    zeros = _polish_zeros(m, grid[left], grid[left + 1])
    zeros = zeros[zeros <= upper]
    if not np.all(np.diff(zeros) > 2.0):
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

def _power_increments(d: np.ndarray, p: float) -> np.ndarray:
    """d^p - (d-1)^p for integer-valued d >= 1, cancellation-safe via expm1."""
    out = np.empty_like(d)
    out[d == 1.0] = 1.0
    big = d > 1.0
    dd = d[big]
    out[big] = dd ** p * (-np.expm1(p * np.log1p(-1.0 / dd)))
    return out


def fractional_integral(values: np.ndarray, h: float, beta: float) -> np.ndarray:
    """(I^beta psi)(t_i) of real samples psi_i = values[i] on the uniform
    grid t_i = i h.

    The piecewise-linear interpolant of psi is integrated exactly against the
    (t - tau)^(beta-1) kernel, so the endpoint singularity costs no accuracy
    order: the error is O(h^2) for smooth psi. For output index i, interval j
    contributes psi_j*a(i-j) + psi_{j+1}*b(i-j) with lag-only weights, so the
    sum is a convolution up to one ghost interval left of t=0 that is
    subtracted afterwards. The convolution is taken by FFT, O(n log n)
    instead of the O(n^2) direct sum.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta={beta} outside (0, 1)")
    n = len(values)
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
    conv = np.fft.irfft(np.fft.rfft(values, size) * np.fft.rfft(c, size), size)[:n]
    conv[1:] -= values[0] * b[2:n + 1]
    conv[0] = 0.0
    return conv / math.gamma(beta)
