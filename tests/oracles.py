"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the implementation paths it checks:
Bessel values come from the plain power series, Bessel zeros from bisection
on that series, Mittag-Leffler reference values from the erfcx identity, the
frozen high-precision file or the power series in mpmath, and integrals from
generic quadrature.
"""
import functools
import json
import math
import os

import numpy as np
import pytest
from scipy.special import erfcx

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
