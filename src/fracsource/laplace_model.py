"""Laplace-domain measurement representation and numeric transforms of
traces.

Branch convention: s^alpha is the principal power,
exp(alpha*(ln|s| + i*Arg s)) with Arg s in (-pi, pi], on which the transform
is analytic in Re s > 0 and G(conj s) = conj G(s). There |Arg s^alpha| <
alpha pi/2 < pi/2, so Re s^alpha > 0 and |s^alpha + lambda_j| > lambda_j:
no pole lies in the half-plane that LaplacePoint admits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonError
from .forward_model import FluxTrace, SourceModel, grouped_amplitudes

__all__ = [
    "LaplacePoint",
    "laplace_flux_model",
    "numeric_laplace",
]


@dataclass(frozen=True)
class LaplacePoint:
    """A point of the right half-plane, where the transform is analytic."""

    s: complex

    def __post_init__(self):
        s = complex(self.s)
        if not s.real > 0:
            raise DomainError(f"Re s must be positive, got {s}")
        object.__setattr__(self, "s", s)


def laplace_flux_model(model: SourceModel, theta_z: float, s: LaplacePoint) -> complex:
    """L{-du/dnu}(z, s) in closed form:

    s^-1 sum_k (e^(-c_{k-1} s) - e^(-c_k s)) sum_j b_{j,k} lambda_j/(s^a+lambda_j).
    """
    lams = [lam for lam, _ in model.spectrum.distinct_eigenvalues]
    sv = s.s
    sa = np.exp(model.alpha * (np.log(abs(sv)) + 1j * math.atan2(sv.imag, sv.real)))
    b = grouped_amplitudes(model, theta_z)
    lam_arr = np.array(lams)
    frac = lam_arr / (sa + lam_arr)
    total = 0.0 + 0.0j
    for k in range(model.n_pieces):
        c_lo, c_hi = model.cuts[k], model.cuts[k + 1]
        win = np.exp(-c_lo * sv)
        if np.isfinite(c_hi):
            win -= np.exp(-c_hi * sv)
        total += win * np.sum(b[:, k] * frac)
    return complex(total / sv)


def numeric_laplace(trace: FluxTrace, s: LaplacePoint) -> complex:
    """int_0^T e^(-s t) (-flux)(t) dt by _laplace_pwlinear, the exact
    transform of the piecewise-linear interpolant of the trace; the horizon
    e^(-Re s T) must already be negligible."""
    sv = s.s
    t = trace.times
    horizon = float(np.exp(-sv.real * t[-1]))
    if horizon > 1e-10:
        raise HorizonError(
            f"exp(-Re s * T) = {horizon:.2e} > 1e-10 at T={t[-1]}; "
            "extend the trace")
    return complex(_laplace_pwlinear(t, -trace.values, sv))


def _laplace_pwlinear(t: np.ndarray, g: np.ndarray, s):
    """Exact transform of the piecewise-linear interpolant of g at s."""
    t0, t1 = t[:-1], t[1:]
    g0, g1 = g[:-1], g[1:]
    h = t1 - t0
    slope = (g1 - g0) / h
    x = s * h
    e0 = np.exp(-s * t0)
    # int_{t0}^{t1} e^{-s tau}(g0 + slope (tau-t0)) dtau
    #   = e^{-s t0} [ g0 (1-e^{-x})/s + slope (1 - (1+x) e^{-x})/s^2 ]
    small = np.abs(x) < 1e-4
    with np.errstate(invalid="ignore", over="ignore"):
        emx = np.exp(-x)
        f0 = np.where(small,
                      h * (1 - x / 2 + x * x / 6 - x ** 3 / 24),
                      (1 - emx) / s)
        f1 = np.where(small,
                      h * h * (0.5 - x / 3 + x * x / 8 - x ** 3 / 30),
                      (1 - (1 + x) * emx) / (s * s))
    return np.sum(e0 * (g0 * f0 + slope * f1))
