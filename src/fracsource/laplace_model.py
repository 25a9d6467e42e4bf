"""Laplace-domain measurement representation, numeric transforms of traces,
and the adjoint mollifier constructions.

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

from .disc_spectrum import SpectrumTable, normalizer_sign
from .errors import DomainError, HorizonError
from .forward_model import FluxTrace, SourceModel, grouped_amplitudes, relaxation_rates
from .specfun import _bessel_j_unchecked

__all__ = [
    "LaplacePoint",
    "AdjointSpec",
    "laplace_flux_model",
    "numeric_laplace",
    "delta_z_eval",
    "adjoint_weight_w",
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


@dataclass(frozen=True)
class AdjointSpec:
    """Mollifier parameters: sensor angle, harmonic truncation N, order."""

    theta_z: float
    N: int
    alpha: float

    def __post_init__(self):
        if self.N < 0:
            raise DomainError("N must be >= 0")


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
    normalizer_sign, which defines it once for this and sensor_weights.
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
    # sorted(set(...)), not np.unique, which imports numpy.ma
    for order in sorted(set(np.abs(m).tolist())):
        sel = np.abs(m) == order
        k = np.sqrt(lam[sel])
        radial = _bessel_j_unchecked(order, np.multiply.outer(k, r))
        phase = np.exp(1j * np.multiply.outer(m[sel], theta - spec.theta_z))
        total += np.tensordot(weight[sel], radial * phase, axes=1)
    return complex(total) if total.ndim == 0 else total
