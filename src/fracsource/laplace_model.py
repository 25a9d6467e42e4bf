"""Laplace-domain measurement representation, numeric transforms of traces,
the adjoint mollifier constructions, and pole bookkeeping in the cut plane.

Branch convention: arguments live in [0, 2pi), so s^alpha means
exp(alpha*(ln|s| + i*arg s)) under that convention and the transform's poles
(-lambda_j)^(1/alpha) = lambda_j^(1/alpha) exp(i pi/alpha) sit inside the
branch whenever alpha > 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disc_spectrum import SpectrumTable
from .errors import DomainError, HorizonError, PoleProximityError, ShapeError
from .forward_model import FluxTrace, SourceModel, grouped_amplitudes, relaxation_rates
from .specfun import _bessel_j_unchecked

__all__ = [
    "LaplacePoint",
    "LaplaceSamples",
    "AdjointSpec",
    "branch_power",
    "pole_locations",
    "laplace_flux_model",
    "numeric_laplace",
    "delta_z_eval",
    "adjoint_weight_w",
]


def branch_power(s: complex, alpha: float) -> complex:
    """s^alpha with the argument taken in [0, 2pi)."""
    s = complex(s)
    if s == 0:
        raise DomainError("s=0 is outside the branch")
    arg = math.atan2(s.imag, s.real)
    if arg < 0:
        arg += 2.0 * math.pi
    return complex(np.exp(alpha * (np.log(abs(s)) + 1j * arg)))


@dataclass(frozen=True)
class LaplacePoint:
    """A point of the right half-plane, kept away from transform poles."""

    s: complex

    def __post_init__(self):
        s = complex(self.s)
        if not s.real > 0:
            raise DomainError(f"Re s must be positive, got {s}")
        object.__setattr__(self, "s", s)

    def check_poles(self, alpha: float, distinct_lambdas):
        """Raise PoleProximityError within 1e-6 of a pole of the transform."""
        for p in pole_locations(alpha, distinct_lambdas):
            if abs(self.s - p) < 1e-6:
                raise PoleProximityError(f"s={self.s} within 1e-6 of pole {p}")


@dataclass(frozen=True)
class LaplaceSamples:
    points: tuple
    values: np.ndarray

    def __post_init__(self):
        pts = tuple(self.points)
        vals = np.asarray(self.values, dtype=complex)
        if len(pts) != len(vals):
            raise ShapeError("points and values must align")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        lines = ["re_s,im_s,re_G,im_G"]
        for p, v in zip(self.points, self.values):
            lines.append(f"{p.s.real!r},{p.s.imag!r},{v.real!r},{v.imag!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AdjointSpec:
    """Mollifier parameters: sensor angle, harmonic truncation N, order."""

    theta_z: float
    N: int
    alpha: float

    def __post_init__(self):
        if self.N < 0:
            raise DomainError("N must be >= 0")


def pole_locations(alpha: float, distinct_lambdas) -> list:
    """(-lambda_j)^(1/alpha) on the branch: modulus lambda_j^(1/alpha),
    argument pi/alpha (inside (pi, 2pi) for alpha in (1/2, 1))."""
    if not 0.5 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (1/2, 1)")
    out = []
    for lam in distinct_lambdas:
        if lam <= 0:
            raise DomainError("eigenvalues must be positive")
        rho = lam ** (1.0 / alpha)
        out.append(complex(rho * np.exp(1j * math.pi / alpha)))
    return out


def laplace_flux_model(model: SourceModel, theta_z: float, s: LaplacePoint) -> complex:
    """L{-du/dnu}(z, s) in closed form:

    s^-1 sum_k (e^(-c_{k-1} s) - e^(-c_k s)) sum_j b_{j,k} lambda_j/(s^a+lambda_j).
    """
    lams = [lam for lam, _ in model.spectrum.distinct_eigenvalues]
    s.check_poles(model.alpha, lams)
    sv = s.s
    sa = branch_power(sv, model.alpha)
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
    """Quadrature of int_0^T e^(-s t) (-flux)(t) dt with the piecewise-linear
    interpolant integrated exactly per interval; the horizon e^(-Re s T) must
    already be negligible."""
    sv = s.s
    t = trace.times
    horizon = float(np.exp(-sv.real * t[-1]))
    if horizon > 1e-10:
        raise HorizonError(
            f"exp(-Re s * T) = {horizon:.2e} > 1e-10 at T={t[-1]}; "
            "extend the trace")
    return _laplace_pwlinear(t, -trace.values, sv)


def _laplace_pwlinear(t: np.ndarray, g: np.ndarray, s: complex) -> complex:
    """Exact transform of the piecewise-linear interpolant of g."""
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
    return complex(np.sum(e0 * (g0 * f0 + slope * f1)))


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
    E_{a,a} comes from the relaxation basis, and the Bessel factors of the
    modes (J_|m|(sqrt(lam_n) r), and the sign of J_|m|+1(sqrt(lam_n)) in
    a-bar_n) from one call per order |m|.
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
    # the cut-0 rate at t is lam t^(a-1) E_{a,a}(-lam t^a); a +-m pair
    # shares its eigenvalue, so each distinct one is evaluated once
    lam_u, group = np.unique(lam, return_inverse=True)
    e_aa = relaxation_rates(alpha, lam_u, [0.0], [t])[0, group, 0] * t ** (1.0 - alpha) / lam
    weight = (t ** (alpha - 1.0) * (1.0 / math.gamma(alpha) - e_aa) * omega
              / (math.sqrt(math.pi) * np.sqrt(lam)))
    # sorted(set(...)), not np.unique, which imports numpy.ma
    for order in sorted(set(np.abs(m).tolist())):
        sel = np.abs(m) == order
        k = np.sqrt(lam[sel])
        sign = np.where(_bessel_j_unchecked(order + 1, k) >= 0, 1.0, -1.0)
        radial = _bessel_j_unchecked(order, np.multiply.outer(k, r))
        phase = np.exp(1j * np.multiply.outer(m[sel], theta - spec.theta_z))
        total += np.tensordot(sign * weight[sel], radial * phase, axes=1)
    return complex(total) if total.ndim == 0 else total
