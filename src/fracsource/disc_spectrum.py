"""Dirichlet eigensystem of -Laplace on the unit disc.

Eigenfunctions are omega * J_|m|(sqrt(lambda) r) * exp(i m theta) with
sqrt(lambda) a positive zero of J_|m|. Eigenvalues with m != 0 come in
conjugate pairs (+m, -m) sharing the same lambda; pairing and ordering are
fixed here once and relied on everywhere else.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, EmptySpectrumError, ShapeError
from .specfun import bessel_j_zeros, _bessel_j_unchecked

_SQRT_PI = math.sqrt(math.pi)

__all__ = [
    "EigenMode",
    "SpectrumTable",
    "ModeCoefficients",
    "build_spectrum",
    "eigenfunction_eval",
    "boundary_coefficient",
    "normalizer_sign",
    "sensor_weights",
    "project_function",
    "spectrum_to_json",
]


@dataclass(frozen=True)
class EigenMode:
    """One disc Dirichlet eigenpair; sign of m encodes exp(+-i|m|theta)."""

    m: int
    k: int
    lam: float
    omega: float

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("radial index k must be >= 1")
        if not self.lam > 0 or not self.omega > 0:
            raise DomainError("lambda and omega must be positive")


@dataclass(frozen=True)
class SpectrumTable:
    """Modes sorted by eigenvalue (ties: +m before -m) plus the grouping of
    mode indices by distinct eigenvalue."""

    modes: tuple
    distinct_eigenvalues: tuple = field(default=None)

    def __post_init__(self):
        modes = tuple(self.modes)
        lams = [mo.lam for mo in modes]
        if any(lams[i] > lams[i + 1] for i in range(len(lams) - 1)):
            raise ShapeError("modes must be sorted by eigenvalue")
        groups = []
        i = 0
        while i < len(modes):
            j = i
            while j + 1 < len(modes) and modes[j + 1].lam == modes[i].lam:
                j += 1
            idx = list(range(i, j + 1))
            if len(idx) not in (1, 2):
                raise ShapeError("eigenvalue multiplicity must be 1 or 2")
            if len(idx) == 2:
                if modes[idx[0]].m != -modes[idx[1]].m or modes[idx[0]].m <= 0:
                    raise ShapeError("multiplicity-2 group must be a (+m,-m) pair")
            elif modes[idx[0]].m != 0:
                raise ShapeError("multiplicity-1 eigenvalue must have m=0")
            groups.append((modes[i].lam, tuple(idx)))
            i = j + 1
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "distinct_eigenvalues", tuple(groups))

    def __len__(self):
        return len(self.modes)

    def index_of(self, m: int, k: int) -> int:
        for i, mo in enumerate(self.modes):
            if mo.m == m and mo.k == k:
                return i
        raise KeyError(f"mode (m={m}, k={k}) not in spectrum")


@dataclass(frozen=True)
class ModeCoefficients:
    """Complex coefficients aligned with SpectrumTable.modes."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1:
            raise ShapeError("coefficients must be a 1-d array")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def is_real_field(self, spectrum: SpectrumTable, tol: float = 1e-10) -> bool:
        """True when conjugate symmetry holds: coeff(-m,k) == conj(coeff(+m,k))
        and m=0 coefficients are real."""
        if len(self) != len(spectrum):
            raise ShapeError("coefficients do not match the spectrum")
        for _, idx in spectrum.distinct_eigenvalues:
            if len(idx) == 1:
                if abs(self.values[idx[0]].imag) > tol:
                    return False
            else:
                if abs(self.values[idx[0]] - np.conj(self.values[idx[1]])) > tol:
                    return False
        return True


def build_spectrum(lambda_max: float) -> SpectrumTable:
    """All modes with eigenvalue <= lambda_max.

    The angular search bound ceil(sqrt(lambda_max)) + 2 is safe because
    j_{m,1} > m, so orders beyond it cannot reach the cutoff.
    """
    first = 2.404825557695773  # j_{0,1}
    if lambda_max < first ** 2:
        raise EmptySpectrumError(
            f"lambda_max={lambda_max} below the first eigenvalue {first**2:.6f}")
    sq = math.sqrt(lambda_max)
    m_bound = int(math.ceil(sq)) + 2
    modes = []
    for m in range(0, m_bound + 1):
        # count zeros <= sq: spacing > 2, so overshoot then trim
        approx = max(4, int(sq / 2.0) + 4)
        zeros = bessel_j_zeros(m, approx)
        while zeros[-1] <= sq:
            approx *= 2
            zeros = bessel_j_zeros(m, approx)
        zeros = zeros[zeros <= sq]
        if len(zeros) == 0:
            break  # j_{m,1} increases with m: higher orders cannot contribute
        omegas = 1.0 / (_SQRT_PI * np.abs(_bessel_j_unchecked(m + 1, zeros)))
        for k, (z, omega) in enumerate(zip(zeros, omegas.tolist()), start=1):
            lam = z * z
            modes.append(EigenMode(m=m, k=k, lam=lam, omega=omega))
            if m > 0:
                modes.append(EigenMode(m=-m, k=k, lam=lam, omega=omega))
    modes.sort(key=lambda mo: (mo.lam, -mo.m))
    return SpectrumTable(modes=tuple(modes))


def eigenfunction_eval(mode: EigenMode, r, theta):
    """omega * J_|m|(sqrt(lam) r) * exp(i m theta); broadcasts over arrays."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0) or np.any(r > 1):
        raise DomainError("r must lie in [0, 1]")
    rad = _bessel_j_unchecked(abs(mode.m), math.sqrt(mode.lam) * r)
    val = mode.omega * rad * np.exp(1j * mode.m * theta)
    return complex(val) if val.ndim == 0 else val


def boundary_coefficient(mode: EigenMode, theta_z: float) -> complex:
    """a_n(z) = pi^(-1/2) lambda^(-1/2) exp(i m theta_z)."""
    return complex(np.exp(1j * mode.m * theta_z) / (_SQRT_PI * math.sqrt(mode.lam)))


def normalizer_sign(mode: EigenMode) -> float:
    """Sign of J_{|m|+1}(sqrt(lambda)) for this mode, (-1)^(k+1): the zeros
    of J_|m| and J_{|m|+1} interlace (DLMF 10.21(i)). With the positive
    normalizer convention (omega > 0) every pairing of an eigenfunction with
    the closed-form coefficients a_n picks up this sign; the measurement
    takes it from sensor_weights."""
    return 1.0 if mode.k % 2 else -1.0


def sensor_weights(spectrum: SpectrumTable, theta_z: float) -> np.ndarray:
    """The one definition of the sensor weights s_n a_n(z) of the boundary
    measurement du/dnu(z, t) = -sum_n lambda_n s_n a_n(z) u_n(t), for every
    mode at z = (1, theta_z); s_n is normalizer_sign."""
    return np.array([normalizer_sign(mo) * boundary_coefficient(mo, theta_z)
                     for mo in spectrum.modes])


def project_function(f, spectrum: SpectrumTable) -> ModeCoefficients:
    """Quadrature inner products <f, phi_n> over the disc.

    64-point Gauss-Legendre in radius (with the r dr weight), trapezoid on
    256 angles (spectrally accurate for periodic integrands).
    """
    xg, wg = leggauss(64)
    r = 0.5 * (xg + 1.0)
    wr = 0.5 * wg * r
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    wth = 2.0 * np.pi / 256
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    fv = np.asarray(f(rr, tt), dtype=complex)
    if fv.shape != rr.shape:
        fv = np.broadcast_to(fv, rr.shape).astype(complex)
    vals = np.empty(len(spectrum), dtype=complex)
    # angular transform once: the trapezoid sums of f * exp(-i m theta) over
    # the equispaced angles are the DFT of f along theta, at index m mod N
    ang = np.fft.fft(fv, axis=1) * wth
    for i, mo in enumerate(spectrum.modes):
        rad = mo.omega * _bessel_j_unchecked(abs(mo.m), math.sqrt(mo.lam) * r)
        vals[i] = np.sum(ang[:, mo.m % 256] * rad * wr)
    return ModeCoefficients(values=vals)


def spectrum_to_json(spectrum: SpectrumTable) -> str:
    """Stable export schema: array of {m, k, lambda, omega}."""
    rows = [{"m": mo.m, "k": mo.k, "lambda": mo.lam, "omega": mo.omega}
            for mo in spectrum.modes]
    return json.dumps(rows, indent=1)
