import math

import numpy as np
import pytest

from fracsource.disc_spectrum import (
    EigenMode,
    ModeCoefficients,
    SpectrumTable,
    boundary_coefficient,
    build_spectrum,
    eigenfunction_eval,
    normalizer_sign,
    project_function,
    sensor_weights,
    spectrum_to_json,
)
from fracsource.errors import DomainError, EmptySpectrumError, ShapeError
from fracsource.specfun import _bessel_j_unchecked, bessel_j

import oracles
from oracles import normal_derivative_weight


class TestBuildSpectrum:
    def test_single_mode_cutoff(self):
        sp = build_spectrum(6.0)
        assert len(sp) == 1
        j01 = oracles.bessel_zero_bisect(0, 1)
        assert sp.modes[0].lam == pytest.approx(j01 ** 2, abs=1e-10)
        assert sp.modes[0].lam == pytest.approx(5.783185962946785, abs=1e-11)
        assert sp.modes[0].m == 0

    def test_multiplicity_pair_at_15(self):
        sp = build_spectrum(15.0)
        j11 = oracles.bessel_zero_bisect(1, 1)
        assert j11 == pytest.approx(3.8317059702, abs=1e-9)
        lam_pair = [g for g in sp.distinct_eigenvalues
                    if abs(g[0] - j11 ** 2) < 1e-8]
        assert len(lam_pair) == 1
        idx = lam_pair[0][1]
        assert len(idx) == 2
        assert sp.modes[idx[0]].m == 1 and sp.modes[idx[1]].m == -1

    def test_below_first_eigenvalue(self):
        with pytest.raises(EmptySpectrumError):
            build_spectrum(5.0)

    def test_completeness_and_ordering(self):
        sp = build_spectrum(120.0)
        lams = np.array([mo.lam for mo in sp.modes])
        assert np.all(np.diff(lams) >= 0)
        assert np.all(lams <= 120.0)
        # no mode missed: every (m, k) with j_{m,k}^2 <= cutoff is present
        for m in range(0, 14):
            for k in range(1, 5):
                z = oracles.bessel_zero_bisect(m, k) if z_small(m, k) else None
                if z is None:
                    continue
                if z * z <= 120.0:
                    sp.index_of(m, k)
                    if m > 0:
                        sp.index_of(-m, k)

    def test_multiplicity_structure(self):
        sp = build_spectrum(200.0)
        for lam, idx in sp.distinct_eigenvalues:
            assert len(idx) in (1, 2)
            ms = [sp.modes[i].m for i in idx]
            if len(idx) == 1:
                assert ms == [0]
            else:
                assert ms[0] > 0 and ms[1] == -ms[0]

    def test_tie_ordering_plus_m_first(self):
        sp = build_spectrum(60.0)
        for _, idx in sp.distinct_eigenvalues:
            if len(idx) == 2:
                assert sp.modes[idx[0]].m > 0 > sp.modes[idx[1]].m


def z_small(m, k):
    # oracle zero-finding is series-based; keep it in its accurate range
    return (m + k * math.pi) < 18


class TestEigenfunctions:
    def test_dirichlet_boundary(self, spectrum30):
        for mo in spectrum30.modes:
            for theta in (0.0, 1.1, 4.7):
                assert abs(eigenfunction_eval(mo, 1.0, theta)) <= 1e-10

    def test_center_values(self, spectrum30):
        mo = spectrum30.modes[spectrum30.index_of(0, 1)]
        val = eigenfunction_eval(mo, 0.0, 0.0)
        assert val.real == pytest.approx(1.0868, abs=2e-4)
        assert val.real == pytest.approx(mo.omega, abs=1e-14)
        mo1 = spectrum30.modes[spectrum30.index_of(1, 1)]
        assert eigenfunction_eval(mo1, 0.0, 0.3) == 0.0

    def test_r_domain_guard(self, spectrum30):
        with pytest.raises(DomainError):
            eigenfunction_eval(spectrum30.modes[0], 1.2, 0.0)

    def test_orthonormality_gram(self):
        sp = build_spectrum(60.0)
        n = min(12, len(sp))
        rows = []
        for i in range(n):
            mo = sp.modes[i]
            coeffs = project_function(
                lambda r, th, mo=mo: eigenfunction_eval(mo, r, th), sp)
            rows.append(coeffs.values[:n])
        gram = np.array(rows)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-8

    def test_radial_ode_residual(self, spectrum30):
        # J_m''(x) + J_m'(x)/x + (1 - m^2/x^2) J_m(x) = 0 at sample points,
        # derivatives taken from the recurrences (not finite differences)
        for mo in spectrum30.modes:
            m = abs(mo.m)
            for r in (0.3, 0.55, 0.8):
                x = math.sqrt(mo.lam) * r
                jm = bessel_j(m, x)
                jm1 = bessel_j(m + 1, x)
                jprime = (bessel_j(m - 1, x) - jm1) / 2 if m > 0 else -bessel_j(1, x)
                # J'' from differentiating the recurrence J' = J_{m-1} - (m/x) J
                if m > 0:
                    jm_1 = bessel_j(m - 1, x)
                    jm_1p = bessel_j(m - 2, x) - ((m - 1) / x) * jm_1 if m >= 2 \
                        else -bessel_j(1, x)
                    jpp = jm_1p + (m / (x * x)) * jm - (m / x) * jprime
                else:
                    jpp = -(bessel_j(0, x) - bessel_j(1, x) / x)
                resid = jpp + jprime / x + (1 - m * m / (x * x)) * jm
                assert abs(resid) <= 1e-8

    def test_weyl_growth(self):
        sp = build_spectrum(400.0)
        lams = np.array([mo.lam for mo in sp.modes])
        grid = np.linspace(50.0, 400.0, 15)
        counts = np.array([np.sum(lams <= L) for L in grid])
        design = np.stack([grid, np.ones_like(grid)], axis=1)
        coef, *_ = np.linalg.lstsq(design, counts.astype(float), rcond=None)
        fitted = design @ coef
        assert np.all(np.abs(counts - fitted) <= 0.25 * fitted)


class TestNormalizers:
    def test_closed_form_identity(self):
        sp = build_spectrum(400.0)
        for mo in sp.modes:
            val = mo.omega * math.sqrt(math.pi) * bessel_j(abs(mo.m) + 1,
                                                           math.sqrt(mo.lam))
            assert abs(abs(val) - 1.0) <= 1e-10

    def test_sign_is_that_of_the_bessel_function(self):
        # (-1)^(k+1) is the sign of J_{|m|+1} at the k-th zero of J_|m|
        # (interlacing zeros); the Bessel evaluator is the reference
        sp = build_spectrum(400.0)
        for mo in sp.modes:
            value = float(_bessel_j_unchecked(abs(mo.m) + 1, math.sqrt(mo.lam)))
            assert normalizer_sign(mo) == math.copysign(1.0, value), (mo.m, mo.k)
        assert {mo.k for mo in sp.modes} >= {1, 2, 3, 4}

    def test_norm_by_quadrature(self, spectrum30):
        for mo in spectrum30.modes[:3]:
            coeffs = project_function(
                lambda r, th, mo=mo: eigenfunction_eval(mo, r, th), spectrum30)
            i = spectrum30.modes.index(mo)
            assert abs(coeffs.values[i] - 1.0) <= 1e-9


class TestBoundaryCoefficients:
    def test_m0_value(self, spectrum30):
        mo = spectrum30.modes[spectrum30.index_of(0, 1)]
        j01 = oracles.bessel_zero_bisect(0, 1)
        expect = 1.0 / (math.sqrt(math.pi) * j01)
        for theta in (0.0, 2.0):
            got = boundary_coefficient(mo, theta)
            assert got.real == pytest.approx(expect, abs=1e-12)
            assert got.imag == 0.0

    def test_m1_value_and_conjugation(self, spectrum30):
        mo_p = spectrum30.modes[spectrum30.index_of(1, 1)]
        mo_m = spectrum30.modes[spectrum30.index_of(-1, 1)]
        j11 = oracles.bessel_zero_bisect(1, 1)
        assert boundary_coefficient(mo_p, 0.0).real == pytest.approx(
            1.0 / (math.sqrt(math.pi) * j11), abs=1e-12)
        for theta in (0.4, 5.0):
            assert boundary_coefficient(mo_m, theta) == pytest.approx(
                np.conj(boundary_coefficient(mo_p, theta)), abs=1e-14)

    def test_modulus_theta_independent(self, spectrum30):
        for mo in spectrum30.modes:
            mods = {round(abs(boundary_coefficient(mo, th)), 14)
                    for th in np.linspace(0, 6.2, 7)}
            assert len(mods) == 1


class TestNormalDerivative:
    """The oracle's d phi_n/d nu pins the sign convention of the shipped
    boundary_coefficient, normalizer_sign and sensor_weights."""

    def test_m0_closed_form(self, spectrum30):
        mo = spectrum30.modes[spectrum30.index_of(0, 1)]
        expect = -math.sqrt(mo.lam) / math.sqrt(math.pi)
        assert normal_derivative_weight(mo, 0.7).real == pytest.approx(expect,
                                                                       rel=1e-12)

    def test_finite_difference(self, spectrum30):
        h = 1e-6
        for mo in spectrum30.modes:
            for theta in (0.0, 2.2):
                fd = (eigenfunction_eval(mo, 1.0, theta)
                      - eigenfunction_eval(mo, 1.0 - h, theta)) / h
                cf = normal_derivative_weight(mo, theta)
                assert abs(fd - cf) / abs(cf) <= 1e-4

    def test_modulus(self, spectrum30):
        for mo in spectrum30.modes:
            assert abs(normal_derivative_weight(mo, 1.23)) == pytest.approx(
                math.sqrt(mo.lam / math.pi), rel=1e-12)

    def test_sensor_weights_scale_it(self):
        # the forward model's weight vector is -1/lambda times d phi_n/d nu,
        # mode by mode, with the k = 2 signs of lambda_max 40
        sp = build_spectrum(40.0)
        for theta in (0.0, 2.2):
            weights = sensor_weights(sp, theta)
            assert weights.shape == (len(sp),)
            for mo, w in zip(sp.modes, weights):
                assert w == pytest.approx(-normal_derivative_weight(mo, theta) / mo.lam,
                                          rel=1e-15, abs=0)


class TestProjection:
    def test_eigenfunction_projects_to_unit_vector(self, spectrum30):
        mo = spectrum30.modes[2]
        coeffs = project_function(
            lambda r, th: eigenfunction_eval(mo, r, th), spectrum30)
        expect = np.zeros(len(spectrum30))
        expect[2] = 1.0
        assert np.max(np.abs(coeffs.values - expect)) <= 1e-8

    def test_zero_function(self, spectrum30):
        coeffs = project_function(lambda r, th: np.zeros_like(r), spectrum30)
        assert np.all(coeffs.values == 0.0)

    def test_radial_function_kills_m_nonzero(self, spectrum30):
        coeffs = project_function(lambda r, th: np.ones_like(r), spectrum30)
        for i, mo in enumerate(spectrum30.modes):
            if mo.m != 0:
                assert abs(coeffs.values[i]) <= 1e-8


class TestSerialization:
    def test_schema_fields(self, spectrum30):
        import json
        rows = json.loads(spectrum_to_json(spectrum30))
        assert set(rows[0]) == {"m", "k", "lambda", "omega"}


class TestTableValidation:
    def test_unsorted_rejected(self, spectrum30):
        modes = list(spectrum30.modes)[::-1]
        with pytest.raises(ShapeError):
            SpectrumTable(modes=tuple(modes))

    def test_real_field_flag(self, spectrum30):
        vals = np.zeros(len(spectrum30), dtype=complex)
        for _, idx in spectrum30.distinct_eigenvalues:
            vals[idx[0]] = 1.0 + 2.0j if len(idx) == 2 else 3.0
            if len(idx) == 2:
                vals[idx[1]] = 1.0 - 2.0j
        assert ModeCoefficients(values=vals).is_real_field(spectrum30)
        vals[0] = 3.0 + 1.0j
        assert not ModeCoefficients(values=vals).is_real_field(spectrum30)

    def test_eigenmode_validation(self):
        with pytest.raises(DomainError):
            EigenMode(m=0, k=0, lam=5.0, omega=1.0)
        with pytest.raises(DomainError):
            EigenMode(m=0, k=1, lam=-1.0, omega=1.0)
