import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import rgamma

from fracsource.disc_spectrum import build_spectrum
from fracsource.errors import DomainError
from fracsource.forward_model import relaxation_design
from fracsource.specfun import (
    bessel_j,
    bessel_j_zeros,
    fractional_integral,
    _gauss_legendre,
)

import oracles
from conftest import basis_ml, ml_aa_on_panels
from oracles import (
    AccuracyError,
    MLAccuracy,
    mittag_leffler,
    _ml_asymptotic,
    _ml_ray_integral,
    _ml_series,
    _rgamma,
)


class TestMittagLeffler:
    """The scalar evaluator of the test oracles against closed forms and
    frozen high-precision values, and the shipped relaxation basis against
    it."""

    def test_exponential_case(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-14)

    def test_zero_argument(self):
        for alpha, beta in ((0.6, 1.0), (0.75, 0.75), (1.5, 2.0)):
            assert mittag_leffler(alpha, beta, 0.0) == pytest.approx(
                1.0 / math.gamma(beta), abs=1e-15)

    def test_erfc_identity_point(self):
        # E_{1/2,1/2}(-1) = 1/sqrt(pi) - erfcx(1)
        ref = oracles.ml_half_beta_half(1.0)
        assert ref == pytest.approx(0.1366060, abs=5e-8)
        got = mittag_leffler(0.5, 0.5, -1.0)
        assert got.real == pytest.approx(ref, abs=1e-12)
        assert abs(got.imag) < 1e-13

    def test_erfc_identity_sweep(self):
        for x in np.geomspace(1e-3, 50.0, 60):
            assert mittag_leffler(0.5, 1.0, -x).real == pytest.approx(
                oracles.ml_half_beta_one(x), abs=1e-12)
            assert mittag_leffler(0.5, 0.5, -x).real == pytest.approx(
                oracles.ml_half_beta_half(x), abs=1e-12)

    def test_frozen_oracle_values(self):
        # every frozen row; A1a checks the shipped basis on the rows it can
        # compute (real negative z, beta in {1, alpha}, alpha < 1)
        for row in oracles.frozen_ml_values():
            z = complex(row["re_z"], row["im_z"])
            ref = complex(row["re"], row["im"])
            got = mittag_leffler(row["alpha"], row["beta"], z)
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), row

    def test_basis_matches_scalar(self):
        # the relaxation basis (every batch on the negative axis) against
        # the scalar evaluator
        x = np.concatenate([[0.0], np.geomspace(1e-3, 80.0, 50)])
        for alpha, beta in ((0.6, 1.0), (0.75, 0.75), (0.9, 0.9)):
            got = basis_ml(alpha, beta, x)
            ref = np.array([mittag_leffler(alpha, beta, -xi).real for xi in x])
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_positivity_and_range_on_negative_axis(self):
        # E_{a,1}(-x) in (0, 1] and E_{a,a}(-x) >= 0
        x = np.geomspace(1e-6, 1e4, 200)
        for alpha in (0.6, 0.75, 0.9):
            e1 = basis_ml(alpha, 1.0, x)
            ea = basis_ml(alpha, alpha, x)
            assert np.all(e1 > 0.0) and np.all(e1 <= 1.0)
            assert np.all(ea >= 0.0)

    # annuli around the scalar evaluator's switches, per alpha: from the
    # series to the contour integral (near x = 2.3-4.2 for these orders and
    # beta in {alpha, 1}), and from the contour integral to the asymptotics
    # (near x = 14.4, 28.1 and 54.9)
    SERIES_ANNULI = {0.6: (1.8, 3.0), 0.75: (2.4, 4.0), 0.9: (3.2, 5.4)}
    ASYM_ANNULI = {0.6: (12.0, 17.0), 0.75: (24.0, 33.0), 0.9: (48.0, 64.0)}

    def test_regime_overlap_agreement(self):
        # series vs contour integral, and asymptotics vs contour integral,
        # compared on annuli straddling the evaluator's own switch points
        for alpha in (0.6, 0.75, 0.9):
            for beta in (alpha, 1.0):
                lo, hi = self.SERIES_ANNULI[alpha]
                assert _ml_series(alpha, beta, complex(-lo), 1e-12, 600)[0] is not None
                assert _ml_series(alpha, beta, complex(-hi), 1e-12, 600)[0] is None
                for x in np.linspace(lo, hi, 5):
                    ray, _ = _ml_ray_integral(alpha, beta, complex(-x), 1e-12)
                    assert mittag_leffler(alpha, beta, -x).real == pytest.approx(
                        ray.real, abs=1e-9)
                lo, hi = self.ASYM_ANNULI[alpha]
                assert _ml_asymptotic(alpha, beta, complex(-lo), 1e-12)[0] is None
                assert _ml_asymptotic(alpha, beta, complex(-hi), 1e-12)[0] is not None
                for x in np.linspace(lo, hi, 5):
                    ray, _ = _ml_ray_integral(alpha, beta, complex(-x), 1e-12)
                    assert mittag_leffler(alpha, beta, -x).real == pytest.approx(
                        ray.real, abs=1e-9)

    def test_decay_bound(self):
        # |E_{a,b}(-x)| <= C/(1+x) with one fitted constant per (a,b)
        x = np.geomspace(1e-3, 1e4, 400)
        for alpha in (0.6, 0.75, 0.9):
            for beta in (alpha, 1.0):
                vals = np.abs(basis_ml(alpha, beta, x))
                scaled = vals * (1.0 + x)
                c_fit = float(np.max(scaled[::2]))
                assert np.all(scaled <= 1.01 * c_fit)

    def test_derivative_identity(self):
        # d/dt E_{a,1}(-lam t^a) = -lam t^(a-1) E_{a,a}(-lam t^a)
        alpha = 0.75
        h = 1e-6
        for lam in (1.0, 5.783, 30.0):
            for t in np.geomspace(0.1, 10.0, 12):
                e1 = basis_ml(alpha, 1.0, lam * np.array([t + h, t - h]) ** alpha)
                fd = (e1[0] - e1[1]) / (2 * h)
                exact = -lam * t ** (alpha - 1.0) * basis_ml(
                    alpha, alpha, np.array([lam * t ** alpha]))[0]
                assert fd == pytest.approx(exact, rel=1e-5)

    def test_unit_l1_mass(self):
        # int_0^T lam t^(a-1) E_{a,a}(-lam t^a) dt = 1 - E_{a,1}(-lam T^a),
        # integrated in v = t^a on panels graded toward v = 0
        alpha, lam = 0.75, 5.783185962946785
        big_t = (3.2e5 / lam) ** (1.0 / alpha)
        tail = 1.0 - relaxation_design(alpha, [lam], [0.0, math.inf], [big_t])[0, 0, 0]
        assert tail <= 1e-6
        v, w, e = ml_aa_on_panels(
            alpha, [lam], np.concatenate([[0.0], np.geomspace(1e-6, big_t ** alpha, 40)]))
        mass = lam * float(w @ e[0]) / alpha
        assert mass == pytest.approx(1.0 - tail, abs=1e-5)
        assert mass == pytest.approx(1.0, abs=2e-5)

    def test_laplace_pair(self):
        # L{t^(a-1) E_{a,a}(-lam t^a)}(s) = 1/(s^a + lam), in v = t^a on
        # panels graded toward v = 0, where exp(-s v^(1/a)) has its cusp
        lams = (1.0, 5.783)
        for alpha in (0.6, 0.9):
            v, w, e = ml_aa_on_panels(
                alpha, lams, np.concatenate([[0.0], np.geomspace(1e-12, 300.0, 40)]))
            t = v ** (1.0 / alpha)
            for s in (1.0, 2.0, 5.0, 10.0):
                for lam, e_lam in zip(lams, e):
                    val = float(w @ (np.exp(-s * t) * e_lam)) / alpha
                    assert val == pytest.approx(1.0 / (s ** alpha + lam), abs=1e-6)

    def test_alpha_between_one_and_two(self):
        mp = pytest.importorskip("mpmath")
        for alpha, z in ((1.5, -4.0), (1.25, 2.0), (1.9, -30.0)):
            with mp.workdps(60):
                ref = complex(mp.nsum(
                    lambda k: mp.mpmathify(z) ** k / mp.gamma(mp.mpf(alpha) * k + 1),
                    [0, mp.inf]))
            assert abs(mittag_leffler(alpha, 1.0, z) - ref) < 1e-11 * (1 + abs(ref))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.75, 1.0, complex(np.inf, 0.0))

    def test_accuracy_error_carries_bound(self):
        with pytest.raises(AccuracyError) as err:
            mittag_leffler(0.75, 1.0, -8.0, MLAccuracy(abs_tol=1e-40))
        assert err.value.achieved_bound is None or err.value.achieved_bound > 0

    def test_accuracy_request_validation(self):
        with pytest.raises(DomainError):
            MLAccuracy(abs_tol=0.0)
        with pytest.raises(DomainError):
            MLAccuracy(max_terms=0)


class TestReciprocalGamma:
    # the oracle evaluator's 1/Gamma, from math.gamma, against SciPy
    X = np.concatenate([np.linspace(-205.0, 205.0, 82001), -np.arange(206.0)])

    def test_matches_scipy_where_finite(self):
        got, want = _rgamma(self.X), rgamma(self.X)
        assert got.shape == self.X.shape
        finite = np.isfinite(want) & (want != 0)
        rel = np.abs(got[finite] - want[finite]) / np.abs(want[finite])
        assert np.max(rel) <= 2e-13

    def test_zero_at_the_poles_and_above_overflow(self):
        got, want = _rgamma(self.X), rgamma(self.X)
        zero = want == 0
        assert np.all(zero[self.X > 171.63]) and np.all(zero[-np.arange(206) - 1])
        assert np.all(got[zero] == 0)
        assert [_rgamma(float(x)) for x in (0.0, -1.0, -170.0, 171.63, 1e300)] == [0.0] * 5

    def test_where_scipy_overflows(self):
        # SciPy returns +-inf below about -170.64; here the result has the
        # same sign, and is the finite 1/Gamma down to -171.09, with a
        # modulus above 5e307, then the infinity
        got, want = _rgamma(self.X), rgamma(self.X)
        over = np.isinf(want)
        assert np.all(self.X[over] < -170.6)
        assert np.all(np.sign(got[over]) == np.sign(want[over]))
        finite = over & np.isfinite(got)
        assert np.all(self.X[finite] > -171.1) and np.all(np.abs(got[finite]) > 5e307)
        assert np.all(np.isinf(got[over & (self.X < -171.1)]))

    def test_scalars(self):
        assert _rgamma(1.0) == 1.0 and _rgamma(5.0) == 1.0 / 24.0
        assert isinstance(_rgamma(0.5), float)
        assert _rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)


class TestGaussLegendre:
    def test_rule_is_shared_read_only(self):
        # every caller (verify's quadratures, the oracle's contour panels)
        # shares one rule
        for nodes in (16, 20, 54):
            x, w = _gauss_legendre(nodes)
            x_ref, w_ref = leggauss(nodes)
            assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))
            assert np.array_equal(w.view(np.int64), w_ref.view(np.int64))
            assert _gauss_legendre(nodes)[0] is x
            with pytest.raises(ValueError):
                x[0] = 0.0


class TestBessel:
    def test_examples(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        j01 = oracles.bessel_zero_bisect(0, 1)
        assert bessel_j(1, j01) == pytest.approx(oracles.bessel_series(1, j01),
                                                 abs=1e-12)
        assert bessel_j(1, 2.404825557695773) == pytest.approx(0.5191475, abs=5e-8)

    def test_series_oracle_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(0, 12))
            x = float(rng.uniform(0.0, 10.0))
            assert bessel_j(m, x) == pytest.approx(oracles.bessel_series(m, x),
                                                   abs=5e-12)

    def test_high_precision_agreement_large_x(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        for _ in range(15):
            m = int(rng.integers(0, 40))
            x = float(rng.uniform(5.0, 9000.0))
            with mp.workdps(40):
                ref = float(mp.besselj(m, mp.mpf(x)))
            assert bessel_j(m, x) == pytest.approx(ref, abs=1e-12)

    def test_recurrence_identities(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            m = int(rng.integers(1, 21))
            x = float(rng.uniform(0.5, 50.0))
            jm = bessel_j(m, x)
            jm_minus = bessel_j(m - 1, x)
            jm_plus = bessel_j(m + 1, x)
            assert 2 * m * jm / x == pytest.approx(jm_minus + jm_plus, abs=1e-10)
            deriv_fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2 * h)
            assert 2 * deriv_fd == pytest.approx(jm_minus - jm_plus, abs=1e-6)
            # [x^(m+1) J_{m+1}]' = x^(m+1) J_m, checked in log-derivative form
            lhs = ((m + 1) / x) * jm_plus + (bessel_j(m + 1, x + h)
                                             - bessel_j(m + 1, x - h)) / (2 * h)
            assert lhs == pytest.approx(jm, abs=1e-6)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(201, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0, -0.5)
        with pytest.raises(DomainError):
            bessel_j(0, 2e4)


class TestBesselZeros:
    def test_first_zeros_against_bisection_oracle(self):
        assert bessel_j_zeros(0, 3.0)[0] == pytest.approx(
            oracles.bessel_zero_bisect(0, 1), abs=1e-11)
        assert bessel_j_zeros(1, 4.0)[0] == pytest.approx(
            oracles.bessel_zero_bisect(1, 1), abs=1e-11)
        assert bessel_j_zeros(0, 6.0)[1] == pytest.approx(
            oracles.bessel_zero_bisect(0, 2), abs=1e-11)
        assert bessel_j_zeros(0, 3.0)[0] == pytest.approx(2.404825557695773, abs=1e-12)
        assert bessel_j_zeros(1, 4.0)[0] == pytest.approx(3.831705970207512, abs=1e-12)
        assert bessel_j_zeros(0, 6.0)[1] == pytest.approx(5.520078110286311, abs=1e-12)

    def test_bound_at_the_first_zero(self):
        # the oracle's j_(0,1) lies 2 ulp below the polished zero, so the
        # bound at the oracle's value is widened by the oracle's tolerance
        # on either side; the bound itself is inclusive
        j01 = oracles.bessel_zero_bisect(0, 1)
        assert len(bessel_j_zeros(0, j01 + 1e-11)) == 1
        assert len(bessel_j_zeros(0, j01 - 1e-11)) == 0
        zero = bessel_j_zeros(0, 3.0)
        assert np.array_equal(bessel_j_zeros(0, float(zero[0])), zero)

    def test_bound_below_the_first_zero_is_empty(self):
        # j_(5,1) = 8.77...
        assert bessel_j_zeros(5, 5.0).size == 0

    def test_residuals_spacing_monotone(self):
        # (12 + m/2 + 1) pi lies above j_(m,12) for every m >= 0
        for m in (0, 3, 17, 60, 200):
            zeros = bessel_j_zeros(m, (12.0 + 0.5 * m + 1.0) * math.pi)
            assert len(zeros) >= 12
            assert np.all(np.diff(zeros) > 2.0)
            assert np.all(zeros > 0)
            for z in zeros:
                assert abs(bessel_j(m, float(z))) <= 1e-11

    def test_highest_order(self):
        zeros = bessel_j_zeros(200, 250.0)
        assert len(zeros) == 7
        assert zeros[0] == pytest.approx(211.02916651, abs=1e-8)  # mpmath's j_(200,1)
        assert np.all(zeros <= 250.0)

    def test_bound_validation(self):
        for upper in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                bessel_j_zeros(0, upper)

    def test_spectrum_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for mo in build_spectrum(60.0).modes:
                exact = float(mp.besseljzero(abs(mo.m), mo.k) ** 2)
                assert abs(mo.lam - exact) <= 1e-15 * exact


class TestFractionalIntegral:
    def test_zero_trace(self):
        assert np.all(fractional_integral(np.zeros(101), 0.01, 0.5) == 0.0)

    def test_constant_closed_form(self):
        t = np.linspace(0, 2, 801)
        for beta in (0.3, 0.5, 0.75):
            out = fractional_integral(np.ones_like(t), t[1], beta)
            ref = t ** beta / math.gamma(beta + 1.0)
            assert np.max(np.abs(out - ref)) < 1e-13

    def test_linear_closed_form(self):
        t = np.linspace(0, 1, 2001)
        out = fractional_integral(t, t[1], 0.5)
        assert out[-1] == pytest.approx(4.0 / (3.0 * math.sqrt(math.pi)), abs=1e-13)

    def test_smooth_quadrature_oracle_and_order(self):
        def ref(tt, beta):
            val, _ = quad(lambda u: (tt - u) ** (beta - 1.0) * math.sin(3 * u),
                          0, tt, limit=200)
            return val / math.gamma(beta)

        errs = []
        for n in (251, 501, 1001):
            t = np.linspace(0, 1, n)
            out = fractional_integral(np.sin(3 * t), t[1], 0.75)
            errs.append(abs(out[-1] - ref(1.0, 0.75)))
        assert errs[0] / errs[1] > 3.4
        assert errs[1] / errs[2] > 3.4

    def test_domain_errors(self):
        for beta in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                fractional_integral(np.ones(11), 0.1, beta)
