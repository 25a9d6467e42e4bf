import functools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import rgamma

from fracsource.errors import AccuracyError, DomainError
from fracsource.specfun import (
    MLAccuracy,
    SampledTrace,
    bessel_j,
    bessel_j_zeros,
    fractional_integral,
    mittag_leffler,
    mittag_leffler_neg_real,
    _asym_cutoff,
    _gauss_legendre,
    _ml_mid_band,
    _ml_ray_integral,
    _series_cutoff,
)

import oracles


class TestMittagLeffler:
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
        for row in oracles.frozen_ml_values():
            z = complex(row["re_z"], row["im_z"])
            ref = complex(row["re"], row["im"])
            got = mittag_leffler(row["alpha"], row["beta"], z)
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), row

    def test_vectorized_matches_scalar(self):
        x = np.concatenate([[0.0], np.geomspace(1e-3, 80.0, 50)])
        for alpha, beta in ((0.6, 1.0), (0.75, 0.75), (0.9, 0.9)):
            vec = mittag_leffler_neg_real(alpha, beta, x)
            ref = np.array([mittag_leffler(alpha, beta, -xi).real for xi in x])
            assert np.max(np.abs(vec - ref)) < 1e-12

    def test_positivity_and_range_on_negative_axis(self):
        # E_{a,1}(-x) in (0, 1] and E_{a,a}(-x) >= 0
        x = np.geomspace(1e-6, 1e4, 200)
        for alpha in (0.6, 0.75, 0.9):
            e1 = mittag_leffler_neg_real(alpha, 1.0, x)
            ea = mittag_leffler_neg_real(alpha, alpha, x)
            assert np.all(e1 > 0.0) and np.all(e1 <= 1.0)
            assert np.all(ea >= 0.0)

    def test_regime_overlap_agreement(self):
        # series vs contour integral, and asymptotics vs contour integral,
        # compared on annuli straddling the internal switch points
        for alpha in (0.6, 0.75, 0.9):
            for beta in (alpha, 1.0):
                x_ser, _ = _series_cutoff(alpha, beta, 1e-12)
                x_asy = _asym_cutoff(alpha, beta, 1e-12)
                for x in np.linspace(0.6 * x_ser, x_ser, 5):
                    ray, _ = _ml_ray_integral(alpha, beta, complex(-x), 1e-12)
                    assert mittag_leffler(alpha, beta, -x).real == pytest.approx(
                        ray.real, abs=1e-9)
                for x in np.linspace(x_asy, 1.5 * x_asy, 5):
                    ray, _ = _ml_ray_integral(alpha, beta, complex(-x), 1e-12)
                    assert mittag_leffler(alpha, beta, -x).real == pytest.approx(
                        ray.real, abs=1e-9)

    def test_decay_bound(self):
        # |E_{a,b}(-x)| <= C/(1+x) with one fitted constant per (a,b)
        x = np.geomspace(1e-3, 1e4, 400)
        for alpha in (0.6, 0.75, 0.9):
            for beta in (alpha, 1.0):
                vals = np.abs(mittag_leffler_neg_real(alpha, beta, x))
                scaled = vals * (1.0 + x)
                c_fit = float(np.max(scaled[::2]))
                assert np.all(scaled <= 1.01 * c_fit)

    def test_derivative_identity(self):
        # d/dt E_{a,1}(-lam t^a) = -lam t^(a-1) E_{a,a}(-lam t^a)
        alpha = 0.75
        h = 1e-6
        for lam in (1.0, 5.783, 30.0):
            for t in np.geomspace(0.1, 10.0, 12):
                fd = (mittag_leffler_neg_real(alpha, 1.0, np.array([lam * (t + h) ** alpha]))[0]
                      - mittag_leffler_neg_real(alpha, 1.0, np.array([lam * (t - h) ** alpha]))[0]) / (2 * h)
                exact = -lam * t ** (alpha - 1.0) * mittag_leffler_neg_real(
                    alpha, alpha, np.array([lam * t ** alpha]))[0]
                assert fd == pytest.approx(exact, rel=1e-5)

    def test_unit_l1_mass(self):
        # int_0^T lam t^(a-1) E_{a,a}(-lam t^a) dt = 1 - E_{a,1}(-lam T^a)
        alpha, lam = 0.75, 5.783185962946785
        big_t = (3.2e5 / lam) ** (1.0 / alpha)
        tail = mittag_leffler_neg_real(alpha, 1.0, np.array([lam * big_t ** alpha]))[0]
        assert tail <= 1e-6

        def integrand(v):
            return lam * mittag_leffler_neg_real(alpha, alpha, np.array([lam * v]))[0] / alpha

        mass, _ = quad(integrand, 0.0, big_t ** alpha, limit=800)
        assert mass == pytest.approx(1.0 - tail, abs=1e-5)
        assert mass == pytest.approx(1.0, abs=2e-5)

    def test_laplace_pair(self):
        # L{t^(a-1) E_{a,a}(-lam t^a)}(s) = 1/(s^a + lam)
        for alpha in (0.6, 0.9):
            for s in (1.0, 2.0, 5.0, 10.0):
                for lam in (1.0, 5.783):
                    def integrand(v):
                        t = v ** (1.0 / alpha)
                        e = mittag_leffler_neg_real(alpha, alpha, np.array([lam * v]))[0]
                        return math.exp(-s * t) * e / alpha
                    val, _ = quad(integrand, 0.0, 300.0, limit=500)
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
        with pytest.raises(DomainError):
            mittag_leffler_neg_real(0.75, 1.0, np.array([-1.0]))

    def test_accuracy_error_carries_bound(self):
        with pytest.raises(AccuracyError) as err:
            mittag_leffler(0.75, 1.0, -8.0, MLAccuracy(abs_tol=1e-40))
        assert err.value.achieved_bound is None or err.value.achieved_bound > 0

    def test_accuracy_request_validation(self):
        with pytest.raises(DomainError):
            MLAccuracy(abs_tol=0.0)
        with pytest.raises(DomainError):
            MLAccuracy(max_terms=0)


# ---------------------------------------------------------------------------
# Reference negative-axis batch: the plain optimal-truncation code (all 160
# asymptotic terms, Python loops over the truncation windows, a scalar series
# certificate). mittag_leffler_neg_real must return the same doubles, bit for
# bit, and its cutoff searches the same cutoffs.
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _ref_series_certified(alpha, beta, x, tol):
    term = abs(float(rgamma(beta)))
    max_abs = term
    lx = math.log(x)
    tail_arg = x ** (1.0 / alpha) + 2.0
    for k in range(1, 400):
        lt = k * lx
        if lt > 500:
            return False, k
        term = math.exp(lt) * abs(float(rgamma(alpha * k + beta)))
        if term > max_abs:
            max_abs = term
        if term < tol * 1e-2 and alpha * k + beta > tail_arg:
            return max_abs * _EPS * (k + 5) <= tol / 4.0, k
    return False, 400


def _ref_series_cutoff(alpha, beta, tol):
    lo, hi = 0.5, 400.0
    if not _ref_series_certified(alpha, beta, lo, tol)[0]:
        return 0.0, 8
    while _ref_series_certified(alpha, beta, hi, tol)[0] and hi < 1e6:
        hi *= 2
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _ref_series_certified(alpha, beta, mid, tol)[0]:
            lo = mid
        else:
            hi = mid
    _, n_terms = _ref_series_certified(alpha, beta, lo, tol)
    return lo, n_terms


def _ref_asym_cutoff(alpha, beta, tol):
    kmax = 160
    ks = np.arange(1, kmax + 1)
    rg = rgamma(beta - alpha * ks)
    look = max(3, int(math.ceil(1.0 / alpha)) + 1)

    def certified(x):
        if math.exp(-0.35 * x ** (1.0 / alpha)) > tol / 10.0:
            return False
        with np.errstate(over="ignore", under="ignore"):
            mags = np.abs(np.exp(-ks * math.log(x)) * rg)
        best = np.inf
        for kk in range(kmax - look):
            best = min(best, float(np.max(mags[kk + 1:kk + 1 + look])))
        return best <= tol / 5.0

    lo, hi = 1.0, 2.0
    while not certified(hi):
        hi *= 2
        if hi > 1e12:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _ref_asym_branch(alpha, beta, xa):
    kmax = 160
    ks = np.arange(1, kmax + 1)
    rg = rgamma(beta - alpha * ks)
    sgn = np.where(ks % 2 == 0, 1.0, -1.0)
    with np.errstate(over="ignore", under="ignore"):
        lt = -np.outer(ks, np.log(xa))
        tmat = -(sgn[:, None]) * np.exp(lt) * rg[:, None]
    mags = np.abs(tmat)
    look = max(3, int(math.ceil(1.0 / alpha)) + 1)
    best_bound = np.full(xa.shape, np.inf)
    best_k = np.zeros(xa.shape, dtype=int)
    for kk in range(kmax - look):
        b = mags[kk + 1:kk + 1 + look].max(axis=0)
        upd = b < best_bound
        best_bound[upd] = b[upd]
        best_k[upd] = kk
    csum = np.cumsum(tmat, axis=0)
    return csum[best_k, np.arange(xa.size)]


@functools.lru_cache(maxsize=None)
def _ref_cutoffs(alpha, beta, tol=1e-12):
    return _ref_series_cutoff(alpha, beta, tol), _ref_asym_cutoff(alpha, beta, tol)


def _ref_neg_real(alpha, beta, x, tol=1e-12):
    (x_series, n_terms), x_asym = _ref_cutoffs(alpha, beta, tol)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    out[x == 0] = rgamma(beta)
    live = x > 0
    xs = x[live]
    if xs.size == 0:
        return out
    res = np.full(xs.shape, np.nan)
    mser = xs <= x_series
    if mser.any():
        xa = xs[mser]
        ks = np.arange(n_terms + 1, dtype=float)
        rg = rgamma(alpha * ks + beta)
        lt = np.outer(np.log(xa), ks[1:])
        tmat = np.empty((xa.size, n_terms + 1))
        tmat[:, 0] = rg[0]
        tmat[:, 1:] = np.exp(lt) * rg[1:] * np.where(ks[1:] % 2 == 0, 1.0, -1.0)
        res[mser] = tmat.sum(axis=1)
    masy = (~mser) & (xs >= x_asym)
    if masy.any():
        res[masy] = _ref_asym_branch(alpha, beta, xs[masy])
    mmid = ~(mser | masy)
    if mmid.any():
        res[mmid] = _ml_mid_band(alpha, beta, xs[mmid], tol)
    out[live] = res
    return out


_SWEEP_ALPHAS = [0.501, 0.6, 0.75, 0.9, 0.999] + [
    float(a) for a in np.random.default_rng(20261017).uniform(0.5, 1.0, 20)]
_SWEEP = [(a, b) for a in _SWEEP_ALPHAS for b in (1.0, a, 0.5, 0.0)]


def _sweep_points(alpha, beta):
    """x from below the series cutoff to 1e4, through both cutoffs and
    their neighbouring doubles."""
    (x_ser, _), x_asy = _ref_cutoffs(alpha, beta)
    edges = [x_asy, np.nextafter(x_asy, 0.0), np.nextafter(x_asy, np.inf)]
    if x_ser > 0:
        edges += [x_ser, np.nextafter(x_ser, 0.0), np.nextafter(x_ser, np.inf)]
    return np.concatenate([[0.0], np.geomspace(0.25, 2.0 * x_asy, 97), edges,
                           np.geomspace(x_asy, 1e4, 97)])


def _assert_bits_equal(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
        f"{what}: {np.count_nonzero(got != want)} of {got.size} values differ")


class TestNegRealMatchesReference:
    """mittag_leffler_neg_real against the plain reference above: the blocked
    asymptotic sums, the vectorized searches and the cached quadrature rule
    change no bit of any value or cutoff."""

    def test_cutoffs(self):
        for alpha, beta in _SWEEP:
            ref_series, ref_asym = _ref_cutoffs(alpha, beta)
            assert _series_cutoff(alpha, beta, 1e-12) == ref_series, (alpha, beta)
            assert _asym_cutoff(alpha, beta, 1e-12) == ref_asym, (alpha, beta)

    def test_sweep_batches_and_single_points(self):
        for alpha, beta in _SWEEP:
            x = _sweep_points(alpha, beta)
            want = _ref_neg_real(alpha, beta, x)
            _assert_bits_equal(mittag_leffler_neg_real(alpha, beta, x), want,
                               f"batch alpha={alpha} beta={beta}")
            # the middle band of a batch depends on the batch (one Chebyshev
            # interpolant over its range), so single points get their own
            # reference
            for xi in x[::9]:
                point = np.array([xi])
                _assert_bits_equal(mittag_leffler_neg_real(alpha, beta, point),
                                   _ref_neg_real(alpha, beta, point),
                                   f"x={xi!r} alpha={alpha} beta={beta}")

    def test_orders_below_one_half_and_negative_beta(self):
        # the forward model stays in alpha > 1/2; the function takes (0, 1)
        for alpha in (0.01, 0.05, 0.2, 0.45):
            for beta in (1.0, alpha, 0.0, -2.0):
                ref_series, ref_asym = _ref_cutoffs(alpha, beta)
                assert _series_cutoff(alpha, beta, 1e-12) == ref_series, (alpha, beta)
                assert _asym_cutoff(alpha, beta, 1e-12) == ref_asym, (alpha, beta)
                x = _sweep_points(alpha, beta)
                _assert_bits_equal(mittag_leffler_neg_real(alpha, beta, x),
                                   _ref_neg_real(alpha, beta, x),
                                   f"alpha={alpha} beta={beta}")

    def test_large_asymptotic_batches(self):
        rng = np.random.default_rng(7)
        for alpha, beta in _SWEEP[:20]:  # the five fixed orders
            x_asy = _ref_cutoffs(alpha, beta)[1]
            x = np.exp(rng.uniform(math.log(x_asy), math.log(1e4), 10_000))
            _assert_bits_equal(mittag_leffler_neg_real(alpha, beta, x),
                               _ref_neg_real(alpha, beta, x),
                               f"alpha={alpha} beta={beta}")

    def test_gauss_legendre_rule_is_shared_read_only(self):
        for nodes in (16, 20, 54):
            x, w = _gauss_legendre(nodes)
            x_ref, w_ref = leggauss(nodes)
            _assert_bits_equal(x, x_ref, "nodes")
            _assert_bits_equal(w, w_ref, "weights")
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
        assert bessel_j_zeros(0, 1)[0] == pytest.approx(
            oracles.bessel_zero_bisect(0, 1), abs=1e-11)
        assert bessel_j_zeros(1, 1)[0] == pytest.approx(
            oracles.bessel_zero_bisect(1, 1), abs=1e-11)
        assert bessel_j_zeros(0, 2)[1] == pytest.approx(
            oracles.bessel_zero_bisect(0, 2), abs=1e-11)
        assert bessel_j_zeros(0, 1)[0] == pytest.approx(2.404825557695773, abs=1e-12)
        assert bessel_j_zeros(1, 1)[0] == pytest.approx(3.831705970207512, abs=1e-12)
        assert bessel_j_zeros(0, 2)[1] == pytest.approx(5.520078110286311, abs=1e-12)

    def test_residuals_spacing_monotone(self):
        for m in (0, 3, 17, 60, 200):
            zeros = bessel_j_zeros(m, 12)
            assert np.all(np.diff(zeros) > 2.0)
            assert np.all(zeros > 0)
            for z in zeros:
                assert abs(bessel_j(m, float(z))) <= 1e-11

    def test_count_validation(self):
        with pytest.raises(DomainError):
            bessel_j_zeros(0, 0)


class TestFractionalIntegral:
    def test_zero_trace(self):
        t = np.linspace(0, 1, 101)
        out = fractional_integral(SampledTrace(t, np.zeros_like(t)), 0.5)
        assert np.all(out.values == 0.0)

    def test_constant_closed_form(self):
        t = np.linspace(0, 2, 801)
        for beta in (0.3, 0.5, 0.75):
            out = fractional_integral(SampledTrace(t, np.ones_like(t)), beta)
            ref = t ** beta / math.gamma(beta + 1.0)
            assert np.max(np.abs(out.values - ref)) < 1e-13

    def test_linear_closed_form(self):
        t = np.linspace(0, 1, 2001)
        out = fractional_integral(SampledTrace(t, t), 0.5)
        assert out.values[-1] == pytest.approx(4.0 / (3.0 * math.sqrt(math.pi)),
                                               abs=1e-13)

    def test_smooth_quadrature_oracle_and_order(self):
        def ref(tt, beta):
            val, _ = quad(lambda u: (tt - u) ** (beta - 1.0) * math.sin(3 * u),
                          0, tt, limit=200)
            return val / math.gamma(beta)

        errs = []
        for n in (251, 501, 1001):
            t = np.linspace(0, 1, n)
            out = fractional_integral(SampledTrace(t, np.sin(3 * t)), 0.75)
            errs.append(abs(out.values[-1] - ref(1.0, 0.75)))
        assert errs[0] / errs[1] > 3.4
        assert errs[1] / errs[2] > 3.4

    def test_nonuniform_grid(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.001, 0.999, 199)), [1.0]])
        with pytest.raises(DomainError):
            fractional_integral(SampledTrace(t, np.sin(3 * t)), 0.6)

    def test_complex_values(self):
        t = np.linspace(0, 1, 501)
        psi = np.exp(1j * t)
        out = fractional_integral(SampledTrace(t, psi), 0.5)
        re = fractional_integral(SampledTrace(t, psi.real), 0.5)
        im = fractional_integral(SampledTrace(t, psi.imag), 0.5)
        assert np.allclose(out.values, re.values + 1j * im.values, atol=1e-14)

    def test_domain_errors(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(DomainError):
            fractional_integral(SampledTrace(t, np.ones_like(t)), 1.5)
        with pytest.raises(DomainError):
            fractional_integral(SampledTrace(t + 1.0, np.ones_like(t)), 0.5)
        with pytest.raises(DomainError):
            SampledTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(DomainError):
            SampledTrace(np.array([0.0]), np.array([1.0]))
