import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fracsource
from fracsource import forward_model
from fracsource.config import columns_to_csv
from fracsource.disc_spectrum import (
    EigenMode, SpectrumTable, build_spectrum, eigenfunction_eval)
from fracsource.errors import DomainError, HorizonError, ValidationError
from fracsource.forward_model import FluxTrace, SourceModel, flux_trace
from fracsource.laplace_model import LaplacePoint, laplace_flux_model, numeric_laplace
from fracsource.specfun import _bessel_j_unchecked, bessel_j_zeros

from conftest import make_coeffs, random_source_model
import oracles
from oracles import AdjointSpec, adjoint_weight_w, delta_z_eval, mittag_leffler


def _first_mode_model(spectrum, alpha):
    """The mode (m, k) = (0, 1) alone, with coefficient 1 from t = 0 on."""
    p = make_coeffs(spectrum, {(0, 1): 1.0})
    return SourceModel(alpha=alpha, cuts=(0.0, math.inf), piece_coeffs=(p,),
                       spectrum=spectrum)


BOUNDARY_LAMBDA_MAX = 2.2e8


def _partial_spectrum(lambda_max, m_max):
    """The modes with eigenvalue <= lambda_max and order |m| <= m_max, in
    the order of build_spectrum, from bessel_j_zeros."""
    top = math.sqrt(lambda_max)
    modes = []
    for m in range(m_max + 1):
        zeros = bessel_j_zeros(m, top)
        omegas = 1.0 / (math.sqrt(math.pi) * np.abs(_bessel_j_unchecked(m + 1, zeros)))
        for k, (z, omega) in enumerate(zip(zeros.tolist(), omegas.tolist()), start=1):
            modes += [EigenMode(m=sign * m, k=k, lam=z * z, omega=omega)
                      for sign in ((1, -1) if m else (1,))]
    modes.sort(key=lambda mo: (mo.lam, -mo.m))
    return SpectrumTable(modes=tuple(modes))


class TestBranchAndPoles:
    def test_laplace_point_validation(self):
        with pytest.raises(DomainError):
            LaplacePoint(-1.0)
        with pytest.raises(DomainError):
            LaplacePoint(1j)

    @pytest.mark.parametrize("alpha", (0.6, 0.75))
    @pytest.mark.parametrize("s", (2 - 1j, 1 - 0.5j))
    def test_numeric_agreement_below_the_real_axis(self, spectrum30, alpha, s):
        # s^alpha is the principal power, so the closed form is the transform
        # of the trace at Im s < 0 too (the [0, 2 pi) branch missed by 0.04-0.08)
        model = _first_mode_model(spectrum30, alpha)
        tr = flux_trace(model, 0.7, np.linspace(0.0, 30.0, 30001))
        gm = laplace_flux_model(model, 0.7, LaplacePoint(s))
        assert abs(gm - numeric_laplace(tr, LaplacePoint(s))) <= 1e-4

    def test_conjugate_symmetry(self, reference_model):
        for s in (2 + 1j, 1 + 0.5j, 0.3 + 7j, 20 + 0.01j):
            g = laplace_flux_model(reference_model, 0.3, LaplacePoint(s))
            g_bar = laplace_flux_model(reference_model, 0.3, LaplacePoint(s.conjugate()))
            assert abs(g_bar - g.conjugate()) <= 1e-15 * abs(g)

    def test_finite_where_another_sheet_has_a_pole(self, spectrum30):
        # at alpha = 0.6, (-lambda_1)^(1/alpha) = lambda_1^(1/alpha) e^(i pi/alpha)
        # has Re > 0, but the principal s^alpha there is lambda_1 e^(-0.2 i pi),
        # not -lambda_1: the transform is finite and the numeric one agrees
        alpha = 0.6
        model = _first_mode_model(spectrum30, alpha)
        lam = spectrum30.modes[spectrum30.index_of(0, 1)].lam
        s = LaplacePoint(lam ** (1 / alpha) * np.exp(1j * math.pi / alpha) + 1e-8)
        assert s.s.real > 0
        gm = laplace_flux_model(model, 0.7, s)
        assert np.isfinite(gm)
        tr = flux_trace(model, 0.7, np.linspace(0.0, 30.0, 30001))
        assert abs(gm - numeric_laplace(tr, s)) <= 1e-4


class TestLaplaceFluxModel:
    def test_single_mode_closed_form(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        lam = spectrum30.modes[spectrum30.index_of(0, 1)].lam
        a_z = 1.0 / (math.sqrt(math.pi) * math.sqrt(lam))
        for s in (1.0, 3.0):
            got = laplace_flux_model(model, 0.7, LaplacePoint(s))
            expect = a_z * lam / (s * (s ** 0.75 + lam))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_real_field_required(self, spectrum30):
        # a model that is not conjugate-symmetric never reaches
        # laplace_flux_model: SourceModel refuses it where it is built
        vals = np.zeros(len(spectrum30), dtype=complex)
        vals[spectrum30.index_of(1, 1)] = 1.0  # no conjugate partner
        with pytest.raises(ValidationError) as err:
            model = SourceModel(alpha=0.75, cuts=(0.0, math.inf),
                                piece_coeffs=(vals,),
                                spectrum=spectrum30)
            laplace_flux_model(model, 0.3, LaplacePoint(1.0))
        assert err.value.clause == "real-field"

    def test_numeric_cross_check(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 30.0, 30001)
        tr = flux_trace(model, 0.7, t)
        for s in (1.0, 2.0, 5.0, 10.0):
            gm = laplace_flux_model(model, 0.7, LaplacePoint(s))
            gn = numeric_laplace(tr, LaplacePoint(s))
            assert abs(gm - gn) <= 1e-4

    def test_large_s_asymptote(self, reference_model):
        # s^(1+a) e^(c0 s) G -> sum_n s_n a_n p_{1,n} lambda_n with the
        # expected O(s^-a) approach rate. (The convergence cannot reach 2%
        # at s=200 for any alpha < 1: that would need s^a >= 50*lambda_1.)
        b = (forward_model._phases(reference_model.spectrum, [0.3])[0]
             @ reference_model.dofs.T)
        lams = np.array([lam for lam, _ in
                         reference_model.spectrum.distinct_eigenvalues])
        target = float(np.sum(b[:, 0] * lams))
        alpha, c0 = reference_model.alpha, reference_model.cuts[0]
        s_pts = (50.0, 100.0, 200.0, 1000.0, 3000.0)
        errs = []
        for s in s_pts:
            g = laplace_flux_model(reference_model, 0.3, LaplacePoint(s))
            val = float((g * s ** (1 + alpha) * np.exp(c0 * s)).real)
            errs.append(abs(val - target) / abs(target))
            # the rescaled value equals the mode-sum with its finite-s factors
            sa = s ** alpha
            corrected = float(np.sum(b[:, 0] * lams * sa / (sa + lams)))
            assert val == pytest.approx(corrected, rel=1e-9)
        assert all(a > b for a, b in zip(errs[:-1], errs[1:]))
        assert errs[-1] < 0.2 * errs[0]

    def test_model_transform_agreement_random_models(self, spectrum30):
        rng = np.random.default_rng(99)
        t = np.linspace(0.0, 30.0, 24001)
        for _ in range(20):
            model = random_source_model(spectrum30, rng)
            theta = float(rng.uniform(0, 2 * np.pi))
            tr = flux_trace(model, theta, t)
            for s in (1.0, 7.0, 20.0):
                gm = laplace_flux_model(model, theta, LaplacePoint(s))
                gn = numeric_laplace(tr, LaplacePoint(s))
                assert abs(gm - gn) <= 1e-4 * (1 + abs(gm))

    def test_absolute_convergence_under_cutoff_growth(self):
        # partial sums of sum_n |a_n p_{k,n}| are monotone and Cauchy as the
        # cutoff grows, for a coefficient field with gamma > 0 decay
        from fracsource.disc_spectrum import boundary_coefficient

        def coeff(mode):
            return (1.0 + abs(mode.m) + 0.5j * mode.k) / (1.0 + mode.lam ** 1.5)

        totals = []
        for lam_max in (30.0, 60.0, 120.0, 240.0, 480.0):
            sp = build_spectrum(lam_max)
            totals.append(sum(
                abs(boundary_coefficient(mo, 0.3) * coeff(mo))
                for mo in sp.modes))
        increments = np.diff(totals)
        assert np.all(increments >= 0.0)
        assert np.all(np.diff(increments) < 0.0)


class TestNumericLaplace:
    def test_zero_trace(self):
        t = np.linspace(0.0, 30.0, 3001)
        tr = FluxTrace(0.0, t, np.zeros_like(t))
        assert numeric_laplace(tr, LaplacePoint(1.0)) == 0.0

    def test_exponential_reference(self):
        t = np.linspace(0.0, 40.0, 40001)
        tr = FluxTrace(0.0, t, -np.exp(-t))  # -flux = e^-t
        got = numeric_laplace(tr, LaplacePoint(1.0))
        assert got.real == pytest.approx(0.5, abs=1e-6)

    def test_horizon_error(self, reference_traces):
        with pytest.raises(HorizonError):
            numeric_laplace(reference_traces[0], LaplacePoint(1.0))

    def test_csv_schema(self):
        # the laplace_sensor<i>.csv layout: one row per real s, plain repr cells
        t = np.linspace(0.0, 40.0, 40001)
        tr = FluxTrace(0.0, t, -np.exp(-t))
        s = np.array([1.0, 2.0])
        g = np.array([numeric_laplace(tr, LaplacePoint(v)) for v in s])
        lines = columns_to_csv("re_s,im_s,re_G,im_G", s, np.zeros(len(s)),
                               g.real, g.imag).splitlines()
        assert lines[0] == "re_s,im_s,re_G,im_G"
        assert len(lines) == 3
        for line, v, gv in zip(lines[1:], s, g):
            assert [float(c) for c in line.split(",")] == [v, 0.0, gv.real, gv.imag]


class TestDeltaMollifier:
    def test_n_zero_constant(self):
        spec = AdjointSpec(theta_z=0.7, N=0, alpha=0.75)
        assert delta_z_eval(spec, 0.3, 2.0) == pytest.approx(1 / (2 * math.pi),
                                                             abs=1e-15)

    def test_peak_value(self):
        spec = AdjointSpec(theta_z=0.7, N=7, alpha=0.75)
        assert delta_z_eval(spec, 1.0, 0.7) == pytest.approx(15 / (2 * math.pi),
                                                             rel=1e-12)

    def test_projection_matches_a_n(self, spectrum30):
        # <delta_z^N, phi_n> = pi^(-1/2) lambda^(-1/2) e^(-i m theta_z), |m|<=N
        from fracsource.disc_spectrum import project_function
        theta_z = 0.7
        spec = AdjointSpec(theta_z=theta_z, N=1, alpha=0.75)
        coeffs = project_function(lambda r, th: delta_z_eval(spec, r, th),
                                  spectrum30)
        for i, mo in enumerate(spectrum30.modes):
            if abs(mo.m) <= 1:
                expect = (np.exp(-1j * mo.m * theta_z)
                          / (math.sqrt(math.pi) * math.sqrt(mo.lam)))
                assert coeffs[i] == pytest.approx(expect, abs=1e-10)
            else:
                assert abs(coeffs[i]) <= 1e-8

    def test_boundary_reproduction_of_trig_polys(self):
        # int_dOmega delta_z^N g -> g(z) exactly for trig degree <= N
        theta_z = 1.1
        spec = AdjointSpec(theta_z=theta_z, N=4, alpha=0.75)
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        w = 2 * np.pi / 512

        def g(th):
            return 0.7 + np.cos(2 * th - 0.3) + 0.2 * np.sin(4 * th)

        integral = float(np.sum(delta_z_eval(spec, np.ones_like(theta), theta)
                                * g(theta)) * w)
        assert integral == pytest.approx(float(g(np.array([theta_z]))[0]),
                                         abs=1e-8)

    def test_real_valued(self):
        spec = AdjointSpec(theta_z=2.0, N=6, alpha=0.6)
        vals = delta_z_eval(spec, np.linspace(0, 1, 8), np.linspace(0, 6, 8))
        assert np.all(np.isreal(vals))

    def test_n_validation(self):
        with pytest.raises(DomainError):
            AdjointSpec(theta_z=0.0, N=-1, alpha=0.75)


class TestAdjointWeight:
    def test_truncation_restricts_orders(self, spectrum30):
        spec = AdjointSpec(theta_z=0.3, N=0, alpha=0.75)
        got = adjoint_weight_w(spec, spectrum30, 0.5, 0.3, 1.0)
        # only m=0 modes contribute
        total = 0.0 + 0.0j
        for mo in spectrum30.modes:
            if mo.m != 0:
                continue
            e = mittag_leffler(0.75, 0.75, -mo.lam).real
            a_bar = 1.0 / (math.sqrt(math.pi) * math.sqrt(mo.lam))
            total += a_bar * (1 / math.gamma(0.75) - e) * eigenfunction_eval(mo, 0.5, 0.3)
        assert got == pytest.approx(total, rel=1e-12)

    def test_time_decay_envelope(self, spectrum30):
        spec = AdjointSpec(theta_z=0.3, N=2, alpha=0.75)
        ts = np.array([1.0, 10.0, 100.0, 1000.0])
        vals = [abs(adjoint_weight_w(spec, spectrum30, 0.5, 0.3, t)) for t in ts]
        envelope = [v / t ** (0.75 - 1.0) for v, t in zip(vals, ts)]
        assert max(envelope) <= 2.0 * envelope[0] + 1e-12

    def test_boundary_limit_study(self):
        # near r=1 the field approaches t^(a-1) delta_z^N / Gamma(a); resolving
        # the boundary layer at 1-r = 1e-3 needs zeros up to ~2e4
        alpha, n_trunc, t = 0.75, 5, 1.0
        theta_z = 0.4
        spec = AdjointSpec(theta_z=theta_z, N=n_trunc, alpha=alpha)
        sp_tall = _partial_spectrum(BOUNDARY_LAMBDA_MAX, n_trunc)
        assert len(sp_tall.distinct_eigenvalues) == 28320
        got = adjoint_weight_w(spec, sp_tall, 0.999, theta_z, t)
        target = t ** (alpha - 1.0) * delta_z_eval(spec, 0.999, theta_z) / math.gamma(alpha)
        assert abs(got - target) / abs(target) <= 0.05

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM, which only Linux reports")
    def test_boundary_limit_study_memory(self):
        # the relaxation basis sums its nodes over blocks of eigenvalues, so
        # one relaxation_rates call over the 28320 distinct eigenvalues above
        # raises the peak RSS by less than 50 MB (unblocked, it went from 50
        # to 179 MB). The peak is VmHWM, the child's own: its ru_maxrss would
        # include the RSS that pytest had when it started the child, and read
        # 0 in a full run
        script = (
            "import math\n"
            "import numpy as np\n"
            "from fracsource.forward_model import relaxation_rates\n"
            "from fracsource.specfun import bessel_j_zeros\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(row.split()[1]) for row in fh if row.startswith('VmHWM:'))\n"
            f"top = math.sqrt({BOUNDARY_LAMBDA_MAX!r})\n"
            "zeros = [bessel_j_zeros(m, top) for m in range(6)]\n"
            "lams = np.sort(np.concatenate(zeros) ** 2)\n"
            "assert len(lams) == 28320\n"
            "before = peak()\n"
            "relaxation_rates(0.75, lams, [0.0], [1.0])\n"
            "print((peak() - before) / 1024)\n")
        package_root = os.path.dirname(os.path.dirname(fracsource.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 50.0

    def test_t_positive_required(self, spectrum30):
        spec = AdjointSpec(theta_z=0.3, N=1, alpha=0.75)
        with pytest.raises(DomainError):
            adjoint_weight_w(spec, spectrum30, 0.5, 0.3, 0.0)

    def test_r_in_unit_interval_required(self, spectrum30):
        spec = AdjointSpec(theta_z=0.3, N=1, alpha=0.75)
        with pytest.raises(DomainError):
            adjoint_weight_w(spec, spectrum30, np.array([0.5, 1.2]), 0.3, 1.0)

    def test_broadcasts_over_r_and_theta(self, spectrum30):
        spec = AdjointSpec(theta_z=0.3, N=2, alpha=0.75)
        r = np.linspace(0.0, 1.0, 4)[:, None]
        theta = np.linspace(0.0, 6.0, 3)[None, :]
        got = adjoint_weight_w(spec, spectrum30, r, theta, 2.0)
        assert got.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                one = adjoint_weight_w(spec, spectrum30, r[i, 0], theta[0, j], 2.0)
                assert abs(got[i, j] - one) <= 1e-15

    @pytest.mark.parametrize("x", (5.2, 5.4, 5.6))
    def test_mittag_leffler_term_near_alpha_one(self, x):
        # one mode (m = 0, lam = j_{0,1}^2) at lam t^a = x: the field is
        # a-bar t^(a-1) [1/Gamma(a) - E_{a,a}(-x)] phi(r, theta), and the
        # E_{a,a} read back from it must match mpmath to 1e-12 relative
        alpha = 0.9995
        sp = build_spectrum(6.0)
        (mo,) = sp.modes
        t = (x / mo.lam) ** (1.0 / alpha)
        spec = AdjointSpec(theta_z=0.3, N=0, alpha=alpha)
        got = adjoint_weight_w(spec, sp, 0.5, 0.3, t)
        scale = (t ** (alpha - 1.0) * eigenfunction_eval(mo, 0.5, 0.3).real
                 / math.sqrt(math.pi * mo.lam))
        e_aa = 1.0 / math.gamma(alpha) - got.real / scale
        want = float(oracles.ml_mpmath(alpha, alpha, mo.lam * t ** alpha))
        assert abs(e_aa - want) <= 1e-12 * abs(want)
