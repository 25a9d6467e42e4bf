import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fracsource import forward_model
from fracsource.disc_spectrum import build_spectrum, eigenfunction_eval
from fracsource.errors import SensorGeometryError, ShapeError, ValidationError
from fracsource.forward_model import (
    FluxTrace,
    SourceModel,
    check_sensor_geometry,
    flux_trace,
    relaxation_design,
    relaxation_rates,
    verify_measurement_identity,
)

from conftest import basis_ml, make_coeffs, REF_PIECE_1, REF_PIECE_2
import oracles
from oracles import duhamel_mode_response, mittag_leffler, solve_field


def _ml_aa(alpha, x):
    return basis_ml(alpha, alpha, x)


class TestSourceModelValidation:
    def test_alpha_range(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        for alpha in (0.5, 1.0, 0.3, 1.2):
            with pytest.raises(ValidationError) as err:
                SourceModel(alpha=alpha, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
            assert err.value.clause == "condition-alpha"

    def test_cut_ordering(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        q = make_coeffs(spectrum30, {(0, 1): 2.0})
        with pytest.raises(ValidationError) as err:
            SourceModel(alpha=0.75, cuts=(1.0, 0.5, math.inf),
                        piece_coeffs=(p, q), spectrum=spectrum30)
        assert err.value.clause == "assumption-1a"
        with pytest.raises(ValidationError):
            SourceModel(alpha=0.75, cuts=(-0.1, math.inf), piece_coeffs=(p,),
                        spectrum=spectrum30)

    def test_no_declared_eta(self, spectrum30):
        # the model holds no minimum gap of its own: its cuts need only
        # increase, and the paper's eta is inversion.changepoint_min_gap
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        q = make_coeffs(spectrum30, {(0, 1): 2.0})
        model = SourceModel(alpha=0.75, cuts=(0.0, 1e-9, math.inf),
                            piece_coeffs=(p, q), spectrum=spectrum30)
        assert model.cuts == (0.0, 1e-9, math.inf)
        with pytest.raises(TypeError):
            SourceModel(alpha=0.75, cuts=(0.0, 0.3, math.inf),
                        piece_coeffs=(p, q), spectrum=spectrum30, eta=0.5)

    def test_nonzero_norm_required(self, spectrum30):
        zero = np.zeros(len(spectrum30), dtype=complex)
        with pytest.raises(ValidationError) as err:
            SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(zero,),
                        spectrum=spectrum30)
        assert err.value.clause == "assumption-1c"

    def test_consecutive_pieces_must_differ(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        with pytest.raises(ValidationError) as err:
            SourceModel(alpha=0.75, cuts=(0.0, 1.0, math.inf),
                        piece_coeffs=(p, p), spectrum=spectrum30)
        assert err.value.clause == "assumption-1c"

    def test_shape_mismatch(self, spectrum30):
        p = np.ones(3, dtype=complex)
        with pytest.raises(ShapeError):
            SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                        spectrum=spectrum30)

    @pytest.mark.parametrize("edit, real", [
        pytest.param(lambda sp, vals: None, True, id="conjugate"),
        pytest.param(lambda sp, vals: vals.__setitem__(0, 3.0 + 1e-10j), True,
                     id="m0-im-at-tolerance"),
        pytest.param(lambda sp, vals: vals.__setitem__(0, 3.0 + 1.0j), False, id="m0-im"),
        pytest.param(lambda sp, vals: vals.__setitem__(sp.index_of(-1, 1), 0.0), False,
                     id="unpaired-plus-one"),
        pytest.param(lambda sp, vals: vals.__setitem__(sp.index_of(-2, 1), 1.0 + 2.0j),
                     False, id="pair-not-conjugate"),
    ])
    def test_real_field_required(self, spectrum30, edit, real):
        # a real source has conjugate-symmetric coefficients: real at m = 0,
        # p(-m, k) = conj(p(+m, k)), each to 1e-10. The model checks it once,
        # where it is built, and keeps the real dof rows: p at m = 0, and
        # (Re, Im) of p(+m, k) at the pair's two indices
        vals = np.zeros(len(spectrum30), dtype=complex)
        for _, idx in spectrum30.distinct_eigenvalues:
            vals[list(idx)] = (1.0 + 2.0j, 1.0 - 2.0j) if len(idx) == 2 else 3.0
        edit(spectrum30, vals)

        def build():
            return SourceModel(alpha=0.75, cuts=(0.0, math.inf),
                               piece_coeffs=(vals,),
                               spectrum=spectrum30)
        if not real:
            with pytest.raises(ValidationError) as err:
                build()
            assert err.value.clause == "real-field"
            return
        dofs = build().dofs
        assert dofs.shape == (1, len(spectrum30)) and not dofs.flags.writeable
        want = [(1.0, 2.0) if len(idx) == 2 else (3.0,)
                for _, idx in spectrum30.distinct_eigenvalues]
        assert dofs[0].tolist() == [d for pair in want for d in pair]


class TestSensorConfig:
    def test_margin(self, spectrum30):
        # the sensor-geometry guard of synth and invert
        assert min(check_sensor_geometry(spectrum30, 0.3 - 1.3).values()) > 1.0
        with pytest.raises(ValidationError) as err:
            check_sensor_geometry(spectrum30, 0.0 - math.pi / 2)
        assert isinstance(err.value, SensorGeometryError)
        assert err.value.m == 2 and err.value.clause == "sensor-margin"
        assert "|m| = 2" in str(err.value)

    def test_margin_value(self, spectrum30, monkeypatch):
        # represented |m| are {1, 2}: the report holds |2 sin(m delta_theta)|,
        # and the margin min |sin(m delta_theta)| is half its smallest value
        assert forward_model.MARGIN_MIN == 1e-3
        got = check_sensor_geometry(spectrum30, 1.0)
        assert got == {1: abs(2.0 * math.sin(1.0)), 2: abs(2.0 * math.sin(2.0))}
        assert min(got.values()) / 2 == pytest.approx(
            min(abs(math.sin(1.0)), abs(math.sin(2.0))), rel=1e-12)
        # the guard compares that margin with MARGIN_MIN
        monkeypatch.setattr(forward_model, "MARGIN_MIN", abs(math.sin(1.0)))
        check_sensor_geometry(spectrum30, 1.0)
        monkeypatch.setattr(forward_model, "MARGIN_MIN", abs(math.sin(1.0)) * (1 + 1e-15))
        with pytest.raises(SensorGeometryError):
            check_sensor_geometry(spectrum30, 1.0)


class TestDuhamel:
    def test_causality(self):
        assert duhamel_mode_response(5.78, 0.75, [1.0], (0.5, math.inf), 0.3) == 0
        assert duhamel_mode_response(5.78, 0.75, [1.0], (0.5, math.inf), 0.5) == 0

    def test_steady_state(self):
        lam = 5.783185962946785
        val = duhamel_mode_response(lam, 0.75, [2.0], (0.0, math.inf), 1e8)
        assert val.real == pytest.approx(2.0 / lam, rel=1e-4)

    def test_finished_piece_formula(self):
        lam, alpha = 5.783185962946785, 0.75
        got = duhamel_mode_response(lam, alpha, [1.0], (0.0, 1.0), 2.0)
        e1 = mittag_leffler(alpha, 1.0, -lam).real
        e2 = mittag_leffler(alpha, 1.0, -lam * 2 ** alpha).real
        assert got.real == pytest.approx((e1 - e2) / lam, rel=1e-12)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            lam = float(rng.uniform(1.0, 40.0))
            alpha = float(rng.uniform(0.55, 0.95))
            t = float(rng.uniform(0.05, 3.0))
            c_hi = float(rng.choice([0.5, 1.0, math.inf]))
            got = duhamel_mode_response(lam, alpha, [1.3], (0.0, c_hi), t).real
            ref = oracles.duhamel_quadrature(lam, alpha, 1.3, 0.0, c_hi, t, _ml_aa)
            assert got == pytest.approx(ref, abs=1e-6)


class TestFluxTrace:
    def test_causality_and_reality(self, reference_model, reference_grid,
                                   reference_traces):
        for tr in reference_traces:
            assert np.all(tr.values[reference_grid <= 0.2] == 0.0)
            assert tr.values.dtype == np.float64

    def test_linearity(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        scaled = 2.5 * p1
        m_a = SourceModel(alpha=0.8, cuts=(0.1, math.inf), piece_coeffs=(p1,),
                          spectrum=spectrum30)
        m_b = SourceModel(alpha=0.8, cuts=(0.1, math.inf), piece_coeffs=(scaled,),
                          spectrum=spectrum30)
        f_a = flux_trace(m_a, 0.3, reference_grid).values
        f_b = flux_trace(m_b, 0.3, reference_grid).values
        assert np.max(np.abs(f_b - 2.5 * f_a)) <= 1e-12 * np.max(np.abs(f_b))

    def test_superposition_in_k(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        both = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                           piece_coeffs=(p1, p2), spectrum=spectrum30)
        only1 = SourceModel(alpha=0.75, cuts=(0.2, 1.2), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        only2 = SourceModel(alpha=0.75, cuts=(1.2, math.inf), piece_coeffs=(p2,),
                            spectrum=spectrum30)
        f = flux_trace(both, 0.3, reference_grid).values
        f1 = flux_trace(only1, 0.3, reference_grid).values
        f2 = flux_trace(only2, 0.3, reference_grid).values
        assert np.max(np.abs(f - (f1 + f2))) <= 1e-10

    def test_determinism_same_angle(self, reference_model, reference_grid):
        a = flux_trace(reference_model, 0.3, reference_grid).values
        b = flux_trace(reference_model, 0.3, reference_grid).values
        assert np.array_equal(a, b)

    def test_steady_single_mode_flux(self, spectrum30):
        # -du/dnu -> a(z) as t -> inf for the unit (m=0,k=1) source; also the
        # divergence-theorem balance: total boundary flux = -integral of p
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 3000.0, 3001)
        tr = flux_trace(model, 0.9, t)
        mo = spectrum30.modes[spectrum30.index_of(0, 1)]
        a_z = 1.0 / (math.sqrt(math.pi) * math.sqrt(mo.lam))
        assert -tr.values[-1] == pytest.approx(a_z, rel=2e-3)
        assert a_z == pytest.approx(0.2346, abs=5e-5)
        # steady flux balance by radial quadrature of phi
        x, w = leggauss(128)
        r = 0.5 * (x + 1.0)
        integral_phi = float(np.sum(
            0.5 * w * r * eigenfunction_eval(mo, r, 0.0).real)) * 2.0 * math.pi
        assert 2.0 * math.pi * tr.values[-1] == pytest.approx(-integral_phi,
                                                              rel=2e-3)

    def test_kink_signature(self, reference_traces, reference_grid):
        summed = reference_traces[0].values + reference_traces[1].values
        d2 = np.abs(summed[:-2] - 2 * summed[1:-1] + summed[2:])
        centers = reference_grid[1:-1]
        window = (centers > 0.8) & (centers < 1.6)
        peak_at = centers[window][np.argmax(d2[window])]
        assert abs(peak_at - 1.2) <= (reference_grid[1] - reference_grid[0]) + 1e-12

    def test_real_field_required(self, spectrum30, reference_grid):
        # a model that is not conjugate-symmetric never reaches flux_trace:
        # SourceModel refuses it where it is built
        vals = np.zeros(len(spectrum30), dtype=complex)
        vals[spectrum30.index_of(1, 1)] = 1.0  # no conjugate partner
        with pytest.raises(ValidationError) as err:
            model = SourceModel(alpha=0.75, cuts=(0.0, math.inf),
                                piece_coeffs=(vals,),
                                spectrum=spectrum30)
            flux_trace(model, 0.3, reference_grid)
        assert err.value.clause == "real-field"

    def test_trace_grid_validation(self):
        with pytest.raises(ShapeError):
            FluxTrace(0.0, np.array([0.5, 1.0]), np.array([0.0, 0.0]))


class TestSecondRadialModeSigns:
    """lambda_max > 30.5 brings in (m=0, k=2) whose normalizer sign is -1;
    every boundary-coefficient pairing must carry that sign."""

    def test_normal_derivative_fd_with_k2(self):
        sp = build_spectrum(40.0)
        mo = sp.modes[sp.index_of(0, 2)]
        h = 1e-6
        fd = (eigenfunction_eval(mo, 1.0, 0.5)
              - eigenfunction_eval(mo, 1.0 - h, 0.5)) / h
        cf = oracles.normal_derivative_weight(mo, 0.5)
        assert abs(fd - cf) / abs(cf) <= 1e-4

    def test_steady_flux_balance_with_k2(self):
        # divergence theorem: 2 pi * steady flux = -integral of the source
        sp = build_spectrum(40.0)
        p = make_coeffs(sp, {(0, 2): 1.0})
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=sp)
        t = np.linspace(0.0, 5000.0, 2001)
        tr = flux_trace(model, 0.4, t)
        mo = sp.modes[sp.index_of(0, 2)]
        x, w = leggauss(160)
        r = 0.5 * (x + 1.0)
        integral_phi = float(np.sum(
            0.5 * w * r * eigenfunction_eval(mo, r, 0.0).real)) * 2.0 * math.pi
        assert 2.0 * math.pi * tr.values[-1] == pytest.approx(-integral_phi,
                                                              rel=3e-3)


class TestGroupedAmplitudes:
    def test_matches_direct_sum(self, reference_model):
        # the one map, phase @ dofs.T, against the complex sum over each
        # eigenvalue group of the boundary coefficients times the values
        from fracsource.disc_spectrum import boundary_coefficient
        sp = reference_model.spectrum
        b = forward_model._phases(sp, [1.3])[0] @ reference_model.dofs.T
        assert b.dtype == float
        for j, (lam, idx) in enumerate(sp.distinct_eigenvalues):
            for k, pc in enumerate(reference_model.piece_coeffs):
                direct = sum(boundary_coefficient(sp.modes[i], 1.3) * pc[i]
                             for i in idx)
                assert b[j, k] == pytest.approx(direct, abs=1e-14)


class TestMeasurementIdentity:
    def test_single_piece_single_mode(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        model = SourceModel(alpha=0.7, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 2.0, 2001)
        assert verify_measurement_identity(model, 0.3, t) <= 5e-4

    def test_reference_model_and_order(self, reference_model):
        err_coarse = verify_measurement_identity(
            reference_model, 0.3, np.linspace(0.0, 4.0, 4001))
        err_fine = verify_measurement_identity(
            reference_model, 0.3, np.linspace(0.0, 4.0, 8001))
        assert err_coarse <= 5e-4
        assert err_coarse / err_fine >= 3.0


class TestRelaxationDesign:
    def test_open_piece_columns(self, spectrum30):
        # bounds [c, inf]: column j is 1 - E_{alpha,1}(-lam_j clip(t - c, 0)^alpha),
        # with c one ulp above a grid point so that t - c < 0 right there.
        # The design is an exponential sum and the reference is the scalar
        # mittag_leffler on sampled rows; the two agree to 5e-14 at most
        # (measured up to alpha = 0.985), inside the 1e-13 bound.
        lams = np.array([lam for lam, _ in spectrum30.distinct_eigenvalues])
        t = np.linspace(0.0, 2.0, 2001)
        c = float(np.nextafter(t[1000], 1.0))
        got = relaxation_design(0.75, lams, [c, math.inf], t)
        assert got.shape == (len(t), len(lams), 1)
        rows = _sample_rows(t, [c])
        want = _ml_design(0.75, lams, [c, math.inf], t[rows])
        assert np.max(np.abs(got[rows] - want)) <= 1e-13
        assert np.all(got[:1001] == 0.0)


class TestEigenvalueBlocks:
    """The node sums run over blocks of eigenvalues, which bounds the memory
    of a call over many of them; the blocking changes no value."""

    @pytest.mark.parametrize("times", [np.array([1.0]), np.linspace(0.0, 4.0, 401)],
                             ids=["one-time", "uniform-grid"])
    def test_blocked_equals_unblocked(self, monkeypatch, times):
        lams = np.sort(np.random.default_rng(3).uniform(5.0, 3e4, 3000))
        calls = []
        node_weights = forward_model._node_weights
        monkeypatch.setattr(forward_model, "_node_weights",
                            lambda *a: calls.append(len(a[1])) or node_weights(*a))
        blocked = [relaxation_design(0.75, lams, [0.2, 1.2, math.inf], times),
                   relaxation_rates(0.6, lams, [0.0, 0.5], times)]
        assert calls == [1024, 1976] * 2
        monkeypatch.setattr(forward_model, "_LAM_BLOCK", 1 << 30)
        whole = [relaxation_design(0.75, lams, [0.2, 1.2, math.inf], times),
                 relaxation_rates(0.6, lams, [0.0, 0.5], times)]
        assert calls[4:] == [3000] * 2
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)

    def test_cli_spectra_are_one_block(self, monkeypatch, spectrum50):
        calls = []
        node_weights = forward_model._node_weights
        monkeypatch.setattr(forward_model, "_node_weights",
                            lambda *a: calls.append(len(a[1])) or node_weights(*a))
        lams = [lam for lam, _ in spectrum50.distinct_eigenvalues]
        relaxation_design(0.75, lams, [0.2, 1.2, math.inf], np.linspace(0.0, 4.0, 2001))
        assert calls == [6]


class TestShiftTables:
    """Uniform grids up to the accuracy route sum their later rows through
    the factored shift tables; longer and non-uniform grids are summed at
    exact tau, without building any."""

    @pytest.mark.parametrize("times, builds", [
        (np.linspace(0.0, 4.0, 16001), [16001]),
        (np.linspace(0.0, 30.0, 30001), []),
        (np.concatenate([[0.0], np.sort(np.random.default_rng(5).uniform(0.0, 4.0, 3000))]), []),
    ], ids=["16000-steps", "verify-30001-points", "non-uniform"])
    def test_routing(self, monkeypatch, times, builds):
        calls = []
        tables = forward_model._shift_tables
        monkeypatch.setattr(forward_model, "_shift_tables",
                            lambda *a: calls.append(a[0]) or tables(*a))
        relaxation_design(0.75, LAMS_TO_100, [0.2, 1.2, math.inf], times)
        relaxation_rates(0.75, LAMS_TO_100, [0.0, 1.2], times)
        assert calls == builds * 2

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM, which only Linux reports")
    def test_flux_traces_memory(self):
        # flux_traces on the reference model with 16000 steps raises the peak
        # RSS by less than 12 MB (about 7 MB; 25 MB with an unfactored n x 85
        # table). The peak is VmHWM, the child's own: its ru_maxrss would
        # include the RSS that pytest had when it started the child.
        script = (
            "import json, sys\n"
            "from fracsource.config import build_source_model, load_config\n"
            "from fracsource.disc_spectrum import build_spectrum\n"
            "from fracsource.forward_model import flux_traces\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(row.split()[1]) for row in fh if row.startswith('VmHWM:'))\n"
            "doc = json.load(open(sys.argv[1]))\n"
            "doc['grid']['steps'] = 16000\n"
            "cfg = load_config(json.dumps(doc))\n"
            "spectrum = build_spectrum(float(cfg.spectrum['lambda_max']))\n"
            "model = build_source_model(cfg, spectrum)\n"
            "times = cfg.times()\n"
            "before = peak()\n"
            "flux_traces(model, cfg.sensor_angles(), times)\n"
            "print((peak() - before) / 1024)\n")
        package_root = os.path.dirname(os.path.dirname(forward_model.__file__))
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script, config], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 12.0


LAMS_TO_100 = np.array([5.783185962946785, 14.681970642123893, 26.37461642716339,
                        49.21845632169460, 100.0])


class TestPoleTermBlocks:
    """On a uniform grid the pole term forms its powers z^m and its update in
    blocks of whole giant steps; every value is the product that the one
    rows x J array zm gave (oracles.pole_term_one_shot), bit for bit."""

    @pytest.mark.parametrize("parts", [("value",), ("rate",), ("rate", "alpha")],
                             ids=["value", "rate", "rate-alpha"])
    @pytest.mark.parametrize("alpha", [0.7, 0.9, 0.999])
    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 4.0, 16001),
        np.linspace(0.0, 4.0, 2501),
        np.concatenate([[0.0], np.sort(np.random.default_rng(5).uniform(0.0, 4.0, 3000))]),
    ], ids=["16001-rows", "2501-rows", "non-uniform"])
    def test_equals_one_shot(self, times, alpha, parts):
        n = len(times)
        h = forward_model._uniform_step(times)
        if h is not None:
            # the blocks are whole giant steps of _ROW_BLOCK rows, and
            # neither grid is a whole number of them
            stride = forward_model._stride(n)
            assert forward_model._ROW_BLOCK % stride == 0 and n % forward_model._ROW_BLOCK
        # cuts on grid points and between them; at alpha 0.999 the term runs
        # to the end of the grid
        i = [n // 20, n // 4 + 1, (3 * n) // 5]
        cuts = np.array([times[i[0]], 0.4 * times[i[1]] + 0.6 * times[i[1] + 1],
                         times[i[2]], 0.5 * (times[-3] + times[-2])])
        starts = np.searchsorted(times, cuts, side="right")
        tau_max = float(times[-1]) - min(float(np.min(cuts)), 0.0)
        start = np.random.default_rng(7).normal(size=(n, len(parts), len(LAMS_TO_100),
                                                      len(cuts)))
        got, want = start.copy(), start.copy()
        forward_model._pole_term(got, alpha, LAMS_TO_100, cuts, times, starts, parts,
                                 tau_max, h)
        oracles.pole_term_one_shot(want, alpha, LAMS_TO_100, cuts, times, starts, parts,
                                   tau_max, h)
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, start)


def _sample_rows(t, bounds):
    """Rows on which the scalar mittag_leffler is the reference (it takes
    about a millisecond per point): the first three after each finite bound
    and 20 more spread over the grid."""
    rows = set(np.linspace(0, len(t) - 1, 20).astype(int).tolist())
    for c in bounds:
        if np.isfinite(c):
            i0 = int(np.searchsorted(t, c, side="right"))
            rows.update(range(i0, min(i0 + 3, len(t))))
    return np.array(sorted(rows))


def _ml_design(alpha, lams, bounds, t):
    """relaxation_design point by point from the scalar mittag_leffler."""
    prof = np.ones((len(t), len(lams), len(bounds)))
    for b, c in enumerate(bounds):
        for i in np.flatnonzero(t > c):
            for j, lam in enumerate(lams):
                prof[i, j, b] = mittag_leffler(alpha, 1.0, -lam * (t[i] - c) ** alpha).real
    return prof[:, :, 1:] - prof[:, :, :-1]


class TestExpSumBasis:
    """The basis is an exponential sum on a fixed node lattice for every
    alpha in (1/2, 1). Up to alpha = 0.985 it must agree with the scalar
    mittag_leffler to 1e-13 on sampled rows, with no floating-point warning;
    nearer to 1 the frozen mpmath values are the reference."""

    ALPHAS = (0.501, 0.55, 0.6, 0.66, 0.67, 0.75, 0.9, 0.98, 0.985)

    def _check(self, alpha, bounds, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relaxation_design(alpha, LAMS_TO_100, bounds, t)
        rows = _sample_rows(t, bounds)
        want = _ml_design(alpha, LAMS_TO_100, bounds, t[rows])
        assert np.max(np.abs(got[rows] - want)) <= 1e-13
        # no row before or at a finite bound moves: tau = 0 gives exactly 1
        for k in range(len(bounds) - 1):
            assert np.all(got[t <= bounds[k], :, k] == 0.0)
        return got

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_reference_grid(self, alpha):
        t = np.linspace(0.0, 4.0, 4001)
        self._check(alpha, [0.2, 1.2, math.inf], t)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bounds_one_ulp_from_grid_points(self, alpha):
        t = np.linspace(0.0, 4.0, 4001)
        bounds = [float(np.nextafter(t[200], 0.0)), t[700],
                  float(np.nextafter(t[1200], 2.0)), math.inf]
        self._check(alpha, bounds, t)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_first_row_after_a_bound(self, alpha):
        # tau of the first row after each bound: 1e-16, 1e-9 and h/2
        t = np.linspace(0.0, 4.0, 4001)
        h = t[1] - t[0]
        bounds = [t[100] - 1e-16, t[600] - 1e-9, t[1500] - h / 2]
        firsts = [t[100] - bounds[0], t[600] - bounds[1], t[1500] - bounds[2]]
        assert 0 < firsts[0] <= 2e-16 and firsts[1] > 0
        self._check(alpha, bounds, t)

    @pytest.mark.parametrize("alpha", (0.55, 0.75, 0.9, 0.985))
    def test_long_grid_of_verify(self, alpha):
        # 30001 points on [0, 30]: no shift table, rows in blocks
        t = np.linspace(0.0, 30.0, 30001)
        self._check(alpha, [0.2, 1.2, float(np.nextafter(t[25300], 0.0)), math.inf], t)

    @pytest.mark.parametrize("alpha", (0.55, 0.75, 0.9, 0.985))
    def test_grid_of_16000_steps(self, alpha):
        # the 16000-step grid of the benchmark, the longest in use that takes
        # the factored shift tables
        t = np.linspace(0.0, 4.0, 16001)
        self._check(alpha, [0.2, 1.2, float(np.nextafter(t[12000], 0.0)), math.inf], t)

    def test_window_after_a_bound(self):
        # the order search builds on a window of the grid, and a bound may
        # lie before the window's first point: there delta = t_0 - c > h
        t = np.linspace(0.0, 4.0, 4001)[1000:1400]
        self._check(0.8, [0.2, math.inf], t)
        self._check(0.8, [0.2, t[0], math.inf], t)

    def test_negative_bound(self):
        # tau then exceeds t_max, which moves the bottom of the lattice
        t = np.linspace(0.0, 4.0, 4001)
        self._check(0.8, [-3.0, 1.2, math.inf], t)
        self._check(0.6, [-0.5, math.inf], t)

    def test_non_uniform_grid(self):
        t = np.sort(np.random.default_rng(5).uniform(0.0, 4.0, 3000))
        self._check(0.8, [0.2, 1.2, math.inf], np.concatenate([[0.0], t]))

    @pytest.mark.parametrize("alpha", (0.67, 0.75, 0.9, 0.985, 0.999))
    def test_pole_sequence_matches_exact_tau(self, alpha):
        # on a uniform grid the pole term is summed as a geometric sequence
        # in the row index; a grid with every seventh row dropped is not
        # uniform, so there every row is summed at its exact tau
        t = np.linspace(0.0, 4.0, 4001)
        keep = np.ones(len(t), dtype=bool)
        keep[1::7] = False
        bounds = [0.2, 1.2, math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            design = relaxation_design(alpha, LAMS_TO_100, bounds, t)
            exact = relaxation_design(alpha, LAMS_TO_100, bounds, t[keep])
            rates = relaxation_rates(alpha, LAMS_TO_100, bounds[:-1], t)
            rates_exact = relaxation_rates(alpha, LAMS_TO_100, bounds[:-1], t[keep])
        assert np.max(np.abs(design[keep] - exact)) <= 1e-13
        assert np.max(np.abs(rates[keep] - rates_exact)
                      / np.maximum(1.0, np.abs(rates_exact))) <= 1e-13

    @pytest.mark.parametrize("alpha", (0.55, 0.75, 0.9, 0.985))
    def test_rates_match_mittag_leffler(self, alpha):
        # lam tau^(alpha-1) E_{alpha,alpha}(-lam tau^alpha), the cut columns
        t = np.linspace(0.0, 4.0, 4001)
        cuts = [0.2, float(np.nextafter(t[1200], 0.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relaxation_rates(alpha, LAMS_TO_100, cuts, t)
        for b, c in enumerate(cuts):
            assert np.all(got[t <= c, :, b] == 0.0)
            rows = _sample_rows(t, [c])
            rows = rows[t[rows] > c]
            tau = t[rows] - c
            for j, lam in enumerate(LAMS_TO_100):
                want = lam * tau ** (alpha - 1.0) * np.array(
                    [mittag_leffler(alpha, alpha, -x).real for x in lam * tau ** alpha])
                assert np.max(np.abs(got[rows, j, b] - want)
                              / np.maximum(1.0, np.abs(want))) <= 1e-11

    @pytest.mark.parametrize("alpha", (0.985, 0.9995))
    def test_near_alpha_one_against_mpmath(self, alpha):
        # the basis must stay within 3e-13 of the mpmath values
        t = np.linspace(0.0, 4.0, 4001)
        rows = [row for row in oracles.frozen_ml_near_one() if row["alpha"] == alpha]
        assert len(rows) == 6
        for row in rows:
            i = int(round(row["tau"] * 1000))
            assert t[i] == row["tau"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                design = relaxation_design(alpha, [row["lam"]], [0.0, math.inf], t)
            assert abs(1.0 - design[i, 0, 0] - row["value"]) <= 3e-13


def _rate_mpmath(alpha, lam, tau):
    """lam tau^(alpha-1) E_{alpha,alpha}(-lam tau^alpha), with E from the
    power series in mpmath."""
    e = oracles.ml_mpmath(alpha, alpha, lam * tau ** alpha)
    return float(lam * tau ** (alpha - 1.0) * e)


class TestRatesNearAlphaOne:
    @pytest.mark.parametrize("alpha", (0.99, 0.999, 0.9995))
    def test_rates_against_mpmath(self, alpha):
        # the E_{alpha,alpha} values of verify: the basis is off by 2e-13
        # relative at most
        t = np.linspace(0.0, 4.0, 4001)
        lams = (5.783185962946785, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relaxation_rates(alpha, lams, [0.0], t)
        for j, lam in enumerate(lams):
            for i in (1, 10, 54, 300, 1000, 4000):
                want = _rate_mpmath(alpha, lam, t[i])
                assert abs(got[i, j, 0] - want) <= 1e-12 * abs(want)


class TestSolveField:
    def test_initial_condition(self, reference_model):
        vals = solve_field(reference_model, [(0.2, 0.5), (0.9, 3.0)], 0.0)
        assert all(v == 0 for v in vals)

    def test_dirichlet(self, reference_model):
        vals = solve_field(reference_model, [(1.0, 2.0)], 2.0)
        assert abs(vals[0]) <= 1e-9

    def test_steady_single_mode(self, spectrum30):
        p = make_coeffs(spectrum30, {(0, 1): 1.0})
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        mo = spectrum30.modes[spectrum30.index_of(0, 1)]
        val = solve_field(model, [(0.4, 1.0)], 1e9)[0]
        expect = eigenfunction_eval(mo, 0.4, 1.0) / mo.lam
        assert val == pytest.approx(expect, rel=1e-4)


class TestUniquenessShadow:
    def test_distinct_models_distinct_traces(self, spectrum30, reference_grid):
        from conftest import random_source_model
        rng = np.random.default_rng(20240818)
        for trial in range(10):
            m_a = random_source_model(spectrum30, rng)
            m_b = random_source_model(spectrum30, rng)
            gap = 0.0
            for theta in (0.3, 1.3):
                f_a = flux_trace(m_a, theta, reference_grid).values
                f_b = flux_trace(m_b, theta, reference_grid).values
                gap = max(gap, float(np.max(np.abs(f_a - f_b))))
            assert gap > 1e-6, f"trial {trial}: traces coincide"
