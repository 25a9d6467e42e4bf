import math
from dataclasses import fields

import numpy as np
import pytest

from fracsource import inversion
from fracsource.disc_spectrum import ModeCoefficients, build_spectrum
from fracsource.errors import (
    EmptySignalError,
    SensorGeometryError,
    ValidationError,
)
from fracsource.forward_model import (
    FluxTrace,
    SourceModel,
    flux_trace,
    flux_traces,
    grouped_amplitudes,
    relaxation_design,
)
from fracsource.inversion import (
    InversionConfig,
    ReconstructionResult,
    detect_change_points,
    detect_onset,
    estimate_alpha,
    fit_log_slope,
    predicted_flux,
    reconstruct,
    refine_joint,
    result_to_json,
)

from conftest import REF_PIECE_1, REF_PIECE_2, make_coeffs


CFG = InversionConfig(changepoint_min_gap=0.3)

# two pieces over all ten modes with lambda <= 50 (six distinct eigenvalues)
J6_PIECE_1 = {(0, 1): 1.0, (1, 1): 0.4 + 0.2j, (2, 1): -0.5 + 0.1j,
              (0, 2): 0.7, (3, 1): 0.3 - 0.6j, (1, 2): -0.2 + 0.3j}
J6_PIECE_2 = {(0, 1): -0.4, (1, 1): 0.9 - 0.3j, (2, 1): 0.2 + 0.4j,
              (0, 2): -0.3, (3, 1): -0.5 + 0.2j, (1, 2): 0.4 + 0.1j}


def _noisy(traces, level, seed):
    rng = np.random.default_rng(seed)
    out = []
    for tr in traces:
        sigma = level * float(np.max(np.abs(tr.values)))
        out.append(FluxTrace(tr.sensor_angle, tr.times,
                             tr.values + rng.normal(0.0, sigma, len(tr.values))))
    return tuple(out)


class TestInversionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"changepoint_min_gap": math.nan}, {"changepoint_min_gap": math.inf},
        {"changepoint_min_gap": 0.0}, {"changepoint_min_gap": "0.3"},
        {"changepoint_min_gap": True}, {"margin_min": math.nan}, {"margin_min": -1.0},
        {"margin_min": 0.0}, {"margin_min": 1.0}, {"refine": "false"}, {"refine": 0},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValidationError) as err:
            InversionConfig(**kwargs)
        assert err.value.clause == "inversion-config"

    def test_three_settings(self):
        assert [f.name for f in fields(InversionConfig)] == [
            "changepoint_min_gap", "margin_min", "refine"]


class TestDetectOnset:
    def test_noiseless_onset(self, spectrum30):
        p = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.5, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 2.0, 201)  # step 0.01
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        c0 = detect_onset(traces)
        assert 0.49 <= c0 <= 0.51

    def test_zero_traces(self):
        t = np.linspace(0.0, 1.0, 101)
        traces = (FluxTrace(0.3, t, np.zeros_like(t)),
                  FluxTrace(1.3, t, np.zeros_like(t)))
        with pytest.raises(EmptySignalError):
            detect_onset(traces)

    def test_immediate_onset(self, spectrum30):
        p = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 1.0, 1001)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        assert detect_onset(traces) == 0.0


class TestEstimateAlpha:
    def test_pure_power_slope(self):
        # L{t^(a-1)}(s) = Gamma(a) s^-a: the fitter recovers the exponent
        alpha = 0.6
        s = np.geomspace(20.0, 200.0, 40)
        mags = math.gamma(alpha) * s ** (-alpha)
        slope, _, _ = fit_log_slope(s, mags)
        assert -slope == pytest.approx(0.6, abs=1e-3)

    @pytest.mark.parametrize("alpha", [0.75, 0.9])
    def test_synthetic_staged_accuracy(self, spectrum30, reference_grid, alpha):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        model = SourceModel(alpha=alpha, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=(p1, p2), spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        c0 = detect_onset(traces)
        got, diag = estimate_alpha(traces, c0, CFG, spectrum30)
        assert abs(got - alpha) <= 5e-3
        # the Laplace slope is a diagnostic, clipped into the order range
        assert 0.5 < diag["alpha_slope"] < 1.0 and "alpha_vp" in diag


class TestDetectChangePoints:
    def test_k2_onset_at_zero(self, spectrum30):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        model = SourceModel(alpha=0.75, cuts=(0.0, 1.0, math.inf),
                            piece_coeffs=(p1, p2), spectrum=spectrum30)
        t = np.arange(0.0, 3.0 + 1e-12, 0.005)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        cfg = InversionConfig(changepoint_min_gap=0.3)
        cuts = detect_change_points(traces, 0.0, cfg)
        assert len(cuts) == 1
        assert 0.995 <= cuts[0] <= 1.005

    def test_k1_empty(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.2, math.inf), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        assert detect_change_points(traces, 0.2, CFG) == []

    def test_k3_two_cuts(self, spectrum30):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        p3 = make_coeffs(spectrum30, {(0, 1): 0.5, (1, 1): -0.3 + 0.6j,
                                      (2, 1): 0.3 - 0.2j})
        model = SourceModel(alpha=0.8, cuts=(0.2, 0.9, 1.6, math.inf),
                            piece_coeffs=(p1, p2, p3), spectrum=spectrum30)
        t = np.linspace(0.0, 4.0, 4001)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        h = t[1] - t[0]
        cuts = detect_change_points(traces, 0.2, CFG)
        assert len(cuts) == 2
        assert abs(cuts[0] - 0.9) <= h + 1e-12
        assert abs(cuts[1] - 1.6) <= h + 1e-12

    def test_grid_step_guard(self, reference_traces):
        cfg = InversionConfig(changepoint_min_gap=0.005)
        with pytest.raises(ValidationError):
            detect_change_points(reference_traces, 0.2, cfg)


class TestSolveAmplitudes:
    # the staged coefficients: one _project solve at the staged alpha and cuts

    def test_recovers_grouped_truth_j6(self, spectrum50, reference_grid):
        # 6 distinct eigenvalues below 50
        assert len(spectrum50.distinct_eigenvalues) == 6
        p1 = make_coeffs(spectrum50, J6_PIECE_1)
        p2 = make_coeffs(spectrum50, J6_PIECE_2)
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=(p1, p2), spectrum=spectrum50)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        got, _ = inversion._staged_result(traces, spectrum50, 0.2, 0.75, [1.2], [], {})
        assert got.K_hat == 2
        rebuilt = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                              piece_coeffs=tuple(got.coeffs_hat), spectrum=spectrum50)
        for theta in (0.3, 1.3):
            truth = grouped_amplitudes(model, theta)
            rel = (np.abs(grouped_amplitudes(rebuilt, theta) - truth)
                   / (np.abs(truth) + 1e-12))
            assert np.max(rel) <= 1e-3
        assert _coeff_rel_err(got, model) <= 1e-3
        assert max(dict(got.stage_log)["staged_coefficients"]["relative_residuals"]) < 1e-6

    def test_sigma_ratio_recorded(self, spectrum30, reference_traces):
        got, _ = inversion._staged_result(reference_traces, spectrum30,
                                          0.2, 0.75, [1.2], [], {})
        diag = dict(got.stage_log)["staged_coefficients"]
        lams = np.array([lam for lam, _ in spectrum30.distinct_eigenvalues])
        t = reference_traces[0].times
        design = relaxation_design(0.75, lams, [0.2, 1.2, math.inf], t).reshape(len(t), -1)
        svals = np.linalg.svd(design, compute_uv=False)
        assert diag["sigma_ratio"] == svals[-1] / svals[0]

    def test_zero_traces_zero_amplitudes(self, spectrum30, reference_grid):
        traces = (FluxTrace(0.3, reference_grid, np.zeros_like(reference_grid)),
                  FluxTrace(1.3, reference_grid, np.zeros_like(reference_grid)))
        got, _ = inversion._staged_result(traces, spectrum30, 0.2, 0.75, [], [], {})
        assert got.K_hat == 1
        assert np.all(got.coeffs_hat[0].values == 0)

    def test_single_mode_recovery(self, reference_grid):
        sp = build_spectrum(6.0)
        p = make_coeffs(sp, {(0, 1): 1.7})
        model = SourceModel(alpha=0.8, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=sp)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        got = reconstruct(traces, sp, InversionConfig(refine=False))
        assert got.K_hat == 1
        assert got.cuts_hat == [0.0]
        assert abs(got.alpha_hat - 0.8) <= 1e-6
        assert abs(got.coeffs_hat[0].values[0] - 1.7) <= 1e-6

    def test_relative_residuals_are_those_of_the_reported_coefficients(
            self, spectrum30, noisy_staged):
        # each sensor's entry is the misfit of the staged coefficients that
        # the result reports, as residual_curve.csv writes it
        traces, staged = noisy_staged
        diag = dict(staged.stage_log)["staged_coefficients"]
        flux = predicted_flux(staged, spectrum30, traces[0].times,
                              [tr.sensor_angle for tr in traces])
        for got, tr, f in zip(diag["relative_residuals"], traces, flux):
            want = np.linalg.norm(tr.values - f) / np.linalg.norm(tr.values)
            assert got == pytest.approx(want, rel=1e-9)
        assert staged.residual_norm == max(diag["relative_residuals"])


class TestRefineJoint:
    def test_exact_initial_is_stationary(self, spectrum30, reference_model,
                                          reference_traces):
        initial = ReconstructionResult(
            alpha_hat=0.75, cuts_hat=[0.2, 1.2],
            coeffs_hat=list(reference_model.piece_coeffs), K_hat=2,
            residual_norm=0.0, stage_log=[], condition_report={})
        refined = refine_joint(initial, reference_traces, spectrum30, CFG)
        assert refined.alpha_hat == pytest.approx(0.75, abs=1e-12)
        assert refined.cuts_hat[0] == pytest.approx(0.2, abs=1e-10)
        assert refined.cuts_hat[1] == pytest.approx(1.2, abs=1e-10)
        assert refined.residual_norm <= 1e-12

    def test_monotone_on_noisy_data(self, spectrum30, reference_model,
                                    reference_traces):
        noisy = _noisy(reference_traces, 0.01, 7)
        initial = ReconstructionResult(
            alpha_hat=0.76, cuts_hat=[0.2, 1.19],
            coeffs_hat=list(reference_model.piece_coeffs), K_hat=2,
            residual_norm=1.0, stage_log=[], condition_report={})
        refined = refine_joint(initial, noisy, spectrum30, CFG)
        log = dict(refined.stage_log)["refine_joint"]
        assert log["final_residual"] <= log["initial_residual"]


class TestReconstructPipeline:
    def test_k1_model_yields_k1(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.8, cuts=(0.3, math.inf), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        res = reconstruct(traces, spectrum30, CFG)
        assert res.K_hat == 1
        assert abs(res.alpha_hat - 0.8) <= 1e-3
        assert abs(res.cuts_hat[0] - 0.3) <= 2e-3

    def test_scale_equivariance(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        cfg = InversionConfig(changepoint_min_gap=0.3, refine=False)
        results = []
        for scale in (1.0, 7.5):
            pieces = tuple(
                make_coeffs(spectrum30, {mk: scale * v for mk, v in d.items()})
                for d in (REF_PIECE_1, REF_PIECE_2))
            model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                                piece_coeffs=pieces, spectrum=spectrum30)
            traces = tuple(flux_trace(model, th, reference_grid)
                           for th in (0.3, 1.3))
            results.append(reconstruct(traces, spectrum30, cfg))
        a, b = results
        assert a.alpha_hat == pytest.approx(b.alpha_hat, abs=1e-9)
        assert a.cuts_hat == pytest.approx(b.cuts_hat, abs=1e-12)
        for pa, pb in zip(a.coeffs_hat, b.coeffs_hat):
            assert np.max(np.abs(7.5 * pa.values - pb.values)) <= 1e-6 * \
                np.max(np.abs(pb.values))

    def test_conjugate_closure(self, spectrum30, reference_traces):
        res = reconstruct(reference_traces, spectrum30, CFG)
        for pc in res.coeffs_hat:
            assert pc.is_real_field(spectrum30, tol=1e-8)

    def test_sensor_margin_guard(self, spectrum30, reference_model,
                                 reference_grid):
        traces = tuple(flux_trace(reference_model, th, reference_grid)
                       for th in (0.3, 0.3 + math.pi / 2))
        with pytest.raises(SensorGeometryError):
            reconstruct(traces, spectrum30, CFG)

    def test_sensor_count_guard(self, reference_traces, spectrum30):
        with pytest.raises(ValidationError):
            reconstruct(reference_traces[:1], spectrum30, CFG)

    def test_spurious_cut_is_merged(self, spectrum30, reference_grid):
        # a K=1 signal with an aggressive detector setting must still come
        # back as K=1 after degenerate-piece pruning
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.2, math.inf), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        res = reconstruct(traces, spectrum30,
                          InversionConfig(changepoint_min_gap=0.15, refine=False))
        assert res.K_hat == 1

    def test_result_json_schema(self, spectrum30, reference_traces):
        res = reconstruct(reference_traces, spectrum30,
                          InversionConfig(changepoint_min_gap=0.3, refine=False))
        import json
        doc = json.loads(result_to_json(res, spectrum30))
        assert set(doc) == {"alpha_hat", "cuts_hat", "K_hat", "coeffs",
                            "residual_norm", "condition_report", "stage_log"}
        assert doc["K_hat"] == len(res.coeffs_hat)
        assert {row["piece"] for row in doc["coeffs"]} == {1, 2}

    def test_predicted_flux_matches_data_noiseless(self, spectrum30,
                                                   reference_traces):
        res = reconstruct(reference_traces, spectrum30, CFG)
        model_flux = predicted_flux(res, spectrum30, reference_traces[0].times,
                                    (0.3, 1.3))
        for mf, tr in zip(model_flux, reference_traces):
            assert np.max(np.abs(mf - tr.values)) <= 1e-8


class TestPredictedFlux:
    @pytest.mark.parametrize("lambda_max", [30.0, 50.0])
    def test_same_sum_as_synthesis(self, lambda_max):
        # a result holding a model's alpha, cuts and coefficients predicts
        # the synthesized traces to the bit: both go through relaxation_flux
        spectrum = build_spectrum(lambda_max)
        pieces = ((REF_PIECE_1, REF_PIECE_2) if lambda_max == 30.0
                  else (J6_PIECE_1, J6_PIECE_2))
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=tuple(make_coeffs(spectrum, p) for p in pieces),
                            spectrum=spectrum)
        result = ReconstructionResult(alpha_hat=model.alpha, cuts_hat=[0.2, 1.2],
                                      coeffs_hat=list(model.piece_coeffs), K_hat=2,
                                      residual_norm=0.0)
        t = np.linspace(0.0, 4.0, 2001)
        got = predicted_flux(result, spectrum, t, (0.3, 1.3))
        want = flux_traces(model, (0.3, 1.3), t)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w.values)


# The dense two-sensor operator, one block per sensor: the reference for
# _project and for the cut columns. Row 2 j of a phase matrix is the real row
# of eigenvalue j.

def _reference_model_flux_matrix(design, phases, n_lams, n_pieces, n_dof_per_piece):
    n_t = design.shape[0]
    ops = []
    for phase in phases:
        op = np.zeros((n_t, n_pieces * n_dof_per_piece))
        for j in range(n_lams):
            re_row = phase[2 * j]
            for k in range(n_pieces):
                col = design[:, j * n_pieces + k]
                block = np.outer(col, re_row)
                op[:, k * n_dof_per_piece:(k + 1) * n_dof_per_piece] += block
        ops.append(op)
    return ops


@pytest.fixture(scope="module")
def noisy_staged(spectrum30, reference_model):
    """The reference model on 1000 steps with 1 % noise drawn from the
    reference seed, and its staged (unrefined) reconstruction."""
    t = np.linspace(0.0, 4.0, 1001)
    traces = _noisy(tuple(flux_trace(reference_model, th, t) for th in (0.3, 1.3)),
                    0.01, 20240817)
    staged = reconstruct(traces, spectrum30,
                         InversionConfig(changepoint_min_gap=0.3, refine=False))
    return traces, staged


def _coeff_rel_err(result, model):
    return max(float(np.linalg.norm(pc.values - truth.values)
                     / np.linalg.norm(truth.values))
               for pc, truth in zip(result.coeffs_hat, model.piece_coeffs))


class TestDofMap:
    @pytest.mark.parametrize("spectrum", ["spectrum30", "spectrum50"])
    def test_phases_give_the_grouped_amplitudes(self, spectrum, request):
        # a real dof vector maps to conjugate-symmetric coefficients P C, and
        # the phase rows give the grouped amplitudes that synthesis sums
        spec = request.getfixturevalue(spectrum)
        dof_map = inversion._dof_map(spec)
        pvec = np.random.default_rng(11).normal(size=2 * len(spec))
        coeffs = pvec.reshape(2, -1) @ dof_map[0]
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=tuple(map(ModeCoefficients, coeffs)),
                            spectrum=spec)
        assert model.is_real_field(tol=0.0)
        for theta, phase in zip((0.3, 1.3), inversion._phases(spec, dof_map, (0.3, 1.3))):
            want = grouped_amplitudes(model, theta)
            got = phase @ pvec.reshape(2, -1).T
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestCutJacobian:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_matches_central_difference(self, spectrum30, alpha):
        # away from the cuts the sampled model is smooth in each cut, so a
        # central difference of op @ p must agree with the closed form
        t = np.linspace(0.0, 4.0, 1001)
        h = t[1] - t[0]
        lams = np.array([lam for lam, _ in spectrum30.distinct_eigenvalues])
        per = len(spectrum30)
        phases = inversion._phases(spectrum30, inversion._dof_map(spectrum30), (0.3, 1.3))
        cuts = [0.2013, 1.2047]
        pvec = np.random.default_rng(3).normal(size=len(cuts) * per)
        wide = [np.repeat(phase, 2, axis=0) for phase in phases]

        def model(cs):
            design = relaxation_design(alpha, lams, list(cs) + [math.inf], t)
            ops = _reference_model_flux_matrix(design.reshape(len(t), -1), wide,
                                               len(lams), len(cuts), per)
            return np.vstack(ops) @ pvec

        w = np.stack([phase @ pvec.reshape(len(cuts), -1).T for phase in phases])
        got = inversion._cut_jacobian(alpha, lams, cuts, t, w)
        assert got.shape == (2 * len(t), len(cuts))
        far = np.tile(np.all([np.abs(t - c) >= 5 * h for c in cuts], axis=0), 2)
        step = 1e-6
        for k in range(len(cuts)):
            up, down = list(cuts), list(cuts)
            up[k] += step
            down[k] -= step
            fd = (model(up) - model(down)) / (2 * step)
            scale = float(np.max(np.abs(got[far, k])))
            assert scale > 0
            assert np.max(np.abs(got[far, k] - fd[far])) <= 1e-6 * scale


class TestRefineNoisy:
    def test_a6_bounds_and_stop(self, spectrum30, reference_model, noisy_staged):
        traces, staged = noisy_staged
        got = refine_joint(staged, traces, spectrum30, CFG)
        log = dict(got.stage_log)["refine_joint"]
        h = 4.0 / 1000
        assert abs(got.alpha_hat - 0.75) <= 2e-2
        assert got.K_hat == 2
        assert abs(got.cuts_hat[0] - 0.2) <= 3 * h
        assert abs(got.cuts_hat[1] - 1.2) <= 3 * h
        assert _coeff_rel_err(got, reference_model) <= 0.15
        assert log["final_residual"] <= log["initial_residual"]
        # the fit reaches the noise floor before the cusps of the cuts stall
        # the line search, so no warning is written
        assert log["stop"] == "noise-floor"
        assert "warning" not in log
        assert 0 < log["sigma_ratio"] < 1

    def test_starts_from_the_staged_projection(self, spectrum30, noisy_staged,
                                               monkeypatch):
        # reconstruct hands the staged projection to refine_joint, which then
        # builds one relaxation basis fewer and returns the same result
        traces, staged = noisy_staged
        cfg = InversionConfig(changepoint_min_gap=0.3)
        result, start = inversion._staged_result(traces, spectrum30, staged.cuts_hat[0],
                                                 staged.alpha_hat, staged.cuts_hat[1:], [],
                                                 staged.condition_report)
        builds = []
        design = inversion.relaxation_design
        monkeypatch.setattr(inversion, "relaxation_design",
                            lambda *args: builds.append(1) or design(*args))
        own = refine_joint(result, traces, spectrum30, cfg)
        own_builds = len(builds)
        handed = refine_joint(result, traces, spectrum30, cfg, start)
        assert len(builds) - own_builds == own_builds - 1
        assert (handed.alpha_hat, handed.cuts_hat) == (own.alpha_hat, own.cuts_hat)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(handed.coeffs_hat, own.coeffs_hat))
        assert handed.stage_log == own.stage_log

    def test_noise_floor_agrees_with_the_no_decrease_stop(self, spectrum30,
                                                          noisy_staged, monkeypatch):
        # with the estimator at 0 the rule is off and refine runs on until
        # the line search finds no decrease; the extra iterations fit noise
        traces, staged = noisy_staged
        got = refine_joint(staged, traces, spectrum30, CFG)
        monkeypatch.setattr(inversion, "_pre_onset_sigma", lambda *args: 0.0)
        full = refine_joint(staged, traces, spectrum30, CFG)
        log = dict(full.stage_log)["refine_joint"]
        assert log["noise_sigma"] == 0.0
        assert log["stop"] == "no-decrease"
        # the warning keeps its meaning: no decrease with ten iterations to go
        assert ("warning" in log) == (log["iterations"] + 9
                                      < inversion.MAX_REFINE_ITERATIONS)
        assert abs(got.alpha_hat - full.alpha_hat) <= 2e-3
        assert np.max(np.abs(np.subtract(got.cuts_hat, full.cuts_hat))) <= 4.0 / 1000
        for pg, pf in zip(got.coeffs_hat, full.coeffs_hat):
            assert (np.linalg.norm(pg.values - pf.values)
                    <= 0.05 * np.linalg.norm(pf.values))

    def test_design_builds(self, spectrum30, noisy_staged, monkeypatch):
        # the no-decrease stop took 85 builds here, most of them rejected
        # halvings toward the grid-point cusp of a cut
        traces, staged = noisy_staged
        calls = []
        build = inversion.relaxation_design

        def counting(*args, **kw):
            calls.append(args)
            return build(*args, **kw)

        monkeypatch.setattr(inversion, "relaxation_design", counting)
        refine_joint(staged, traces, spectrum30, CFG)
        assert len(calls) <= 20

    def test_cap_stop(self, spectrum30, noisy_staged, monkeypatch):
        traces, staged = noisy_staged
        monkeypatch.setattr(inversion, "MAX_REFINE_ITERATIONS", 1)
        log = dict(refine_joint(staged, traces, spectrum30, CFG).stage_log)["refine_joint"]
        assert log["iterations"] == 1
        assert log["stop"] == "cap"
        assert "warning" not in log
        assert log["final_residual"] <= log["initial_residual"]

    def test_final_residual_is_that_of_the_reported_result(self, spectrum30,
                                                            noisy_staged):
        # the residual of the projection belongs to the coefficients that
        # refine reports, not only to its internal factors
        traces, staged = noisy_staged
        got = refine_joint(staged, traces, spectrum30, CFG)
        log = dict(got.stage_log)["refine_joint"]
        flux = predicted_flux(got, spectrum30, traces[0].times,
                              [tr.sensor_angle for tr in traces])
        resid = np.concatenate([tr.values - f for tr, f in zip(traces, flux)])
        assert log["final_residual"] == pytest.approx(np.linalg.norm(resid), rel=1e-9)


class TestPreOnsetSigma:
    def test_noiseless_is_zero(self, reference_traces):
        assert inversion._pre_onset_sigma(reference_traces, 0.2) == 0.0

    def test_noisy_matches_the_drawn_level(self, reference_traces):
        noisy = _noisy(reference_traces, 0.01, 3)
        want = math.sqrt(np.mean([(0.01 * np.max(np.abs(tr.values))) ** 2
                                  for tr in reference_traces]))
        # 200 samples per sensor before the onset at 0.2
        assert inversion._pre_onset_sigma(noisy, 0.2) == pytest.approx(want, rel=0.15)

    def test_fewer_than_16_samples_turn_the_rule_off(self, reference_traces):
        noisy = _noisy(reference_traces, 0.01, 3)
        h = 4.0 / 4000
        # t < c0 - 1e-12 holds at the 15 grid points 0, h, ..., 14 h
        assert inversion._pre_onset_sigma(noisy, 15 * h) == 0.0
        assert inversion._pre_onset_sigma(noisy, 16 * h) > 0.0


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3999, 4000])
    def test_matches_numpy(self, n):
        x = np.random.default_rng(n).normal(size=n)
        assert inversion._median(x) == np.median(x)


class TestRefineSixModes:
    def test_staged_start_converges_in_few_iterations(self, spectrum50):
        # J = 6, noiseless, all ten modes active: a finite-difference
        # refinement over every coefficient took 45 iterations here and
        # still left a coefficient error of 1.3e-5
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=(make_coeffs(spectrum50, J6_PIECE_1),
                                          make_coeffs(spectrum50, J6_PIECE_2)),
                            spectrum=spectrum50)
        t = np.linspace(0.0, 4.0, 1001)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        staged = reconstruct(traces, spectrum50,
                             InversionConfig(changepoint_min_gap=0.3, refine=False))
        got = refine_joint(staged, traces, spectrum50, CFG)
        log = dict(got.stage_log)["refine_joint"]
        assert log["iterations"] <= 3
        assert log["stop"] == "converged"
        assert abs(got.alpha_hat - 0.75) <= 1e-8
        assert _coeff_rel_err(got, model) <= 1e-6


class TestProjectMatchesDenseLstsq:
    # (n_t, spectrum) of the ref_noisy and six_modes inverts: J = 3 with 5
    # real dofs per piece, J = 6 with 10
    @pytest.mark.parametrize("n_t, spectrum", [(4001, "spectrum30"), (2001, "spectrum50")],
                             ids=["ref_noisy", "six_modes"])
    def test_same_solution(self, n_t, spectrum, request):
        spec = request.getfixturevalue(spectrum)
        n_lams, n_pieces = len(spec.distinct_eigenvalues), 2
        per = len(spec)
        phases = inversion._phases(spec, inversion._dof_map(spec), (0.3, 1.3))
        rng = np.random.default_rng(5)
        design = rng.normal(size=(n_t, n_lams * n_pieces))
        y = rng.normal(size=2 * n_t)
        op = np.vstack(_reference_model_flux_matrix(
            design, [np.repeat(phase, 2, axis=0) for phase in phases],
            n_lams, n_pieces, per))
        want_p, _, _, want_s = np.linalg.lstsq(op, y, rcond=None)
        want_r = op @ want_p - y
        r, p, q, svals, rd = inversion._project(design.reshape(n_t, n_lams, n_pieces),
                                                phases, y)
        assert np.linalg.norm(p - want_p) <= 1e-12 * np.linalg.norm(want_p)
        # R_D carries the singular values of the design (the staged rank check)
        want_d = np.linalg.svd(design, compute_uv=False)
        assert np.max(np.abs(np.linalg.svd(rd.reshape(len(rd), -1), compute_uv=False) - want_d)) <= 1e-12 * want_d[0]
        assert np.linalg.norm(r - want_r) <= 1e-12 * np.linalg.norm(want_r)
        assert np.max(np.abs(svals - want_s)) <= 1e-12 * want_s[0]
        # q is an orthonormal basis of the range of op (Kaufman's projection)
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-12
        assert np.linalg.norm(op - q @ (q.T @ op)) <= 1e-12 * np.linalg.norm(op)
