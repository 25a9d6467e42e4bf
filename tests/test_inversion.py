import inspect
import json
import math
import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fracsource import inversion
from fracsource.config import load_config
from fracsource.disc_spectrum import build_spectrum, sensor_weights
from fracsource.errors import (
    EmptySignalError,
    SensorGeometryError,
    ShapeError,
    ValidationError,
)
from fracsource import forward_model
from fracsource.forward_model import (
    FluxTrace,
    SourceModel,
    flux_trace,
    flux_traces,
    relaxation_design,
    relaxation_rates,
)
from fracsource.inversion import (
    detect_change_points,
    detect_onset,
    estimate_alpha,
    reconstruct,
    refine_joint,
    result_to_json,
)

from conftest import REF_PIECE_1, REF_PIECE_2, make_coeffs
import oracles


GAP = 0.3   # changepoint_min_gap, the paper's eta

# two pieces over all ten modes with lambda <= 50 (six distinct eigenvalues)
J6_PIECE_1 = {(0, 1): 1.0, (1, 1): 0.4 + 0.2j, (2, 1): -0.5 + 0.1j,
              (0, 2): 0.7, (3, 1): 0.3 - 0.6j, (1, 2): -0.2 + 0.3j}
J6_PIECE_2 = {(0, 1): -0.4, (1, 1): 0.9 - 0.3j, (2, 1): 0.2 + 0.4j,
              (0, 2): -0.3, (3, 1): -0.5 + 0.2j, (1, 2): 0.4 + 0.1j}


def _model_flux(result, spectrum, traces):
    """The flux of a reconstruction at each trace's sensor: flux_traces of
    the SourceModel that the result describes, independent of the
    projection that reconstruct ends with."""
    model = SourceModel(alpha=result.alpha_hat, cuts=(*result.cuts_hat, math.inf),
                        piece_coeffs=result.coeffs_hat, spectrum=spectrum)
    return [tr.values for tr in flux_traces(model, [tr.sensor_angle for tr in traces],
                                            traces[0].times)]


def _amplitudes(model, theta):
    """The grouped amplitudes of the model at the sensor angle theta."""
    return forward_model._phases(model.spectrum, [theta])[0] @ model.dofs.T


def _grid_values(traces):
    """The common grid and the (2, n_t) values of two traces, as
    _two_sensor_problem hands them to the stages."""
    return traces[0].times, np.stack([tr.values for tr in traces])


def _lams(spectrum):
    return np.array([lam for lam, _ in spectrum.distinct_eigenvalues])


def _change_points(traces, c0, gap=GAP):
    """detect_change_points as reconstruct calls it, with the pre-onset
    noise estimate."""
    t, values = _grid_values(traces)
    return detect_change_points(t, values, c0, gap, inversion._pre_onset_sigma(t, values, c0))


def _order(t, values, spectrum, gap=GAP):
    """estimate_alpha as reconstruct calls it: at the detected onset, with
    the pre-onset noise estimate as its polish's noise floor."""
    c0 = detect_onset(t, values)
    return estimate_alpha(t, values, c0, _lams(spectrum), gap,
                          inversion._pre_onset_sigma(t, values, c0) or 0.0)


def _noisy(traces, level, seed):
    rng = np.random.default_rng(seed)
    out = []
    for tr in traces:
        sigma = level * float(np.max(np.abs(tr.values)))
        out.append(FluxTrace(tr.sensor_angle, tr.times,
                             tr.values + rng.normal(0.0, sigma, len(tr.values))))
    return tuple(out)


class TestInversionConfig:
    # the inversion section is checked once, where load_config reads it: a
    # finite gap that is not > 0, or longer than grid.t_max, has clause
    # inversion-config; a NaN or infinite gap (as every non-finite
    # float-typed key), a gap of another JSON type, and the removed
    # settings margin_min (now forward_model.MARGIN_MIN) and refine
    # (refine_joint always runs), have clause config-schema
    @pytest.mark.parametrize("kwargs", [
        {"changepoint_min_gap": math.nan}, {"changepoint_min_gap": math.inf},
        {"changepoint_min_gap": 0.0}, {"changepoint_min_gap": 5.0},
        {"changepoint_min_gap": "0.3"},
        {"changepoint_min_gap": True}, {"margin_min": math.nan}, {"margin_min": -1.0},
        {"margin_min": 0.0}, {"margin_min": 1.0}, {"refine": "false"}, {"refine": 0},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps({"inversion": kwargs}))
        (key, value), = kwargs.items()
        number = key == "changepoint_min_gap" and type(value) is float and math.isfinite(value)
        assert err.value.clause == ("inversion-config" if number else "config-schema")
        assert key in str(err.value)

    def test_three_settings(self, spectrum30, reference_traces):
        # of the three inversion settings there have been, the gap is
        # reconstruct's one, a required argument named after its config key
        # (whose default lives in the config alone); margin_min is the
        # constant forward_model.MARGIN_MIN, and refine is gone:
        # refine_joint always runs
        params = inspect.signature(reconstruct).parameters
        assert list(params) == ["traces", "spectrum", "changepoint_min_gap"]
        assert params["changepoint_min_gap"].default is inspect.Parameter.empty
        assert list(load_config("{}").inversion) == ["changepoint_min_gap"]
        assert forward_model.MARGIN_MIN == 1e-3
        for kwargs in ({"margin_min": 1e-3}, {"refine": False}):
            with pytest.raises(TypeError):
                reconstruct(reference_traces, spectrum30, GAP, **kwargs)

    @pytest.mark.parametrize("level", [0.0, 0.01])
    @pytest.mark.parametrize("gap", [math.nan, math.inf, 0.0, -1.0, 5.0])
    def test_reconstruct_checks_the_gap(self, spectrum30, reference_traces, monkeypatch,
                                        gap, level):
        # reconstruct checks the gap before any build, on clean and on noisy
        # traces, as load_config does a finite gap, with its message (5.0
        # against the 4.0-long record and the default grid.t_max 4.0);
        # load_config rejects a NaN or infinite gap first, as it does every
        # non-finite float-typed key (clause config-schema)
        builds = []
        monkeypatch.setattr(inversion, "relaxation_design", lambda *args: builds.append(args))
        with pytest.raises(ValidationError) as err:
            reconstruct(_noisy(reference_traces, level, 3), spectrum30, gap)
        assert err.value.clause == "inversion-config"
        with pytest.raises(ValidationError) as want:
            load_config(json.dumps({"inversion": {"changepoint_min_gap": gap}}))
        if math.isfinite(gap):
            assert str(err.value) == str(want.value)
        else:
            assert want.value.clause == "config-schema"
        assert builds == []

    def test_gap_longer_than_the_record(self):
        # a gap longer than the record leaves no room for a cut: the message
        # names the record length, and a gap equal to it is accepted
        with pytest.raises(ValidationError, match="record length 4.0"):
            load_config(json.dumps({"inversion": {"changepoint_min_gap": 5.0}}))
        cfg = load_config(json.dumps({"inversion": {"changepoint_min_gap": 4.0}}))
        assert cfg.inversion["changepoint_min_gap"] == 4.0


class TestDetectOnset:
    def test_noiseless_onset(self, spectrum30):
        p = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.5, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 2.0, 201)  # step 0.01
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        c0 = detect_onset(*_grid_values(traces))
        assert 0.49 <= c0 <= 0.51

    def test_zero_traces(self):
        t = np.linspace(0.0, 1.0, 101)
        traces = (FluxTrace(0.3, t, np.zeros_like(t)),
                  FluxTrace(1.3, t, np.zeros_like(t)))
        with pytest.raises(EmptySignalError):
            detect_onset(*_grid_values(traces))

    def test_immediate_onset(self, spectrum30):
        p = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=spectrum30)
        t = np.linspace(0.0, 1.0, 1001)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        assert detect_onset(*_grid_values(traces)) == 0.0


def _seed0_pieces(spectrum):
    """Two pieces over the modes (0,1), (1,1), (2,1), drawn from
    default_rng(0): per piece and mode a magnitude from U(0.5, 1), then for
    m = 0 the sign + when a U(0, 1) draw is below 0.5, for m > 0 a phase from
    U(0, 2 pi)."""
    rng = np.random.default_rng(0)
    pieces = []
    for _ in range(2):
        entries = {}
        for m in (0, 1, 2):
            mag = rng.uniform(0.5, 1.0)
            if m == 0:
                entries[(m, 1)] = mag if rng.uniform() < 0.5 else -mag
            else:
                entries[(m, 1)] = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        pieces.append(make_coeffs(spectrum, entries))
    return tuple(pieces)


class TestEstimateAlpha:
    @pytest.mark.parametrize("alpha", [0.75, 0.9])
    def test_synthetic_staged_accuracy(self, spectrum30, reference_grid, alpha):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        model = SourceModel(alpha=alpha, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=(p1, p2), spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        t, values = _grid_values(traces)
        got, diag = _order(t, values, spectrum30)
        assert abs(got - alpha) <= 5e-3
        # the search polishes the lowest point of the recorded profile, the
        # recorded minimum nearest alpha_vp, within 0.025 of it
        best = min(diag["profile"], key=lambda pair: pair[1])[0]
        nearest = min(diag["minima"], key=lambda a: abs(a - diag["alpha_vp"]))
        assert nearest == best and abs(nearest - diag["alpha_vp"]) <= 0.025

    def test_reference_profile_has_one_minimum(self, spectrum30, reference_traces):
        # the profile holds the 24 grid alphas that were evaluated, each with
        # its variable-projection residual; the noiseless reference model
        # (alpha 0.75) has one interior minimum, at 0.74
        t, values = _grid_values(reference_traces)
        got, diag = _order(t, values, spectrum30)
        alphas, residuals = np.array(diag["profile"]).T
        assert np.array_equal(alphas, np.arange(0.52, 0.995, 0.02))
        assert np.all(residuals >= diag["vp_residual"])
        assert diag["minima"] == pytest.approx([0.74], abs=1e-9)
        assert abs(got - 0.75) <= 1e-6

    @pytest.mark.parametrize("gap", [0.3, 0.1])
    def test_window_polish_reaches_the_order(self, spectrum30, reference_traces, gap):
        # refine_joint polishes the best grid point on the noiseless
        # reference window and converges to the true order: the window's
        # onset is freed, so the onset that detect_onset puts one grid step
        # early biases alpha no more
        t, values = _grid_values(reference_traces)
        _, diag = _order(t, values, spectrum30, gap)
        assert abs(diag["alpha_vp"] - 0.75) <= 1e-11
        assert diag["stop"] == "converged"

    def test_noisy_short_window_takes_few_builds(self, spectrum30, reference_traces):
        # 1 % noise and a 0.1-long window (gap 0.1): the polish stops at the
        # noise floor, and the order stage stays within the 36 window builds
        # that CI allows the 0.3 config
        t, values = _grid_values(_noisy(reference_traces, 0.01, 20240817))
        _, diag = _order(t, values, spectrum30, 0.1)
        assert diag["stop"] == "noise-floor"
        assert diag["evaluations"] <= 36

    def test_seed0_draw_records_two_minima(self, spectrum30, reference_grid):
        # the noiseless seed-0 draw at alpha 0.75: the search keeps the lower
        # basin at 0.62, the profile also records the one near the truth
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=_seed0_pieces(spectrum30), spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        t, values = _grid_values(traces)
        got, diag = _order(t, values, spectrum30)
        assert diag["minima"] == pytest.approx([0.62, 0.74], abs=1e-9)
        assert abs(got - 0.62) <= 0.025

    def test_grid_end_minimum_is_recorded(self, spectrum30, reference_grid):
        # at alpha 0.99 the lowest profile point is the grid end 0.98, below
        # its one neighbour, and the search polishes that basin; minima
        # lists it, and not the other end, which is above its neighbour
        model = SourceModel(alpha=0.99, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=(make_coeffs(spectrum30, REF_PIECE_1),
                                          make_coeffs(spectrum30, REF_PIECE_2)),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        t, values = _grid_values(traces)
        got, diag = _order(t, values, spectrum30)
        profile = diag["profile"]
        assert min(profile, key=lambda pair: pair[1]) == profile[-1]
        assert profile[0][1] > profile[1][1]
        assert diag["minima"] == pytest.approx([0.98], abs=1e-9)
        assert abs(got - 0.99) <= 1e-6


class TestDetectChangePoints:
    def test_k2_onset_at_zero(self, spectrum30):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        p2 = make_coeffs(spectrum30, REF_PIECE_2)
        model = SourceModel(alpha=0.75, cuts=(0.0, 1.0, math.inf),
                            piece_coeffs=(p1, p2), spectrum=spectrum30)
        t = np.arange(0.0, 3.0 + 1e-12, 0.005)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        cuts = _change_points(traces, 0.0, 0.3)
        assert len(cuts) == 1
        assert 0.995 <= cuts[0] <= 1.005

    def test_k1_empty(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.2, math.inf), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        assert _change_points(traces, 0.2) == []

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
        cuts = _change_points(traces, 0.2)
        assert len(cuts) == 2
        assert abs(cuts[0] - 0.9) <= h + 1e-12
        assert abs(cuts[1] - 1.6) <= h + 1e-12

    def test_grid_step_guard(self, spectrum30, reference_traces, monkeypatch):
        # a grid step above a tenth of the gap is rejected before any stage
        # runs: no relaxation basis is built
        builds = []
        monkeypatch.setattr(inversion, "relaxation_design", lambda *args: builds.append(args))
        with pytest.raises(ValidationError) as err:
            reconstruct(reference_traces, spectrum30, 0.005)
        assert err.value.clause == "changepoint-grid"
        assert builds == []


class TestChangePointScan:
    """detect_change_points takes its candidates, the local maxima of the
    second difference above the threshold, with one mask and orders them by
    a stable argsort, so equal maxima keep their time order; the cuts equal
    those of the loop it replaced (oracles.detect_change_points_loop)."""

    def test_equal_kinks_keep_time_order(self):
        # three kinks of second difference exactly 1 at t = 1.0, 1.5 and 3.0;
        # 1.0 and 1.5 lie closer than the gap 0.6, so the first is kept
        i = np.arange(401.0)
        summed = np.maximum(i - 100, 0) + np.maximum(i - 150, 0) + np.maximum(i - 300, 0)
        t, values = i / 100, np.stack([summed / 2, summed / 2])
        got = detect_change_points(t, values, 0.0, 0.6, 0.0)
        assert got == oracles.detect_change_points_loop(t, values, 0.0, 0.6, 0.0) == [1.0, 3.0]
        # 60 kinks of sizes 1 and 2, 0.16 apart against a gap of 0.2: which
        # of two close kinks of one size is kept depends on their order, and
        # an unstable sort of the sizes reorders them
        i = np.arange(1201.0)
        sizes = np.random.default_rng(0).integers(1, 3, 60)
        summed = sum(k * np.maximum(i - at, 0) for k, at in zip(sizes, range(100, 1100, 16)))
        t, values = i / 100, np.stack([summed / 2, summed / 2])
        got = detect_change_points(t, values, 0.0, 0.2, 0.0)
        assert got == oracles.detect_change_points_loop(t, values, 0.0, 0.2, 0.0)

    @pytest.mark.parametrize("level, seed", [(0.0, 0), (1e-3, 1), (1e-2, 2), (1e-2, 3)])
    def test_same_cuts_as_the_loop(self, reference_traces, level, seed):
        traces = _noisy(reference_traces, level, seed) if level else reference_traces
        t, values = _grid_values(traces)
        for c0, gap, sigma in [(0.2, GAP, inversion._pre_onset_sigma(t, values, 0.2)),
                               (0.2, 0.1, None), (0.0, 0.05, 0.0)]:
            got = detect_change_points(t, values, c0, gap, sigma)
            assert got == oracles.detect_change_points_loop(t, values, c0, gap, sigma)
            assert all(type(cut) is float for cut in got)


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
        _, cuts, coeffs, log = _solve(traces, spectrum50, 0.75, [0.2, 1.2], refine=False)
        assert cuts == [0.2, 1.2]
        rebuilt = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                              piece_coeffs=tuple(coeffs), spectrum=spectrum50)
        for theta in (0.3, 1.3):
            truth = _amplitudes(model, theta)
            rel = (np.abs(_amplitudes(rebuilt, theta) - truth)
                   / (np.abs(truth) + 1e-12))
            assert np.max(rel) <= 1e-3
        assert _coeff_rel_err(coeffs, model) <= 1e-3
        assert max(log["staged_coefficients"]["relative_residuals"]) < 1e-6

    def test_sigma_ratio_recorded(self, spectrum30, reference_traces):
        diag = _solve(reference_traces, spectrum30, 0.75, [0.2, 1.2],
                      refine=False)[3]["staged_coefficients"]
        lams = np.array([lam for lam, _ in spectrum30.distinct_eigenvalues])
        t = reference_traces[0].times
        design = relaxation_design(0.75, lams, [0.2, 1.2, math.inf], t).reshape(len(t), -1)
        svals = np.linalg.svd(design, compute_uv=False)
        assert diag["sigma_ratio"] == svals[-1] / svals[0]

    def test_zero_traces_zero_amplitudes(self, spectrum30, reference_grid):
        traces = (FluxTrace(0.3, reference_grid, np.zeros_like(reference_grid)),
                  FluxTrace(1.3, reference_grid, np.zeros_like(reference_grid)))
        coeffs = _solve(traces, spectrum30, 0.75, [0.2], refine=False)[2]
        assert len(coeffs) == 1
        assert np.all(coeffs[0] == 0)

    def test_single_mode_recovery(self, reference_grid):
        sp = build_spectrum(6.0)
        p = make_coeffs(sp, {(0, 1): 1.7})
        model = SourceModel(alpha=0.8, cuts=(0.0, math.inf), piece_coeffs=(p,),
                            spectrum=sp)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        got = _staged(traces, sp, load_config("{}").inversion["changepoint_min_gap"])
        assert len(got.coeffs_hat) == 1
        assert got.cuts_hat == [0.0]
        assert abs(got.alpha_hat - 0.8) <= 1e-6
        assert abs(got.coeffs_hat[0][0] - 1.7) <= 1e-6

    def test_relative_residuals_are_those_of_the_reported_coefficients(
            self, spectrum30, noisy_staged):
        # each sensor's entry is the misfit of the staged coefficients, the
        # start of refine_joint, and of the staged projection's residual
        traces, staged = noisy_staged
        diag = staged.log["staged_coefficients"]
        flux = _model_flux(staged, spectrum30, traces)
        problem = inversion._two_sensor_problem(traces, spectrum30)
        r = inversion._staged_result(problem, staged.alpha_hat, staged.cuts_hat, [])[0]
        for got, tr, f, resid in zip(diag["relative_residuals"], traces, flux,
                                     np.split(r, 2)):
            want = np.linalg.norm(tr.values - f) / np.linalg.norm(tr.values)
            assert got == pytest.approx(want, rel=1e-9)
            assert got == pytest.approx(np.linalg.norm(resid) / np.linalg.norm(tr.values),
                                        rel=1e-12)


class TestRefineJoint:
    def test_exact_initial_is_stationary(self, spectrum30, reference_traces):
        alpha, cuts, _, log = _solve(reference_traces, spectrum30, 0.75, [0.2, 1.2])
        assert alpha == pytest.approx(0.75, abs=1e-12)
        assert cuts[0] == pytest.approx(0.2, abs=1e-10)
        assert cuts[1] == pytest.approx(1.2, abs=1e-10)
        y = np.concatenate([tr.values for tr in reference_traces])
        assert log["refine_joint"]["final_residual"] <= 1e-12 * np.linalg.norm(y)

    def test_monotone_on_noisy_data(self, spectrum30, reference_traces):
        noisy = _noisy(reference_traces, 0.01, 7)
        log = _solve(noisy, spectrum30, 0.76, [0.2, 1.19])[3]["refine_joint"]
        assert log["final_residual"] <= log["initial_residual"]


class TestReconstructPipeline:
    def test_k1_model_yields_k1(self, spectrum30, reference_grid):
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.8, cuts=(0.3, math.inf), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        res = reconstruct(traces, spectrum30, GAP)
        assert res.K_hat == 1
        assert abs(res.alpha_hat - 0.8) <= 1e-3
        assert abs(res.cuts_hat[0] - 0.3) <= 2e-3

    def test_eta_beyond_half_the_record_is_noted(self, spectrum30, reference_traces):
        # every interior cut lies in (c0_hat + eta, t_max - eta), which is
        # empty once eta >= (t_max - c0_hat) / 2: at eta 3.0 on the 4.0-long
        # reference record the change-point entry says so, at eta 0.3 it
        # does not
        for gap, noted in ((3.0, True), (0.3, False)):
            got = reconstruct(reference_traces, spectrum30, gap)
            entry = dict(got.stage_log)["detect_change_points"]
            assert ("note" in entry) == noted, gap
            assert noted == (got.K_hat == 1)

    def test_scale_equivariance(self, spectrum30, reference_grid):
        # the onset floor is relative to the trace peak, so traces scaled
        # by 1e-12 (peak 2.6e-13) give the same estimates as the unscaled
        # ones; under the absolute floor of 1e-9 they had no onset
        results = {}
        for scale in (1.0, 7.5, 1e-12):
            pieces = tuple(
                make_coeffs(spectrum30, {mk: scale * v for mk, v in d.items()})
                for d in (REF_PIECE_1, REF_PIECE_2))
            model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                                piece_coeffs=pieces, spectrum=spectrum30)
            traces = tuple(flux_trace(model, th, reference_grid)
                           for th in (0.3, 1.3))
            results[scale] = _staged(traces, spectrum30)
        a = results[1.0]
        for scale, b in results.items():
            assert a.alpha_hat == pytest.approx(b.alpha_hat, abs=1e-9)
            assert a.cuts_hat == pytest.approx(b.cuts_hat, abs=1e-12)
            for pa, pb in zip(a.coeffs_hat, b.coeffs_hat):
                assert np.max(np.abs(scale * pa - pb)) <= 1e-6 * np.max(np.abs(pb))

    def test_conjugate_closure(self, spectrum30, reference_traces):
        # the result describes a real source: it builds a SourceModel, which
        # checks conjugate symmetry, and its dofs give the coefficients back
        res = reconstruct(reference_traces, spectrum30, GAP)
        model = SourceModel(alpha=res.alpha_hat, cuts=(*res.cuts_hat, math.inf),
                            piece_coeffs=res.coeffs_hat, spectrum=spectrum30)
        assert np.array_equal(model.dofs @ forward_model._dof_map(spectrum30), res.coeffs_hat)

    def test_sensor_margin_guard(self, spectrum30, reference_model,
                                 reference_grid):
        traces = tuple(flux_trace(reference_model, th, reference_grid)
                       for th in (0.3, 0.3 + math.pi / 2))
        with pytest.raises(SensorGeometryError):
            reconstruct(traces, spectrum30, GAP)

    def test_sensor_count_guard(self, reference_traces, spectrum30):
        with pytest.raises(ValidationError):
            reconstruct(reference_traces[:1], spectrum30, GAP)

    def test_grid_mismatch_guard(self, spectrum30, reference_model, reference_traces,
                                 monkeypatch):
        # _two_sensor_problem compares the two grids, once, before any build,
        # and checks that the shared grid is uniform: the change-point and
        # order stages take t[1] - t[0] as its step. Unchecked, a grid
        # jittered by up to 3e-4 gave K = 4 and one whose step doubles at
        # t = 2 gave K = 3, each with a relative residual near 3e-15
        builds = []
        monkeypatch.setattr(inversion, "relaxation_design", lambda *args: builds.append(args))
        for t in (np.linspace(0.0, 4.0, 4002), np.linspace(0.0, 4.001, 4001)):
            traces = (reference_traces[0], flux_trace(reference_model, 1.3, t))
            with pytest.raises(ShapeError, match="common time grid"):
                reconstruct(traces, spectrum30, GAP)
        jittered = reference_traces[0].times.copy()
        jittered[1:] += np.random.default_rng(5).uniform(-3e-4, 3e-4, len(jittered) - 1)
        step_doubles = np.concatenate([np.linspace(0.0, 2.0, 2001),
                                       np.linspace(2.0, 4.0, 1001)[1:]])
        for t in (jittered, step_doubles):
            traces = tuple(flux_trace(reference_model, th, t) for th in (0.3, 1.3))
            with pytest.raises(ValidationError, match="traces: time grid is not uniform") as err:
                reconstruct(traces, spectrum30, GAP)
            assert err.value.clause == "trace-grid"
        assert builds == []

    def test_smaller_gap_finds_no_spurious_cut(self, spectrum30, reference_grid):
        # a K=1 signal with a smaller detector gap: the change-point stage
        # proposes no cut, so K=1 comes back
        p1 = make_coeffs(spectrum30, REF_PIECE_1)
        model = SourceModel(alpha=0.75, cuts=(0.2, math.inf), piece_coeffs=(p1,),
                            spectrum=spectrum30)
        traces = tuple(flux_trace(model, th, reference_grid) for th in (0.3, 1.3))
        res = reconstruct(traces, spectrum30, 0.15)
        assert dict(res.stage_log)["detect_change_points"] == {"cuts": []}
        assert res.K_hat == 1

    def test_result_json_schema(self, spectrum30, reference_traces):
        res = reconstruct(reference_traces, spectrum30, GAP)
        doc = json.loads(result_to_json(res, spectrum30))
        assert set(doc) == {"alpha_hat", "cuts_hat", "K_hat", "coeffs",
                            "residual_norm", "condition_report", "stage_log"}
        assert doc["K_hat"] == len(res.coeffs_hat)
        assert {row["piece"] for row in doc["coeffs"]} == {1, 2}

    def test_residuals_match_data_noiseless(self, spectrum30, reference_traces):
        # the residual curve is the final projection's, and it is the misfit
        # of the reported coefficients through the synthesis sum too
        res = reconstruct(reference_traces, spectrum30, GAP)
        model_flux = _model_flux(res, spectrum30, reference_traces)
        for mf, tr, resid in zip(model_flux, reference_traces, res.residuals):
            assert np.max(np.abs(resid)) <= 1e-8
            assert np.max(np.abs(resid - (mf - tr.values))) <= 1e-12


class TestResidualCurve:
    @pytest.mark.parametrize("lambda_max", [30.0, 50.0])
    def test_zero_at_the_truth(self, lambda_max):
        # at a model's own alpha and cuts the projection reproduces the
        # synthesized traces to rounding: the fit and synthesis share the
        # relaxation basis and the grouped-amplitude map
        spectrum = build_spectrum(lambda_max)
        pieces = ((REF_PIECE_1, REF_PIECE_2) if lambda_max == 30.0
                  else (J6_PIECE_1, J6_PIECE_2))
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=tuple(make_coeffs(spectrum, p) for p in pieces),
                            spectrum=spectrum)
        t = np.linspace(0.0, 4.0, 2001)
        traces = tuple(flux_trace(model, th, t) for th in (0.3, 1.3))
        r = inversion._staged_result(inversion._two_sensor_problem(traces, spectrum),
                                     0.75, [0.2, 1.2], [])[0]
        scale = max(float(np.max(np.abs(tr.values))) for tr in traces)
        assert np.max(np.abs(r)) <= 1e-13 * scale


class TestEqualityIsIdentity:
    def test_compare_and_hash(self, reference_model, reference_traces):
        # each holds arrays: the generated field-wise == raised ValueError
        # on two equal objects (an array's truth value), and hash() of the
        # frozen ones TypeError; equality is identity
        model = reference_model
        trace = reference_traces[0]
        result = inversion.ReconstructionResult(
            alpha_hat=0.75, cuts_hat=[0.2, 1.2], coeffs_hat=model.piece_coeffs,
            residual_norm=0.0)
        pairs = [
            (model, SourceModel(alpha=model.alpha, cuts=model.cuts,
                                piece_coeffs=model.piece_coeffs.copy(),
                                spectrum=model.spectrum)),
            (trace, FluxTrace(sensor_angle=trace.sensor_angle, times=trace.times.copy(),
                              values=trace.values.copy())),
            (result, inversion.ReconstructionResult(
                alpha_hat=0.75, cuts_hat=[0.2, 1.2], coeffs_hat=model.piece_coeffs.copy(),
                residual_norm=0.0)),
        ]
        for obj, twin in pairs:
            assert obj == obj and not obj != obj
            assert obj != twin and not obj == twin
            assert hash(obj) == hash(obj)
            assert len({obj, twin, obj}) == 2


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
    return traces, _staged(traces, spectrum30)


def _coeff_rel_err(coeffs, model):
    return max(float(np.linalg.norm(pc - truth) / np.linalg.norm(truth))
               for pc, truth in zip(coeffs, model.piece_coeffs))


def _solve(traces, spectrum, alpha, cuts, refine=True):
    """The last two stages of reconstruct from alpha and cuts: _staged_result,
    then, with refine, refine_joint at the gap GAP and the pre-onset sigma.
    Returns (alpha, cuts, coefficient sets, stage log as a dict)."""
    problem = inversion._two_sensor_problem(traces, spectrum)
    log = []
    projection = inversion._staged_result(problem, alpha, cuts, log)
    theta = np.array([alpha] + cuts)
    if refine:
        sigma = inversion._pre_onset_sigma(*problem[:2], cuts[0]) or 0.0
        theta, projection, refine_log = refine_joint(problem, theta, projection, sigma, GAP)
        log.append(("refine_joint", refine_log))
    coeffs = projection[1].reshape(len(theta) - 1, -1) @ forward_model._dof_map(spectrum)
    return float(theta[0]), [float(c) for c in theta[1:]], coeffs, dict(log)


def _staged(traces, spectrum, gap=GAP):
    """The stages of reconstruct before refine_joint: onset, order and change
    points at the gap, then _solve without refine. Returns alpha_hat,
    cuts_hat, coeffs_hat and the stage log of _solve (a dict) as attributes."""
    t, values = _grid_values(traces)
    c0 = detect_onset(t, values)
    alpha, _ = _order(t, values, spectrum, gap)
    cuts = [c0] + _change_points(traces, c0, gap)
    alpha, cuts, coeffs, log = _solve(traces, spectrum, alpha, cuts, refine=False)
    return SimpleNamespace(alpha_hat=alpha, cuts_hat=cuts, coeffs_hat=coeffs, log=log)


class TestDofMap:
    @pytest.mark.parametrize("spectrum", ["spectrum30", "spectrum50"])
    def test_phases_give_the_grouped_amplitudes(self, spectrum, request):
        # a real dof vector maps to conjugate-symmetric coefficients P C, and
        # the phase rows give the grouped amplitudes that synthesis sums: the
        # sensor weights summed over each eigenvalue group. The model's dofs
        # take the coefficients back to P exactly, so P C round-trips
        # exactly, and coefficients whose +1 and -1 entries are not
        # conjugate build no model
        spec = request.getfixturevalue(spectrum)
        c = forward_model._dof_map(spec)
        pvec = np.random.default_rng(11).normal(size=2 * len(spec))
        coeffs = pvec.reshape(2, -1) @ c
        model = SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                            piece_coeffs=coeffs,
                            spectrum=spec)
        assert model.dofs.dtype == float
        assert np.array_equal(model.dofs, pvec.reshape(2, -1))
        assert np.array_equal(model.dofs @ c, coeffs)
        broken = coeffs.copy()
        broken[0, spec.index_of(1, 1)] += 1e-6j
        with pytest.raises(ValidationError) as err:
            SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                        piece_coeffs=broken, spectrum=spec)
        assert err.value.clause == "real-field"
        for theta, phase in zip((0.3, 1.3), forward_model._phases(spec, (0.3, 1.3))):
            weights = sensor_weights(spec, theta)
            want = np.array([[sum(weights[i] * row[i] for i in idx) for row in coeffs]
                             for _, idx in spec.distinct_eigenvalues])
            scale = np.max(np.abs(want))
            got = phase @ pvec.reshape(2, -1).T
            assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestCutJacobian:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_matches_central_difference(self, spectrum30, alpha):
        # away from the cuts the sampled model is smooth in each cut, so a
        # central difference of op @ p must agree with the closed form
        t = np.linspace(0.0, 4.0, 1001)
        h = t[1] - t[0]
        lams = np.array([lam for lam, _ in spectrum30.distinct_eigenvalues])
        per = len(spectrum30)
        phases = forward_model._phases(spectrum30, (0.3, 1.3))
        cuts = [0.2013, 1.2047]
        pvec = np.random.default_rng(3).normal(size=len(cuts) * per)
        wide = [np.repeat(phase, 2, axis=0) for phase in phases]

        def model(cs):
            design = relaxation_design(alpha, lams, list(cs) + [math.inf], t)
            ops = _reference_model_flux_matrix(design.reshape(len(t), -1), wide,
                                               len(lams), len(cuts), per)
            return np.vstack(ops) @ pvec

        w = np.stack([phase @ pvec.reshape(len(cuts), -1).T for phase in phases])
        got = inversion._jacobian(alpha, lams, cuts, t, w)[:, 1:]
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


class TestJacobian:
    # the columns of one relaxation_derivatives pass on the uniform reference
    # grid (shift tables) and on a graded grid (exact tau), with weights w of
    # a random coefficient vector at the sensors 0.3 and 1.3
    @staticmethod
    def _setup(spectrum, grid):
        t = np.linspace(0.0, 4.0, 4001)
        if grid == "graded":
            t = 4.0 * np.linspace(0.0, 1.0, 2001) ** 1.3
        lams = np.array([lam for lam, _ in spectrum.distinct_eigenvalues])
        cuts = [0.2013, 1.2047]
        phases = forward_model._phases(spectrum, (0.3, 1.3))
        pvec = np.random.default_rng(3).normal(size=len(cuts) * len(spectrum))
        w = np.stack([phase @ pvec.reshape(len(cuts), -1).T for phase in phases])
        return t, lams, cuts, w

    @pytest.mark.parametrize("grid", ["uniform", "graded"])
    @pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9, 0.98])
    def test_alpha_column_matches_central_difference(self, spectrum30, alpha, grid):
        # a central difference with step 1e-5 of two design builds; its own
        # error is about 5e-10 of the column here
        t, lams, cuts, w = self._setup(spectrum30, grid)
        got = inversion._jacobian(alpha, lams, cuts, t, w)[:, 0]
        step = 1e-5
        diff = (relaxation_design(alpha + step, lams, cuts + [math.inf], t)
                - relaxation_design(alpha - step, lams, cuts + [math.inf], t))
        want = np.einsum("tjk,ljk->lt", diff, w).reshape(-1) / (2 * step)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", ["uniform", "graded"])
    @pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9, 0.98])
    def test_cut_columns_are_the_rates_columns(self, spectrum30, alpha, grid):
        # the cut columns of the pass equal those from relaxation_rates: cut
        # c_k weights dA/dc at c_k by the jump w_{k-1} - w_k
        t, lams, cuts, w = self._setup(spectrum30, grid)
        got = inversion._jacobian(alpha, lams, cuts, t, w)[:, 1:]
        jump = -w
        jump[:, :, 1:] += w[:, :, :-1]
        want = np.einsum("tjk,ljk->ltk", relaxation_rates(alpha, lams, cuts, t),
                         jump).reshape(-1, len(cuts))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRefineNoisy:
    def test_a6_bounds_and_stop(self, spectrum30, reference_model, noisy_staged):
        traces, staged = noisy_staged
        alpha, cuts, coeffs, log = _solve(traces, spectrum30, staged.alpha_hat,
                                          staged.cuts_hat)
        log = log["refine_joint"]
        h = 4.0 / 1000
        assert abs(alpha - 0.75) <= 2e-2
        assert len(cuts) == len(coeffs) == 2
        assert abs(cuts[0] - 0.2) <= 3 * h
        assert abs(cuts[1] - 1.2) <= 3 * h
        assert _coeff_rel_err(coeffs, reference_model) <= 0.15
        assert log["final_residual"] <= log["initial_residual"]
        # the fit reaches the noise floor before the cusps of the cuts stall
        # the line search, so no warning is written
        assert log["stop"] == "noise-floor"
        assert "warning" not in log
        assert 0 < log["sigma_ratio"] < 1

    def test_one_problem_per_reconstruct(self, spectrum30, reference_traces, monkeypatch):
        # reconstruct sets up the two-sensor problem once and refine starts
        # from the staged projection: no design is built twice at one point.
        # refine_joint serves the order stage's window and the full grid,
        # each with its one-pass Jacobian and its line search that stops at
        # the noise floor, and that keeps the builds few: on the reference
        # grid with 1 % noise, a noise-floor test before the first candidate
        # only took 13 candidates and 6 Jacobians. The two problems are told
        # apart by their row counts
        traces = _noisy(reference_traces, 0.01, 20240817)
        calls = {name: [] for name in ("_two_sensor_problem", "_pre_onset_sigma",
                                       "relaxation_design", "relaxation_derivatives")}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(inversion, name)):
                calls[_name].append(args)
                return _fn(*args)
            monkeypatch.setattr(inversion, name, counting)
        rates = []
        monkeypatch.setattr(forward_model, "relaxation_rates", lambda *args: rates.append(args))
        got = reconstruct(traces, spectrum30, GAP)
        log = dict(got.stage_log)
        n_t = len(traces[0].times)
        window = [args for args in calls["relaxation_design"] if len(args[3]) < n_t]
        full = [args for args in calls["relaxation_design"] if len(args[3]) == n_t]
        assert len(calls["_two_sensor_problem"]) == len(calls["_pre_onset_sigma"]) == 1
        assert len(window) == log["estimate_alpha"]["evaluations"] <= 36
        # the staged projection, then one per line-search candidate
        assert len(full) == 1 + log["refine_joint"]["candidates"] <= 8
        assert log["refine_joint"]["stop"] == log["estimate_alpha"]["stop"] == "noise-floor"
        # one Jacobian per accepted step and one for the step that stopped
        passes = [len(args[3]) for args in calls["relaxation_derivatives"]]
        assert passes.count(n_t) == log["refine_joint"]["iterations"] + 1 <= 5
        assert (len(passes) - passes.count(n_t) == log["estimate_alpha"]["iterations"] + 1
                <= 5)
        assert rates == []
        staged = log["staged_coefficients"]["relative_residuals"]
        want = math.hypot(*(rel * np.linalg.norm(tr.values)
                            for rel, tr in zip(staged, traces)))
        assert log["refine_joint"]["initial_residual"] == pytest.approx(want, rel=1e-12)

    def test_noise_floor_agrees_with_the_no_decrease_stop(self, spectrum30,
                                                          noisy_staged, monkeypatch):
        # without a noise estimate the rule is off and refine runs on until
        # the line search finds no decrease; the extra iterations fit noise
        traces, staged = noisy_staged
        got = _solve(traces, spectrum30, staged.alpha_hat, staged.cuts_hat)
        monkeypatch.setattr(inversion, "_pre_onset_sigma", lambda *args: None)
        full = _solve(traces, spectrum30, staged.alpha_hat, staged.cuts_hat)
        log = full[3]["refine_joint"]
        assert log["noise_sigma"] == 0.0
        assert log["stop"] == "no-decrease"
        # the warning keeps its meaning: no decrease with ten iterations to go
        assert ("warning" in log) == (log["iterations"] + 9
                                      < inversion.MAX_REFINE_ITERATIONS)
        assert abs(got[0] - full[0]) <= 2e-3
        assert np.max(np.abs(np.subtract(got[1], full[1]))) <= 4.0 / 1000
        for pg, pf in zip(got[2], full[2]):
            assert np.linalg.norm(pg - pf) <= 0.05 * np.linalg.norm(pf)

    def test_design_builds(self, spectrum30, noisy_staged, monkeypatch):
        # the staged projection and refine's steps; the no-decrease stop
        # took 85 builds here, most of them rejected halvings toward the
        # grid-point cusp of a cut
        traces, staged = noisy_staged
        calls = []
        build = inversion.relaxation_design

        def counting(*args, **kw):
            calls.append(args)
            return build(*args, **kw)

        monkeypatch.setattr(inversion, "relaxation_design", counting)
        _solve(traces, spectrum30, staged.alpha_hat, staged.cuts_hat)
        assert len(calls) <= 20

    def test_cap_stop(self, spectrum30, noisy_staged, monkeypatch):
        traces, staged = noisy_staged
        monkeypatch.setattr(inversion, "MAX_REFINE_ITERATIONS", 1)
        log = _solve(traces, spectrum30, staged.alpha_hat, staged.cuts_hat)[3]["refine_joint"]
        assert log["iterations"] == 1
        assert log["stop"] == "cap"
        assert "warning" not in log
        assert log["final_residual"] <= log["initial_residual"]

    def test_final_residual_is_that_of_the_reported_result(self, spectrum30,
                                                            noisy_staged):
        # the residual of the projection belongs to the coefficients that
        # reconstruct reports, not only to refine's internal factors
        traces, _ = noisy_staged
        got = reconstruct(traces, spectrum30, GAP)
        log = dict(got.stage_log)["refine_joint"]
        flux = _model_flux(got, spectrum30, traces)
        resid = np.concatenate([tr.values - f for tr, f in zip(traces, flux)])
        assert log["final_residual"] == pytest.approx(np.linalg.norm(resid), rel=1e-9)
        y = np.concatenate([tr.values for tr in traces])
        assert got.residual_norm == log["final_residual"] / np.linalg.norm(y)

    @pytest.mark.parametrize("gap", [0.1, 0.3])
    @pytest.mark.parametrize("level", [0.0, 0.01])
    @pytest.mark.parametrize("alpha", [0.55, 0.99])
    def test_staged_point_is_feasible(self, spectrum30, reference_model, gap, level,
                                      alpha):
        # refine starts at the staged alpha and cuts without a feasibility
        # check of its own: the order stays in (1/2, 1), where the window's
        # polish (refine_joint itself) keeps it, the onset is >= 0, and
        # interior cuts lie below t_max - gap and at least gap apart
        model = SourceModel(alpha=alpha, cuts=reference_model.cuts,
                            piece_coeffs=reference_model.piece_coeffs, spectrum=spectrum30)
        t = np.linspace(0.0, 4.0, 1001)
        traces = _noisy(tuple(flux_trace(model, th, t) for th in (0.3, 1.3)), level, 5)
        got = _staged(traces, spectrum30, gap)
        cuts = got.cuts_hat
        assert 0.5 < got.alpha_hat < 1.0
        assert 0.0 <= cuts[0] and cuts[-1] <= t[-1]
        assert all(b - a >= gap / 4 for a, b in zip(cuts[:-1], cuts[1:]))


class TestPreOnsetSigma:
    def test_noiseless_is_zero(self, reference_traces):
        assert inversion._pre_onset_sigma(*_grid_values(reference_traces), 0.2) == 0.0

    def test_noisy_matches_the_drawn_level(self, reference_traces):
        noisy = _noisy(reference_traces, 0.01, 3)
        want = math.sqrt(np.mean([(0.01 * np.max(np.abs(tr.values))) ** 2
                                  for tr in reference_traces]))
        # 200 samples per sensor before the onset at 0.2
        assert inversion._pre_onset_sigma(*_grid_values(noisy), 0.2) == pytest.approx(
            want, rel=0.15)

    def test_fewer_than_16_samples_turn_the_rule_off(self, reference_traces):
        noisy = _noisy(reference_traces, 0.01, 3)
        h = 4.0 / 4000
        # t < c0 - 1e-12 holds at the 15 grid points 0, h, ..., 14 h
        assert inversion._pre_onset_sigma(*_grid_values(noisy), 15 * h) is None
        assert inversion._pre_onset_sigma(*_grid_values(noisy), 16 * h) > 0.0


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
        staged = _staged(traces, spectrum50)
        alpha, _, coeffs, log = _solve(traces, spectrum50, staged.alpha_hat,
                                       staged.cuts_hat)
        log = log["refine_joint"]
        assert log["iterations"] <= 3
        assert log["stop"] == "converged"
        assert abs(alpha - 0.75) <= 1e-8
        assert _coeff_rel_err(coeffs, model) <= 1e-6


class TestInvertMemory:
    def test_warm_reconstruct_peak_on_16000_steps(self, reference_model, spectrum30):
        # at most one copy of each long array: refine drops each explicit
        # 2 n_t x dof q once its Jacobian product is formed, the pole term
        # of the basis runs in row blocks, and the design is differenced in
        # place. The tracemalloc peak of a warm reconstruct on the reference
        # traces with 16000 steps is 7.9 MiB; it was 11.24 MiB before.
        t = np.linspace(0.0, 4.0, 16001)
        traces = forward_model.flux_traces(reference_model, (0.3, 1.3), t)
        reconstruct(traces, spectrum30, GAP)   # builds and caches the shift tables
        tracemalloc.start()
        try:
            result = reconstruct(traces, spectrum30, GAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.K_hat == 2 and abs(result.alpha_hat - 0.75) <= 1e-9
        assert peak <= 9 * 2 ** 20


class TestProjectMatchesDenseLstsq:
    # (n_t, spectrum) of the ref_noisy and six_modes inverts: J = 3 with 5
    # real dofs per piece, J = 6 with 10
    @pytest.mark.parametrize("n_t, spectrum", [(4001, "spectrum30"), (2001, "spectrum50")],
                             ids=["ref_noisy", "six_modes"])
    def test_same_solution(self, n_t, spectrum, request):
        spec = request.getfixturevalue(spectrum)
        n_lams, n_pieces = len(spec.distinct_eigenvalues), 2
        per = len(spec)
        phases = forward_model._phases(spec, (0.3, 1.3))
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


class TestReadmeExample:
    def test_library_example_runs(self, capsys):
        # the python block under "## Library example" in README.md, as written
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library example", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        result = namespace["result"]
        assert result.K_hat == 1
        assert result.cuts_hat == [0.2]
        assert abs(result.alpha_hat - 0.75) <= 1e-6
