"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured values at the stated tolerance."""
import json
import math
import os
import time

import numpy as np
import pytest

from fracsource.cli import main
from fracsource.disc_spectrum import (
    build_spectrum,
    eigenfunction_eval,
    project_function,
)
from fracsource.errors import SensorGeometryError
from fracsource.forward_model import (
    FluxTrace,
    flux_trace,
    relaxation_design,
    verify_measurement_identity,
)
from fracsource.inversion import InversionConfig, reconstruct
from fracsource.laplace_model import LaplacePoint, laplace_flux_model, numeric_laplace
from fracsource.specfun import bessel_j

import oracles
from conftest import basis_ml, ml_aa_on_panels, random_source_model

INV_CFG = InversionConfig(changepoint_min_gap=0.3)


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


class TestA1SpecialFunctions:
    def test_a1_oracle_suite(self):
        # >= 200 sampled points of the shipped relaxation basis against erfcx
        # and the frozen high-precision values it can compute: real negative
        # z, beta in {1, alpha}, alpha < 1. The other frozen rows check the
        # oracle evaluator (TestMittagLeffler::test_frozen_oracle_values).
        x = np.geomspace(1e-3, 50.0, 50)
        worst = 0.0
        count = 0
        for beta, ref in ((1.0, oracles.ml_half_beta_one), (0.5, oracles.ml_half_beta_half)):
            err = basis_ml(0.5, beta, x) - np.array([ref(v) for v in x])
            worst = max(worst, float(np.max(np.abs(err))))
            count += len(x)
        for row in oracles.frozen_ml_values():
            alpha, beta = row["alpha"], row["beta"]
            if row["im_z"] != 0.0 or row["re_z"] >= 0.0 or not alpha < 1.0 \
                    or beta not in (1.0, alpha):
                continue
            got = basis_ml(alpha, beta, np.array([-row["re_z"]]))[0]
            ref = complex(row["re"], row["im"])
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
            count += 1
        _report("A1a ml-oracles", count == 228 and worst <= 1e-9,
                f"{count} points of the relaxation basis, worst {worst:.2e} (tol 1e-9)")

    def test_a1_laplace_pair(self):
        # E_{a,a} from the relaxation basis, integrated in v = t^a on panels
        # graded toward v = 0, one basis call per order
        worst = 0.0
        combos = 0
        lam1 = 5.783185962946785
        for alpha in (0.6, 0.8):
            v, w, e = ml_aa_on_panels(
                alpha, (1.0, lam1), np.concatenate([[0.0], np.geomspace(1e-12, 300.0, 40)]))
            t = v ** (1.0 / alpha)
            e = {1.0: e[0], lam1: e[1]}
            for s, lam in ((1.0, 1.0), (2.0, lam1), (5.0, 1.0), (10.0, lam1)):
                val = float(w @ (np.exp(-s * t) * e[lam])) / alpha
                worst = max(worst, abs(val - 1.0 / (s ** alpha + lam)))
                combos += 1
        _report("A1b laplace-pair", combos == 8 and worst <= 1e-6,
                f"8 combos, worst {worst:.2e} (tol 1e-6)")

    def test_a1_unit_mass(self):
        alpha, lam = 0.75, 5.783185962946785
        big_t = (3.2e5 / lam) ** (1.0 / alpha)
        tail = 1.0 - relaxation_design(alpha, [lam], [0.0, math.inf], [big_t])[0, 0, 0]
        v, w, e = ml_aa_on_panels(
            alpha, [lam], np.concatenate([[0.0], np.geomspace(1e-6, big_t ** alpha, 40)]))
        mass = lam * float(w @ e[0]) / alpha
        err = abs(mass - 1.0)
        _report("A1c unit-mass", tail <= 1e-6 and err <= 1e-5 + tail,
                f"mass {mass:.8f}, tail {tail:.1e} (tol 1e-5)")


class TestA2Eigensystem:
    def test_a2_gram_normalizers_multiplicity(self):
        sp = build_spectrum(400.0)
        n = 12
        gram_err = 0.0
        for i in range(n):
            mo = sp.modes[i]
            coeffs = project_function(
                lambda r, th, mo=mo: eigenfunction_eval(mo, r, th), sp)
            row = coeffs.values[:n].copy()
            row[i] -= 1.0
            gram_err = max(gram_err, float(np.max(np.abs(row))))

        norm_err = 0.0
        for mo in sp.modes:
            val = mo.omega * math.sqrt(math.pi) * bessel_j(abs(mo.m) + 1,
                                                           math.sqrt(mo.lam))
            norm_err = max(norm_err, abs(abs(val) - 1.0))

        pairing_ok = True
        for _, idx in sp.distinct_eigenvalues:
            if len(idx) == 1:
                pairing_ok &= sp.modes[idx[0]].m == 0
            elif len(idx) == 2:
                pairing_ok &= sp.modes[idx[0]].m == -sp.modes[idx[1]].m > 0
            else:
                pairing_ok = False
        ok = gram_err <= 1e-8 and norm_err <= 1e-10 and pairing_ok
        _report("A2 eigensystem", ok,
                f"gram {gram_err:.2e} (1e-8), normalizer {norm_err:.2e} "
                f"(1e-10), pairing {'ok' if pairing_ok else 'BROKEN'} "
                f"on {len(sp)} modes")


class TestA3ForwardIdentities:
    def test_a3_measurement_identity(self, reference_model):
        err = verify_measurement_identity(reference_model, 0.3,
                                          np.linspace(0.0, 4.0, 4001))
        err_half = verify_measurement_identity(reference_model, 0.3,
                                               np.linspace(0.0, 4.0, 8001))
        ok = err <= 5e-4 and err / err_half >= 3.0
        _report("A3a measurement-identity", ok,
                f"err {err:.2e} (tol 5e-4), halving ratio {err / err_half:.2f} "
                f"(>= 3)")

    def test_a3_laplace_agreement(self, reference_model):
        t = np.linspace(0.0, 30.0, 30001)
        worst = 0.0
        for theta in (0.3, 1.3):
            tr = flux_trace(reference_model, theta, t)
            for s in (1.0, 2.0, 5.0, 10.0, 20.0):
                gm = laplace_flux_model(reference_model, theta, LaplacePoint(s))
                gn = numeric_laplace(tr, LaplacePoint(s))
                worst = max(worst, abs(gm - gn))
        _report("A3b laplace-agreement", worst <= 1e-4,
                f"worst {worst:.2e} over two sensors, s in 1..20 (tol 1e-4)")


class TestA4UniquenessShadow:
    def test_a4_distinct_models_distinct_data(self, spectrum30):
        rng = np.random.default_rng(20240818)
        t = np.linspace(0.0, 4.0, 4001)
        min_gap = math.inf
        for _ in range(10):
            m_a = random_source_model(spectrum30, rng)
            m_b = random_source_model(spectrum30, rng)
            gap = 0.0
            for theta in (0.3, 1.3):
                f_a = flux_trace(m_a, theta, t).values
                f_b = flux_trace(m_b, theta, t).values
                gap = max(gap, float(np.max(np.abs(f_a - f_b))))
            min_gap = min(min_gap, gap)
        _report("A4 uniqueness-shadow", min_gap > 1e-6,
                f"10 random pairs, smallest sup-norm gap {min_gap:.3e} (> 1e-6)")


class TestA5EndToEnd:
    def test_a5_noiseless_reconstruction(self, spectrum30, reference_model,
                                         reference_traces):
        t0 = time.perf_counter()
        result = reconstruct(reference_traces, spectrum30, INV_CFG)
        runtime = time.perf_counter() - t0
        h = 4.0 / 4000.0
        staged = dict(result.stage_log)["estimate_alpha"]["alpha_vp"]
        coeff_err = max(
            float(np.linalg.norm(pc.values - truth.values)
                  / np.linalg.norm(truth.values))
            for pc, truth in zip(result.coeffs_hat,
                                 reference_model.piece_coeffs))
        checks = {
            "staged |a-0.75| <= 5e-3": abs(staged - 0.75) <= 5e-3,
            "refined |a-0.75| <= 1e-4": abs(result.alpha_hat - 0.75) <= 1e-4,
            "c0 within 2 steps": abs(result.cuts_hat[0] - 0.2) <= 2 * h,
            "c1 within 2 steps": abs(result.cuts_hat[1] - 1.2) <= 2 * h,
            "K_hat == 2": result.K_hat == 2,
            "coeff rel err <= 1e-2": coeff_err <= 1e-2,
            "runtime <= 60 s": runtime <= 60.0,
        }
        detail = (f"staged a {staged:.6f}, refined a {result.alpha_hat:.7f}, "
                  f"cuts ({result.cuts_hat[0]:.5f}, {result.cuts_hat[1]:.5f}), "
                  f"K {result.K_hat}, coeff err {coeff_err:.2e}, "
                  f"runtime {runtime:.1f} s")
        _report("A5 end-to-end noiseless", all(checks.values()),
                detail + " | " + ", ".join(k for k, v in checks.items() if not v))

    def test_a6_noise_robustness(self, spectrum30, reference_model,
                                 reference_traces):
        rng = np.random.default_rng(20240817)
        noisy = []
        for tr in reference_traces:
            sigma = 0.01 * float(np.max(np.abs(tr.values)))
            noisy.append(FluxTrace(tr.sensor_angle, tr.times,
                                   tr.values + rng.normal(0.0, sigma,
                                                          len(tr.values))))
        result = reconstruct(tuple(noisy), spectrum30, INV_CFG)
        h = 4.0 / 4000.0
        coeff_err = max(
            float(np.linalg.norm(pc.values - truth.values)
                  / np.linalg.norm(truth.values))
            for pc, truth in zip(result.coeffs_hat,
                                 reference_model.piece_coeffs))
        checks = {
            "alpha within 2e-2": abs(result.alpha_hat - 0.75) <= 2e-2,
            "c0 within 3 steps": abs(result.cuts_hat[0] - 0.2) <= 3 * h,
            "c1 within 3 steps": abs(result.cuts_hat[1] - 1.2) <= 3 * h,
            "K_hat == 2": result.K_hat == 2,
            "coeff rel err <= 0.15": coeff_err <= 0.15,
        }
        detail = (f"alpha {result.alpha_hat:.4f}, cuts "
                  f"({result.cuts_hat[0]:.4f}, {result.cuts_hat[1]:.4f}), "
                  f"K {result.K_hat}, coeff err {coeff_err:.3f}")
        _report("A6 noise robustness", all(checks.values()),
                detail + " | " + ", ".join(k for k, v in checks.items() if not v))


class TestA7SensorGeometry:
    def test_a7_degenerate_determinant(self, spectrum30, reference_model,
                                       reference_grid):
        # the guard that reconstruct runs before any stage
        traces = tuple(flux_trace(reference_model, th, reference_grid)
                       for th in (0.3, 0.3 + math.pi / 2))
        with pytest.raises(SensorGeometryError) as err:
            reconstruct(traces, spectrum30, INV_CFG)
        ok = err.value.m == 2
        _report("A7 sensor-geometry guard", ok,
                f"raised for |m|={err.value.m} at delta_theta=pi/2")


class TestA8Determinism:
    def test_a8_byte_identical_rerun(self, tmp_path):
        cfg = {
            "spectrum": {"lambda_max": 30.0},
            "model": {"alpha": 0.75, "cuts": [0.2, 1.2, "inf"], "pieces": [
                {"coefficients": [{"m": 0, "k": 1, "re": 1.0},
                                  {"m": 1, "k": 1, "re": 0.5, "im": 0.3},
                                  {"m": 2, "k": 1, "re": -0.4, "im": 0.2}]},
                {"coefficients": [{"m": 0, "k": 1, "re": -0.6},
                                  {"m": 1, "k": 1, "re": 0.8, "im": -0.1},
                                  {"m": 2, "k": 1, "re": 0.25, "im": 0.45}]},
            ]},
            "sensors": {"theta1": 0.3, "theta2": 1.3},
            "grid": {"t_max": 4.0, "steps": 2000},
            "noise": {"level": 0.01, "seed": 11},
            "inversion": {"changepoint_min_gap": 0.3},
            "output": {"directory": str(tmp_path / "runA")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        def run(out_dir):
            assert main(["synth", "--config", str(cfg_path), "--out", out_dir,
                         "--quiet"]) == 0
            assert main(["invert", "--config", str(cfg_path), "--out", out_dir,
                         "--quiet",
                         os.path.join(out_dir, "flux_sensor1.csv"),
                         os.path.join(out_dir, "flux_sensor2.csv")]) == 0
            return {p: open(os.path.join(out_dir, p), "rb").read()
                    for p in sorted(os.listdir(out_dir))}

        first = run(str(tmp_path / "runA"))
        second = run(str(tmp_path / "runB"))
        same = set(first) == set(second) and all(
            first[p] == second[p] for p in first)
        _report("A8 determinism", same,
                f"{len(first)} files byte-identical across reruns")
