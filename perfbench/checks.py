"""Output checks that do not trust the code under test.

Synthesized traces are spot-checked against an mpmath evaluation of the
closed-form boundary flux, built here from mpmath Bessel zeros and an
independent Mittag-Leffler evaluation (power series for small arguments, the
completely monotone integral representation otherwise). Reconstructions are
scored against the generating truth of the workload config; verify reports
must say ``all_pass``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

# Accuracy bounds per reconstruction, from the acceptance criteria:
# A5 for noiseless data, A6 for 1 % noise.
A5 = {"alpha": 1e-4, "cut_steps": 2, "coeff_rel": 1e-2}
A6 = {"alpha": 2e-2, "cut_steps": 3, "coeff_rel": 0.15}

SAMPLES = 6  # trace samples per sensor checked against mpmath, the last one always
TRACE_ATOL = 1e-9


class CheckFailed(Exception):
    """An output file is missing, malformed or disagrees with the oracle."""


def ml_neg(alpha, x) -> mp.mpf:
    """E_{alpha,1}(-x) for x >= 0 and 0 < alpha < 1, to working precision."""
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(1)
    if x <= 8:
        total, k = mp.mpf(0), 0
        while True:
            term = (-x) ** k * mp.rgamma(alpha * k + 1)
            total += term
            if k > 10 and abs(term) < mp.mpf(10) ** (-mp.mp.dps):
                return total
            k += 1
    # E_a(-t^a) = int_0^inf exp(-r t) K_a(r) dr,
    # K_a(r) = sin(a pi) r^(a-1) / (pi (r^(2a) + 2 r^a cos(a pi) + 1))
    a = mp.mpf(alpha)
    t = x ** (1 / a)
    s, c = mp.sin(a * mp.pi), mp.cos(a * mp.pi)

    def kernel(r):
        ra = r ** a
        return mp.exp(-r * t) * ra / r / (ra * ra + 2 * ra * c + 1)

    return s / mp.pi * mp.quad(kernel, [0, 1 / t, 1, mp.inf])


def true_modes(cfg: dict) -> list:
    """Per piece, (m, k) -> complex coefficient, conjugates filled in for m > 0."""
    pieces = []
    for piece in cfg["model"]["pieces"]:
        coeffs = {}
        for row in piece["coefficients"]:
            z = complex(row.get("re", 0.0), row.get("im", 0.0))
            coeffs[(row["m"], row["k"])] = z
            if row["m"] > 0:
                coeffs[(-row["m"], row["k"])] = z.conjugate()
        pieces.append(coeffs)
    return pieces


def true_cuts(cfg: dict) -> list:
    return [float(c) for c in cfg["model"]["cuts"] if c not in ("inf", None)
            and math.isfinite(float(c))]


def oracle_flux(cfg: dict, theta: float, times) -> list:
    """Closed-form flux -sum_{n,k} s_n a_n(z) p_{k,n} [A_n(c_k) - A_n(c_{k-1})]
    at the given times, with A_n(c)(t) = E_{alpha,1}(-lam_n max(t - c, 0)^alpha)."""
    with mp.workdps(30):
        alpha = mp.mpf(cfg["model"]["alpha"])
        bounds = [mp.mpf(c) for c in true_cuts(cfg)] + [mp.inf]
        pieces = true_modes(cfg)
        modes = sorted({key for p in pieces for key in p})
        lam, weight = {}, {}
        for m, k in modes:
            j = mp.besseljzero(abs(m), k)
            sign = 1 if mp.besselj(abs(m) + 1, j) >= 0 else -1
            lam[(m, k)] = j * j
            weight[(m, k)] = sign * mp.expj(m * theta) / (mp.sqrt(mp.pi) * j)
        cache = {}

        def relax(lam_n, c, t):
            if c == mp.inf or t <= c:
                return mp.mpf(1)
            key = (lam_n, c, t)
            if key not in cache:
                cache[key] = ml_neg(alpha, lam_n * (t - c) ** alpha)
            return cache[key]

        out = []
        for t in times:
            t = mp.mpf(t)
            total = mp.mpc(0)
            for kp, coeffs in enumerate(pieces):
                for mode, p in coeffs.items():
                    step = (relax(lam[mode], bounds[kp + 1], t)
                            - relax(lam[mode], bounds[kp], t))
                    total -= weight[mode] * mp.mpc(p) * step
            out.append(float(total.real))
        return out


def read_trace(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "t,flux":
        raise CheckFailed(f"{path}: bad header")
    t, v = [], []
    for line in lines[1:]:
        a, b = line.split(",")
        t.append(float(a))
        v.append(float(b))
    if not all(math.isfinite(x) for x in v):
        raise CheckFailed(f"{path}: non-finite sample")
    return t, v


@dataclass
class TraceOracle:
    """mpmath flux values at a few sample indices of both sensors."""

    indices: list
    times: list
    values: list  # per sensor

    @classmethod
    def for_config(cls, cfg: dict, seed: int) -> "TraceOracle":
        """Samples picked by the seed, plus the last one."""
        steps, t_max = int(cfg["grid"]["steps"]), float(cfg["grid"]["t_max"])
        rng = np.random.default_rng(abs(seed))
        indices = sorted({steps, *rng.choice(steps, SAMPLES - 1, replace=False).tolist()})
        times = [t_max * i / steps for i in indices]
        angles = (cfg["sensors"]["theta1"], cfg["sensors"]["theta2"])
        return cls(indices, times, [oracle_flux(cfg, th, times) for th in angles])

    def check(self, cfg: dict, out_dir: str) -> None:
        steps = int(cfg["grid"]["steps"])
        level = float(cfg["noise"]["level"])
        for s, expected in enumerate(self.values, start=1):
            t, v = read_trace(f"{out_dir}/flux_sensor{s}.csv")
            if len(t) != steps + 1:
                raise CheckFailed(f"sensor {s}: {len(t)} rows, want {steps + 1}")
            for i, ti, want in zip(self.indices, self.times, expected):
                if abs(t[i] - ti) > 1e-12 or abs(v[i] - want) > TRACE_ATOL:
                    raise CheckFailed(f"sensor {s} sample {i}: ({t[i]!r}, {v[i]!r})"
                                      f" differs from oracle ({ti!r}, {want!r})")
            if level > 0:
                _check_noise(f"{out_dir}/flux_sensor{s}_noisy.csv", v, level)


def _check_noise(path: str, clean: list, level: float) -> None:
    """The noisy trace is the clean one plus zero-mean noise of the stated
    level relative to max |flux|."""
    _, noisy = read_trace(path)
    if len(noisy) != len(clean):
        raise CheckFailed(f"{path}: length differs from the clean trace")
    d = [a - b for a, b in zip(noisy, clean)]
    n = len(d)
    mean = sum(d) / n
    std = math.sqrt(sum((x - mean) ** 2 for x in d) / n)
    want = level * max(abs(x) for x in clean)
    if not (0.9 * want <= std <= 1.1 * want) or abs(mean) > 5 * want / math.sqrt(n):
        raise CheckFailed(f"{path}: noise std {std:.3g} mean {mean:.3g}, want std {want:.3g}")


@dataclass
class Score:
    alpha_abs_err: float
    cut_max_err_steps: float
    coeff_rel_err: float
    k_hat: int
    ok: bool


def score_reconstruction(cfg: dict, recon_path: str) -> Score:
    """Errors of reconstruction.json against the config's truth; ok when all
    lie within A6 bounds for noisy data and A5 bounds otherwise."""
    try:
        with open(recon_path) as fh:
            rec = json.load(fh)
        alpha_hat, cuts_hat, k_hat = rec["alpha_hat"], rec["cuts_hat"], rec["K_hat"]
        rows = rec["coeffs"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{recon_path}: {exc}") from exc
    bounds = A6 if float(cfg["noise"]["level"]) > 0 else A5
    h = float(cfg["grid"]["t_max"]) / int(cfg["grid"]["steps"])
    cuts, truth = true_cuts(cfg), true_modes(cfg)
    alpha_err = abs(float(alpha_hat) - float(cfg["model"]["alpha"]))
    cut_err = (max(abs(a - b) for a, b in zip(cuts_hat, cuts)) / h
               if len(cuts_hat) == len(cuts) else math.inf)
    coeff_err = math.inf
    if k_hat == len(truth):
        est = [dict() for _ in truth]
        for row in rows:
            est[row["piece"] - 1][(row["m"], row["k"])] = complex(row["re"], row["im"])
        coeff_err = max(
            math.sqrt(sum(abs(e.get(key, 0) - p.get(key, 0)) ** 2 for key in set(e) | set(p)))
            / math.sqrt(sum(abs(z) ** 2 for z in p.values()))
            for e, p in zip(est, truth))
    ok = (alpha_err <= bounds["alpha"] and cut_err <= bounds["cut_steps"]
          and k_hat == len(truth) and coeff_err <= bounds["coeff_rel"])
    return Score(alpha_err, cut_err, coeff_err, int(k_hat), ok)


def check_verification(path: str) -> None:
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if report.get("all_pass") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        raise CheckFailed(f"verify: failing checks {failing}")
