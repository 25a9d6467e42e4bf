"""Workload configs derived from configs/reference.json.

The reference config is read, never written. Each workload applies its
overrides on a deep copy. The program under test only ever sees the
generated config file and the traces it synthesizes from it.

The inputs do not depend on the workload seed (the seed picks which trace
samples are checked against mpmath, see checks.py). Seeded inputs made the
cost bimodal: refinement either runs to its iteration cap or stops early on
ten rejected steps, depending on the data. Over five noise realizations one
``ref_noisy`` invert took 4.8 s to 14.8 s; over three coefficient draws one
``six_modes`` invert took 18.4 s to 29.5 s. No run of affordable length
averages that away. So ``ref_noisy`` keeps the reference config's own noise
seed, and ``six_modes`` draws its coefficients once with that same seed.

``six_modes`` runs on a 2000-step grid so that one cold invert fits a run
(about 30 s; 44-49 s on the 4000-step grid). On a 1000-step grid two of seven
draws came back with exit 0 and coefficient errors above 1, so 2000 steps is
the coarsest grid used.
"""
from __future__ import annotations

import copy
import json
import math

import numpy as np

REFERENCE = "configs/reference.json"

# (m, k) of the ten disc modes with lambda <= 50: six distinct eigenvalues.
SIX_MODES = ((0, 1), (1, 1), (2, 1), (0, 2), (3, 1), (1, 2))

# operations of one pass, in order
WORKLOADS = {
    "ref_noisy": ("synth", "invert"),
    "six_modes": ("synth", "invert"),
    "grid16k_verify": ("synth", "invert", "verify"),
}


def _six_mode_pieces(rng: np.random.Generator) -> list:
    """Two pieces over the ten modes, every magnitude in [0.5, 1]; redrawn
    until the jump between the pieces is at least half the larger norm, so
    neither the norm test nor the jump test of piece pruning can fire."""
    while True:
        pieces, vecs = [], []
        for _ in range(2):
            coeffs, vec = [], []
            for m, k in SIX_MODES:
                mag = rng.uniform(0.5, 1.0)
                if m == 0:
                    re = mag if rng.uniform() < 0.5 else -mag
                    coeffs.append({"m": m, "k": k, "re": float(re)})
                    vec.append(complex(re))
                else:
                    ph = rng.uniform(0.0, 2.0 * math.pi)
                    z = mag * complex(math.cos(ph), math.sin(ph))
                    coeffs.append({"m": m, "k": k, "re": float(z.real),
                                   "im": float(z.imag)})
                    vec += [z, z.conjugate()]
            pieces.append({"coefficients": coeffs})
            vecs.append(np.array(vec))
        top = max(np.linalg.norm(v) for v in vecs)
        if np.linalg.norm(vecs[0] - vecs[1]) >= 0.5 * top:
            return pieces


def make_config(name: str, reference: dict, out_dir: str) -> dict:
    """The generated config for one workload, writing into out_dir."""
    cfg = copy.deepcopy(reference)
    if name == "ref_noisy":
        cfg["noise"]["level"] = 0.01
    elif name == "six_modes":
        cfg["spectrum"]["lambda_max"] = 50.0
        cfg["grid"]["steps"] = 2000
        draw = np.random.default_rng(int(reference["noise"]["seed"]))
        cfg["model"]["pieces"] = _six_mode_pieces(draw)
    elif name == "grid16k_verify":
        cfg["grid"]["steps"] = 16000
    else:
        raise KeyError(name)
    cfg["output"] = dict(cfg.get("output", {}), directory=out_dir)
    return cfg


def load_reference(root: str) -> dict:
    with open(f"{root}/{REFERENCE}") as fh:
        return json.load(fh)
