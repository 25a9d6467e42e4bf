import math

import numpy as np
import pytest

from fracsource.disc_spectrum import ModeCoefficients, build_spectrum
from fracsource.forward_model import (
    SourceModel,
    flux_trace,
    relaxation_design,
    relaxation_rates,
)
from fracsource.specfun import _panel_nodes


@pytest.fixture(scope="session")
def spectrum30():
    return build_spectrum(30.0)


@pytest.fixture(scope="session")
def spectrum50():
    return build_spectrum(50.0)


def make_coeffs(spectrum, entries):
    """entries: {(m, k): complex} with m >= 0; pairs filled conjugate."""
    vals = np.zeros(len(spectrum), dtype=complex)
    for (m, k), c in entries.items():
        vals[spectrum.index_of(m, k)] = c
        if m != 0:
            vals[spectrum.index_of(-m, k)] = np.conj(c)
    return ModeCoefficients(values=vals)


def basis_ml(alpha, beta, x):
    """E_{alpha,beta}(-x) for beta = 1 or beta = alpha from the relaxation
    basis, with lambda = x at t = 1: there the design column is
    1 - E_{alpha,1}(-x) and the cut-0 rate is x E_{alpha,alpha}(-x). The
    basis takes lambda > 0 only, so x = 0 gets 1/Gamma(beta)."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, 1.0 / math.gamma(beta))
    live = x > 0
    if beta == 1.0:
        out[live] = 1.0 - relaxation_design(alpha, x[live], [0.0, math.inf], [1.0])[0, :, 0]
    elif beta == alpha:
        out[live] = relaxation_rates(alpha, x[live], [0.0], [1.0])[0, :, 0] / x[live]
    else:
        raise ValueError("the basis holds beta = 1 and beta = alpha only")
    return out


def ml_aa_on_panels(alpha, lams, edges, nodes=20):
    """Composite Gauss-Legendre nodes v and weights w on the panels `edges`
    of v = t^alpha, and E_{alpha,alpha}(-lam v) at the nodes, one row per
    lam, from one relaxation_rates call: at t = v^(1/alpha) the cut-0 rate
    is lam t^(alpha-1) E_{alpha,alpha}(-lam v)."""
    v, w = _panel_nodes(np.asarray(edges, dtype=float), nodes)
    t = v ** (1.0 / alpha)
    lams = np.asarray(lams, dtype=float)
    e = relaxation_rates(alpha, lams, [0.0], t)[:, :, 0] * (t / v)[:, None] / lams
    return v, w, e.T


REF_PIECE_1 = {(0, 1): 1.0, (1, 1): 0.5 + 0.3j, (2, 1): -0.4 + 0.2j}
REF_PIECE_2 = {(0, 1): -0.6, (1, 1): 0.8 - 0.1j, (2, 1): 0.25 + 0.45j}


@pytest.fixture(scope="session")
def reference_model(spectrum30):
    """The acceptance K=2 model: alpha=0.75, cuts=(0.2, 1.2, inf)."""
    p1 = make_coeffs(spectrum30, REF_PIECE_1)
    p2 = make_coeffs(spectrum30, REF_PIECE_2)
    return SourceModel(alpha=0.75, cuts=(0.2, 1.2, math.inf),
                       piece_coeffs=(p1, p2), spectrum=spectrum30)


@pytest.fixture(scope="session")
def reference_grid():
    return np.linspace(0.0, 4.0, 4001)


@pytest.fixture(scope="session")
def reference_traces(reference_model, reference_grid):
    return tuple(flux_trace(reference_model, th, reference_grid)
                 for th in (0.3, 1.3))


def random_source_model(spectrum, rng, k_pieces=None):
    """A random valid conjugate-symmetric model for property tests."""
    k_pieces = k_pieces or int(rng.integers(1, 4))
    alpha = float(rng.uniform(0.55, 0.95))
    c0 = float(rng.uniform(0.0, 0.4))
    cuts = [c0]
    for _ in range(k_pieces - 1):
        cuts.append(cuts[-1] + float(rng.uniform(0.5, 1.2)))
    cuts.append(math.inf)
    pieces = []
    for _ in range(k_pieces):
        vals = np.zeros(len(spectrum), dtype=complex)
        for lam, idx in spectrum.distinct_eigenvalues:
            c = complex(rng.normal(), rng.normal() if len(idx) == 2 else 0.0)
            vals[idx[0]] = c
            if len(idx) == 2:
                vals[idx[1]] = np.conj(c)
        pieces.append(ModeCoefficients(values=vals))
    return SourceModel(alpha=alpha, cuts=tuple(cuts), piece_coeffs=tuple(pieces),
                       spectrum=spectrum)
