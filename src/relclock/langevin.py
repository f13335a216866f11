"""Comoving-mode quantum Langevin dynamics: moments, CCR, FDR checks.

A single damped bosonic mode obeys

    da/dtau = -(Gamma/2 + i E) a + F,   [F(t), F^+(t')] = Gamma delta(t - t'),

whose first and second moments close on themselves; they are evolved here in
closed form rather than sampled, at one time or a grid of times per call.
The input noise occupation ``nbar`` is the only free noise parameter once the
commutator normalization is fixed.  The flow carries [a, a+] as ``ccr``, so a
trajectory CSV certifies the CCR on the moments it writes: |ccr - 1|.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .specfun import bose_occupation

__all__ = [
    "ModeParams",
    "ModeMoments",
    "mode_evolve_moments",
    "stationary_fdr_check",
    "write_moment_trajectory_csv",
]

#: c eps, c = 4: nbar = k+ / (k- - k+) from the thermal rates at +-E rounds
#: to within (3 cond + 2) eps / 2 <= 2.5 cond eps of its Bose value, relative,
#: cond = k- / (k- - k+) = nbar + 1 the condition number of the difference
#: (k- carries two roundings, k+ one, the quotient one); the fdr deviation
#: adds the roundings of the coth prediction and of the flow, 1.5 cond eps.
#: Measured for beta in [1e-12, 316] and E in [1, 1000]: at most 1.6 and 1.2.
ROUNDING = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class ModeParams:
    """Mode energy, damping rate, and input-noise occupation.

    ``gamma`` may be sourced from the ideal-clock rate density at
    omega = +-E; ``nbar`` from the detailed-balance ratio of those rates.
    """

    energy_E: float
    gamma: float
    nbar: float = 0.0

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if self.nbar < 0.0:
            raise ValueError("nbar must be >= 0")


@dataclass(frozen=True)
class ModeMoments:
    """First/second moments of one mode plus CCR bookkeeping.

    ``ccr`` tracks the [a, a+] expectation, which the flow must keep at 1.
    """

    mean_a: complex = 0.0
    occupation_n: float = 0.0
    anomalous_m: complex = 0.0
    ccr: float = 1.0

    def __post_init__(self):
        if np.any(self.occupation_n < 0.0):
            raise ValueError("occupation_n must be >= 0")
        if np.any(np.abs(self.anomalous_m) > self.occupation_n + 0.5 + 1e-12):
            raise ValueError("anomalous moment violates |m| <= n + 1/2")


def mode_evolve_moments(p: ModeParams, m0: ModeMoments, tau) -> ModeMoments:
    """Closed-form moment flow over relational time ``tau``: one time, or an
    array of times whose shape each field of the result takes.

    mean decays at Gamma/2 with phase E; occupation relaxes to nbar at rate
    Gamma; the anomalous moment rotates at 2E while decaying at Gamma; the
    CCR bookkeeping is the damped initial value plus the noise term
    1 - e^{-Gamma tau}.  Each time gets the bits of its own call: the decay is
    ``math.exp`` and the phase turns are real products, where numpy's vector
    exp and complex product would round differently.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be >= 0")
    G, E, nbar = p.gamma, p.energy_E, p.nbar
    decay = np.fromiter(map(math.exp, (-0.5 * G * tau).ravel().tolist()), float).reshape(tau.shape)
    phase = np.exp(-1j * E * tau)
    c, s = phase.real, phase.imag
    turned = [m0.mean_a * decay, m0.anomalous_m * decay * decay]
    for i in (0, 1, 1):  # the mean turns once, the anomalous moment twice
        x, y = turned[i].real, turned[i].imag
        turned[i] = np.array(x * c - y * s, dtype=complex)
        turned[i].imag = x * s + y * c
    mean, anom = turned
    occ = nbar + (m0.occupation_n - nbar) * decay * decay
    ccr = m0.ccr * decay * decay + (1.0 - decay * decay)
    return ModeMoments(mean_a=mean[()], occupation_n=occ[()], anomalous_m=anom[()], ccr=ccr[()])


def stationary_fdr_check(p: ModeParams, beta: float):
    """Fluctuation-dissipation check: <{a, a+}>/2 against coth(beta E/2)/2.

    Requires ``p.nbar`` within ``ROUNDING`` (nbar + 1) nbar of the thermal
    occupation at ``beta``; evolves the moments deep into the stationary
    regime (Gamma tau = 40) and compares the symmetrized occupation with the
    coth prediction, which a caller holds to ``ROUNDING`` (nbar + 1) times it.
    """
    if beta == math.inf:
        if p.nbar != 0.0:
            raise ValueError("vacuum (beta = inf) requires nbar = 0")
        expected = 0.0
    else:
        expected = bose_occupation(p.energy_E, beta)
        if abs(p.nbar - expected) > ROUNDING * (expected + 1.0) * expected:
            raise ValueError(
                f"nbar={p.nbar!r} inconsistent with bose_occupation={expected!r}"
            )
    if p.gamma <= 0.0:
        raise ValueError("stationary limit requires gamma > 0")
    m = mode_evolve_moments(p, ModeMoments(occupation_n=7.0), 40.0 / p.gamma)
    symmetrized = m.occupation_n + 0.5
    x = beta * p.energy_E
    prediction = 0.5 if beta == math.inf else 0.5 / math.tanh(0.5 * x)
    return (symmetrized, prediction, abs(symmetrized - prediction))


def write_moment_trajectory_csv(path, p: ModeParams, m0: ModeMoments, taus) -> np.ndarray:
    """Emit tau, re_mean, im_mean, n, re_m, im_m, ccr_defect rows from one
    moment flow over ``taus``; return the ccr_defect column, |ccr - 1|."""
    m = mode_evolve_moments(p, m0, taus)
    defects = np.abs(m.ccr - 1.0)
    write_csv(path, ["tau", "re_mean", "im_mean", "n", "re_m", "im_m", "ccr_defect"],
              zip(taus, m.mean_a.real, m.mean_a.imag, m.occupation_n,
                  m.anomalous_m.real, m.anomalous_m.imag, defects))
    return defects
