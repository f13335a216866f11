"""Clock-resolution kernels: evaluation, spectral atoms, and positive-type checks.

A clock kernel w(s) encodes the finite resolution of the physical clock used
to smear bath correlations along the local time direction.  Everything
downstream (rates, noise covariances, Kossakowski blocks) inherits complete
positivity from these kernels being of positive type, so this module carries
the Gram-matrix certificate used to reject bad kernels early.

A kernel's spectrum is its atoms: (frequency, weight) rows of a purely
atomic spectral measure, which the rates sum exactly.  The Gaussian kernel
has none; its transform is :func:`relclock.specfun.gaussian_ft`, which the
rates integrate.  This module imports nothing from ``specfun``, so the
processes that only use its PSD check (``gkls``, ``hybridcq``) do not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ClockKernel",
    "GaussianKernel",
    "CoherentReadoutKernel",
    "PositiveTypeVerdict",
    "PositivityError",
    "kernel_spectrum",
    "positivity_gram_check",
]

#: Tolerance on the minimum Gram eigenvalue.  Numerically PSD matrices
#: routinely show eigenvalues around -1e-13.
GRAM_TOLERANCE = 1e-10

#: Dropped Poisson tail weight allowed when truncating the coherent series.
SERIES_TAIL = 1e-12


class PositivityError(ValueError):
    """A kernel, spectrum, or covariance failed its positivity certificate."""


def is_hermitian(M: np.ndarray) -> bool:
    """False when some entry of the non-empty ``M`` differs from its
    conjugate transpose by more than 1e-12 * max(|M|_max, 1)."""
    return not np.abs(M - M.conj().T).max() > 1e-12 * max(np.abs(M).max(), 1.0)


def psd_margin(M: np.ndarray, name: str) -> float:
    """Minimum eigenvalue of the Hermitian matrix ``M``.

    Raises ValueError unless ``is_hermitian(M)``, and PositivityError when
    the margin is below -1e-10 * max(tr M, 1).  An empty block is trivially
    PSD, with margin +inf.
    """
    if M.size == 0:
        return math.inf
    if not is_hermitian(M):
        raise ValueError(f"{name} must be Hermitian")
    margin = float(np.linalg.eigvalsh(M).min())
    if margin < -1e-10 * max(float(np.real(np.trace(M))), 1.0):
        raise PositivityError(f"{name} is not PSD (min eigenvalue {margin:.3e})")
    return margin


@dataclass(frozen=True)
class PositiveTypeVerdict:
    """Outcome of a Gram positivity check."""

    positive_type: bool
    min_eigenvalue: float

    def __bool__(self):
        return self.positive_type


class ClockKernel:
    """Base class for even, positive-type clock-resolution kernels."""

    def evaluate(self, s: float) -> float:
        raise NotImplementedError

    def spectrum(self) -> np.ndarray:
        """Spectral atoms as (frequency, weight) rows, for a kernel whose
        spectrum is purely atomic; the weights sum to 2 pi w(0)."""
        raise NotImplementedError

    @property
    def width(self) -> float:
        """Characteristic time resolution, used for default grids/windows."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(ClockKernel):
    """w(s) = exp(-s^2 / (2 sigma^2)), the canonical resolution kernel."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")

    def evaluate(self, s: float) -> float:
        return math.exp(-0.5 * (s / self.sigma) ** 2)

    @property
    def width(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class CoherentReadoutKernel(ClockKernel):
    """Even part of a coherent-state clock readout overlap.

    w(s) = exp(-R^2) * sum_n (R^2)^n / n! * cos(n omega_C s), a convex
    mixture of cosines, hence positive type.  For R >> 1 it approaches a
    Gaussian of width ~ 1/(R omega_C) near s = 0.  The series is truncated
    at the least order whose dropped Poisson tail is below ``SERIES_TAIL``.
    """

    R: float
    omega_C: float

    def __post_init__(self):
        if self.R < 0.0:
            raise ValueError(f"R must be >= 0, got {self.R!r}")
        if not self.omega_C > 0.0:
            raise ValueError(f"omega_C must be > 0, got {self.omega_C!r}")
        # Poisson weights up to the least order N whose dropped tail is below
        # SERIES_TAIL, plus the term N + 1 (at R = 0 the one weight 1); the cap
        # of 10 002 terms ends the loop where exp(-R^2) has underflowed to 0
        lam = self.R * self.R
        weights = [math.exp(-lam)]
        cdf = weights[0]
        while lam > 0.0 and len(weights) < 10_002:
            weights.append(weights[-1] * lam / len(weights))
            if 1.0 - cdf < SERIES_TAIL:
                break
            cdf += weights[-1]
        object.__setattr__(self, "_weights", np.array(weights))

    def evaluate(self, s: float) -> float:
        n = np.arange(self._weights.size)
        return float(np.dot(self._weights, np.cos(n * self.omega_C * s)))

    def spectrum(self) -> np.ndarray:
        # atom at 0 carries 2*pi*e^{-R^2}; atoms at +-n*omega_C carry
        # pi*e^{-R^2}(R^2)^n/n! each
        atoms = [(0.0, 2.0 * math.pi * self._weights[0])]
        for n in range(1, self._weights.size):
            w = math.pi * self._weights[n]
            if w == 0.0:
                continue
            atoms.append((n * self.omega_C, w))
            atoms.append((-n * self.omega_C, w))
        return np.array(atoms)

    @property
    def width(self) -> float:
        if self.R == 0.0:
            return 1.0 / self.omega_C
        return 1.0 / (self.R * self.omega_C)


@functools.cache
def kernel_spectrum(k: ClockKernel) -> np.ndarray:
    """The kernel's (n, 2) array of spectral atoms, built once per kernel, as
    the frozen kernels hash by value; read-only, since every caller shares it."""
    atoms = k.spectrum()
    atoms.flags.writeable = False
    return atoms


def positivity_gram_check(k: ClockKernel, times: Sequence[float]) -> PositiveTypeVerdict:
    """Certify positive-typeness of w on a sample grid.

    Builds the Gram matrix M[j, k] = w(t_j - t_k) and reports the minimum
    eigenvalue; the kernel passes iff it is >= -``GRAM_TOLERANCE``.
    """
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise ValueError("need at least 2 sample times")
    diff = t[:, None] - t[None, :]
    M = np.vectorize(k.evaluate)(diff)
    min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    return PositiveTypeVerdict(positive_type=min_eig >= -GRAM_TOLERANCE, min_eigenvalue=min_eig)
