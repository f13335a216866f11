"""Clock-resolution kernels: evaluation, spectra, and positive-type checks.

A clock kernel w(s) encodes the finite resolution of the physical clock used
to smear bath correlations along the local time direction.  Everything
downstream (rates, noise covariances, Kossakowski blocks) inherits complete
positivity from these kernels being of positive type, so this module carries
the Gram-matrix certificate used to reject bad kernels early.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import gaussian_ft, integrate_adaptive

__all__ = [
    "ClockKernel",
    "GaussianKernel",
    "CoherentReadoutKernel",
    "TabulatedKernel",
    "SpectralMeasure",
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


def psd_margin(M: np.ndarray, name: str) -> float:
    """Minimum eigenvalue of the Hermitian matrix ``M``.

    Raises ValueError unless M is Hermitian to 1e-12 * max(|M|, 1), and
    PositivityError when the margin is below -1e-10 * max(tr M, 1).  An empty
    block is trivially PSD, with margin +inf.
    """
    if M.size == 0:
        return math.inf
    if np.abs(M - M.conj().T).max() > 1e-12 * max(np.abs(M).max(), 1.0):
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


@dataclass(frozen=True)
class SpectralMeasure:
    """Fourier representation of a kernel: point atoms plus an optional density.

    Weights are nonnegative and the total mass equals 2*pi*w(0) by Fourier
    inversion.  Atom rows are (frequency, weight).
    """

    atoms: np.ndarray
    #: array in, array out, as :func:`relclock.specfun.integrate_adaptive` calls it
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density_halfwidth: float = 0.0

    def total_mass(self) -> float:
        """Atom weights plus the density integrated to 1e-9 over its support."""
        mass = float(np.sum(self.atoms[:, 1])) if self.atoms.size else 0.0
        if self.density is not None:
            L = self.density_halfwidth
            mass += integrate_adaptive(self.density, -L, L, 1e-9).value
        return mass


class ClockKernel:
    """Base class for even, positive-type clock-resolution kernels."""

    def evaluate(self, s: float) -> float:
        raise NotImplementedError

    def spectrum(self) -> SpectralMeasure:
        raise NotImplementedError

    @property
    def width(self) -> float:
        """Characteristic time resolution, used for default grids/windows."""
        raise NotImplementedError

    @property
    def sample_halfspan(self) -> float:
        """Half-width of the default certification grid (lags stay valid)."""
        return 4.0 * self.width

    def __call__(self, s):
        return self.evaluate(s)


@dataclass(frozen=True)
class GaussianKernel(ClockKernel):
    """w(s) = exp(-s^2 / (2 sigma^2)), the canonical resolution kernel."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")

    def evaluate(self, s: float) -> float:
        return math.exp(-0.5 * (s / self.sigma) ** 2)

    def spectrum(self) -> SpectralMeasure:
        sig = self.sigma
        # density support: gaussian_ft falls below any floor past ~13/sigma
        return SpectralMeasure(
            atoms=np.empty((0, 2)),
            density=lambda Omega: gaussian_ft(sig, Omega),
            density_halfwidth=14.0 / sig,
        )

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
        object.__setattr__(self, "_weights", self._poisson_weights(self._auto_truncation()))

    def _auto_truncation(self) -> int:
        lam = self.R * self.R
        if lam == 0.0:
            return 0
        # smallest N with P(Poisson(lam) > N) < SERIES_TAIL
        term = math.exp(-lam)
        cdf = term
        n = 0
        while 1.0 - cdf >= SERIES_TAIL and n < 10_000:
            n += 1
            term *= lam / n
            cdf += term
        return n + 1

    def _poisson_weights(self, n_max: int) -> np.ndarray:
        lam = self.R * self.R
        w = np.empty(n_max + 1)
        w[0] = math.exp(-lam)
        for n in range(1, n_max + 1):
            w[n] = w[n - 1] * lam / n
        return w

    def evaluate(self, s: float) -> float:
        n = np.arange(self._weights.size)
        return float(np.dot(self._weights, np.cos(n * self.omega_C * s)))

    def spectrum(self) -> SpectralMeasure:
        # atom at 0 carries 2*pi*e^{-R^2}; atoms at +-n*omega_C carry
        # pi*e^{-R^2}(R^2)^n/n! each
        atoms = [(0.0, 2.0 * math.pi * self._weights[0])]
        for n in range(1, self._weights.size):
            w = math.pi * self._weights[n]
            if w == 0.0:
                continue
            atoms.append((n * self.omega_C, w))
            atoms.append((-n * self.omega_C, w))
        return SpectralMeasure(atoms=np.array(atoms))

    @property
    def width(self) -> float:
        if self.R == 0.0:
            return 1.0 / self.omega_C
        return 1.0 / (self.R * self.omega_C)


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, limited so the end segment keeps the
    sign of its secant m0 (Moler, Numerical Computing with MATLAB, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Shape-preserving piecewise cubic Hermite interpolant through (x, y)
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238 (1980)).

    An interior slope is the weighted harmonic mean of the two adjacent
    secants, or 0 where they differ in sign or one vanishes; two nodes give
    the straight line.  These are scipy's ``PchipInterpolator`` rules.  Nodes
    are reproduced exactly; queries outside [x[0], x[-1]] raise.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("pchip needs 1-d x and y of one length >= 2")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("pchip nodes must be finite")
        h = np.diff(x)
        if (h <= 0.0).any():
            raise ValueError("pchip nodes must be strictly increasing")
        m = np.diff(y) / h
        d = np.full_like(y, m[0])
        if x.size > 2:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # power-basis coefficients per segment, in (x - x_k)^0..3; the last
        # row is the constant y[-1], so x[-1] is a node like any other
        self.x = x
        self._coef = np.zeros((x.size, 4))
        self._coef[:, 0] = y
        self._coef[:-1, 1] = d[:-1]
        self._coef[:-1, 2] = (m - d[:-1]) / h - t
        self._coef[:-1, 3] = t / h

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        if (q < self.x[0]).any() or (q > self.x[-1]).any():
            raise ValueError("pchip queried outside its nodes")
        k = np.searchsorted(self.x, q, side="right") - 1
        s = q - self.x[k]
        c = self._coef[k]
        return c[..., 0] + c[..., 1] * s + c[..., 2] * (s * s) + c[..., 3] * (s * s * s)


class TabulatedKernel(ClockKernel):
    """Kernel interpolated from measured samples (s, w).

    Samples are symmetrized, (w(s) + w(-s))/2, and interpolated with a
    shape-preserving cubic.  Queries outside the sampled range raise.
    """

    def __init__(self, samples: Sequence[tuple] | np.ndarray):
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("samples must be an (n, 2) array with n >= 2")
        s, w = pts[:, 0], pts[:, 1]
        order = np.argsort(s)
        s, w = s[order], w[order]
        smax = min(abs(s[0]), abs(s[-1]))
        if smax <= 0.0:
            raise ValueError("samples must straddle s = 0 symmetrically")
        # symmetrize on a mirrored grid of the distinct |s| values; merge
        # values that differ only in floating-point roundoff
        grid = np.unique(np.round(np.abs(s) / smax, 12) * smax)
        grid = grid[grid <= smax]
        interp = _Pchip(s, w)
        half = 0.5 * (interp(grid) + interp(-grid))
        full_s = np.concatenate([-grid[:0:-1], grid])
        full_w = np.concatenate([half[:0:-1], half])
        self._range = smax
        self._interp = _Pchip(full_s, full_w)

    @classmethod
    def from_csv(cls, path) -> "TabulatedKernel":
        """Load two-column (s, w) CSV; header row optional."""
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError:
                    if rows:
                        raise
                    continue  # header line
        return cls(rows)

    def evaluate(self, s: float) -> float:
        if abs(s) > self._range * (1.0 + 1e-12):
            raise ValueError(
                f"tabulated kernel queried at s={s!r}, outside [-{self._range}, {self._range}]"
            )
        return float(self._interp(np.clip(s, -self._range, self._range)))

    def spectrum(self) -> SpectralMeasure:
        # Discrete transform on a uniform resampling of the table at 2048
        # points.  When the table itself is uniform its own grid is used, so
        # node values enter the transform exactly; off-grid interpolation of
        # kinked data would otherwise manufacture spurious negative leakage.
        S = self._range
        nodes = self._interp.x
        steps = np.diff(nodes)
        if nodes.size >= 16 and np.abs(steps - steps[0]).max() < 1e-9 * steps[0]:
            s = nodes[:-1]
        else:
            s = np.linspace(-S, S, 2048, endpoint=False)
        w = self._interp(s)
        ds = s[1] - s[0]
        freqs = 2.0 * math.pi * np.fft.fftfreq(s.size, d=ds)
        # continuous transform via DFT, undoing the grid-offset phase;
        # an even kernel gives a real spectrum
        vals = np.real(np.exp(1j * freqs * S) * np.fft.fft(w)) * ds
        dOm = 2.0 * math.pi / (2.0 * S)
        weights = vals * dOm  # density times bin width = atomic weight
        total_abs = np.sum(np.abs(weights))
        neg = weights[weights < 0.0].sum()
        if neg < -1e-8 * max(total_abs, 1.0):
            raise PositivityError(
                f"tabulated kernel has negative spectral mass {neg:.3e}"
            )
        weights = np.clip(weights, 0.0, None)
        return SpectralMeasure(atoms=np.column_stack([freqs, weights]))

    @property
    def width(self) -> float:
        return self._range / 4.0

    @property
    def sample_halfspan(self) -> float:
        # Gram lags reach twice the grid half-width; keep them in range
        return self._range / 2.0


def kernel_spectrum(k: ClockKernel) -> SpectralMeasure:
    """Spectral measure of the kernel (atoms and/or continuous density)."""
    return k.spectrum()


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
