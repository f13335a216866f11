"""Clock-smeared rate densities, Markov limits, Lamb shifts, Kossakowski blocks.

The central objects are the full Fourier transform of the smeared bath
correlator,

    kappa(omega) = int ds e^{-i omega s} w(s) G+(x, x - s n),

and its ideal-clock (Markov) limit.  In this sign convention emission sits at
negative omega: the vacuum Markov rate is g^2/(2 pi) sqrt(omega^2 - m^2) for
omega <= -m and exactly zero above.  A jump operator carrying label omega
satisfies [H_S, L] = omega L, so lowering operators carry negative labels and
are the ones damped in vacuum.

The vacuum rate integral is boost invariant (the measure d^3k/2E and the
product k.n both are), so ``env.rapidity`` does not change its value; the
angular integral is kept explicit because intermediate hypersurface machinery
samples it along tilted normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import EnvironmentSpec, vacuum_spectral_density
from .kernels import (
    ClockKernel,
    GaussianKernel,
    PositivityError,
    kernel_spectrum,
    positivity_gram_check,
)
from .specfun import DAMPING_FLOOR, bose_occupation, dawson, gaussian_ft, integrate_adaptive

__all__ = [
    "RateQuery",
    "KossakowskiBlock",
    "LambShiftCoefficient",
    "kappa_tcl",
    "kappa_tcl_vacuum",
    "kappa_tcl_kms",
    "kappa_markov_vacuum",
    "kappa_markov_kms",
    "delta_kappa_memory",
    "lamb_shift_coefficient",
    "odd_kernel_transform",
    "assemble_kossakowski",
]

_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class RateQuery:
    """A rate evaluation point: Bohr frequency, clock kernel, environment.

    The kernel's positive-typeness is certified on construction; rates built
    from a non-positive-type kernel would not yield a CP generator.
    """

    omega: float
    kernel: ClockKernel
    env: EnvironmentSpec

    def __post_init__(self):
        a = self.kernel.sample_halfspan
        grid = np.linspace(-a, a, 17)
        verdict = positivity_gram_check(self.kernel, grid)
        if not verdict:
            raise PositivityError(
                f"kernel fails the positive-type Gram check "
                f"(min eigenvalue {verdict.min_eigenvalue:.3e})"
            )


@dataclass(frozen=True)
class KossakowskiBlock:
    """Labeled Hermitian rate-density matrix with its PSD certificate.

    ``labels`` pairs each row/column with (coupling index, Bohr frequency);
    ``psd_margin`` is the minimum eigenvalue.
    """

    labels: tuple
    matrix: np.ndarray
    psd_margin: float

    @classmethod
    def build(cls, labels, matrix) -> "KossakowskiBlock":
        matrix = np.asarray(matrix, dtype=complex)
        scale = max(np.abs(matrix).max(), 1.0)
        if np.abs(matrix - matrix.conj().T).max() > 1e-12 * scale:
            raise ValueError("Kossakowski matrix must be Hermitian")
        margin = float(np.linalg.eigvalsh(matrix).min())
        trace = float(np.real(np.trace(matrix)))
        if margin < -1e-10 * max(trace, 1.0):
            raise PositivityError(
                f"Kossakowski block is not PSD (min eigenvalue {margin:.3e})"
            )
        return cls(labels=tuple(labels), matrix=matrix, psd_margin=margin)


@dataclass(frozen=True)
class LambShiftCoefficient:
    """Cutoff-dependent Lamb-shift coefficient and its linear-tail subtraction.

    ``raw_value`` grows linearly in the cutoff (a local counterterm);
    ``subtracted_value`` removes the linear part fitted over [cutoff/2, cutoff].
    Only the magnitude convention is fixed here; the Hermitian packaging of
    the underlying odd transform carries an overall sign convention.
    """

    raw_value: float
    cutoff: float
    subtracted_value: float
    fit_slope: float


def _gaussian_window(sigma: float) -> float:
    """Half-width beyond which the Gaussian spectral factor is below floor."""
    return math.sqrt(-2.0 * math.log(DAMPING_FLOOR)) / sigma


def _kappa_gaussian_vacuum(env: EnvironmentSpec, sigma: float, omega: float) -> float:
    g, m = env.coupling_g, env.mass_E
    if g == 0.0:
        return 0.0
    W = _gaussian_window(sigma)
    eta = abs(env.rapidity)
    if eta < 1e-14:
        lo, hi = max(m, -omega - W), -omega + W
        if hi <= lo:
            return 0.0
        f = lambda E: vacuum_spectral_density(env, E) * gaussian_ft(sigma, omega + E)
        return max(integrate_adaptive(f, lo, hi, _QUAD_TOL).value, 0.0)

    # tilted normal: reduce d^3k to (theta, cos) with the angular integral in
    # closed form; E = m cosh(theta), k.n spans [omega + m cosh(theta -+ eta)]
    hi_arg = (W - omega) / m
    if hi_arg < 1.0:
        return 0.0
    u_max = math.acosh(hi_arg)
    lo_arg = (-W - omega) / m
    u_min = math.acosh(lo_arg) if lo_arg > 1.0 else 0.0
    t_lo = max(0.0, u_min - eta, eta - u_max)
    t_hi = eta + u_max
    if t_hi <= t_lo:
        return 0.0
    from scipy.special import erf
    rt2 = math.sqrt(2.0)

    def f(theta):
        E = m * math.cosh(theta)
        k = m * math.sinh(theta)
        A = omega + E * math.cosh(eta)
        B = k * math.sinh(eta)
        if sigma * B < 1e-8:
            ang = gaussian_ft(sigma, A)
        else:
            ang = (math.pi / (2.0 * B)) * (
                erf(sigma * (A + B) / rt2) - erf(sigma * (A - B) / rt2)
            )
        return g * g * k * k / (4.0 * math.pi**2) * ang

    return max(integrate_adaptive(f, t_lo, t_hi, _QUAD_TOL).value, 0.0)


def _kappa_atomic(env: EnvironmentSpec, kernel: ClockKernel, omega: float) -> float:
    """Rates for kernels with atomic spectra: exact sums of shifted densities."""
    spec = kernel_spectrum(kernel)
    total = 0.0
    for freq, weight in spec.atoms:
        if weight == 0.0:
            continue
        E_em = freq - omega
        if E_em >= env.mass_E:
            n = 0.0 if env.is_vacuum else bose_occupation(E_em, env.beta)
            total += weight * (1.0 + n) * vacuum_spectral_density(env, E_em)
        if not env.is_vacuum:
            E_ab = omega - freq
            if E_ab >= env.mass_E:
                total += (
                    weight
                    * bose_occupation(E_ab, env.beta)
                    * vacuum_spectral_density(env, E_ab)
                )
    return total


def kappa_tcl_vacuum(q: RateQuery) -> float:
    """Finite-resolution vacuum rate density kappa(omega) >= 0.

    For a Gaussian kernel at zero rapidity this is
    int_m^inf j(E) w_hat(omega + E) dE; the tilted-normal form integrates the
    Doppler-shifted spectral argument over angles (and equals the zero
    rapidity value, see the module docstring).
    """
    if not q.env.is_vacuum:
        raise ValueError("thermal environment: use kappa_tcl_kms")
    if isinstance(q.kernel, GaussianKernel):
        return _kappa_gaussian_vacuum(q.env, q.kernel.sigma, q.omega)
    return _kappa_atomic(q.env, q.kernel, q.omega)


def kappa_tcl_kms(q: RateQuery) -> float:
    """Finite-resolution thermal rate with the clock aligned with the medium.

    kappa(omega) = int j(E) [(1+n_B) w_hat(omega+E) + n_B w_hat(omega-E)] dE.
    Reduces to the vacuum rate as beta -> inf.  The boosted thermal case
    needs a Doppler-shifted occupation inside the angular integral and is not
    implemented.
    """
    env = q.env
    if env.is_vacuum:
        return kappa_tcl_vacuum(q)
    if abs(env.rapidity) > 1e-14:
        raise NotImplementedError(
            "boosted thermal rates (rapidity != 0 with finite beta) are unsupported"
        )
    if not isinstance(q.kernel, GaussianKernel):
        return _kappa_atomic(env, q.kernel, q.omega)
    g, m, sigma, omega = env.coupling_g, env.mass_E, q.kernel.sigma, q.omega
    if g == 0.0:
        return 0.0
    W = _gaussian_window(sigma)
    total = 0.0
    lo, hi = max(m, -omega - W), -omega + W
    if hi > lo:
        f = lambda E: (
            vacuum_spectral_density(env, E)
            * (1.0 + bose_occupation(E, env.beta))
            * gaussian_ft(sigma, omega + E)
        )
        total += integrate_adaptive(f, lo, hi, _QUAD_TOL).value
    lo, hi = max(m, omega - W), omega + W
    if hi > lo:
        f = lambda E: (
            vacuum_spectral_density(env, E)
            * bose_occupation(E, env.beta)
            * gaussian_ft(sigma, omega - E)
        )
        total += integrate_adaptive(f, lo, hi, _QUAD_TOL).value
    return max(total, 0.0)


def kappa_tcl(q: RateQuery) -> float:
    """Dispatch to the vacuum or thermal finite-resolution rate."""
    return kappa_tcl_vacuum(q) if q.env.is_vacuum else kappa_tcl_kms(q)


def kappa_markov_vacuum(env: EnvironmentSpec, omega: float) -> float:
    """Ideal-clock vacuum rate: g^2/(2 pi) sqrt(w^2 - m^2) for w <= -m, else 0.

    The hard zero above -m is the no-heating statement: an ideal clock never
    excites the system out of the vacuum.
    """
    m = env.mass_E
    if omega > -m:
        return 0.0
    return env.coupling_g**2 / (2.0 * math.pi) * math.sqrt(omega * omega - m * m)


def kappa_markov_kms(env: EnvironmentSpec, omega: float) -> float:
    """Ideal-clock comoving thermal rate, satisfying detailed balance.

    2 pi j(|w|) (1 + n_B(|w|)) on the emission side (w <= -m),
    2 pi j(|w|) n_B(|w|) on the absorption side (w >= m), zero in the gap.
    K(w) = exp(-beta w) K(-w) holds exactly for |w| >= m.
    """
    m = env.mass_E
    if env.is_vacuum:
        return kappa_markov_vacuum(env, omega)
    a = abs(omega)
    if a < m:
        return 0.0
    j = vacuum_spectral_density(env, a)
    weight = 1.0 + bose_occupation(a, env.beta) if omega <= -m else bose_occupation(a, env.beta)
    return 2.0 * math.pi * j * weight


def kappa_markov(env: EnvironmentSpec, omega: float) -> float:
    """Ideal-clock rate for the environment's state (vacuum or KMS)."""
    if env.is_vacuum:
        return kappa_markov_vacuum(env, omega)
    return kappa_markov_kms(env, omega)


def delta_kappa_memory(q: RateQuery) -> float:
    """Finite-clock memory correction kappa_tcl - kappa_markov.

    Equivalently the (w(s) - 1) part of the rate integral.  The sum
    kappa_markov + delta_kappa is the full nonnegative finite-sigma rate, and
    delta_kappa -> 0 in the ideal-clock limit.
    """
    if abs(q.env.rapidity) > 1e-14:
        raise ValueError("delta_kappa_memory requires rapidity = 0")
    return kappa_tcl(q) - kappa_markov(q.env, q.omega)


def odd_kernel_transform(sigma: float, Omega: float) -> complex:
    """Closed form of int ds sgn(s) w_sigma(s) exp(-i Omega s) for the Gaussian.

    Equals -i * 2 sqrt(2) * sigma * D(sigma Omega / sqrt(2)) with D the
    Dawson integral; this is the principal-value weight behind the Lamb shift.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    return -2j * math.sqrt(2.0) * sigma * dawson(sigma * Omega / math.sqrt(2.0))


def _lamb_raw(env: EnvironmentSpec, sigma: float, cutoff: float) -> float:
    rt2 = math.sqrt(2.0)
    f = lambda E: vacuum_spectral_density(env, E) * dawson(sigma * E / rt2)
    val = integrate_adaptive(f, env.mass_E, cutoff, _QUAD_TOL).value
    return 2.0 * rt2 * sigma * val


def lamb_shift_coefficient(
    env: EnvironmentSpec, kernel: ClockKernel, cutoff: float
) -> LambShiftCoefficient:
    """Lamb-shift coefficient 2 sqrt(2) sigma int_m^L j(E) D(sigma E/sqrt2) dE.

    The Dawson tail D(z) ~ 1/(2z) makes the integrand approach the constant
    g^2/(2 pi^2), so the raw value diverges linearly in the cutoff.  The
    divergence is a local counterterm; we expose it by fitting the slope over
    [cutoff/2, cutoff] and reporting the subtracted remainder alongside the
    raw value, rather than picking a renormalization scheme silently.
    """
    if not isinstance(kernel, GaussianKernel):
        raise ValueError("lamb_shift_coefficient requires a gaussian kernel")
    if cutoff < 10.0 * env.mass_E:
        raise ValueError("cutoff must be >= 10 * mass_E for a reliable tail fit")
    sigma = kernel.sigma
    raw = _lamb_raw(env, sigma, cutoff)
    grid = np.linspace(0.5 * cutoff, cutoff, 9)
    vals = np.array([_lamb_raw(env, sigma, L) for L in grid])
    slope, _intercept = np.polyfit(grid, vals, 1)
    return LambShiftCoefficient(
        raw_value=raw,
        cutoff=cutoff,
        subtracted_value=raw - slope * cutoff,
        fit_slope=float(slope),
    )


def assemble_kossakowski(queries, cross_phases) -> KossakowskiBlock:
    """Assemble the multi-coupling rate block F_a F_b^* kappa(omega).

    ``queries`` share one kernel and environment and contribute one
    Bohr-frequency sector each; ``cross_phases`` is the Gram matrix of
    coupling amplitudes (PSD by construction, enforced here).  The result is
    block diagonal across frequency sectors and PSD because each sector is a
    PSD matrix scaled by a nonnegative rate.
    """
    queries = list(queries)
    if not queries:
        raise ValueError("need at least one rate query")
    k0, e0 = queries[0].kernel, queries[0].env
    for q in queries[1:]:
        if q.kernel != k0 or q.env != e0:
            raise ValueError("all queries must share one kernel and environment")
    phases = np.asarray(cross_phases, dtype=complex)
    if phases.ndim != 2 or phases.shape[0] != phases.shape[1]:
        raise ValueError("cross_phases must be square")
    scale = max(np.abs(phases).max(), 1.0)
    if np.abs(phases - phases.conj().T).max() > 1e-12 * scale:
        raise ValueError("cross_phases must be Hermitian")
    eig_min = np.linalg.eigvalsh(phases).min()
    if eig_min < -1e-10 * max(np.real(np.trace(phases)), 1.0):
        raise PositivityError(
            f"cross_phases is not PSD (min eigenvalue {eig_min:.3e})"
        )
    n = phases.shape[0]
    blocks, labels = [], []
    for q in queries:
        blocks.append(phases * kappa_tcl(q))
        labels.extend((alpha, q.omega) for alpha in range(n))
    dim = n * len(queries)
    matrix = np.zeros((dim, dim), dtype=complex)
    for i, blk in enumerate(blocks):
        matrix[i * n : (i + 1) * n, i * n : (i + 1) * n] = blk
    return KossakowskiBlock.build(labels, matrix)
