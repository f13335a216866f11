"""Clock-smeared rate densities, Markov limits, Lamb shifts, Kossakowski blocks.

The central objects are the full Fourier transform of the smeared bath
correlator,

    kappa(omega) = int ds e^{-i omega s} w(s) G+(x, x - s n),

and its ideal-clock (Markov) limit.  In this sign convention emission sits at
negative omega: the vacuum Markov rate is g^2/(2 pi) sqrt(omega^2 - m^2) for
omega <= -m and exactly zero above.  A jump operator carrying label omega
satisfies [H_S, L] = omega L, so lowering operators carry negative labels and
are the ones damped in vacuum.

:func:`kappa_tcl` is the one finite-resolution rate, with one body per kernel
kind (a Gaussian's integral, or a sum over the spectral atoms); the vacuum is
beta = inf, n_B = 0.  Every quadrature, series and atom sum runs at unit
coupling, and each public value is scaled by g^2 once, exactly.

The vacuum rate integral is boost invariant (the measure d^3k/2E and the
product k.n both are), so ``env.rapidity`` does not change its value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlators import EnvironmentSpec, _unit_density, vacuum_spectral_density
from .kernels import (
    ClockKernel,
    GaussianKernel,
    PositivityError,
    kernel_spectrum,
    positivity_gram_check,
    psd_margin,
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
    "lamb_shift_coefficient",
    "odd_kernel_transform",
    "assemble_kossakowski",
]

_UNTILTED = 1e-14  # below this |rapidity| the clock is at rest in the bath


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
        _certify_kernel(self.kernel)


@functools.cache
def _certify_kernel(kernel: ClockKernel) -> None:
    """17-point Gram certificate of positive type, run once per kernel.

    Positive type is a property of the kernel alone, so a passing verdict is
    cached; the frozen kernels hash by value.  A failure raises and is not
    cached, so it raises on every query.
    """
    a = 4.0 * kernel.width
    verdict = positivity_gram_check(kernel, np.linspace(-a, a, 17))
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


@dataclass(frozen=True)
class LambShiftCoefficient:
    """Cutoff-dependent Lamb-shift coefficient and its linear-tail subtraction.

    ``raw_value`` grows linearly in the cutoff (a local counterterm);
    ``subtracted_value`` removes the linear part fitted over [cutoff/2, cutoff].
    Only the magnitude convention is fixed here; the Hermitian packaging of
    the underlying odd transform carries an overall sign convention.
    """

    raw_value: float
    subtracted_value: float
    fit_slope: float


def _erf_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """erf(hi) - erf(lo) over node arrays with hi >= lo, from ``math``, as
    numpy has no error function.  Where lo > 0 it is erfc(lo) - erfc(hi), so
    the heating side, where both are near 1, keeps its digits."""
    return np.fromiter(
        (math.erfc(a) - math.erfc(b) if a > 0.0 else math.erf(b) - math.erf(a)
         for a, b in zip(lo.tolist(), hi.tolist())),
        dtype=float, count=lo.size,
    )


def _on_shell(env: EnvironmentSpec, weight, lo: float, hi: float) -> float:
    """int_lo^hi j(E)/g^2 weight(E) dE for m <= lo < hi, integrated over the
    rapidity theta of E = m cosh(theta).

    The substitution turns the square-root edge of j at E = m into a smooth
    m^2 sinh(theta)^2 factor, which the adaptive rule resolves in a few
    rounds where bisection toward the edge would take about twenty.
    """
    m = env.mass_E

    def f(theta):
        E = m * np.cosh(theta)
        return _unit_density(m, E) * (m * np.sinh(theta)) * weight(E)

    return integrate_adaptive(f, math.acosh(lo / m), math.acosh(hi / m)).value


def _kappa_gaussian(env: EnvironmentSpec, sigma: float, omega: float) -> float:
    """kappa / g^2 of a Gaussian kernel: the emission integral, the absorption
    integral at finite beta, each where w_hat is above ``DAMPING_FLOOR``, or
    the angular integral of a tilted vacuum."""
    m, beta = env.mass_E, env.beta
    W = math.sqrt(-2.0 * math.log(DAMPING_FLOOR)) / sigma
    eta = abs(env.rapidity)
    if eta < _UNTILTED:
        total = 0.0
        lo, hi = max(m, -omega - W), -omega + W
        if hi > lo:
            total += _on_shell(
                env, lambda E: (1.0 + bose_occupation(E, beta)) * gaussian_ft(sigma, omega + E), lo, hi
            )
        lo, hi = max(m, omega - W), omega + W
        if not env.is_vacuum and hi > lo:
            total += _on_shell(env, lambda E: bose_occupation(E, beta) * gaussian_ft(sigma, omega - E), lo, hi)
        return max(total, 0.0)

    # tilted normal: reduce d^3k to (theta, cos) with the angular integral in
    # closed form; E = m cosh(theta), k.n spans A -+ B = omega + m cosh(theta -+
    # eta), the integrand is m sinh(theta)/(8 pi sinh(eta)) [erf(s(A + B)) -
    # erf(s(A - B))], and u = theta - eta keeps A - B exact at any rapidity
    hi_arg = (W - omega) / m
    if hi_arg <= 1.0:  # otherwise u_max > 0, and u_lo below lies under it
        return 0.0
    u_max = math.acosh(hi_arg)
    lo_arg = (-W - omega) / m
    u_min = math.acosh(lo_arg) if lo_arg > 1.0 else 0.0
    u_lo = max(-eta, u_min - 2.0 * eta, -u_max)
    s, sh = sigma / math.sqrt(2.0), math.sinh(eta)
    ratio_cut = 1e-4 / (sigma * m * sh) / sh  # sinh(theta)/sinh(eta) where sigma B = 1e-4

    def f(u):
        # sinh(theta)/sinh(eta), theta = u + eta > 0 as Kronrod nodes are interior
        ratio = np.exp(u) * np.expm1(-2.0 * (u + eta)) / math.expm1(-2.0 * eta)
        a_minus = omega + m * np.cosh(u)
        a_plus = omega + m * np.cosh(np.minimum(u + 2.0 * eta, u_max))  # capped where erf is 1.0
        small = ratio < ratio_cut  # there the erf difference is its series in h = sB about c = sA
        B = m * sh * (np.where(small, ratio, 0.0) * sh)
        c, h = s * (a_minus + B), s * B
        series = 4.0 / math.sqrt(math.pi) * h * np.exp(-c * c) * (1.0 + h * h * (2.0 * c * c - 1.0) / 3.0)
        diff = np.where(small, series, _erf_diff(s * a_minus, s * a_plus))
        return m / (8.0 * math.pi) * ratio * diff

    return max(integrate_adaptive(f, u_lo, u_max).value, 0.0)


def _kappa_atomic(env: EnvironmentSpec, kernel: ClockKernel, omega: float) -> float:
    """kappa / g^2 of a kernel with an atomic spectrum: an exact sum.

    An atom at frequency f emits at E = f - omega and absorbs at
    E = omega - f wherever E >= m_E.  The terms are added one by one, atom by
    atom and emission first, so the sum does not depend on numpy's summation
    order.
    """
    atoms = kernel_spectrum(kernel)
    freq, weight = atoms[:, 0], atoms[:, 1]
    m = env.mass_E
    E = np.stack((freq - omega, omega - freq), axis=1)
    on_shell = E >= m
    E = np.where(on_shell, E, m)
    occupation = bose_occupation(E, env.beta)
    occupation[:, 0] += 1.0
    terms = np.where(on_shell, weight[:, None] * occupation * _unit_density(m, E), 0.0)
    total = 0.0
    for term in terms.ravel().tolist():
        total += term
    return total


def kappa_tcl(q: RateQuery) -> float:
    """Finite-resolution rate density kappa(omega) >= 0, vacuum or thermal.

    kappa(omega) = int j(E) [(1+n_B) w_hat(omega+E) + n_B w_hat(omega-E)] dE.
    A boosted vacuum keeps the zero rapidity value (module docstring); the
    boosted thermal case needs a Doppler-shifted occupation inside the
    angular integral and is not implemented.
    """
    env = q.env
    if not env.is_vacuum and abs(env.rapidity) >= _UNTILTED:
        raise NotImplementedError(
            "boosted thermal rates (rapidity != 0 with finite beta) are unsupported"
        )
    if isinstance(q.kernel, GaussianKernel):
        unit = _kappa_gaussian(env, q.kernel.sigma, q.omega)
    else:
        unit = _kappa_atomic(env, q.kernel, q.omega)
    return env.coupling_g**2 * unit


def kappa_tcl_vacuum(q: RateQuery) -> float:
    """:func:`kappa_tcl` of a vacuum environment; a thermal one is refused."""
    if not q.env.is_vacuum:
        raise ValueError("thermal environment: use kappa_tcl_kms")
    return kappa_tcl(q)


def kappa_tcl_kms(q: RateQuery) -> float:
    """:func:`kappa_tcl` with the clock aligned with the medium; it reduces
    to the vacuum rate as beta -> inf."""
    return kappa_tcl(q)


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
    K(w) = exp(-beta w) K(-w) holds exactly for |w| >= m.  The vacuum is
    :func:`kappa_markov_vacuum`.
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
    return kappa_markov_kms(env, omega)


def odd_kernel_transform(sigma: float, Omega: float) -> complex:
    """Closed form of int ds sgn(s) w_sigma(s) exp(-i Omega s) for the Gaussian.

    Equals -i * 2 sqrt(2) * sigma * D(sigma Omega / sqrt(2)) with D the
    Dawson integral; this is the principal-value weight behind the Lamb shift.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    return -2j * math.sqrt(2.0) * sigma * dawson(sigma * Omega / math.sqrt(2.0))


def _lamb_raw(env: EnvironmentSpec, sigma: float, cutoff: float) -> float:
    """The Lamb-shift coefficient at unit coupling, up to ``cutoff``."""
    return _on_shell(env, lambda E: -odd_kernel_transform(sigma, E).imag, env.mass_E, cutoff)


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
    sigma, g2 = kernel.sigma, env.coupling_g**2
    grid = np.linspace(0.5 * cutoff, cutoff, 9)  # ends exactly at the cutoff
    vals = np.array([_lamb_raw(env, sigma, L) for L in grid])
    raw = float(vals[-1])
    slope, _intercept = np.polyfit(grid, vals, 1)
    return LambShiftCoefficient(
        raw_value=g2 * raw,
        subtracted_value=g2 * (raw - slope * cutoff),
        fit_slope=g2 * float(slope),
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
    psd_margin(phases, "cross_phases")
    n = phases.shape[0]
    blocks, labels = [], []
    for q in queries:
        blocks.append(phases * kappa_tcl(q))
        labels.extend((alpha, q.omega) for alpha in range(n))
    dim = n * len(queries)
    matrix = np.zeros((dim, dim), dtype=complex)
    for i, blk in enumerate(blocks):
        matrix[i * n : (i + 1) * n, i * n : (i + 1) * n] = blk
    return KossakowskiBlock(labels=tuple(labels), matrix=matrix,
                            psd_margin=psd_margin(matrix, "Kossakowski block"))
