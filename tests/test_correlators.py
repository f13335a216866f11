import math

import numpy as np
import pytest
from scipy import integrate

from relclock.correlators import (
    EnvironmentSpec,
    _spectral_ft,
    vacuum_spectral_density,
    wightman_timelike,
)
from relclock.kernels import GaussianKernel
from relclock.rates import kappa_markov_vacuum


def test_env_validation():
    with pytest.raises(ValueError):
        EnvironmentSpec(mass_E=0.0)
    with pytest.raises(ValueError):
        EnvironmentSpec(coupling_g=-1.0)
    with pytest.raises(ValueError):
        EnvironmentSpec(beta=-2.0)
    assert EnvironmentSpec().is_vacuum
    assert not EnvironmentSpec(beta=1.0).is_vacuum


class TestSpectralDensity:
    def test_threshold(self):
        env = EnvironmentSpec()
        assert vacuum_spectral_density(env, 1.0) == 0.0
        assert vacuum_spectral_density(env, 0.5) == 0.0

    def test_value(self):
        env = EnvironmentSpec()
        assert vacuum_spectral_density(env, 2.0) == pytest.approx(
            math.sqrt(3.0) / (4 * math.pi**2), rel=1e-14
        )

    def test_coupling_scaling(self):
        e1 = EnvironmentSpec(coupling_g=1.0)
        e2 = EnvironmentSpec(coupling_g=2.0)
        assert vacuum_spectral_density(e2, 2.0) == pytest.approx(
            4 * vacuum_spectral_density(e1, 2.0), rel=1e-14
        )

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            vacuum_spectral_density(EnvironmentSpec(), -1.0)

    def test_asymptotic_ratio(self):
        env = EnvironmentSpec(coupling_g=1.3)
        for E in (50.0, 200.0, 1000.0):
            ratio = vacuum_spectral_density(env, E) / (env.coupling_g**2 * E / (4 * math.pi**2))
            assert ratio == pytest.approx(1.0, abs=2.0 / E**2)

    def test_monte_carlo_measure_reduction(self):
        # brute 3d Monte-Carlo of int d3k/((2pi)^3 2E_k) f(E_k) against
        # int j(E) f(E) dE for a Gaussian probe f
        env = EnvironmentSpec()
        f = lambda E: np.exp(-0.5 * (E - 2.0) ** 2)
        rng = np.random.default_rng(314)
        K = 8.0
        n = 400_000
        k = rng.uniform(-K, K, size=(n, 3))
        E = np.sqrt(1.0 + np.sum(k * k, axis=1))
        vol = (2 * K) ** 3
        mc = vol / n * np.sum(f(E) / (2 * E)) / (2 * math.pi) ** 3
        E_grid = np.linspace(1.0, 12.0, 200_001)
        j = vacuum_spectral_density(env, E_grid)
        exact = np.trapezoid(j * f(E_grid), E_grid)
        assert mc == pytest.approx(exact, rel=0.01)


class TestWightman:
    def test_regulated_coincidence_value(self):
        # cutoff-dependent by construction, at the cutoff 40 m_E; oracle =
        # dense trapezoid of j up to it
        env = EnvironmentSpec()
        E = np.linspace(1.0, 40.0, 1_000_001)
        oracle = np.trapezoid(np.sqrt(E**2 - 1) / (4 * math.pi**2), E)
        val = wightman_timelike(env, GaussianKernel(1.0), 0.0)
        assert val.imag == 0.0
        assert val.real == pytest.approx(oracle, rel=1e-7)

    def test_hermiticity(self):
        env = EnvironmentSpec(beta=2.0)
        k = GaussianKernel(1.0)
        a = wightman_timelike(env, k, 1.3)
        b = wightman_timelike(env, k, -1.3)
        assert abs(a - np.conj(b)) <= 1e-10 * abs(a)

    def test_kernel_domination_at_large_s(self):
        # |C(s)| / w(s) is bounded by its value at s = 1 once s >= 3 sigma
        env = EnvironmentSpec()
        k = GaussianKernel(1.0)
        bound = abs(wightman_timelike(env, k, 1.0)) / k.evaluate(1.0)
        for s in (3.0, 4.0, 6.0):
            assert abs(wightman_timelike(env, k, s)) <= k.evaluate(s) * bound

    def test_unsmeared_rejected(self):
        with pytest.raises(ValueError):
            wightman_timelike(EnvironmentSpec(), None, 1.0)

    def test_positive_type_gram(self):
        # Wightman positivity along the clock direction: Gram of C(s_i - s_j)
        env = EnvironmentSpec()
        k = GaussianKernel(1.0)
        rng = np.random.default_rng(99)
        for _ in range(3):
            t = np.sort(rng.uniform(0, 6, size=12))
            M = np.array(
                [[wightman_timelike(env, k, float(a - b)) for b in t] for a in t]
            )
            eig = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
            assert eig.min() >= -1e-8 * np.real(np.diag(M)).max()

    def test_vacuum_limit_of_thermal(self):
        k = GaussianKernel(1.0)
        cold = wightman_timelike(EnvironmentSpec(beta=200.0), k, 0.7)
        vac = wightman_timelike(EnvironmentSpec(), k, 0.7)
        assert abs(cold - vac) <= 1e-6 * abs(vac)


def _qawo(env, s, cutoff):
    # QUADPACK's Fourier-weight rule in the energy, run far tighter than the
    # 1e-12 absolute / 1e-10 relative contract
    def j(E):
        return vacuum_spectral_density(env, E)

    def j_sym(E):
        return j(E) * (1.0 if env.is_vacuum else 1.0 + 2.0 / math.expm1(env.beta * E))

    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=2000)
    if s == 0.0:
        return complex(integrate.quad(j_sym, 1.0, cutoff, **kw)[0], 0.0)
    re = integrate.quad(j_sym, 1.0, cutoff, weight="cos", wvar=s, **kw)[0]
    im = -integrate.quad(j, 1.0, cutoff, weight="sin", wvar=s, **kw)[0]
    return complex(re, im)


class TestSpectralTransform:
    @pytest.mark.parametrize("env", [EnvironmentSpec(), EnvironmentSpec(beta=1.0)], ids=["vacuum", "beta1"])
    def test_against_qawo(self, env):
        for s in np.linspace(0.0, 10.0, 21):
            got, ref = _spectral_ft(env, float(s)), _qawo(env, float(s), 40.0)
            assert abs(got.real - ref.real) <= max(1e-12, 1e-10 * abs(ref.real))
            assert abs(got.imag - ref.imag) <= max(1e-12, 1e-10 * abs(ref.imag))

    def test_exactly_hermitian(self):
        for env in (EnvironmentSpec(), EnvironmentSpec(beta=2.0)):
            for s in (0.05, 0.7, 1.3, 4.0, 9.5):
                assert _spectral_ft(env, -s) == _spectral_ft(env, s).conjugate()

    @pytest.mark.parametrize("s", [100.0, 600.0])
    def test_many_periods(self, s):
        # hundreds of starting panels, each split about once
        for env in (EnvironmentSpec(), EnvironmentSpec(beta=1.0)):
            got, ref = _spectral_ft(env, s), _qawo(env, s, 40.0)
            assert abs(got.real - ref.real) <= max(1e-12, 1e-10 * abs(ref.real))
            assert abs(got.imag - ref.imag) <= max(1e-12, 1e-10 * abs(ref.imag))

    def test_period_limit_named(self):
        with pytest.raises(ValueError, match="periods"):
            _spectral_ft(EnvironmentSpec(), 700.0)


def test_spectral_density_array_form():
    env = EnvironmentSpec(coupling_g=1.3, mass_E=0.7)
    E = np.linspace(0.0, 9.0, 301)
    assert np.array_equal(vacuum_spectral_density(env, E), [vacuum_spectral_density(env, float(e)) for e in E])
    with pytest.raises(ValueError):
        vacuum_spectral_density(env, np.array([1.0, -0.5]))


def test_markov_rate_is_2pi_j():
    # 2 pi j(-w) equals the ideal-clock vacuum rate for all w below threshold
    env = EnvironmentSpec(coupling_g=1.7, mass_E=0.8)
    for om in (-1.0, -2.5, -7.0):
        assert kappa_markov_vacuum(env, om) == pytest.approx(
            2 * math.pi * vacuum_spectral_density(env, -om), rel=1e-12
        )
