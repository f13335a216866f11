import math

import numpy as np
import pytest
from scipy import integrate

from conftest import ClosedFormKernel
from relclock.kernels import (
    SERIES_TAIL,
    CoherentReadoutKernel,
    GaussianKernel,
    kernel_spectrum,
    positivity_gram_check,
)
from relclock.specfun import gaussian_ft


class TestEval:
    def test_gaussian_at_zero(self):
        assert GaussianKernel(1.0).evaluate(0.0) == 1.0

    def test_gaussian_value(self):
        assert GaussianKernel(2.0).evaluate(2.0) == pytest.approx(
            math.exp(-0.5), rel=1e-14
        )

    def test_coherent_at_zero(self):
        k = CoherentReadoutKernel(R=1.0, omega_C=1.0)
        assert k.evaluate(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_evenness(self):
        for k in (GaussianKernel(1.3), CoherentReadoutKernel(R=2.0, omega_C=0.7)):
            for s in (0.3, 1.1, 4.0):
                assert k.evaluate(s) == pytest.approx(k.evaluate(-s), abs=1e-12)

    def test_range(self):
        k = CoherentReadoutKernel(R=3.0, omega_C=1.0)
        for s in np.linspace(-10, 10, 101):
            assert -1.0 - 1e-12 <= k.evaluate(s) <= 1.0 + 1e-12

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianKernel(-1.0)
        with pytest.raises(ValueError):
            CoherentReadoutKernel(R=1.0, omega_C=0.0)


class TestSpectrum:
    def test_gaussian_density_at_zero(self):
        # a Gaussian kernel has no atoms: its spectrum is the density
        # gaussian_ft, whose value at 0 is the kernel's time integral
        with pytest.raises(NotImplementedError):
            kernel_spectrum(GaussianKernel(1.0))
        area = integrate.quad(GaussianKernel(1.0).evaluate, -40, 40, epsabs=1e-14)[0]
        assert gaussian_ft(1.0, 0.0) == pytest.approx(area, rel=1e-14)
        assert area == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)

    def test_coherent_atom_weight(self):
        atoms = kernel_spectrum(CoherentReadoutKernel(R=1.0, omega_C=1.0))
        w_plus1 = [w for f, w in atoms if abs(f - 1.0) < 1e-12]
        assert len(w_plus1) == 1
        assert w_plus1[0] == pytest.approx(math.pi * math.exp(-1.0), rel=1e-12)

    def test_static_clock_limit(self):
        atoms = kernel_spectrum(CoherentReadoutKernel(R=0.0, omega_C=1.0))
        assert atoms.shape == (1, 2)
        assert atoms[0, 0] == 0.0
        assert atoms[0, 1] == pytest.approx(2 * math.pi, rel=1e-12)

    def test_total_mass_is_2pi_w0(self):
        # Fourier inversion at s = 0: the atoms of a coherent kernel, and the
        # density of a Gaussian one, carry 2 pi w(0)
        for k in (CoherentReadoutKernel(R=1.5, omega_C=2.0), CoherentReadoutKernel(R=3.0, omega_C=0.7)):
            assert kernel_spectrum(k)[:, 1].sum() == pytest.approx(2 * math.pi * k.evaluate(0.0), rel=1e-12)
        k = GaussianKernel(0.7)
        mass = integrate.quad(lambda O: gaussian_ft(k.sigma, O), -14.0 / k.sigma, 14.0 / k.sigma)[0]
        assert mass == pytest.approx(2 * math.pi * k.evaluate(0.0), abs=1e-6)

    def test_nonnegative_weights(self):
        atoms = kernel_spectrum(CoherentReadoutKernel(R=2.0, omega_C=1.0))
        assert np.all(atoms[:, 1] >= 0.0)

    def test_parseval_against_time_domain(self):
        # <w, g> in time equals <w_hat, g_hat> / (2 pi) for a Gaussian probe:
        # w_hat is gaussian_ft for the Gaussian kernel, the atoms otherwise
        s0 = 0.8  # probe exp(-s^2/(2 s0^2))
        ghat = lambda O: math.sqrt(2 * math.pi) * s0 * math.exp(-0.5 * (s0 * O) ** 2)
        for k in (GaussianKernel(1.0), CoherentReadoutKernel(R=1.0, omega_C=1.3)):
            time_side = integrate.quad(
                lambda s: k.evaluate(s) * math.exp(-0.5 * (s / s0) ** 2),
                -40,
                40,
                limit=400,
            )[0]
            if isinstance(k, GaussianKernel):
                L = 14.0 / k.sigma
                freq_side = integrate.quad(lambda O: gaussian_ft(k.sigma, O) * ghat(O), -L, L, limit=400)[0]
            else:
                freq_side = sum(w * ghat(f) for f, w in kernel_spectrum(k))
            assert freq_side / (2 * math.pi) == pytest.approx(time_side, abs=1e-6)


class TestCoherentWeights:
    @pytest.mark.parametrize("R", [0.0, 0.5, 3.0, 10.0])
    def test_one_pass_matches_two_passes(self, R):
        # the weights equal those of the least order N whose dropped Poisson
        # tail is below SERIES_TAIL, found by a first pass, plus the term
        # N + 1, built by a second pass
        lam = R * R
        n = 0
        if lam:
            term = cdf = math.exp(-lam)
            while 1.0 - cdf >= SERIES_TAIL:
                n += 1
                term *= lam / n
                cdf += term
            n += 1
        expected = np.empty(n + 1)
        expected[0] = math.exp(-lam)
        for k in range(1, n + 1):
            expected[k] = expected[k - 1] * lam / k
        got = CoherentReadoutKernel(R=R, omega_C=1.0)._weights
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestCoherentGaussianLimit:
    def test_small_s_gaussian_behavior(self):
        # near s = 0 the readout kernel matches exp(-R^2 wc^2 s^2 / 2); the
        # phase factor cos(R^2 sin(wc s)) limits the window to s << 1/(R^2 wc)
        for R in (5.0, 8.0):
            k = CoherentReadoutKernel(R=R, omega_C=1.0)
            for s in np.linspace(0, 0.04 / R**2, 9):
                gauss = math.exp(-0.5 * R**2 * s**2)
                assert abs(k.evaluate(s) - gauss) <= 1e-3

    def test_curvature_is_poisson_second_moment(self):
        # -w''(0) = wc^2 * E[n^2] = wc^2 (R^2 + R^4) for Poisson weights; the
        # R^4 piece is the phase factor cos(R^2 sin(wc s)), on top of the
        # Gaussian envelope's R^2
        R, wc = 6.0, 1.4
        k = CoherentReadoutKernel(R=R, omega_C=wc)
        h = 1e-5
        second = (k.evaluate(h) - 2.0 + k.evaluate(-h)) / h**2
        assert -second == pytest.approx(wc**2 * (R**2 + R**4), rel=1e-4)


class TestGramCheck:
    def test_gaussian_random_times(self):
        rng = np.random.default_rng(11)
        times = rng.uniform(-10, 10, size=32)
        assert positivity_gram_check(GaussianKernel(1.0), times)

    def test_builtin_kernels_random_grids(self):
        rng = np.random.default_rng(5)
        kernels = [GaussianKernel(0.5), GaussianKernel(3.0),
                   CoherentReadoutKernel(R=1.0, omega_C=1.0),
                   CoherentReadoutKernel(R=4.0, omega_C=0.5)]
        for trial in range(100):
            k = kernels[trial % len(kernels)]
            n = rng.integers(4, 65)
            times = rng.uniform(-8, 8, size=n)
            verdict = positivity_gram_check(k, times)
            assert verdict.positive_type, verdict

    def test_triangle_positive(self):
        # the triangle's transform is a squared sinc, so it is positive type
        k = ClosedFormKernel(lambda s: max(1 - abs(s) / 2, 0.0), 1.0)
        times = np.linspace(-1, 1, 16)
        assert positivity_gram_check(k, times)

    def test_cosine_mixture_positive(self):
        k = ClosedFormKernel(lambda s: (math.cos(s) + 0.5 * math.cos(3 * s)) / 1.5, 1.0)
        times = 0.17 * np.arange(24)
        assert positivity_gram_check(k, times)

    def test_parabola_violation(self):
        k = ClosedFormKernel(lambda s: 1 - s**2, 0.25)
        verdict = positivity_gram_check(k, np.linspace(-0.5, 0.5, 32))
        assert not verdict.positive_type
        assert verdict.min_eigenvalue < -1e-10

    def test_needs_two_times(self):
        with pytest.raises(ValueError):
            positivity_gram_check(GaussianKernel(1.0), [0.0])

