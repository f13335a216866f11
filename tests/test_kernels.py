import math

import numpy as np
import pytest
from scipy import integrate

from relclock.kernels import (
    CoherentReadoutKernel,
    GaussianKernel,
    PositivityError,
    TabulatedKernel,
    _Pchip,
    kernel_spectrum,
    positivity_gram_check,
)


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
        spec = kernel_spectrum(GaussianKernel(1.0))
        assert spec.density(0.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
        assert spec.atoms.size == 0

    def test_coherent_atom_weight(self):
        spec = kernel_spectrum(CoherentReadoutKernel(R=1.0, omega_C=1.0))
        w_plus1 = [w for f, w in spec.atoms if abs(f - 1.0) < 1e-12]
        assert len(w_plus1) == 1
        assert w_plus1[0] == pytest.approx(math.pi * math.exp(-1.0), rel=1e-12)

    def test_static_clock_limit(self):
        spec = kernel_spectrum(CoherentReadoutKernel(R=0.0, omega_C=1.0))
        assert spec.atoms.shape[0] == 1
        assert spec.atoms[0, 0] == 0.0
        assert spec.atoms[0, 1] == pytest.approx(2 * math.pi, rel=1e-12)

    def test_total_mass_is_2pi_w0(self):
        for k in (GaussianKernel(0.7), CoherentReadoutKernel(R=1.5, omega_C=2.0)):
            assert kernel_spectrum(k).total_mass() == pytest.approx(
                2 * math.pi * k.evaluate(0.0), abs=1e-6
            )

    def test_nonnegative_weights(self):
        spec = kernel_spectrum(CoherentReadoutKernel(R=2.0, omega_C=1.0))
        assert np.all(spec.atoms[:, 1] >= 0.0)

    def test_parseval_against_time_domain(self):
        # <w, g> in time equals <w_hat, g_hat> / (2 pi) for a Gaussian probe
        s0, g0 = 0.8, 1.0  # probe exp(-s^2/(2 s0^2))
        ghat = lambda O: math.sqrt(2 * math.pi) * s0 * math.exp(-0.5 * (s0 * O) ** 2)
        for k in (GaussianKernel(1.0), CoherentReadoutKernel(R=1.0, omega_C=1.3)):
            time_side = integrate.quad(
                lambda s: k.evaluate(s) * math.exp(-0.5 * (s / s0) ** 2),
                -40,
                40,
                limit=400,
            )[0]
            spec = kernel_spectrum(k)
            freq_side = sum(w * ghat(f) for f, w in spec.atoms)
            if spec.density is not None:
                L = spec.density_halfwidth
                freq_side += integrate.quad(
                    lambda O: spec.density(O) * ghat(O), -L, L, limit=400
                )[0]
            assert freq_side / (2 * math.pi) == pytest.approx(time_side, abs=1e-6)


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
        s = np.linspace(-2, 2, 41)
        k = TabulatedKernel(np.column_stack([s, 1 - np.abs(s) / 2]))
        times = np.linspace(-1, 1, 16)
        assert positivity_gram_check(k, times)

    def test_cosine_mixture_positive(self):
        s = np.linspace(-20, 20, 4001)
        w = (np.cos(s) + 0.5 * np.cos(3 * s)) / 1.5
        k = TabulatedKernel(np.column_stack([s, w]))
        # times on multiples of the table spacing: differences hit table
        # nodes exactly, so the check sees the kernel, not pchip wiggle
        times = 0.17 * np.arange(24)
        assert positivity_gram_check(k, times)

    def test_parabola_violation(self):
        s = np.linspace(-1, 1, 201)
        k = TabulatedKernel(np.column_stack([s, 1 - s**2]))
        verdict = positivity_gram_check(k, np.linspace(-0.5, 0.5, 32))
        assert not verdict.positive_type
        assert verdict.min_eigenvalue < -1e-10

    def test_needs_two_times(self):
        with pytest.raises(ValueError):
            positivity_gram_check(GaussianKernel(1.0), [0.0])


class TestTabulated:
    def test_out_of_range(self):
        k = TabulatedKernel([(-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)])
        with pytest.raises(ValueError):
            k.evaluate(2.0)

    def test_symmetrization(self):
        # asymmetric noise in the table is averaged out
        k = TabulatedKernel([(-1.0, 0.4), (-0.5, 0.8), (0.0, 1.0), (0.5, 0.9), (1.0, 0.6)])
        assert k.evaluate(0.7) == pytest.approx(k.evaluate(-0.7), abs=1e-12)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("s,w\n-2.0,0.0\n-1.0,0.5\n0.0,1.0\n1.0,0.5\n2.0,0.0\n")
        k = TabulatedKernel.from_csv(path)
        assert k.evaluate(0.0) == pytest.approx(1.0)
        assert k.evaluate(1.0) == pytest.approx(0.5)
        path2 = tmp_path / "noheader.csv"
        path2.write_text("-2.0,0.0\n-1.0,0.5\n0.0,1.0\n1.0,0.5\n2.0,0.0\n")
        k2 = TabulatedKernel.from_csv(path2)
        assert k2.evaluate(0.5) == pytest.approx(k.evaluate(0.5))

    def test_triangle_spectrum_nonnegative(self):
        s = np.linspace(-2, 2, 81)
        k = TabulatedKernel(np.column_stack([s, 1 - np.abs(s) / 2]))
        spec = kernel_spectrum(k)
        assert np.all(spec.atoms[:, 1] >= 0.0)
        # Fourier inversion, up to the discrete transform's truncation
        assert spec.atoms[:, 1].sum() == pytest.approx(2 * math.pi, abs=5e-3)

    def test_parabola_spectrum_raises(self):
        s = np.linspace(-1, 1, 201)
        k = TabulatedKernel(np.column_stack([s, 1 - s**2]))
        with pytest.raises(PositivityError):
            kernel_spectrum(k)


_UNEVEN = np.cumsum(np.random.default_rng(3).uniform(0.01, 1.0, 20))


class TestPchip:
    @pytest.mark.parametrize("x, y", [
        (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9) ** 3),
        (np.linspace(-3.0, 3.0, 13), np.sin(2.0 * np.linspace(-3.0, 3.0, 13))),
        (np.arange(8.0), np.array([0.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 3.0])),
        (np.array([0.0, 2.0]), np.array([1.0, -3.0])),
        (np.array([-1.0, 0.5, 4.0]), np.array([2.0, -1.0, 5.0])),
        (_UNEVEN, np.random.default_rng(4).normal(size=20)),
    ], ids=["monotone", "non-monotone", "flat-segments", "two-point", "three-point", "uneven"])
    def test_matches_scipy(self, x, y):
        from scipy.interpolate import PchipInterpolator

        q = np.linspace(x[0], x[-1], 1001)
        expected = PchipInterpolator(x, y)(q)
        got = _Pchip(x, y)(q)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(_Pchip(x, y)(x), y)

    def test_monotone_data_stay_monotone(self):
        x = np.array([0.0, 0.1, 0.15, 1.0, 3.0, 3.2])
        y = np.array([0.0, 0.0, 0.5, 0.6, 3.0, 3.0])
        assert (np.diff(_Pchip(x, y)(np.linspace(0.0, 3.2, 2001))) >= 0.0).all()

    @pytest.mark.parametrize("x, y", [
        ([0.0], [1.0]),
        ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
        ([1.0, 0.0], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, math.nan]),
    ])
    def test_bad_nodes_rejected(self, x, y):
        with pytest.raises(ValueError):
            _Pchip(x, y)

    def test_outside_nodes_rejected(self):
        p = _Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="outside"):
            p(2.5)
