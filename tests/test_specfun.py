import math

import numpy as np
import pytest
from scipy import integrate, special

from relclock.specfun import (
    AccuracyError,
    QuadratureResult,
    bose_occupation,
    dawson,
    gaussian_ft,
    integrate_adaptive,
)

# Dawson global maximum, frozen from a 30-digit quadrature of the defining
# integral exp(-z^2) * int_0^z exp(t^2) dt (mpmath, dps=30).
DAWSON_MAX_ARG = 0.9241388730
DAWSON_MAX_VAL = 0.54104422463518170


class TestDawson:
    def test_odd_at_origin(self):
        assert dawson(0.0) == 0.0

    def test_global_maximum(self):
        assert dawson(DAWSON_MAX_ARG) == pytest.approx(DAWSON_MAX_VAL, abs=1e-9)

    def test_asymptotic_tail(self):
        # 3-term series 1/(2z) + 1/(4 z^3) + 3/(8 z^5)
        z = 10.0
        series = 1 / (2 * z) + 1 / (4 * z**3) + 3 / (8 * z**5)
        assert dawson(z) == pytest.approx(series, abs=1e-6)

    def test_oddness(self):
        for z in (0.3, 1.7, 4.2, 9.0):
            assert dawson(-z) == -dawson(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dawson(math.nan)
        with pytest.raises(ValueError):
            dawson(math.inf)

    def test_ode_identity(self):
        # D'(z) = 1 - 2 z D(z), derivative by central difference
        rng = np.random.default_rng(2024)
        h = 1e-5
        for z in rng.uniform(-10, 10, size=100):
            deriv = (dawson(z + h) - dawson(z - h)) / (2 * h)
            assert abs(deriv - (1 - 2 * z * dawson(z))) <= 1e-10


class TestBoseOccupation:
    def test_ln2(self):
        assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum(self):
        assert bose_occupation(1.0, math.inf) == 0.0

    def test_unit(self):
        assert bose_occupation(1.0, 1.0) == pytest.approx(1 / (math.e - 1), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, -2.0)

    def test_kms_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            E = rng.uniform(0.1, 5.0)
            beta = rng.uniform(0.1, 5.0)
            n = bose_occupation(E, beta)
            assert abs((1 + n) - math.exp(beta * E) * n) <= 1e-12 * (1 + n)

    def test_monotone_in_beta_E(self):
        vals = [bose_occupation(1.0, b) for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(vals[i] > vals[i + 1] for i in range(3))


class TestGaussianFT:
    def test_normalization(self):
        assert gaussian_ft(1.0, 0.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)

    def test_value_against_quadrature(self):
        # independent oracle: direct Fourier integral of the kernel
        oracle = integrate.quad(
            lambda s: math.exp(-s * s / 8.0) * math.cos(s), -60, 60, limit=400
        )[0]
        assert gaussian_ft(2.0, 1.0) == pytest.approx(oracle, rel=1e-10)

    def test_underflow_to_zero(self):
        assert gaussian_ft(5.0, 10.0 + 1e4) == 0.0

    def test_even(self):
        assert gaussian_ft(1.3, 2.0) == gaussian_ft(1.3, -2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_ft(0.0, 1.0)

    def test_parseval_mass(self):
        # int w_hat dOmega = 2 pi w(0) = 2 pi
        val = integrate_adaptive(lambda O: gaussian_ft(1.0, O), -20.0, 20.0)
        assert val.value == pytest.approx(2 * math.pi, abs=1e-8)


class TestIntegrateAdaptive:
    def test_exponential(self):
        res = integrate_adaptive(lambda x: np.exp(-x), 0.0, 40.0)
        assert res.value == pytest.approx(-math.expm1(-40.0), abs=1e-10)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 1

    def test_polynomial(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_against_trapezoid_oracle(self):
        # int_1^15 sqrt(E^2-1) exp(-(E-2)^2/2) dE (integrand < 1e-38 beyond);
        # oracle: dense trapezoid
        E = np.linspace(1.0, 15.0, 2_000_001)
        oracle = np.trapezoid(np.sqrt(E**2 - 1) * np.exp(-0.5 * (E - 2) ** 2), E)
        res = integrate_adaptive(
            lambda x: np.sqrt(np.maximum(x * x - 1, 0.0)) * np.exp(-0.5 * (x - 2) ** 2), 1.0, 15.0
        )
        assert res.value == pytest.approx(oracle, rel=1e-8)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            QuadratureResult(value=1.0, error_estimate=-1.0, evaluations=3)
        with pytest.raises(ValueError):
            QuadratureResult(value=1.0, error_estimate=0.0, evaluations=0)

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(AccuracyError) as exc:
            # highly oscillatory integrand defeats the subdivision budget
            integrate_adaptive(lambda x: np.cos(1e6 * x * x), 0.0, 10.0)
        assert exc.value.best_estimate is not None


class TestDawsonOracle:
    # scipy's Faddeeva-based dawsn is the oracle
    @pytest.mark.parametrize("z", [np.linspace(-30.0, 30.0, 60_001), np.geomspace(1e-8, 1e3, 60_001)])
    def test_against_dawsn(self, z):
        ref = special.dawsn(z)
        assert np.all(np.abs(dawson(z) - ref) <= 1e-12 * np.abs(ref))

    def test_zero(self):
        assert dawson(0.0) == 0.0
        assert np.array_equal(dawson(np.zeros(3)), np.zeros(3))

    def test_exactly_odd_on_arrays(self):
        z = np.concatenate((np.geomspace(1e-8, 1e3, 10_001), np.linspace(0.0, 30.0, 10_001)))
        assert np.array_equal(dawson(-z), -dawson(z))

    def test_array_matches_scalar_calls(self):
        z = np.random.default_rng(11).uniform(-20.0, 20.0, 200)
        assert np.array_equal(dawson(z), [dawson(float(x)) for x in z])

    def test_nonfinite_element_rejected(self):
        with pytest.raises(ValueError):
            dawson(np.array([0.5, math.nan]))


class TestArrayForms:
    # one formula serves a float and an array: elementwise identical
    def test_bose_occupation(self):
        E = np.concatenate((np.geomspace(1e-3, 800.0, 300), [36.0, 36.0000001]))
        for beta in (0.5, 1.0, math.inf):
            assert np.array_equal(bose_occupation(E, beta), [bose_occupation(float(e), beta) for e in E])
        with pytest.raises(ValueError):
            bose_occupation(np.array([1.0, 0.0]), 1.0)

    def test_gaussian_ft(self):
        O = np.linspace(-50.0, 50.0, 401)
        assert np.array_equal(gaussian_ft(1.7, O), [gaussian_ft(1.7, float(o)) for o in O])

    def test_scalar_in_scalar_out(self):
        for value in (dawson(0.3), bose_occupation(1.0, 1.0), bose_occupation(1.0, math.inf),
                      gaussian_ft(1.0, 0.5)):
            assert np.ndim(value) == 0 and isinstance(value, float)


class TestQuadratureContract:
    def test_integrand_sees_1d_node_arrays(self):
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return np.exp(-x)

        res = integrate_adaptive(f, 0.0, 3.0)
        assert shapes and all(len(sh) == 1 and sh[0] % 15 == 0 for sh in shapes)
        assert res.evaluations == sum(sh[0] for sh in shapes)

    def test_reversed_limits(self):
        res = integrate_adaptive(lambda x: np.exp(-x), 2.0, 0.0)
        assert res.value == pytest.approx(-(1.0 - math.exp(-2.0)), rel=1e-12)
        assert res.value == pytest.approx(integrate.quad(lambda x: math.exp(-x), 2.0, 0.0)[0], rel=1e-12)

    def test_empty_range(self):
        res = integrate_adaptive(lambda x: np.exp(-x), 1.5, 1.5)
        assert res.value == 0.0 and res.error_estimate == 0.0

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_non_finite_limits_refused(self, a, b):
        with pytest.raises(ValueError, match="needs finite limits"):
            integrate_adaptive(np.exp, a, b)

    def test_nonconvergence_is_bounded(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.cos(1e6 * x * x)

        with pytest.raises(AccuracyError) as exc:
            integrate_adaptive(f, 0.0, 10.0)
        assert math.isfinite(exc.value.best_estimate) and exc.value.error_estimate > 1e-10
        # never more than the 4 starting panels and 2 * 4 + 200 splits
        assert sum(calls) <= 15 * (4 + 2 * (8 + 200))

    def test_against_quadpack(self):
        # smooth, peaked, oscillatory and endpoint-singular integrands
        cases = [
            (lambda x: np.exp(-0.5 * (x - 2.0) ** 2 / 0.01), 0.0, 5.0),
            (lambda x: np.cos(30.0 * x) * np.exp(-x), 0.0, 4.0),
            (lambda x: np.sqrt(x), 0.0, 1.0),
            (lambda x: np.log(x), 0.0, 1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1e3),
        ]
        for f, a, b in cases:
            res = integrate_adaptive(f, a, b)
            ref = integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b,
                                 epsabs=1e-13, epsrel=1e-13, limit=500)[0]
            assert abs(res.value - ref) <= max(1e-10, 1e-10 * abs(ref))
            assert res.error_estimate <= max(1e-10, 1e-10 * abs(res.value))
