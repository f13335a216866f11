import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from relclock.correlators import EnvironmentSpec, vacuum_spectral_density
from relclock.kernels import CoherentReadoutKernel, GaussianKernel, PositivityError, TabulatedKernel
from relclock.rates import (
    KossakowskiBlock,
    RateQuery,
    assemble_kossakowski,
    delta_kappa_memory,
    kappa_markov_kms,
    kappa_markov_vacuum,
    kappa_tcl,
    kappa_tcl_kms,
    kappa_tcl_vacuum,
    lamb_shift_coefficient,
    odd_kernel_transform,
)
from relclock.specfun import bose_occupation, gaussian_ft

VAC = EnvironmentSpec(mass_E=1.0, coupling_g=1.0)


def q(omega, sigma=5.0, env=VAC):
    return RateQuery(omega=omega, kernel=GaussianKernel(sigma), env=env)


class TestMarkovVacuum:
    def test_closed_form(self):
        assert kappa_markov_vacuum(VAC, -2.0) == pytest.approx(
            math.sqrt(3.0) / (2 * math.pi), rel=1e-13
        )

    def test_threshold_and_heating_zero(self):
        assert kappa_markov_vacuum(VAC, -1.0) == 0.0
        assert kappa_markov_vacuum(VAC, 0.5) == 0.0
        assert kappa_markov_vacuum(VAC, -0.999) == 0.0


class TestTclVacuum:
    def test_markov_limit(self):
        km = math.sqrt(8.0) / (2 * math.pi)
        assert kappa_tcl_vacuum(q(-3.0, sigma=10.0)) == pytest.approx(km, rel=1e-3)

    def test_heating_suppressed(self):
        hot = kappa_tcl_vacuum(q(1.0, sigma=5.0))
        cold = kappa_tcl_vacuum(q(-3.0, sigma=5.0))
        assert hot <= 1e-10 * cold

    def test_coupling_off(self):
        env = replace(VAC, coupling_g=0.0)
        assert kappa_tcl_vacuum(q(-2.0, sigma=1.0, env=env)) == 0.0

    def test_thermal_env_rejected(self):
        with pytest.raises(ValueError):
            kappa_tcl_vacuum(q(-2.0, env=EnvironmentSpec(beta=1.0)))

    def test_angular_reduction_against_2d_oracle(self):
        # brute 2d trapezoid over (E, cos theta) of the boosted spectral
        # argument, versus the closed-form angular integral
        env = replace(VAC, rapidity=0.3)
        sigma, omega = 2.0, -3.0
        E = np.linspace(1.0, 12.0, 4001)[:, None]
        mu = np.linspace(-1.0, 1.0, 801)[None, :]
        k = np.sqrt(E**2 - 1.0)
        arg = omega + E * math.cosh(0.3) - k * mu * math.sinh(0.3)
        what = math.sqrt(2 * math.pi) * sigma * np.exp(-0.5 * sigma**2 * arg**2)
        j = np.sqrt(E**2 - 1.0) / (4 * math.pi**2)
        inner = np.trapezoid(0.5 * j * what, mu, axis=1)
        oracle = np.trapezoid(inner, E[:, 0])
        assert kappa_tcl_vacuum(q(omega, sigma=sigma, env=env)) == pytest.approx(
            oracle, rel=1e-6
        )

    def test_boost_invariance(self):
        # the scalar vacuum rate integral is frame independent: the measure
        # d3k/2E and k.n are both invariant
        base = kappa_tcl_vacuum(q(-3.0, sigma=2.0))
        for eta in (0.3, 0.8):
            env = replace(VAC, rapidity=eta)
            assert kappa_tcl_vacuum(q(-3.0, sigma=2.0, env=env)) == pytest.approx(
                base, rel=1e-8
            )

    def test_coherent_kernel_atomic_rate(self):
        # kappa(w) = sum_n weight_n j(Omega_n - w), exact, no quadrature
        ker = CoherentReadoutKernel(R=1.0, omega_C=1.0)
        query = RateQuery(omega=-3.0, kernel=ker, env=VAC)
        spec = ker.spectrum()
        expected = sum(
            w * vacuum_spectral_density(VAC, f + 3.0)
            for f, w in spec.atoms
            if f + 3.0 >= 1.0
        )
        assert kappa_tcl_vacuum(query) == pytest.approx(expected, rel=1e-12)


class TestTclKms:
    def test_vacuum_reduction(self):
        k_v = kappa_tcl_vacuum(q(-2.0, sigma=3.0))
        k_t = kappa_tcl_kms(q(-2.0, sigma=3.0))
        assert k_t == pytest.approx(k_v, abs=1e-12 + 1e-12 * k_v)

    def test_zero_frequency_thermal_enhancement(self):
        env = EnvironmentSpec(beta=1.0)
        hot = kappa_tcl_kms(q(0.0, sigma=2.0, env=env))
        cold = kappa_tcl_vacuum(q(0.0, sigma=2.0))
        assert hot >= cold

    def test_markov_limit_against_closed_form(self):
        env = EnvironmentSpec(beta=1.0)
        closed = 2 * math.pi * vacuum_spectral_density(env, 2.0) * bose_occupation(2.0, 1.0)
        assert closed == pytest.approx(0.0431463, abs=1e-7)
        assert kappa_tcl_kms(q(2.0, sigma=40.0, env=env)) == pytest.approx(
            closed, rel=1e-3
        )

    def test_boosted_thermal_unsupported(self):
        env = EnvironmentSpec(beta=1.0, rapidity=0.2)
        with pytest.raises(NotImplementedError):
            kappa_tcl_kms(q(2.0, env=env))


class TestMarkovKms:
    def test_detailed_balance_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            beta = rng.uniform(0.2, 4.0)
            om = rng.uniform(1.0, 6.0)
            env = EnvironmentSpec(beta=beta)
            lhs = kappa_markov_kms(env, om) * math.exp(beta * om)
            rhs = kappa_markov_kms(env, -om)
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)

    def test_vacuum_limit(self):
        assert kappa_markov_kms(VAC, -2.0) == kappa_markov_vacuum(VAC, -2.0)
        assert kappa_markov_kms(VAC, 2.0) == 0.0

    def test_mass_gap(self):
        assert kappa_markov_kms(EnvironmentSpec(beta=1.0), 0.5) == 0.0
        assert kappa_markov_kms(EnvironmentSpec(beta=1.0), -0.5) == 0.0


class TestDeltaKappa:
    def test_ideal_clock_convergence(self):
        dk = delta_kappa_memory(q(-3.0, sigma=20.0))
        km = kappa_markov_vacuum(VAC, -3.0)
        assert abs(dk) / km <= 1e-3

    def test_heating_is_pure_memory(self):
        dk = delta_kappa_memory(q(1.0, sigma=2.0))
        assert dk == kappa_tcl_vacuum(q(1.0, sigma=2.0))
        assert dk >= 0.0

    def test_coupling_off(self):
        env = replace(VAC, coupling_g=0.0)
        assert delta_kappa_memory(q(-2.0, sigma=1.0, env=env)) == 0.0

    def test_total_rate_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            om = rng.uniform(-5, 5)
            sig = rng.uniform(0.5, 10.0)
            dk = delta_kappa_memory(q(om, sigma=sig))
            assert kappa_markov_vacuum(VAC, om) + dk >= -1e-15


class TestLambShift:
    def test_odd_transform_identity(self):
        # quadrature of int sgn(s) w(s) exp(-i Omega s) ds versus the closed
        # Dawson form, at one calibration point
        sigma, Om = 1.0, 2.0
        quad_val = -2.0 * integrate.quad(
            lambda s: math.exp(-0.5 * (s / sigma) ** 2),
            0.0,
            12.0 * sigma,
            weight="sin",
            wvar=Om,
            limit=400,
        )[0]
        closed = odd_kernel_transform(sigma, Om)
        assert closed.real == 0.0
        assert closed.imag == pytest.approx(quad_val, rel=1e-8)

    def test_coupling_off(self):
        env = replace(VAC, coupling_g=0.0)
        coeff = lamb_shift_coefficient(env, GaussianKernel(1.0), 40.0)
        assert coeff.raw_value == 0.0

    def test_tail_slope(self):
        coeff = lamb_shift_coefficient(VAC, GaussianKernel(1.0), 40.0)
        expected = 1.0 / (2 * math.pi**2)
        assert coeff.fit_slope == pytest.approx(expected, rel=0.02)

    def test_linear_growth(self):
        k = GaussianKernel(1.0)
        r40 = lamb_shift_coefficient(VAC, k, 40.0)
        r80 = lamb_shift_coefficient(VAC, k, 80.0)
        slope = (r80.raw_value - r40.raw_value) / 40.0
        assert slope == pytest.approx(1.0 / (2 * math.pi**2), rel=0.02)

    def test_subtraction_residual_decreases(self):
        k = GaussianKernel(1.0)
        s = [lamb_shift_coefficient(VAC, k, L).subtracted_value for L in (20.0, 40.0, 80.0)]
        assert abs(s[1] - s[2]) < abs(s[0] - s[1])

    def test_low_cutoff_rejected(self):
        with pytest.raises(ValueError):
            lamb_shift_coefficient(VAC, GaussianKernel(1.0), 5.0)
        with pytest.raises(ValueError):
            lamb_shift_coefficient(VAC, CoherentReadoutKernel(R=1.0, omega_C=1.0), 40.0)


class TestKossakowski:
    def test_single_coupling(self):
        blk = assemble_kossakowski([q(-3.0, sigma=5.0)], np.array([[1.0]]))
        assert blk.matrix.shape == (1, 1)
        assert blk.matrix[0, 0].real == pytest.approx(
            kappa_tcl_vacuum(q(-3.0, sigma=5.0)), rel=1e-12
        )
        assert blk.psd_margin >= -1e-12

    def test_rank_one_phases(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            phi = rng.uniform(0, 2 * math.pi)
            v = np.array([1.0, np.exp(1j * phi)])
            phases = np.outer(v, v.conj())
            blk = assemble_kossakowski([q(-2.0, sigma=3.0)], phases)
            eig = np.linalg.eigvalsh(blk.matrix)
            assert eig.min() >= -1e-10
            assert np.linalg.matrix_rank(blk.matrix, tol=1e-10) == 1

    def test_random_gram_blocks(self):
        rng = np.random.default_rng(7)
        ker = GaussianKernel(2.0)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            phases = A @ A.conj().T
            omegas = rng.uniform(-5, -1.2, size=5)
            queries = [RateQuery(omega=float(o), kernel=ker, env=VAC) for o in omegas]
            blk = assemble_kossakowski(queries, phases)
            assert blk.psd_margin >= -1e-10 * np.real(np.trace(blk.matrix))
            assert len(blk.labels) == 20

    def test_non_psd_phases_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(PositivityError):
            assemble_kossakowski([q(-2.0)], bad)

    def test_mismatched_queries_rejected(self):
        q1 = q(-2.0, sigma=1.0)
        q2 = q(-3.0, sigma=2.0)
        with pytest.raises(ValueError):
            assemble_kossakowski([q1, q2], np.eye(1))

    def test_block_builder_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            KossakowskiBlock.build([(0, -1.0)], np.array([[1j]]))


class TestProperties:
    def test_nonnegativity_random_draws(self):
        rng = np.random.default_rng(123)
        for trial in range(1000):
            m = rng.uniform(0.3, 2.0)
            g = rng.uniform(0.0, 2.0)
            beta = math.inf if trial % 2 == 0 else rng.uniform(0.3, 5.0)
            env = EnvironmentSpec(mass_E=m, coupling_g=g, beta=beta)
            om = rng.uniform(-6 * m, 6 * m)
            if trial % 3 == 0:
                ker = CoherentReadoutKernel(R=rng.uniform(0.2, 3.0), omega_C=rng.uniform(0.5, 2.0))
            else:
                ker = GaussianKernel(rng.uniform(0.5, 8.0) / m)
            val = kappa_tcl(RateQuery(omega=float(om), kernel=ker, env=env))
            assert val >= 0.0

    def test_markov_convergence_order(self):
        km = kappa_markov_vacuum(VAC, -3.0)
        sigmas = np.array([2.0, 5.0, 10.0, 20.0])
        rels = np.array(
            [abs(kappa_tcl_vacuum(q(-3.0, sigma=s)) - km) / km for s in sigmas]
        )
        assert rels[2] <= 1e-3
        assert rels[3] <= 2.5e-4
        ratio = rels[2] / rels[3]
        assert 0.8 * 4 <= ratio <= 1.2 * 4
        order = -np.polyfit(np.log(sigmas), np.log(rels), 1)[0]
        assert order == pytest.approx(2.0, abs=0.35)

    def test_kms_detailed_balance_monotone_in_sigma(self):
        env = EnvironmentSpec(beta=1.0)
        devs = []
        for s in (2.0, 5.0, 10.0, 20.0):
            up = kappa_tcl_kms(q(2.0, sigma=s, env=env))
            down = kappa_tcl_kms(q(-2.0, sigma=s, env=env))
            devs.append(abs(up * math.exp(2.0) / down - 1.0))
        assert all(devs[i] > devs[i + 1] for i in range(3))

    def test_rate_query_rejects_bad_kernel(self):
        s = np.linspace(-1, 1, 201)
        bad = TabulatedKernel(np.column_stack([s, 1 - s**2]))
        with pytest.raises(PositivityError):
            RateQuery(omega=-2.0, kernel=bad, env=VAC)


class TestKernelCertificate:
    @pytest.fixture
    def gram_calls(self, monkeypatch):
        from relclock import rates

        calls = []
        real = rates.positivity_gram_check

        def counting(kernel, times, *args, **kwargs):
            calls.append(kernel)
            return real(kernel, times, *args, **kwargs)

        monkeypatch.setattr(rates, "positivity_gram_check", counting)
        return calls

    def test_certified_once_per_kernel(self, gram_calls):
        # a clock frequency no other test uses, so this kernel is new here
        kernel = CoherentReadoutKernel(R=3.0, omega_C=1.1)
        for om in np.linspace(-4.0, 1.0, 50):
            RateQuery(omega=float(om), kernel=kernel, env=VAC)
        twin = CoherentReadoutKernel(R=3.0, omega_C=1.1)
        RateQuery(omega=-2.0, kernel=twin, env=VAC)
        assert gram_calls == [kernel]

    def test_failure_raises_on_every_query(self, gram_calls):
        s = np.linspace(-1, 1, 201)
        bad = TabulatedKernel(np.column_stack([s, 1 - s**2]))
        for _ in range(2):
            with pytest.raises(PositivityError):
                RateQuery(omega=-2.0, kernel=bad, env=VAC)
        assert gram_calls == [bad, bad]


class TestAtomicSum:
    def test_equals_atom_by_atom_loop(self):
        # the vectorized terms are added in the order of the former loop, so
        # the rate is bit-identical to it
        ker = CoherentReadoutKernel(R=3.0, omega_C=1.0)
        spec = ker.spectrum()
        for env in (VAC, EnvironmentSpec(beta=0.7)):
            for om in np.linspace(-6.0, 6.0, 25):
                total = 0.0
                for f, w in spec.atoms:
                    E = f - om
                    if E >= 1.0:
                        n = 0.0 if env.is_vacuum else bose_occupation(E, env.beta)
                        total += w * (1.0 + n) * vacuum_spectral_density(env, E)
                    if not env.is_vacuum and om - f >= 1.0:
                        total += w * bose_occupation(om - f, env.beta) * vacuum_spectral_density(env, om - f)
                assert kappa_tcl(RateQuery(omega=float(om), kernel=ker, env=env)) == total


class TestQuadratureOracle:
    """Every rate integrand, as the rates module hands it to the adaptive
    rule, against QUADPACK run far tighter than the shared 1e-10 tolerance."""

    @pytest.fixture
    def quadratures(self, monkeypatch):
        from relclock import rates

        seen = []
        real = rates.integrate_adaptive

        def recording(f, a, b, tol):
            res = real(f, a, b, tol)
            seen.append((f, a, b, res))
            return res

        monkeypatch.setattr(rates, "integrate_adaptive", recording)
        return seen

    @staticmethod
    def _check(seen, n_expected):
        assert len(seen) == n_expected
        for f, a, b, res in seen:
            ref = integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b,
                                 epsabs=1e-13, epsrel=1e-13, limit=500)[0]
            assert abs(res.value - ref) <= max(1e-10, 1e-10 * abs(ref))

    @pytest.mark.parametrize("sigma", [1.0, 5.0, 20.0])
    def test_vacuum(self, quadratures, sigma):
        for om in (-8.0, -3.0, -1.2, -1.0, -0.7):
            kappa_tcl(q(om, sigma=sigma))
        self._check(quadratures, 5)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
    def test_thermal_both_halves(self, quadratures, beta):
        env = EnvironmentSpec(beta=beta)
        for om in (-4.0, -1.5, 0.0, 1.5, 4.0):
            kappa_tcl(q(om, sigma=1.0, env=env))
        self._check(quadratures, 10)

    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_tilted(self, quadratures, eta):
        env = replace(VAC, rapidity=eta)
        for sigma in (1.0, 5.0):
            for om in (-4.0, -1.5, 0.0):
                kappa_tcl(q(om, sigma=sigma, env=env))
        self._check(quadratures, 6)

    def test_lamb(self, quadratures):
        from relclock import rates

        for sigma in (1.0, 5.0):
            for cutoff in (20.0, 40.0):
                rates._lamb_raw(VAC, sigma, cutoff)
        self._check(quadratures, 4)

    def test_rate_against_energy_form(self):
        # the rapidity substitution E = m cosh(theta) leaves the rate as the
        # energy integral of the rate formula, evaluated with QUADPACK
        W = lambda s: math.sqrt(-2.0 * math.log(1e-18)) / s
        for env in (VAC, EnvironmentSpec(beta=0.3), EnvironmentSpec(beta=1.0)):
            nb = (lambda E: 0.0) if env.is_vacuum else (lambda E: 1.0 / math.expm1(env.beta * E))
            for sigma in (1.0, 5.0, 20.0):
                w = lambda O: math.sqrt(2 * math.pi) * sigma * math.exp(-0.5 * (sigma * O) ** 2)
                j = lambda E: math.sqrt(max(E * E - 1.0, 0.0)) / (4 * math.pi**2)
                for om in np.linspace(-6.0, 3.0, 7):
                    ref = 0.0
                    lo, hi = max(1.0, -om - W(sigma)), -om + W(sigma)
                    if hi > lo:
                        ref += integrate.quad(lambda E: j(E) * (1 + nb(E)) * w(om + E), lo, hi,
                                              epsabs=1e-14, epsrel=1e-13, limit=1000)[0]
                    lo, hi = max(1.0, om - W(sigma)), om + W(sigma)
                    if not env.is_vacuum and hi > lo:
                        ref += integrate.quad(lambda E: j(E) * nb(E) * w(om - E), lo, hi,
                                              epsabs=1e-14, epsrel=1e-13, limit=1000)[0]
                    got = kappa_tcl(q(float(om), sigma=sigma, env=env))
                    assert abs(got - ref) <= max(1e-10, 1e-10 * abs(ref))

    def test_math_erf_matches_scipy(self):
        from scipy import special

        from relclock.rates import _erf

        x = np.linspace(-6.0, 6.0, 20_001)
        assert np.all(np.abs(_erf(x) - special.erf(x)) <= 4e-16 * np.maximum(np.abs(special.erf(x)), 1e-300))
