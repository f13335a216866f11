import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from relclock.correlators import EnvironmentSpec
from relclock.gkls import (
    DensityMatrix,
    GKLSModel,
    Superoperator,
    bohr_decompose,
    build_generator,
    cp_choi_check,
    evolve,
    expm as pade_expm,
    generator_matrix,
    qubit_decay_model,
    stationarity_check,
    step_count,
    vec,
)
from relclock.rates import kappa_markov_kms

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_model(rng, d):
    """Random Hermitian system + PSD rates via Bohr decomposition."""
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = 0.5 * (H + H.conj().T)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    A = 0.5 * (A + A.conj().T)
    comps = bohr_decompose(H, A)
    jumps = [(L, om) for L, om in comps]
    rates = np.diag(rng.uniform(0.1, 1.0, size=len(jumps))).astype(complex)
    return GKLSModel(dim=d, hamiltonian=H, jump_operators=jumps, kossakowski=rates)


class TestBuildGenerator:
    def test_amplitude_damping_rate(self):
        m = qubit_decay_model(1.0, gamma_down=0.7)
        gen = build_generator(m)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        drho = gen.apply(rho)
        assert drho[0, 0].real == pytest.approx(-0.7, rel=1e-13)
        assert drho[1, 1].real == pytest.approx(0.7, rel=1e-13)

    def test_pure_commutator_preserves_spectrum(self):
        m = GKLSModel(2, 0.7 * SZ, [(SM, -1.4)], np.zeros((1, 1)))
        rho0 = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
        ev0 = np.linalg.eigvalsh(rho0.matrix)
        rho1 = evolve(m, rho0, 2.0)
        assert np.allclose(np.linalg.eigvalsh(rho1.matrix), ev0, atol=1e-10)

    def test_misaligned_kossakowski_rejected(self):
        with pytest.raises(ValueError):
            GKLSModel(2, 0.5 * SZ, [(SM, -1.0)], np.eye(2))

    def test_cross_frequency_coupling_rejected(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SM.conj().T, 1.0)], K)

    def test_bohr_label_validated(self):
        with pytest.raises(ValueError):
            GKLSModel(2, 0.5 * SZ, [(SM, 1.0)], np.eye(1))  # wrong sign label

    def test_closed_system(self):
        # no jump operators and a 0 x 0 Kossakowski block: pure -i[H, .]
        H = np.diag([0.5, -0.5]).astype(complex)
        m = GKLSModel(2, H, [], np.zeros((0, 0)))
        I = np.eye(2)
        ref = -1j * (np.kron(I, H) - np.kron(H.T, I))
        assert np.array_equal(build_generator(m).matrix, ref)
        rho0 = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        rho1 = evolve(m, rho0, 1.3)
        assert np.trace(rho1.matrix).real == pytest.approx(1.0, abs=1e-12)
        purity0 = np.trace(rho0.matrix @ rho0.matrix).real
        assert np.trace(rho1.matrix @ rho1.matrix).real == pytest.approx(purity0, abs=1e-12)


class TestChoi:
    def test_amplitude_damping_cp(self):
        m = qubit_decay_model(1.0, 1.0)
        verdict = cp_choi_check(build_generator(m), 0.1)
        assert verdict.is_cp

    def test_non_psd_rates_violate(self):
        # eigenvalues 0.6 +- 0.7 over independent channels: the (sm - sp)
        # direction carries rate -0.1, so GKLSModel refuses K and the
        # generator is built from the bare formula
        K = np.array([[0.6, 0.7], [0.7, 0.6]], dtype=complex)
        gen = Superoperator(generator_matrix(0.5 * SZ, [SM, SM.conj().T], K))
        verdict = cp_choi_check(gen, 0.05)
        assert not verdict.is_cp
        assert verdict.min_choi_eigenvalue < -1e-6

    def test_identity_channel(self):
        m = qubit_decay_model(1.0, 1.0)
        verdict = cp_choi_check(build_generator(m), 0.0)
        assert abs(verdict.min_choi_eigenvalue) <= 1e-12

    def test_dt_guard(self):
        m = qubit_decay_model(1.0, 1.0)
        with pytest.raises(ValueError):
            cp_choi_check(build_generator(m), 1e3)


class TestEvolve:
    def test_amplitude_damping_decay(self):
        m = qubit_decay_model(1.0, 1.0)
        rho = evolve(m, DensityMatrix.pure([1, 0]), 1.0)
        assert rho.matrix[0, 0].real == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_time_zero(self):
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([0.6, 0.8])
        assert np.allclose(evolve(m, rho0, 0.0).matrix, rho0.matrix, atol=1e-14)

    def test_negative_time_rejected(self):
        m = qubit_decay_model(1.0, 1.0)
        with pytest.raises(ValueError):
            evolve(m, DensityMatrix.pure([1, 0]), -0.1)

    def test_thermal_steady_state_detailed_balance(self):
        env = EnvironmentSpec(beta=0.7)
        om0 = 2.0
        m = qubit_decay_model(om0, kappa_markov_kms(env, -om0), kappa_markov_kms(env, om0))
        rho = evolve(m, DensityMatrix.pure([1, 0]), 300.0)
        ratio = rho.matrix[0, 0].real / rho.matrix[1, 1].real
        assert ratio == pytest.approx(math.exp(-0.7 * om0), abs=1e-9)

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 3)
        gen = build_generator(m).matrix
        lhs = expm(0.9 * gen)
        rhs = expm(0.5 * gen) @ expm(0.4 * gen)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_random_models_preserve_trace_and_hermiticity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            m = random_model(rng, d)
            rho0 = DensityMatrix.maximally_mixed(d)
            # mix in a random pure state
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            rho0 = DensityMatrix(
                0.5 * rho0.matrix + 0.5 * np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
            )
            rho1 = evolve(m, rho0, float(rng.uniform(0.1, 2.0)))
            assert abs(np.trace(rho1.matrix).real - 1.0) <= 1e-10
            assert np.abs(rho1.matrix - rho1.matrix.conj().T).max() <= 1e-10

    def test_generator_spectrum_contracts(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            m = random_model(rng, d)
            eig = np.linalg.eigvals(build_generator(m).matrix)
            assert eig.real.max() <= 1e-10


class TestStepCount:
    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_dt_named(self, dt):
        with pytest.raises(ValueError, match="dt"):
            step_count(1.0, dt)

    def test_not_a_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            step_count(1.0, 0.3)


class TestStationarity:
    def test_gibbs_under_detailed_balance(self):
        env = EnvironmentSpec(beta=1.3)
        om0 = 2.0
        m = qubit_decay_model(om0, kappa_markov_kms(env, -om0), kappa_markov_kms(env, om0))
        gibbs = DensityMatrix.gibbs(0.5 * om0 * SZ, 1.3)
        assert stationarity_check(m, gibbs) <= 1e-10

    def test_maximally_mixed_under_unital(self):
        m = GKLSModel(2, np.zeros((2, 2)), [(SZ, 0.0)], np.array([[0.8]]))
        assert stationarity_check(m, DensityMatrix.maximally_mixed(2)) <= 1e-12

    def test_excited_amplitude_damping(self):
        gamma = 0.9
        m = qubit_decay_model(1.0, gamma)
        val = stationarity_check(m, DensityMatrix.pure([1, 0]))
        assert val == pytest.approx(gamma * math.sqrt(2.0), rel=1e-12)


class TestBohrDecompose:
    def test_qubit_sx(self):
        comps = bohr_decompose(0.5 * SZ, SX)
        freqs = sorted(om for _, om in comps)
        assert freqs == pytest.approx([-1.0, 1.0])
        total = sum(L for L, _ in comps)
        assert np.allclose(total, SX, atol=1e-14)

    def test_eigenoperator_relation(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = 0.5 * (H + H.conj().T)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for L, om in bohr_decompose(H, A):
            assert np.linalg.norm(H @ L - L @ H - om * L, 2) <= 1e-9 * np.linalg.norm(H, 2)


class TestDensityMatrix:
    def test_validations(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue

    def test_gibbs_normalized(self):
        g = DensityMatrix.gibbs(0.5 * SZ, 2.0)
        assert np.trace(g.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_gibbs_deep_cold_no_overflow(self):
        # exp(800) overflows: the weights must be taken relative to the ground energy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = DensityMatrix.gibbs(np.diag([-1.0, 1.0]), 800.0)
        assert np.abs(g.matrix - np.diag([1.0, 0.0])).max() <= 1e-15

    def test_gibbs_matches_expm(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = 0.5 * (A + A.conj().T)
        w = expm(-1.3 * H)
        g = DensityMatrix.gibbs(H, 1.3)
        assert np.abs(g.matrix - w / np.trace(w)).max() <= 1e-14

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.array([[1.0, math.nan], [math.nan, 0.0]]))


class TestSuperoperator:
    def test_trace_preservation_enforced(self):
        with pytest.raises(ValueError):
            Superoperator(matrix=np.eye(4) * 1.1)

    def test_apply_matches_matrix(self):
        m = qubit_decay_model(1.0, 0.5)
        gen = build_generator(m)
        rho = np.array([[0.3, 0.1j], [-0.1j, 0.7]])
        assert np.allclose(vec(gen.apply(rho)), gen.matrix @ vec(rho))


def _norm1(X):
    return np.abs(X).sum(axis=0).max(initial=0.0)


class TestExpm:
    #: the Padé thresholds theta_3 .. theta_13 of Higham (2005), Table 2.3
    THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
              2.097847961257068, 5.371920351148152)

    @pytest.mark.parametrize("n", range(17))
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_matches_scipy_on_both_sides_of_every_theta(self, n, is_complex):
        rng = np.random.default_rng(100 + n)
        for theta in self.THETAS:
            for side in (0.99, 1.01):
                A = rng.normal(size=(n, n))
                if is_complex:
                    A = A + 1j * rng.normal(size=(n, n))
                if n:
                    A *= side * theta / _norm1(A)
                E = expm(A)
                got = pade_expm(A)
                assert got.shape == E.shape and got.dtype == E.dtype
                err = _norm1(got - E) / max(_norm1(E), 1.0)
                # around theta_13 (order 13, one squaring above it) the two
                # algorithms part by the conditioning of a random non-normal A
                assert err <= (1e-14 if side * theta <= 2.1 else 1e-12), (theta, side, err)

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 16])
    @pytest.mark.parametrize("norm", [6.0, 30.0, 200.0, 1e3])
    def test_squaring_branch_against_eigh(self, n, norm):
        # A = V diag(lam) V^+ with V unitary: anti-Hermitian, and Hermitian
        # with top eigenvalue 0 as in a decaying semigroup (exp(1e3) would
        # overflow; a lower top eigenvalue would underflow every entry)
        rng = np.random.default_rng(int(norm) + n)
        V, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        decay = -rng.uniform(0.0, 1.0, n)
        for lam in (decay - decay.max(), 1j * rng.uniform(-1.0, 1.0, n)):
            A = (V * lam) @ V.conj().T
            scale = norm / _norm1(A)
            exact = (V * np.exp(scale * lam)) @ V.conj().T
            assert _norm1(pade_expm(scale * A) - exact) <= 1e-12 * _norm1(exact)

    def test_exact_cases(self):
        assert np.array_equal(pade_expm(np.zeros((3, 3))), np.eye(3))
        assert np.array_equal(pade_expm(np.zeros((3, 3), dtype=complex)), np.eye(3))
        empty = pade_expm(np.zeros((0, 0)))
        assert empty.shape == (0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        A = np.eye(2)
        A[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pade_expm(A)

    def test_not_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            pade_expm(np.zeros((2, 3)))
