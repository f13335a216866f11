import math

import numpy as np
import pytest

from relclock.hybridcq import (
    CQKernels,
    CQModel,
    HybridState,
    cq_evolve_grid,
    tradeoff_check,
    write_hybrid_csv,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
H0 = np.zeros((2, 2), dtype=complex)

# slightly mixed |+>-like state: 10% coherence headroom keeps the boundary
# case strictly inside the positive cone
PLUS_MIXED = np.array([[0.5, 0.45], [0.45, 0.5]], dtype=complex)


def dephasing_model():
    return CQModel(2, H0, [SZ])


def evolve_tracking(kernels, model, st, t, chunks=20, dt_cap=2e-3):
    """Evolve in chunks, tracking the worst block eigenvalue."""
    tc = t / chunks
    dt_max = min(0.2 * st.dz**2 / max(np.real(kernels.d2[0, 0]), 1e-30), dt_cap)
    dt = tc / math.ceil(tc / dt_max)
    worst = st.min_block_eigenvalue()
    for _ in range(chunks):
        st = cq_evolve_grid(kernels, model, st, tc, dt)
        worst = min(worst, st.min_block_eigenvalue())
    return st, worst


class TestTradeoff:
    def test_boundary_case(self):
        v = tradeoff_check(CQKernels(2.0, 2.0, 1.0))
        assert v.status == "satisfied"
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_violated_case(self):
        v = tradeoff_check(CQKernels(1.0, 2.0, 1.0))
        assert v.status == "violated"
        assert v.margin == pytest.approx(-2.0, abs=1e-12)

    def test_no_backaction_always_satisfied(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.normal(size=(3, 3))
            d0 = A @ A.T
            d2 = np.atleast_2d(rng.uniform(0.0, 2.0))
            v = tradeoff_check(CQKernels(d0, np.zeros((1, 3)), d2))
            assert v.status == "satisfied"

    def test_range_violation(self):
        # backaction outside the support of the Lindblad strengths
        d0 = np.diag([1.0, 0.0])
        d1 = np.array([[0.0, 1.0]])
        v = tradeoff_check(CQKernels(d0, d1, np.atleast_2d(5.0)))
        assert v.status == "range_violation"
        assert not v.range_ok

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            CQKernels(-1.0, 0.0, 1.0)  # d0 not PSD
        with pytest.raises(ValueError):
            CQKernels(np.eye(2), np.zeros((1, 3)), 1.0)  # shape mismatch


class TestGridEvolver:
    def test_pure_diffusion_variance(self):
        k = CQKernels(1.0, 0.0, 1.0)
        z = np.linspace(-10, 10, 128)
        st = HybridState.gaussian_packet(z, 0.0, 0.4, np.eye(2, dtype=complex) / 2)
        v0 = st.z_variance()
        out = cq_evolve_grid(k, dephasing_model(), st, 1.0, 0.0025)
        assert out.z_variance() - v0 == pytest.approx(2.0, rel=0.02)

    def test_zero_kernels_unitary(self):
        k = CQKernels(0.0, 0.0, 0.0)
        H = 0.7 * SX
        model = CQModel(2, H, [SZ])
        z = np.linspace(-4, 4, 32)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, np.array([[1.0, 0], [0, 0.0]], dtype=complex))
        ev0 = np.sort(np.linalg.eigvalsh(st.blocks), axis=None)
        out = cq_evolve_grid(k, model, st, 1.0, 0.002)
        ev1 = np.sort(np.linalg.eigvalsh(out.blocks), axis=None)
        assert np.abs(ev0 - ev1).max() <= 1e-10

    def test_dephasing_rate(self):
        k = CQKernels(2.0, 2.0, 1.0)
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        out, _ = evolve_tracking(k, dephasing_model(), st, 1.0)
        sx = np.real(np.trace(out.quantum_marginal() @ SX))
        assert sx == pytest.approx(0.9 * math.exp(-2 * 2.0 * 1.0), rel=0.05)

    def test_trace_conserved_random_kernels(self):
        rng = np.random.default_rng(5)
        z = np.linspace(-6, 6, 48)
        for _ in range(20):
            d0 = rng.uniform(0.2, 2.0)
            d2 = rng.uniform(0.2, 1.5)
            d1 = rng.uniform(0.0, math.sqrt(2 * d0 * d2))  # satisfied region
            k = CQKernels(d0, d1, d2)
            st = HybridState.gaussian_packet(z, rng.uniform(-1, 1), 0.6, PLUS_MIXED)
            out, _ = evolve_tracking(k, dephasing_model(), st, 0.5, chunks=5)
            assert abs(out.total_trace() - 1.0) <= 1e-8

    def test_positivity_sentinel(self):
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        _, worst_ok = evolve_tracking(CQKernels(2.0, 2.0, 1.0), dephasing_model(), st, 1.0)
        assert worst_ok >= -1e-6
        _, worst_bad = evolve_tracking(CQKernels(1.0, 2.0, 1.0), dephasing_model(), st, 1.0)
        assert worst_bad <= -1e-4

    def test_step_halving_convergence(self):
        k = CQKernels(1.0, 1.0, 1.0)
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        coarse = cq_evolve_grid(k, dephasing_model(), st, 0.5, 2e-3)
        fine = cq_evolve_grid(k, dephasing_model(), st, 0.5, 1e-3)
        finer = cq_evolve_grid(k, dephasing_model(), st, 0.5, 5e-4)
        d1 = np.abs(coarse.blocks - fine.blocks).max()
        d2 = np.abs(fine.blocks - finer.blocks).max()
        assert d2 < d1

    def test_step_size_guards(self):
        k = CQKernels(1.0, 0.0, 1.0)
        z = np.linspace(-4, 4, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        with pytest.raises(ValueError):
            cq_evolve_grid(k, dephasing_model(), st, 1.0, 0.5)  # diffusive limit

    def test_z_dependent_hamiltonian(self):
        # conditional phase rotation: no drift, rates constant
        model = CQModel(2, lambda z: 0.5 * z * SZ, [SZ])
        k = CQKernels(0.5, 0.0, 0.2)
        z = np.linspace(-4, 4, 48)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        out = cq_evolve_grid(k, model, st, 0.4, 1e-3)
        assert abs(out.total_trace() - 1.0) <= 1e-8

    def test_branch_splitting_variance(self):
        # at the saturated trade-off the packet splits into the two sigma_z
        # branches, drifting at +-2 d1 with weights p, 1 - p, so
        # Var z = w^2 + 2 d2 t + 4 p (1 - p) (2 d1 t)^2 = 0.25 + 2 + 16
        d1, d2, t, w, p = 2.0, 1.0, 1.0, 0.5, PLUS_MIXED[0, 0].real
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, w, PLUS_MIXED)
        out, _ = evolve_tracking(CQKernels(2.0, d1, d2), dephasing_model(), st, t)
        expected = w**2 + 2 * d2 * t + 4 * p * (1 - p) * (2 * d1 * t) ** 2
        assert expected == 18.25
        assert out.z_variance() == pytest.approx(expected, rel=0.01)

    def test_csv_snapshot(self, tmp_path):
        z = np.linspace(-2, 2, 8)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        path = tmp_path / "hybrid.csv"
        write_hybrid_csv(st, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("z,tr_block,re_b_00")
        assert len(lines) == 9


class TestHybridState:
    def test_validations(self):
        z = np.linspace(-1, 1, 8)
        blocks = np.zeros((8, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            HybridState(z, blocks)  # zero trace
        blocks[0, 0, 0] = 0.5  # Hermitian but wrong trace
        with pytest.raises(ValueError):
            HybridState(z, blocks)
        with pytest.raises(ValueError):
            HybridState(np.array([0.0, 0.1, 0.5]), np.zeros((3, 2, 2)))  # nonuniform

    def test_moments(self):
        z = np.linspace(-5, 5, 200)
        st = HybridState.gaussian_packet(z, 1.0, 0.5, np.eye(2, dtype=complex) / 2)
        assert st.z_mean() == pytest.approx(1.0, abs=1e-6)
        assert st.z_variance() == pytest.approx(0.25, rel=1e-3)
