import math

import numpy as np
import pytest

from relclock import hybridcq
from relclock.gkls import generator_matrix
from relclock.hybridcq import (
    CQKernels,
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


def spy_steps(monkeypatch):
    """Record dt at each classical half step: two per Strang step."""
    steps = []
    fv = hybridcq.fv_drift_diffusion_step

    def spy(blocks, V, D, dz, half_dt):
        steps.append(2.0 * half_dt)
        return fv(blocks, V, D, dz, half_dt)

    monkeypatch.setattr(hybridcq, "fv_drift_diffusion_step", spy)
    return steps


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
        out, _ = cq_evolve_grid(k, H0, [SZ], st, 1.0)
        assert out.z_variance() - v0 == pytest.approx(2.0, rel=0.02)

    def test_zero_kernels_unitary(self):
        k = CQKernels(0.0, 0.0, 0.0)
        H = 0.7 * SX
        z = np.linspace(-4, 4, 32)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, np.array([[1.0, 0], [0, 0.0]], dtype=complex))
        ev0 = np.sort(np.linalg.eigvalsh(st.blocks), axis=None)
        out, _ = cq_evolve_grid(k, H, [SZ], st, 1.0)
        ev1 = np.sort(np.linalg.eigvalsh(out.blocks), axis=None)
        assert np.abs(ev0 - ev1).max() <= 1e-10

    def test_dephasing_rate(self):
        k = CQKernels(2.0, 2.0, 1.0)
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        out, _ = cq_evolve_grid(k, H0, [SZ], st, 1.0)
        sx = np.real(np.trace(out.blocks.sum(0) @ SX))
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
            out, _ = cq_evolve_grid(k, H0, [SZ], st, 0.5)
            assert abs(out.total_trace() - 1.0) <= 1e-8

    def test_positivity_sentinel(self):
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        _, worst_ok = cq_evolve_grid(CQKernels(2.0, 2.0, 1.0), H0, [SZ], st, 1.0)
        assert worst_ok >= -1e-6
        _, worst_bad = cq_evolve_grid(CQKernels(1.0, 2.0, 1.0), H0, [SZ], st, 1.0)
        assert worst_bad <= -1e-4

    def test_step_halving_convergence(self, monkeypatch):
        # with the cap binding, t = 0.4 gives exactly dt, dt/2 and dt/4
        k = CQKernels(1.0, 1.0, 1.0)
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        runs = []
        for cap in (2e-3, 1e-3, 5e-4):
            monkeypatch.setattr(hybridcq, "_DT_CAP", cap)
            steps = spy_steps(monkeypatch)
            runs.append(cq_evolve_grid(k, H0, [SZ], st, 0.4)[0])
            assert set(steps) == {cap}
        coarse, fine, finer = runs
        d1 = np.abs(coarse.blocks - fine.blocks).max()
        d2 = np.abs(fine.blocks - finer.blocks).max()
        assert d2 < d1

    @pytest.mark.parametrize("kernels, binding", [
        ((1.0, 0.0, 1.0), "cap"),
        ((1.0, 0.0, 10.0), "diffusion"),
        ((100.0, 0.0, 1.0), "generator"),
        ((20.0, 20.0, 10.0), "generator"),
    ], ids=["cap", "diffusion", "generator", "generator-drift"])
    def test_step_rule_binds_each_bound(self, monkeypatch, kernels, binding):
        # the step never exceeds the least bound, and t / 20 is cut into the
        # fewest steps that keep it there
        k = CQKernels(*kernels)
        z = np.linspace(-4, 4, 64)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        dz = st.dz
        G = generator_matrix(H0, [SZ], k.d0)
        drift = 2.0 * abs(np.real(k.d1[0, 0]))  # |lambda_i + lambda_j| of B = d1 sz
        bounds = {
            "cap": hybridcq._DT_CAP,
            "diffusion": 0.2 * dz * dz / np.real(k.d2[0, 0]),
            "generator": 0.1 / (np.linalg.norm(G, 2) + drift / dz),
        }
        assert min(bounds, key=bounds.get) == binding
        steps = spy_steps(monkeypatch)
        out, _ = cq_evolve_grid(k, H0, [SZ], st, 0.2)
        bound = bounds[binding]
        assert len(set(steps)) == 1
        assert 0.5 * bound < steps[0] <= bound * (1.0 + 1e-12)
        assert len(steps) == 2 * 20 * math.ceil(0.2 / 20 / bound)
        assert abs(out.total_trace() - 1.0) <= 1e-8

    def test_t_must_be_positive(self):
        z = np.linspace(-4, 4, 16)
        st = HybridState.gaussian_packet(z, 0.0, 0.5, PLUS_MIXED)
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="t must be > 0"):
                cq_evolve_grid(CQKernels(1.0, 0.0, 1.0), H0, [SZ], st, t)

    def test_branch_splitting_variance(self):
        # at the saturated trade-off the packet splits into the two sigma_z
        # branches, drifting at +-2 d1 with weights p, 1 - p, so
        # Var z = w^2 + 2 d2 t + 4 p (1 - p) (2 d1 t)^2 = 0.25 + 2 + 16
        d1, d2, t, w, p = 2.0, 1.0, 1.0, 0.5, PLUS_MIXED[0, 0].real
        z = np.linspace(-8, 8, 64)
        st = HybridState.gaussian_packet(z, 0.0, w, PLUS_MIXED)
        out, _ = cq_evolve_grid(CQKernels(2.0, d1, d2), H0, [SZ], st, t)
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
        with pytest.raises(ValueError, match="z_grid"):
            HybridState(np.full(3, 2.0), np.zeros((3, 2, 2)))  # zero width

    def test_non_finite_blocks_refused(self):
        z = np.linspace(-1, 1, 4)
        for bad in (np.nan, np.inf):
            blocks = np.zeros((4, 2, 2), dtype=complex)
            blocks[:, 0, 0] = 0.25
            blocks[1, 1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                HybridState(z, blocks)

    @pytest.mark.parametrize("center, width", [(1e6, 0.5), (0.05, 1e-12), (math.nan, 0.5)])
    def test_packet_off_the_grid_refused(self, center, width):
        # every weight underflows to 0 (or is nan): refused, not a 0/0 block
        z = np.linspace(-8.0, 8.0, 64)
        with pytest.raises(ValueError, match=f"centre {center!r}"):
            HybridState.gaussian_packet(z, center, width, PLUS_MIXED)

    def test_moments(self):
        z = np.linspace(-5, 5, 200)
        st = HybridState.gaussian_packet(z, 1.0, 0.5, np.eye(2, dtype=complex) / 2)
        assert st.z_mean() == pytest.approx(1.0, abs=1e-6)
        assert st.z_variance() == pytest.approx(0.25, rel=1e-3)
