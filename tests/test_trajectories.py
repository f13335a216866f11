import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from relclock import _accel, trajectories
from relclock.correlators import EnvironmentSpec
from relclock.gkls import DensityMatrix, GKLSModel, expm, qubit_decay_model
from relclock.kernels import GaussianKernel
from relclock.trajectories import (
    _rekey,
    _stream,
    ensemble_compare,
    sample_colored_noise,
    unravel_linear,
    write_ensemble_csv,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)


def _philox(seed, r):
    return np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))


def _reference_noise(evaluate, grid, root, n_real, seed):
    """The per-pair dict covariance and the block sampler, written out: one
    fresh Philox per realization, zero-padded blocks of R rows, one GEMM per
    block."""
    t = np.asarray(grid, dtype=float)
    n = t.size
    diffs = t[:, None] - t[None, :]
    cache = {}
    M = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            key = round(diffs[j, k], 12)
            if key not in cache:
                cache[key] = np.conj(cache[-key]) if -key in cache else evaluate(key)
            M[j, k] = cache[key]
    R = max(1, trajectories._SAMPLE_BYTES // (16 * n))
    n_blocks = -(-n_real // R)
    xi = np.zeros((n_blocks * R, n), dtype=complex)
    for r in range(n_real):
        g = _philox(seed, r).standard_normal((n, 2))
        xi[r] = g[:, 0] + 1j * g[:, 1]
    samples = np.concatenate([(block / math.sqrt(2.0)) @ root.T
                              for block in np.split(xi, n_blocks)])
    return 0.5 * (M + M.conj().T), samples[:n_real]


def _matvec_noise(root, n_real, seed):
    """The per-realization sampler: one matvec per realization."""
    samples = np.empty((n_real, root.shape[0]), dtype=complex)
    for r in range(n_real):
        g = _philox(seed, r).standard_normal((root.shape[0], 2))
        samples[r] = root @ ((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0))
    return samples


def _reference_unravel(m, psi0, t, dt, n_traj, seed, n_out):
    """The whole-stream unraveling, written out: each trajectory draws all of
    its increments in one call, then every trajectory takes every step.  The
    step propagator is the package's own expm, so a bit-exact match tests the
    keyed streams and the chunking, not the exponential."""
    gammas = np.real(np.diag(m.kossakowski))
    n_jump, n_steps = len(gammas), int(round(t / dt))
    stride = n_steps // (n_out - 1)
    H_eff = m.hamiltonian - 0.5j * sum(
        g * (L.conj().T @ L) for g, (L, _) in zip(gammas, m.jump_operators))
    u_step = np.ascontiguousarray(expm(-1j * dt * H_eff))
    ls = [math.sqrt(g) * L for g, (L, _) in zip(gammas, m.jump_operators)]
    noise = np.empty((n_traj, n_steps, n_jump), dtype=complex)
    for r in range(n_traj):
        g = _philox(seed, r).standard_normal((n_steps, n_jump, 2))
        noise[r] = math.sqrt(dt / 2.0) * (g[..., 0] + 1j * g[..., 1])
    psi = np.broadcast_to(psi0, (n_traj, psi0.size)).copy()
    out = [psi]
    for s in range(n_steps):
        new = psi @ u_step.T
        for k in range(n_jump):
            new += noise[:, s, k, None] * (psi @ ls[k].T)
        psi = new
        if (s + 1) % stride == 0:
            out.append(psi)
    return np.stack(out, axis=1)


class TestColoredNoise:
    def test_target_covariance_psd_and_hermitian(self):
        env = EnvironmentSpec()
        field = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 4, 16), 100, seed=1)
        M = field.target_covariance
        assert np.abs(M - M.conj().T).max() <= 1e-12 * np.abs(M).max()
        assert np.linalg.eigvalsh(M).min() >= -1e-8 * np.real(np.diag(M)).max()

    def test_sample_covariance_converges(self):
        env = EnvironmentSpec()
        field = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 4, 24), 20_000, seed=3)
        err = np.linalg.norm(field.sample_covariance() - field.target_covariance)
        assert err / np.linalg.norm(field.target_covariance) <= 0.05

    def test_coupling_off_gives_zero(self):
        env = EnvironmentSpec(coupling_g=0.0)
        field = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 50, seed=5)
        assert np.all(field.samples == 0.0)

    def test_single_point_variance(self):
        env = EnvironmentSpec()
        n = 4000
        field = sample_colored_noise(env, GaussianKernel(1.0), [0.0], n, seed=9)
        c0 = field.target_covariance[0, 0].real
        var = np.mean(np.abs(field.samples) ** 2)
        assert abs(var - c0) <= 3.0 / math.sqrt(n) * c0

    def test_seed_reproducibility(self):
        env = EnvironmentSpec()
        a = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 64, seed=11)
        b = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 64, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_grid_size_limit(self):
        with pytest.raises(ValueError):
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), np.zeros(300), 2, seed=1)

    @pytest.mark.parametrize("grid", [[], [0.0, math.nan], [0.0, math.inf, 2.0],
                                      [0.0, 1.0, 3.0], [1.0, 1.0], [[0.0, 1.0]]],
                             ids=["empty", "nan", "inf", "uneven", "repeated", "2d"])
    def test_bad_grid_named(self, grid):
        with pytest.raises(ValueError, match="grid"):
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, 2, seed=1)

    @pytest.mark.parametrize("n_points", [1, 8, 32, 256])
    def test_matches_reference_construction(self, monkeypatch, n_points):
        # one evaluation per lag, at the rounded keys the pairwise dict loop
        # evaluates, and bit-identical samples
        calls, values = [], {}
        original = trajectories.wightman_timelike

        def recording(env, kernel, s, cutoff=None):
            calls.append(s)
            if s not in values:
                values[s] = original(env, kernel, s, cutoff=cutoff)
            return values[s]

        monkeypatch.setattr(trajectories, "wightman_timelike", recording)
        env, kernel = EnvironmentSpec(), GaussianKernel(1.0)
        grid = [0.0] if n_points == 1 else np.linspace(0.0, 4.0, n_points)
        n_real = 200
        field = sample_colored_noise(env, kernel, grid, n_real, seed=17)
        ours = list(calls)
        calls.clear()
        eigvals, V = np.linalg.eigh(field.target_covariance)
        root = V * np.sqrt(np.clip(eigvals, 0.0, None))
        M, samples = _reference_noise(lambda s: recording(env, kernel, s), grid, root, n_real, 17)
        assert ours == calls
        assert len(ours) == n_points
        assert np.array_equal(field.target_covariance, M)
        assert np.array_equal(field.samples, samples)
        # the block product rounds differently from one matvec per realization
        matvec = _matvec_noise(root, n_real, 17)
        assert np.abs(field.samples - matvec).max() <= 1e-13 * np.abs(matvec).max()

    @pytest.mark.parametrize("n_points", [1, 8, 32, 256])
    def test_realization_independent_of_count(self, monkeypatch, n_points):
        # realization r has the same bits whether it sits in a full block, a
        # zero-padded last block or the only block
        values = {}
        original = trajectories.wightman_timelike

        def cached(env, kernel, s, cutoff=None):
            if s not in values:
                values[s] = original(env, kernel, s, cutoff=cutoff)
            return values[s]

        monkeypatch.setattr(trajectories, "wightman_timelike", cached)
        env, kernel = EnvironmentSpec(), GaussianKernel(1.0)
        grid = [0.0] if n_points == 1 else np.linspace(0.0, 4.0, n_points)
        R = max(1, trajectories._SAMPLE_BYTES // (16 * n_points))
        counts = [1, R - 1, R, R + 1, 3 * R + 2]
        runs = [sample_colored_noise(env, kernel, grid, c, seed=31).samples for c in counts]
        longest = runs[-1]
        for c, samples in zip(counts, runs):
            assert samples.shape == (c, n_points)
            assert np.array_equal(samples, longest[:c])

    @pytest.mark.parametrize("n_real, n_points", [
        (20_000, 256),  # the noise cap: full blocks of 64 draws
        (1001, 32),     # short last blocks
        (5, 8),
        (7, 1),
    ])
    def test_sample_covariance_matches_samples(self, n_real, n_points):
        # streamed from the draws: Hermitian, and the one-shot product z^H z / N
        # of the regenerated realizations to 1e-13 relative
        grid = [0.0] if n_points == 1 else np.linspace(0.0, 4.0, n_points)
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, n_real, seed=23)
        got = field.sample_covariance()
        z = field.samples
        ref = (z.conj().T @ z).T / n_real
        scale = np.abs(ref).max()
        assert np.abs(got - got.conj().T).max() <= 1e-13 * scale
        assert np.abs(got - ref).max() <= 1e-13 * scale

    def test_sample_covariance_memory(self):
        # no (n_real, n) buffer: 20 000 x 256 realizations would take 78 MiB
        grid = np.linspace(0.0, 4.0, 256)
        tracemalloc.start()
        try:
            field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, 20_000, seed=29)
            field.sample_covariance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("seed, r", [(0, 0), (3, 5), (3, 2**40), (2**63 + 7, 1), (41, 2**64 - 1)])
    def test_stream_matches_keyed_philox(self, seed, r):
        gen, fresh = _stream(seed, r), _philox(seed, r)
        assert np.array_equal(gen.standard_normal(64), fresh.standard_normal(64))
        assert np.array_equal(gen.integers(0, 2**31, size=5, dtype=np.uint32),
                              fresh.integers(0, 2**31, size=5, dtype=np.uint32))
        assert np.array_equal(gen.random(9), fresh.random(9))

    def test_rekey_matches_fresh_stream(self):
        gen = _stream(3, 0)
        for r in (5, 0, 2**40, 5):
            # leave the generator mid-buffer, with a cached 32-bit half
            gen.standard_normal(7)
            gen.integers(0, 2**31, size=3, dtype=np.uint32)
            _rekey(gen, 3, r)
            fresh = _philox(3, r)
            assert np.array_equal(gen.standard_normal(64), fresh.standard_normal(64))
            assert np.array_equal(gen.integers(0, 2**31, size=5, dtype=np.uint32),
                                  fresh.integers(0, 2**31, size=5, dtype=np.uint32))
            assert np.array_equal(gen.random(9), fresh.random(9))


class TestUnravelLinear:
    def test_mean_matches_master_equation(self):
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, t=1.0, dt=1e-3, n_traj=2000, seed=2)
        max_dev, max_sigma = ensemble_compare(ens, m, rho0)
        stat = ens.stat_error.max()
        assert max_dev <= max(0.05, 5.0 * stat)
        assert max_sigma <= 5.0

    def test_mean_trace_within_errors(self):
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, t=1.0, dt=1e-3, n_traj=2000, seed=4)
        for ms, se in zip(ens.mean_state, ens.stat_error):
            assert abs(np.trace(ms).real - 1.0) <= max(3.0 * se, 1e-12)

    def test_zero_dissipation_is_deterministic(self):
        m = GKLSModel(2, 0.5 * SZ, [(SM, -1.0)], np.zeros((1, 1)))
        rho0 = DensityMatrix.pure([0.6, 0.8])
        ens = unravel_linear(m, rho0, t=0.5, dt=1e-3, n_traj=32, seed=6)
        spread = np.abs(ens.states - ens.states[:1]).max()
        assert spread <= 1e-12
        max_dev, _ = ensemble_compare(ens, m, rho0)
        assert max_dev <= 1e-5  # euler phase error only

    def test_closed_system(self):
        # no jump operators: every trajectory is the unitary orbit, exactly
        m = GKLSModel(2, 0.5 * SZ, [], np.zeros((0, 0)))
        rho0 = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2.0))
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 4, seed=1)
        max_dev, _ = ensemble_compare(ens, m, rho0)
        assert max_dev <= 1e-12
        assert ens.stat_error.max() == 0.0

    def test_single_trajectory_norm_drifts(self):
        m = qubit_decay_model(1.0, 1.0)
        ens = unravel_linear(m, DensityMatrix.pure([1, 0]), 1.0, 1e-3, 1, seed=8)
        assert ens.states.shape == (1, 11, 2)
        norm_final = np.linalg.norm(ens.states[0, -1])
        assert norm_final != pytest.approx(1.0, abs=1e-3)

    def test_chunk_schedule_independence(self, monkeypatch):
        # trajectory r depends only on (seed, r): a run with more
        # trajectories, split into 64-trajectory chunks and 7-step noise
        # blocks, reproduces the one-chunk, one-block runs bit for bit
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        small = unravel_linear(m, rho0, 0.2, 1e-3, 5, seed=13, n_out=5)
        whole = unravel_linear(m, rho0, 0.2, 1e-3, 300, seed=13, n_out=5)
        monkeypatch.setattr(trajectories, "_CHUNK", 64)
        monkeypatch.setattr(trajectories, "_NOISE_BYTES", 16 * 64 * 7)
        large = unravel_linear(m, rho0, 0.2, 1e-3, 300, seed=13, n_out=5)
        assert np.array_equal(small.states, large.states[:5])
        assert np.array_equal(whole.states, large.states)

    def test_dense_model_chunk_schedule_independence(self, monkeypatch):
        # the same bit-exact schedule contract for a model whose products
        # are sums of three terms
        m = _dense_three_level()
        rho0 = DensityMatrix.pure(np.array([0.6, 0.48j, 0.64]))
        small = unravel_linear(m, rho0, 0.05, 1e-3, 5, seed=19, n_out=6)
        whole = unravel_linear(m, rho0, 0.05, 1e-3, 300, seed=19, n_out=6)
        monkeypatch.setattr(trajectories, "_CHUNK", 64)
        monkeypatch.setattr(trajectories, "_NOISE_BYTES", 16 * 64 * 2 * 7)
        large = unravel_linear(m, rho0, 0.05, 1e-3, 300, seed=19, n_out=6)
        assert np.all(np.isfinite(whole.states))
        assert np.array_equal(small.states, large.states[:5])
        assert np.array_equal(whole.states, large.states)

    @pytest.mark.parametrize("model, n_traj, chunk, block", [
        (qubit_decay_model(1.0, 1.0), 20, 8, 7),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5])), 20, 8, 7),
        (GKLSModel(2, 0.5 * SZ, [], np.zeros((0, 0))), 20, 8, 7),
        (qubit_decay_model(1.0, 1.0), 1100, None, None),
    ], ids=["one_jump", "two_jumps", "closed", "default_sizes"])
    def test_matches_whole_stream_reference(self, monkeypatch, model, n_traj, chunk, block):
        # blocks of 7 steps straddle the saves every 10 steps; the default
        # sizes take two chunks (1024 + 76) and two noise blocks (128 + 72)
        if chunk is not None:
            monkeypatch.setattr(trajectories, "_CHUNK", chunk)
            monkeypatch.setattr(trajectories, "_NOISE_BYTES", 16 * chunk * max(
                len(model.jump_operators), 1) * block)
        n_steps = 60 if chunk is not None else 200
        psi0 = np.array([0.6, 0.8j])
        ens = unravel_linear(model, DensityMatrix.pure(psi0), n_steps * 1e-3, 1e-3,
                             n_traj, seed=29, n_out=7 if chunk is not None else 11)
        # start from the state as unravel_linear phases it
        expected = _reference_unravel(model, ens.states[0, 0], n_steps * 1e-3, 1e-3,
                                      n_traj, 29, ens.grid.size)
        assert np.array_equal(ens.states, expected)

    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_n_traj_named(self, n_traj):
        with pytest.raises(ValueError, match="n_traj"):
            unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]),
                           0.1, 1e-3, n_traj, seed=1)

    def test_compare_nan_mean_fails(self):
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 4, seed=1)
        mean = ens.mean_state.copy()
        mean[3, 0, 1] = complex(math.nan, 0.0)
        max_dev, max_sigma = ensemble_compare(dataclasses.replace(ens, mean_state=mean), m, rho0)
        assert math.isnan(max_dev) and math.isnan(max_sigma)

    def test_mc_scaling(self):
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        dev1 = ensemble_compare(unravel_linear(m, rho0, 1.0, 1e-3, 500, seed=21), m, rho0)[0]
        dev4 = ensemble_compare(unravel_linear(m, rho0, 1.0, 1e-3, 2000, seed=21), m, rho0)[0]
        ratio = dev1 / dev4
        assert 2.0 / 1.4 <= ratio <= 2.0 * 1.4

    def test_preconditions(self):
        m = qubit_decay_model(1.0, 1.0)
        mixed = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            unravel_linear(m, mixed, 1.0, 1e-3, 10, seed=1)
        with pytest.raises(ValueError):
            unravel_linear(m, DensityMatrix.pure([1, 0]), 1.0, 0.5, 10, seed=1)
        K = np.array([[1.0, 0.2], [0.2, 1.0]], dtype=complex)
        m2 = GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SM, -1.0)], K)
        with pytest.raises(ValueError):
            unravel_linear(m2, DensityMatrix.pure([1, 0]), 1.0, 1e-3, 10, seed=1)

    def test_site_noise_streams_uncorrelated(self):
        # hypersurface-white discretization: channels at distinct sites draw
        # independent increments; their sample cross covariance vanishes
        n_traj, n_steps = 400, 200
        dt = 1e-2
        acc = 0.0
        for r in range(n_traj):
            g = np.random.Generator(
                np.random.Philox(key=np.array([99, r], dtype=np.uint64))
            ).standard_normal((n_steps, 2, 2))
            xi = math.sqrt(dt / 2) * (g[..., 0] + 1j * g[..., 1])
            acc += np.sum(xi[:, 0] * np.conj(xi[:, 1]))
        cross = abs(acc) / (n_traj * n_steps * dt)
        assert cross <= 4.0 / math.sqrt(n_traj)


def _dense_three_level():
    """A 3-level model with two jumps in which every entry of H, of both L_k
    and so of the step propagator is nonzero.  The jumps are eigenoperators
    of a degenerate system Hamiltonian, with H a coherent shift on top."""
    rng = np.random.default_rng(41)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = 2.0 * (A + A.conj().T)
    ls = [0.6 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(2)]
    return GKLSModel(3, H, [(L, 0.0) for L in ls], np.diag([0.8, 0.5]),
                     system_hamiltonian=np.zeros((3, 3)))


def _bernoulli(x):
    return 1.0 if x == 0.0 else x / math.expm1(x)


class TestKernelOracles:
    """The vectorized kernels against explicit per-trajectory / per-cell loops."""

    def test_step_chunk_matches_loop(self):
        # two calls, 25 steps then 35, carry the states across the block
        # boundary and save by global step index
        rng = np.random.default_rng(0)
        d, steps, chunk, stride = 2, 60, 5, 10
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        u_step = np.eye(d) - 1j * 1e-2 * (0.5 * SZ - 0.25j * (SM.conj().T @ SM))
        ls = np.array([0.7 * SM, 0.4 * SZ], dtype=complex)
        noise = 0.07 * (rng.normal(size=(chunk, steps, 2)) + 1j * rng.normal(size=(chunk, steps, 2)))
        out = np.empty((chunk, steps // stride + 1, d), dtype=complex)
        psi = np.tile(psi0, (chunk, 1))
        _accel.step_trajectory_chunk(psi, u_step, ls, noise[:, :25], stride, out)
        _accel.step_trajectory_chunk(psi, u_step, ls, noise[:, 25:], stride, out, 25)
        for r in range(chunk):
            state = psi0.copy()
            expected = [state]
            for s in range(steps):
                state = u_step @ state + sum(noise[r, s, k] * (ls[k] @ state) for k in range(2))
                if (s + 1) % stride == 0:
                    expected.append(state)
            assert np.abs(out[r] - np.array(expected)).max() <= 1e-13
        assert np.array_equal(psi, out[:, -1])

    @pytest.mark.parametrize("zero_row", [False, True], ids=["dense", "zero_row"])
    def test_step_chunk_dense_matches_loop(self, zero_row):
        # d = 3, two jumps, every entry of u_step and of both L_k nonzero (or
        # one all-zero row of L_1): the row-layout sums against a matvec loop
        rng = np.random.default_rng(2)
        d, steps, chunk, stride = 3, 40, 9, 8
        m = _dense_three_level()
        u_step = expm(-1j * 1e-2 * m.hamiltonian)
        ls = np.array([L for L, _ in m.jump_operators])
        if zero_row:
            ls[1, 1] = 0.0
        assert np.all(u_step != 0) and np.count_nonzero(ls) == ls.size - 3 * zero_row
        psi0 = np.array([0.6, 0.48j, 0.64], dtype=complex)
        noise = 0.07 * (rng.normal(size=(chunk, steps, 2)) + 1j * rng.normal(size=(chunk, steps, 2)))
        out = np.empty((chunk, steps // stride + 1, d), dtype=complex)
        psi = np.tile(psi0, (chunk, 1))
        _accel.step_trajectory_chunk(psi, u_step, ls, noise[:, :13], stride, out)
        _accel.step_trajectory_chunk(psi, u_step, ls, noise[:, 13:], stride, out, 13)
        for r in range(chunk):
            state = psi0.copy()
            expected = [state]
            for s in range(steps):
                state = u_step @ state + sum(noise[r, s, k] * (ls[k] @ state) for k in range(2))
                if (s + 1) % stride == 0:
                    expected.append(state)
            assert np.abs(out[r] - np.array(expected)).max() <= 1e-13
        assert np.array_equal(psi, out[:, -1])

    @pytest.mark.parametrize(
        "D, V",
        [
            (1.0, [[2.0, 0.5], [3e-5, -2.0]]),  # 3e-5 takes the small-p series
            (0.0, [[2.0, 0.0], [0.0, -2.0]]),
            (1.0, [[0.0, 0.0], [0.0, 0.0]]),
            (0.0, [[0.0, 0.0], [0.0, 0.0]]),
        ],
        ids=["diffusion_drift", "drift_only", "diffusion_only", "frozen"],
    )
    def test_fv_step_matches_loop(self, D, V):
        rng = np.random.default_rng(1)
        n, d, dz, dt = 12, 2, 0.25, 1e-3
        V = np.array(V)
        blocks = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        before = blocks.copy()
        got = _accel.fv_drift_diffusion_step(blocks, V, D, dz, dt)
        expected = blocks.copy()
        for c in range(n - 1):  # flux through the face between cells c and c + 1
            for i in range(d):
                for j in range(d):
                    v = V[i, j]
                    if D > 0.0:
                        p = v * dz / D
                        f = (D / dz) * (_bernoulli(-p) * blocks[c, i, j] - _bernoulli(p) * blocks[c + 1, i, j])
                    else:
                        f = v * (blocks[c, i, j] if v > 0.0 else blocks[c + 1, i, j])
                    expected[c, i, j] -= (dt / dz) * f
                    expected[c + 1, i, j] += (dt / dz) * f
        assert np.array_equal(blocks, before)
        assert np.abs(got - expected).max() <= 1e-13
        assert abs(got.sum() - blocks.sum()) <= 1e-13 * n


class TestArtifacts:
    def test_csv_columns(self, tmp_path):
        m = qubit_decay_model(1.0, 1.0)
        ens = unravel_linear(m, DensityMatrix.pure([1, 0]), 0.1, 1e-3, 7, seed=3, n_out=6)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[-1] == "stat_error"
        assert "re_rho_01" in header
