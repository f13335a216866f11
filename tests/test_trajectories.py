import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from relclock import _accel, trajectories
from relclock.correlators import EnvironmentSpec
from relclock.gkls import DensityMatrix, GKLSModel, expm, qubit_decay_model
from relclock.kernels import GaussianKernel
from relclock.trajectories import (
    _rekey,
    _sidak_z,
    _stream,
    ensemble_check,
    one_step_means,
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


def _philox_fields(seed, r, n_fields):
    """Stream r's first ``n_fields`` two-bit fields, decoded here from the raw
    words of Philox(key=(seed, r)): field f is bits 2 (f mod 32) and
    2 (f mod 32) + 1 of word f // 32."""
    words = np.random.Philox(key=np.array([seed, r], dtype=np.uint64)).random_raw(-(-n_fields // 32))
    return np.array([(int(words[f // 32]) >> (2 * (f % 32))) & 3 for f in range(n_fields)],
                    dtype=np.uint8)


def _philox_increments(seed, r, n_fields, dt):
    """Stream r's first ``n_fields`` increments: field value c selects
    sqrt(dt) * (1, i, -1, -i)[c]."""
    return math.sqrt(dt) * np.array([1, 1j, -1, -1j])[_philox_fields(seed, r, n_fields)]


def _reference_unravel(m, psi0, t, dt, n_traj, seed, n_out):
    """The whole-stream unraveling, written out: each trajectory decodes all
    of its increments from one draw of raw words, then every trajectory
    takes every step, one matrix product per step and jump.  The step
    propagator is the package's own expm, so a match to rounding tests the
    keyed streams, the decoding, the step tables and the chunking, not the
    exponential."""
    gammas = np.real(np.diag(m.kossakowski))
    n_jump, n_steps = len(gammas), int(round(t / dt))
    stride = n_steps // (n_out - 1)
    H_eff = m.hamiltonian - 0.5j * sum(
        g * (L.conj().T @ L) for g, (L, _) in zip(gammas, m.jump_operators))
    u_step = np.ascontiguousarray(expm(-1j * dt * H_eff))
    ls = [math.sqrt(g) * L for g, (L, _) in zip(gammas, m.jump_operators)]
    noise = np.array([_philox_increments(seed, r, n_steps * n_jump, dt).reshape(n_steps, n_jump)
                      for r in range(n_traj)])
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


def _recorded_fields(monkeypatch, *args, **kwargs):
    """``unravel_linear(*args, **kwargs)`` and the two-bit fields it stepped
    through, as one (n_traj, n_steps, n_jump) uint8 array."""
    chunks = []
    stepper = trajectories.step_trajectory_chunk

    def recording(psi, u_step, incr, noise, save_stride, out, step0=0):
        if step0 == 0:
            chunks.append([])
        chunks[-1].append(noise.copy())
        return stepper(psi, u_step, incr, noise, save_stride, out, step0)

    monkeypatch.setattr(trajectories, "step_trajectory_chunk", recording)
    ens = unravel_linear(*args, **kwargs)
    monkeypatch.setattr(trajectories, "step_trajectory_chunk", stepper)
    return ens, np.concatenate([np.concatenate(blocks, axis=1) for blocks in chunks])


def _reversed_bytes(stepper):
    """A mutant stepper that takes each byte's four fields in reverse order
    (one jump, every block a whole number of bytes)."""

    def mutant(psi, u_step, incr, noise, save_stride, out, step0=0):
        n, steps, _ = noise.shape
        flipped = noise.reshape(n, steps // 4, 4)[:, :, ::-1].reshape(n, steps, 1)
        return stepper(psi, u_step, incr, flipped, save_stride, out, step0)

    return mutant


#: the stepper's states match the per-step reference within this, times the
#: state's norm: the group products round differently from step-by-step
#: products, by about 1e-14 relative over a few hundred steps
_TABLE_ROUNDING = 1e-12


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
        err = np.linalg.norm(field.covariance - field.target_covariance)
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

        def recording(env, kernel, s):
            calls.append(s)
            if s not in values:
                values[s] = original(env, kernel, s)
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

        def cached(env, kernel, s):
            if s not in values:
                values[s] = original(env, kernel, s)
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
        got = field.covariance
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
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, 20_000, seed=29)
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
        check = ensemble_check(ens, m, rho0, 1e-3)
        stat = ens.stat_error.max()
        assert check.max_deviation <= max(0.05, 5.0 * stat)
        assert check.mean_ok

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
        assert ensemble_check(ens, m, rho0, 1e-3).max_deviation <= 1e-5  # euler phase error only

    def test_closed_system(self):
        # no jump operators: every trajectory is the unitary orbit, exactly
        m = GKLSModel(2, 0.5 * SZ, [], np.zeros((0, 0)))
        rho0 = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2.0))
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 4, seed=1)
        assert ensemble_check(ens, m, rho0, 1e-3).max_deviation <= 1e-12
        assert ens.stat_error.max() == 0.0

    def test_single_trajectory_norm_drifts(self):
        m = qubit_decay_model(1.0, 1.0)
        ens = unravel_linear(m, DensityMatrix.pure([1, 0]), 1.0, 1e-3, 1, seed=8)
        assert ens.states.shape == (1, 11, 2)
        norm_final = np.linalg.norm(ens.states[0, -1])
        assert norm_final != pytest.approx(1.0, abs=1e-3)

    def test_chunk_schedule_independence(self, monkeypatch):
        # trajectory r depends only on (seed, r): a run with more
        # trajectories, split into 64-trajectory chunks, blocks of at most 7
        # steps (cut to 4, a group) and one-word draws (so blocks start
        # mid-word and straddle draws), reproduces the one-chunk, one-block
        # runs bit for bit; each 50-step save interval ends in a 2-step group
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        small = unravel_linear(m, rho0, 0.2, 1e-3, 5, seed=13, n_out=5)
        whole = unravel_linear(m, rho0, 0.2, 1e-3, 300, seed=13, n_out=5)
        monkeypatch.setattr(trajectories, "_CHUNK", 64)
        monkeypatch.setattr(trajectories, "_BLOCK_FIELDS", 64 * 7)
        monkeypatch.setattr(trajectories, "_WORDS", 1)
        large = unravel_linear(m, rho0, 0.2, 1e-3, 300, seed=13, n_out=5)
        assert np.array_equal(small.states, large.states[:5])
        assert np.array_equal(whole.states, large.states)

    def test_dense_model_chunk_schedule_independence(self, monkeypatch):
        # the same bit-exact schedule contract for a model whose products
        # are sums of three terms: two jumps, 2-step groups, blocks of 4, 4
        # and 2 steps in each 10-step save interval
        m = _dense_three_level()
        rho0 = DensityMatrix.pure(np.array([0.6, 0.48j, 0.64]))
        small = unravel_linear(m, rho0, 0.05, 1e-3, 5, seed=19, n_out=6)
        whole = unravel_linear(m, rho0, 0.05, 1e-3, 300, seed=19, n_out=6)
        monkeypatch.setattr(trajectories, "_CHUNK", 64)
        monkeypatch.setattr(trajectories, "_BLOCK_FIELDS", 64 * 2 * 7)
        monkeypatch.setattr(trajectories, "_WORDS", 1)
        large = unravel_linear(m, rho0, 0.05, 1e-3, 300, seed=19, n_out=6)
        assert np.all(np.isfinite(whole.states))
        assert np.array_equal(small.states, large.states[:5])
        assert np.array_equal(whole.states, large.states)

    @pytest.mark.parametrize("model, n_traj, chunk, block, n_steps, n_out", [
        (qubit_decay_model(1.0, 1.0), 20, 8, 7, 60, 7),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5])), 20, 8, 7, 60, 7),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0), (SM.T, 1.0)], np.diag([1.0, 0.5, 0.25])),
         20, 8, 7, 350, 8),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0), (SM.T, 1.0), (SZ, 0.0), (SM, -1.0)],
                   np.diag([1.0, 0.5, 0.25, 0.3, 0.2])), 20, 8, 7, 60, 7),
        (GKLSModel(2, 0.5 * SZ, [], np.zeros((0, 0))), 20, 8, 7, 60, 7),
        (qubit_decay_model(1.0, 1.0), 1100, None, None, 200, 11),
    ], ids=["one_jump", "two_jumps", "three_jumps", "five_jumps", "closed", "default_sizes"])
    def test_matches_whole_stream_reference(self, monkeypatch, model, n_traj, chunk, block,
                                            n_steps, n_out):
        # saves every 10 (or 50) steps, so one jump's 4-step groups leave a
        # 2-step group before each save; blocks of at most 7 steps are cut to
        # 4, and three jumps take 12 fields a block, so blocks start mid-word
        # and one straddles the draws of fields 0..1023 and 1024..2047; five
        # jumps take two tables a step; the default sizes
        # take two chunks (1024 + 76) and one block of 200 steps.  The fields
        # stepped through are the whole-stream fields exactly, and the states
        # the per-step reference's to rounding
        if chunk is not None:
            monkeypatch.setattr(trajectories, "_CHUNK", chunk)
            monkeypatch.setattr(trajectories, "_BLOCK_FIELDS",
                                chunk * max(len(model.jump_operators), 1) * block)
        psi0 = np.array([0.6, 0.8j])
        n_jump = len(model.jump_operators)
        ens, fields = _recorded_fields(monkeypatch, model, DensityMatrix.pure(psi0),
                                       n_steps * 1e-3, 1e-3, n_traj, seed=29, n_out=n_out)
        expected_fields = np.array([_philox_fields(29, r, n_steps * n_jump) for r in range(n_traj)])
        assert np.array_equal(fields, expected_fields.reshape(n_traj, n_steps, n_jump))
        # start from the state as unravel_linear phases it
        expected = _reference_unravel(model, ens.states[0, 0], n_steps * 1e-3, 1e-3,
                                      n_traj, 29, ens.grid.size)
        norms = np.linalg.norm(expected, axis=-1, keepdims=True)
        assert np.all(np.abs(ens.states - expected) <= _TABLE_ROUNDING * norms)

    def test_reference_bound_catches_reversed_bytes(self, monkeypatch):
        # the rounding bound keeps the reference test's power: a stepper that
        # takes each byte's four fields in reverse order misses it by more
        # than six orders of magnitude
        m = qubit_decay_model(1.0, 1.0)
        monkeypatch.setattr(trajectories, "step_trajectory_chunk",
                            _reversed_bytes(trajectories.step_trajectory_chunk))
        ens = unravel_linear(m, DensityMatrix.pure([0.6, 0.8j]), 0.06, 1e-3, 20, seed=29, n_out=4)
        expected = _reference_unravel(m, ens.states[0, 0], 0.06, 1e-3, 20, 29, 4)
        norms = np.linalg.norm(expected, axis=-1, keepdims=True)
        assert np.max(np.abs(ens.states - expected) / norms) > 1e6 * _TABLE_ROUNDING

    @pytest.mark.parametrize("n_out", [0, 1, -4])
    def test_n_out_named(self, n_out):
        # refused by name before the step count is divided by n_out - 1
        with pytest.raises(ValueError, match="n_out must be at least 2"):
            unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]),
                           0.1, 1e-3, 4, seed=1, n_out=n_out)

    def test_fields_never_form_noise(self):
        # 1024 trajectories x 2000 steps: past the saved states, the peak
        # holds at most 8 bytes per field of a block (the uint8 fields, the
        # intp byte codes and their temporaries) and 1 MiB for the 1024
        # generators and their words; a complex noise block of the same
        # fields would alone take 16 bytes per field
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        unravel_linear(m, rho0, 0.01, 1e-3, 4, seed=1)
        tracemalloc.start()
        try:
            ens = unravel_linear(m, rho0, 2.0, 1e-3, 1024, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.states.shape == (1024, 11, 2)
        assert peak < ens.states.nbytes + 8 * trajectories._BLOCK_FIELDS + 2**20

    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_n_traj_named(self, n_traj):
        with pytest.raises(ValueError, match="n_traj"):
            unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]),
                           0.1, 1e-3, n_traj, seed=1)

    def test_mc_scaling(self):
        # the Monte-Carlo error falls as 1/sqrt(N): the standard error halves
        # from 500 to 2000 trajectories, and each mean stays within its own
        # standard errors of the exact expectation
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        e1 = unravel_linear(m, rho0, 1.0, 1e-3, 500, seed=21)
        e4 = unravel_linear(m, rho0, 1.0, 1e-3, 2000, seed=21)
        ratio = e1.stat_error.max() / e4.stat_error.max()
        assert 2.0 / 1.4 <= ratio <= 2.0 * 1.4
        for e in (e1, e4):
            check = ensemble_check(e, m, rho0, 1e-3)
            assert check.mean_ok and check.trace_ok

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

    def test_site_noise_streams_uncorrelated(self, monkeypatch):
        # hypersurface-white discretization: channels at distinct sites take
        # independent increments.  The increments the unraveling steps
        # through, for two jumps, have |dxi|^2 = dt exactly, and their mean,
        # their square and their cross-channel product vanish within five
        # standard errors
        m = GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5]))
        n_traj, n_steps, dt = 400, 200, 1e-2
        _, fields = _recorded_fields(monkeypatch, m, DensityMatrix.pure([1, 0]), n_steps * dt, dt,
                                     n_traj, seed=99)
        assert fields.shape == (n_traj, n_steps, 2) and fields.dtype == np.uint8
        xi = trajectories._phase_table(dt)[fields]
        assert np.all(np.abs(xi) ** 2 == pytest.approx(dt, rel=1e-15))
        n = n_traj * n_steps
        bound = 5.0 / math.sqrt(n)
        for k in range(2):
            assert abs(xi[..., k].mean()) / math.sqrt(dt) <= bound
            assert abs(np.mean(xi[..., k] ** 2)) / dt <= bound
        assert abs(np.mean(xi[..., 0] * xi[..., 1].conj())) / dt <= bound
        assert abs(np.mean(xi[..., 0] * xi[..., 1])) / dt <= bound

    def test_increments_decode_keyed_words(self, monkeypatch):
        # increment (r, s, k) is field s * n_jump + k of the raw words of
        # Philox(key=(seed, r)), decoded here; 600 steps of two jumps take
        # two draws of 32 words per trajectory
        m = GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5]))
        n_traj, n_steps, dt = 5, 600, 1e-3
        _, fields = _recorded_fields(monkeypatch, m, DensityMatrix.pure([1, 0]), n_steps * dt, dt,
                                     n_traj, seed=2**40 + 3)
        for r in range(n_traj):
            assert np.array_equal(fields[r].ravel(), _philox_fields(2**40 + 3, r, 2 * n_steps))

    def test_phase_table_moments(self):
        # the four increments are equally likely: E xi = 0, E |xi|^2 = dt,
        # E xi^2 = 0, and two channels' independent fields are uncorrelated
        dt = 0.037
        table = trajectories._phase_table(dt)
        assert table.shape == (4,)
        assert abs(table.mean()) <= 1e-17
        assert np.mean(np.abs(table) ** 2) == pytest.approx(dt, rel=1e-15)
        assert abs(np.mean(table**2)) <= 1e-17
        pairs = np.array(list(itertools.product(table, repeat=2)))
        assert abs(np.mean(pairs[:, 0] * pairs[:, 1].conj())) <= 1e-17
        assert abs(np.mean(pairs[:, 0] * pairs[:, 1])) <= 1e-17

    @pytest.mark.parametrize("model, n_steps", [
        (qubit_decay_model(1.0, 1.0), 3),
        (qubit_decay_model(1.0, 1.0), 5),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5])), 3),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5])), 4),
    ], ids=["one_jump_3", "one_jump_5", "two_jumps_3", "two_jumps_4"])
    def test_exact_mean_is_one_step_map(self, model, n_steps):
        # every one of the 4^(n_steps * n_jump) increment paths, stepped by
        # the package's stepper and table, weighted equally: the exact
        # ensemble mean, which must be Phi^n rho0 with Phi(rho) = U rho U^H
        # + dt sum_k Lt_k rho Lt_k^H built here, to rounding.  Saving every
        # step takes one step per group; saving only the last takes the
        # groups 3, 4 + 1, 2 + 1 and 2 + 2 steps long
        dt = 0.05
        gammas = np.real(np.diag(model.kossakowski))
        H_eff = model.hamiltonian - 0.5j * sum(
            g * (L.conj().T @ L) for g, (L, _) in zip(gammas, model.jump_operators))
        U = scipy.linalg.expm(-1j * dt * H_eff)
        ls = [math.sqrt(g) * L for g, (L, _) in zip(gammas, model.jump_operators)]
        u_step, ls_scaled = trajectories._step_operators(model, dt)
        n_jump = len(ls)
        incr = trajectories._phase_table(dt)[:, None, None] * ls_scaled[:, None]
        paths = np.array(list(itertools.product(range(4), repeat=n_steps * n_jump)), dtype=np.uint8)
        fields = paths.reshape(len(paths), n_steps, n_jump)
        psi0 = np.array([0.6, 0.8j])
        psi = np.tile(psi0, (len(paths), 1))
        out = np.empty((len(paths), n_steps + 1, 2), dtype=complex)
        _accel.step_trajectory_chunk(psi, u_step, incr, fields, 1, out)
        grouped = np.empty((len(paths), 2, 2), dtype=complex)
        _accel.step_trajectory_chunk(np.tile(psi0, (len(paths), 1)), u_step, incr, fields,
                                     n_steps, grouped)
        assert np.abs(grouped[:, 1] - out[:, -1]).max() <= 1e-14
        # summed along a contiguous axis, pairwise, so the 4^n terms round
        # to about log2(4^n) ulps
        proj = np.ascontiguousarray(np.einsum("rsi,rsj->sijr", out, out.conj()))
        means = proj.sum(axis=-1) / len(paths)
        rho0 = DensityMatrix.pure(psi0)
        ours = one_step_means(model, rho0, dt, dt * np.arange(n_steps + 1))
        rho = np.outer(psi0, psi0.conj())
        for s in range(n_steps + 1):
            assert np.abs(means[s] - rho).max() <= 1e-14
            assert np.abs(ours[s] - rho).max() <= 1e-14
            rho = U @ rho @ U.conj().T + dt * sum(L @ rho @ L.conj().T for L in ls)

    def test_sidak_z(self):
        for alpha, n in [(1e-3, 1), (1e-3, 10), (1e-3, 40), (0.05, 3), (1e-6, 1000)]:
            level = -math.expm1(math.log1p(-alpha) / n)
            assert _sidak_z(alpha, n) == pytest.approx(scipy.stats.norm.isf(level / 2), rel=1e-12)

    @pytest.mark.parametrize("n_traj, t, seed", [(2000, 1.0, 2), (2000, 1.0, 4), (512, 20.0, 5)])
    def test_ensemble_check_passes(self, n_traj, t, seed):
        # the mean state within its own standard errors of Phi^n rho0, and
        # the scheme's bias within t dt ||L||^2; the deep run at seed 5 is
        # the one whose trace failed the old 3-sigma check
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, t, 1e-3, n_traj, seed=seed)
        check = ensemble_check(ens, m, rho0, 1e-3)
        assert check.mean_ok and check.trace_ok
        assert check.mean_z_bound == _sidak_z(1e-3, 40)
        assert check.trace_z_bound == _sidak_z(1e-3, 10)
        # the bias of this model is its trace gain, sum_n p_n (exp(-dt) - 1 + dt)
        p = np.exp(-1e-3 * np.arange(int(round(t / 1e-3))))
        assert check.scheme_bias == pytest.approx(np.sum(p * (math.expm1(-1e-3) + 1e-3)), rel=1e-6)
        assert check.trace_defect == pytest.approx(check.scheme_bias, rel=1e-6)

    @pytest.mark.parametrize("scale, jump_rate", [(math.sqrt(2.0), 1.0), (1.0, 0.0)],
                             ids=["variance_2dt", "jump_dropped"])
    def test_ensemble_check_catches_wrong_sampler(self, monkeypatch, scale, jump_rate):
        # increments of variance 2 dt, or states stepped without the jump
        # term, fail both checks by many standard errors
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        table = trajectories._phase_table
        monkeypatch.setattr(trajectories, "_phase_table", lambda dt: scale * jump_rate * table(dt))
        ens = unravel_linear(m, rho0, 1.0, 1e-3, 2000, seed=2)
        check = ensemble_check(ens, m, rho0, 1e-3)
        assert not check.mean_ok and not check.trace_ok
        assert min(check.mean_sigma_units, check.trace_sigma_units) > 5 * check.mean_z_bound

    def test_ensemble_check_nan_fails(self):
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 4, seed=1)
        states = ens.states.copy()
        states[2, 3, 1] = complex(math.nan, 0.0)
        mean = ens.mean_state.copy()
        mean[3, 1, 1] = math.nan
        check = ensemble_check(dataclasses.replace(ens, states=states, mean_state=mean), m, rho0, 1e-3)
        assert not check.mean_ok and not check.trace_ok

    def test_ensemble_check_zero_time_exact(self):
        # t = 0 carries no Monte-Carlo spread: a mean state off by more
        # than rounding there fails, however small
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 200, seed=1)
        assert ensemble_check(ens, m, rho0, 1e-3).trace_ok
        mean = ens.mean_state.copy()
        mean[0, 1, 1] += 1e-9
        check = ensemble_check(dataclasses.replace(ens, mean_state=mean), m, rho0, 1e-3)
        assert not check.mean_ok and not check.trace_ok


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
        # boundary (which cuts a 2-step group) and save by global step index
        rng = np.random.default_rng(0)
        d, steps, chunk, stride = 2, 60, 5, 10
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        u_step = np.eye(d) - 1j * 1e-2 * (0.5 * SZ - 0.25j * (SM.conj().T @ SM))
        ls = np.array([0.7 * SM, 0.4 * SZ], dtype=complex)
        incr = 0.1 * np.array([1, 1j, -1, -1j])[:, None, None] * ls[:, None]
        fields = rng.integers(0, 4, size=(chunk, steps, 2), dtype=np.uint8)
        out = np.empty((chunk, steps // stride + 1, d), dtype=complex)
        psi = np.tile(psi0, (chunk, 1))
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, :25], stride, out)
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, 25:], stride, out, 25)
        for r in range(chunk):
            state = psi0.copy()
            expected = [state]
            for s in range(steps):
                state = u_step @ state + sum(incr[k, fields[r, s, k]] @ state for k in range(2))
                if (s + 1) % stride == 0:
                    expected.append(state)
            assert np.abs(out[r] - np.array(expected)).max() <= 1e-13
        assert np.array_equal(psi, out[:, -1])

    @pytest.mark.parametrize("zero_row", [False, True], ids=["dense", "zero_row"])
    def test_step_chunk_dense_matches_loop(self, zero_row):
        # d = 3, two jumps, every entry of u_step and of both L_k nonzero (or
        # one all-zero row of L_1): the row-layout sums of the group tables
        # against a matvec loop
        rng = np.random.default_rng(2)
        d, steps, chunk, stride = 3, 40, 9, 8
        m = _dense_three_level()
        u_step = expm(-1j * 1e-2 * m.hamiltonian)
        ls = np.array([L for L, _ in m.jump_operators])
        if zero_row:
            ls[1, 1] = 0.0
        assert np.all(u_step != 0) and np.count_nonzero(ls) == ls.size - 3 * zero_row
        incr = 0.1 * np.array([1, 1j, -1, -1j])[:, None, None] * ls[:, None]
        psi0 = np.array([0.6, 0.48j, 0.64], dtype=complex)
        fields = rng.integers(0, 4, size=(chunk, steps, 2), dtype=np.uint8)
        out = np.empty((chunk, steps // stride + 1, d), dtype=complex)
        psi = np.tile(psi0, (chunk, 1))
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, :13], stride, out)
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, 13:], stride, out, 13)
        for r in range(chunk):
            state = psi0.copy()
            expected = [state]
            for s in range(steps):
                state = u_step @ state + sum(incr[k, fields[r, s, k]] @ state for k in range(2))
                if (s + 1) % stride == 0:
                    expected.append(state)
            assert np.abs(out[r] - np.array(expected)).max() <= 1e-13
        assert np.array_equal(psi, out[:, -1])

    @pytest.mark.parametrize("n_jump", [0, 1, 2, 3, 5])
    def test_group_tables_are_step_products(self, n_jump):
        # every entry of every table of every group length equals the
        # explicit product of its steps' M(c) = U + sum_k incr[k, c_k], last
        # step leftmost, to 1e-15 of the product's largest entry; five jumps
        # take a table of jumps 0-3 with U and one of jump 4 without
        rng = np.random.default_rng(5)
        d, dt = 3, 1e-3
        m = _dense_three_level()
        u_step = expm(-1j * dt * m.hamiltonian)
        ls = 0.5 * (rng.normal(size=(n_jump, d, d)) + 1j * rng.normal(size=(n_jump, d, d)))
        incr = trajectories._phase_table(dt)[:, None, None] * ls[:, None]

        def step_matrix(codes):
            return u_step + sum(incr[k, c] for k, c in enumerate(codes))

        for steps in range(1, (4 // n_jump if n_jump in (1, 2, 4) else 1) + 1):
            tables = _accel._group_tables(u_step, incr, steps)
            assert len(tables) == max(1, -(-n_jump // 4))
            for t, table in enumerate(tables):
                n_fields = min(4, steps * n_jump - 4 * t)
                assert table.shape == (4**n_fields, d, d)
                for code, entry in enumerate(table):
                    fields = [(code >> 2 * i) & 3 for i in range(n_fields)]
                    if n_jump > 4:
                        jumps = range(4 * t, 4 * t + n_fields)
                        expected = (u_step if t == 0 else 0) + sum(
                            incr[k, c] for k, c in zip(jumps, fields))
                    else:
                        expected = np.eye(d)
                        for s in range(steps):
                            expected = step_matrix(fields[s * n_jump:(s + 1) * n_jump]) @ expected
                    assert np.abs(entry - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("lengths", [[4, 4], [4, 1, 3, 2, 4]], ids=["bytes", "padded"])
    def test_byte_codes(self, lengths):
        # runs of one to four fields, every field value at every place of a
        # run: each run's code is sum_i field_i 4^i
        fields = np.array(list(itertools.product(range(4), repeat=4)), dtype=np.uint8)
        rows = np.concatenate([fields[:, :n] for n in lengths], axis=1)
        codes = _accel._byte_codes(rows, lengths)
        assert codes.shape == (len(lengths), len(fields)) and codes.dtype == np.intp
        for run, n in enumerate(lengths):
            assert np.array_equal(codes[run], fields[:, :n] @ (4 ** np.arange(n)))

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
