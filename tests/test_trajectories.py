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
from relclock.gkls import DensityMatrix, GKLSModel, evolve, expm, qubit_decay_model
from relclock.kernels import CoherentReadoutKernel, GaussianKernel, PositivityError
from relclock.trajectories import (
    _keyed_words,
    _sidak_z,
    ensemble_check,
    one_step_means,
    sample_colored_noise,
    unravel_linear,
    write_ensemble_csv,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)


def _numpy_words(seed, index, first, n):
    """Raw words first .. first + n - 1 of numpy's Philox keyed (seed,
    index), a test-only oracle: set to counter first // 4, its next words
    are 4 (first // 4) onwards."""
    bits = np.random.Philox(counter=first // 4, key=np.array([seed, index], dtype=np.uint64))
    return bits.random_raw(first % 4 + n)[first % 4:]


def _philox4x64(key, counter):
    """The four words Philox4x64-10 makes from a counter and a two-word key,
    written out from Salmon et al. (SC'11): ten rounds of two 64 x 64 -> 128
    bit products, the key bumped by the Weyl constants between rounds."""
    mask = 2**64 - 1
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & mask, (p0 >> 64) ^ c3 ^ k1, p0 & mask
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & mask, (k1 + 0xBB67AE8584CAA73B) & mask
    return [c0, c1, c2, c3]


def _philox_words(seed, index, first, n):
    """Raw words first .. first + n - 1 of the stream keyed (seed, index),
    from the written-out rounds: words 4c .. 4c + 3 come from counter c + 1."""
    blocks = range(first // 4, (first + n - 1) // 4 + 1)
    words = [w for c in blocks for w in _philox4x64((seed, index), (c + 1, 0, 0, 0))]
    return np.array(words[first % 4:first % 4 + n], dtype=np.uint64)


def _dense(field):
    """The field's n x n target M and sample covariance R W R^H, formed
    densely from its factors: a test-only oracle."""
    M = scipy.linalg.toeplitz(field.target.conj(), field.target)
    return M, field.root @ field.draws @ field.root.conj().T


def _eigen_rank(M):
    """M's eigenvalues, its tolerance 1e-8 M_00 and the count of eigenvalues
    above it: a dense ``eigh`` oracle."""
    eigvals = np.linalg.eigvalsh(M)
    tol = 1e-8 * M[0, 0].real
    return eigvals, tol, int(np.count_nonzero(eigvals > tol))


def _dense_pivoted_root(M):
    """Pivoted Cholesky written out on the dense residual: pivot on its
    largest diagonal entry until its trace is at most 1e-8 M_00."""
    E, cols = M.copy(), []
    while np.trace(E).real > 1e-8 * M[0, 0].real:
        p = int(np.argmax(np.diag(E).real))
        cols.append(E[:, p] / math.sqrt(E[p, p].real))
        E = E - np.outer(cols[-1], cols[-1].conj())
    return np.array(cols).reshape(len(cols), len(M)).T


def _cache_correlator(monkeypatch):
    """Make the sampler evaluate each correlator lag once per test."""
    values = {}
    original = trajectories.wightman_timelike

    def cached(env, kernel, s):
        if s not in values:
            values[s] = original(env, kernel, s)
        return values[s]

    monkeypatch.setattr(trajectories, "wightman_timelike", cached)


def _reference_normals(seed, k, n_rows):
    """The (n_rows, k) complex normals, written out: xi[r, a] is the
    Box-Muller transform sqrt(-ln u1) e^{2 pi i u2} of words 2r and 2r + 1
    of the stream keyed (seed, a) from the written-out rounds, u = ((w >>
    11) + 1) 2^-53."""
    words = np.array([_philox_words(seed, a, 0, 2 * n_rows) for a in range(k)]).reshape(k, n_rows, 2)
    u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    radius, angle = np.sqrt(-np.log(u[..., 0])), 2.0 * math.pi * u[..., 1]
    xi = np.empty((n_rows, k), dtype=complex)
    xi.real, xi.imag = (radius * np.cos(angle)).T, (radius * np.sin(angle)).T
    return xi


def _reference_noise(evaluate, grid, root, n_real, seed):
    """The per-pair dict covariance and the block sampler for a given root,
    written out: the written-out normals (``_reference_normals``) in
    zero-padded blocks of R rows, one GEMM per block."""
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
    k = root.shape[1]
    R = max(1, trajectories._SAMPLE_BYTES // (16 * k))
    n_blocks = -(-n_real // R)
    xi = np.zeros((n_blocks * R, k), dtype=complex)
    xi[:n_real] = _reference_normals(seed, k, n_real)
    samples = np.concatenate([block @ root.T for block in np.split(xi, n_blocks)])
    return 0.5 * (M + M.conj().T), samples[:n_real]


def _matvec_noise(root, n_real, seed):
    """The per-realization sampler: realization r is root times its own k
    written-out normals, one matvec per realization."""
    xi = _reference_normals(seed, root.shape[1], n_real)
    return np.array([root @ row for row in xi])


def _philox_fields(seed, r, n_fields):
    """Trajectory r's first ``n_fields`` two-bit fields, decoded here from raw
    Philox words: its word j is word r of Philox(key=(seed, j)), and field f
    is bits 2 (f mod 32) and 2 (f mod 32) + 1 of its word f // 32."""
    words = [int(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)).random_raw(r + 1)[r])
             for j in range(-(-n_fields // 32))]
    return np.array([(words[f // 32] >> (2 * (f % 32))) & 3 for f in range(n_fields)],
                    dtype=np.uint8)


def _philox_increments(seed, r, n_fields, dt):
    """Trajectory r's first ``n_fields`` increments: field value c selects
    sqrt(dt) * (1, i, -1, -i)[c]."""
    return math.sqrt(dt) * np.array([1, 1j, -1, -1j])[_philox_fields(seed, r, n_fields)]


def _reference_unravel(m, psi0, t, dt, n_traj, seed, n_out):
    """The whole-stream unraveling, written out: each trajectory decodes all
    of its increments from its raw words (``_philox_fields``), then every
    trajectory takes every step, one matrix product per step and jump.  The step
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


def _recorded(monkeypatch, *args, **kwargs):
    """``unravel_linear(*args, **kwargs)``, the two-bit fields it stepped
    through, as one (n_traj, n_steps, n_jump) uint8 array, and the states it
    saved, as one (n_traj, n_out, d) array."""
    chunks = []
    stepper = trajectories.step_trajectory_chunk

    def recording(psi, u_step, incr, noise, save_stride, out, step0=0):
        if step0 == 0:
            chunks.append(([], []))
        result = stepper(psi, u_step, incr, noise, save_stride, out, step0)
        chunks[-1][0].append(noise.copy())
        chunks[-1][1].append(out.copy())
        return result

    monkeypatch.setattr(trajectories, "step_trajectory_chunk", recording)
    ens = unravel_linear(*args, **kwargs)
    monkeypatch.setattr(trajectories, "step_trajectory_chunk", stepper)
    fields, states = (np.concatenate([np.concatenate(c[i], axis=1) for c in chunks]) for i in (0, 1))
    assert np.array_equal(ens.states[:, 0], states[:, -1])
    return ens, fields, states


def _summaries(states):
    """The mean projector, stat_error and std_error at each saved time,
    written out as direct two-pass sums over the trajectories (numpy's
    ``mean`` and ``std``)."""
    n_traj, n_save, d = states.shape
    proj = np.einsum("rsa,rsb->rsab", states, states.conj())
    mean = proj.mean(axis=0)
    stat = np.sqrt((np.abs(proj - mean) ** 2).mean(axis=0).sum(axis=(1, 2)) / n_traj)
    coords = np.where(np.triu(np.ones((d, d), dtype=bool)), proj.real,
                      proj.imag.transpose(0, 1, 3, 2)).reshape(n_traj, n_save, d * d)
    trace = np.trace(proj, axis1=2, axis2=3).real
    std = np.concatenate((coords, trace[..., None]), axis=-1).std(axis=0) / math.sqrt(n_traj)
    return mean, stat, std


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
        M = _dense(field)[0]
        assert np.abs(M - M.conj().T).max() <= 1e-12 * np.abs(M).max()
        assert np.linalg.eigvalsh(M).min() >= -1e-8 * np.real(np.diag(M)).max()

    @pytest.mark.parametrize("env, kernel", [
        (EnvironmentSpec(), GaussianKernel(1.0)),
        (EnvironmentSpec(), CoherentReadoutKernel(R=1.0, omega_C=1.0)),
        (EnvironmentSpec(beta=1.0), GaussianKernel(1.0)),
    ], ids=["gaussian", "coherent", "thermal"])
    def test_target_covariance_exactly_hermitian(self, env, kernel):
        # the target is kept as its first row, with a real C(0), so the
        # Toeplitz matrix it stands for is Hermitian bit for bit
        row = sample_colored_noise(env, kernel, np.linspace(0, 4, 16), 100, seed=1).target
        assert row.shape == (16,) and row[0].imag == 0.0
        M = scipy.linalg.toeplitz(row.conj(), row)
        assert np.array_equal(M, M.conj().T)
        assert np.linalg.eigvalsh(M).min() >= -1e-8 * np.real(np.diag(M)).max()

    def test_sample_covariance_converges(self):
        env = EnvironmentSpec()
        field = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 4, 24), 20_000, seed=3)
        M, sample = _dense(field)
        assert np.linalg.norm(sample - M) / np.linalg.norm(M) <= 0.05

    def test_coupling_off_gives_zero(self):
        env = EnvironmentSpec(coupling_g=0.0)
        field = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 50, seed=5)
        assert np.all(field.samples == 0.0)

    def test_coupling_off_draws_nothing(self, monkeypatch):
        # a zero target has rank 0, so no stream is keyed
        def refuse(*args):
            raise AssertionError("a stream was drawn for a rank-0 root")

        monkeypatch.setattr(trajectories, "_keyed_words", refuse)
        env = EnvironmentSpec(coupling_g=0.0)
        field = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 50, seed=5)
        assert field.root.shape == (8, 0) and field.draws.shape == (0, 0)
        assert field.clipped_mass == 0.0
        summary = trajectories._lag_summary(field)
        assert np.array_equal(summary[2], np.zeros(8)) and summary[4:] == (0.0, 0.0)
        assert np.array_equal(field.samples, np.zeros((50, 8)))

    def test_single_point_variance(self):
        env = EnvironmentSpec()
        n = 4000
        field = sample_colored_noise(env, GaussianKernel(1.0), [0.0], n, seed=9)
        c0 = field.target[0].real
        var = np.mean(np.abs(field.samples) ** 2)
        assert abs(var - c0) <= 3.0 / math.sqrt(n) * c0

    def test_seed_reproducibility(self):
        env = EnvironmentSpec()
        a = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 64, seed=11)
        b = sample_colored_noise(env, GaussianKernel(1.0), np.linspace(0, 2, 8), 64, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_grid_size_limit(self):
        # one clear error past the cap, before any correlator is evaluated
        with pytest.raises(ValueError, match="noise grid of 4097 points is past the cap of 4096"):
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), np.linspace(0, 4, 4097), 2, seed=1)
        # and past the 256 directions that no grid of the old 256-point cap could need
        with pytest.raises(ValueError, match="noise root needs more than 256 directions"):
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), np.linspace(0, 40, 300), 1, seed=1)

    @pytest.mark.parametrize("grid", [[], [0.0, math.nan], [0.0, math.inf, 2.0],
                                      [0.0, 1.0, 3.0], [1.0, 1.0], [[0.0, 1.0]]],
                             ids=["empty", "nan", "inf", "uneven", "repeated", "2d"])
    def test_bad_grid_named(self, grid):
        with pytest.raises(ValueError, match="grid"):
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, 2, seed=1)

    @pytest.mark.parametrize("n_points", [1, 8, 32, 64, 256])
    def test_matches_reference_construction(self, monkeypatch, n_points):
        # one evaluation per lag, at the rounded keys the pairwise dict loop
        # evaluates; the written-out pivoted Cholesky's R R^H to rounding (its
        # last columns, over sqrt(E_pp) ~ 1e-4, differ by 1e-11 relative), and
        # samples bit-identical to the block sampler's on the field's root
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
        M, samples = _reference_noise(lambda s: recording(env, kernel, s), grid, field.root, n_real, 17)
        assert ours == calls
        assert len(ours) == n_points
        assert np.array_equal(_dense(field)[0], M)
        root = _dense_pivoted_root(M)
        assert root.shape == field.root.shape
        gram = field.root @ field.root.conj().T
        assert np.abs(gram - root @ root.conj().T).max() <= 1e-13 * M[0, 0].real
        assert np.array_equal(field.samples, samples)
        # the block product rounds differently from one matvec per realization
        matvec = _matvec_noise(field.root, n_real, 17)
        assert np.abs(field.samples - matvec).max() <= 1e-13 * np.abs(matvec).max()

    @pytest.mark.parametrize("n_points", [1, 8, 32, 256])
    def test_realization_independent_of_count(self, monkeypatch, n_points):
        # realization r has the same bits whether it sits in a full block, a
        # zero-padded last block or the only block
        _cache_correlator(monkeypatch)
        env, kernel = EnvironmentSpec(), GaussianKernel(1.0)
        grid = [0.0] if n_points == 1 else np.linspace(0.0, 4.0, n_points)
        # the blocks hold R rows of k = rank normals each
        k = sample_colored_noise(env, kernel, grid, 1, seed=31).root.shape[1]
        R = max(1, trajectories._SAMPLE_BYTES // (16 * k))
        counts = [1, R - 1, R, R + 1, 3 * R + 2]
        runs = [sample_colored_noise(env, kernel, grid, c, seed=31).samples for c in counts]
        longest = runs[-1]
        for c, samples in zip(counts, runs):
            assert samples.shape == (c, n_points)
            assert np.array_equal(samples, longest[:c])

    @pytest.mark.parametrize("n_real, n_points", [
        (20_000, 256),  # rank 40: full blocks of 409 draws
        (1001, 32),     # short last blocks
        (5, 8),
        (7, 1),
    ])
    def test_sample_covariance_matches_samples(self, n_real, n_points):
        # streamed from the draws: W Hermitian, and R W R^H the one-shot
        # product z^H z / N of the regenerated realizations to 1e-13 relative
        grid = [0.0] if n_points == 1 else np.linspace(0.0, 4.0, n_points)
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, n_real, seed=23)
        assert np.abs(field.draws - field.draws.conj().T).max() <= 1e-13 * np.abs(field.draws).max()
        got = _dense(field)[1]
        z = field.samples
        ref = (z.conj().T @ z).T / n_real
        scale = np.abs(ref).max()
        assert np.abs(got - got.conj().T).max() <= 1e-13 * scale
        assert np.abs(got - ref).max() <= 1e-13 * scale

    @staticmethod
    def _sampler_peak(n_points):
        grid = np.linspace(0.0, 4.0, n_points)
        tracemalloc.start()
        try:
            sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, 20_000, seed=29)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_covariance_memory(self):
        # no (n_real, n) buffer and no n x n array: 20 000 x 256 realizations
        # would take 78 MiB; the eigen-root and its three n x n matrices
        # peaked at 4.5 MiB, the pivoted root and its factors at 2.2 MiB
        assert self._sampler_peak(256) < 3 * 2**20

    def test_sample_covariance_memory_at_the_cap(self):
        # at 4096 points one n x n complex matrix would take 256 MiB; the
        # root's k = 42 columns take 2.6 MiB, and the sampler peaks at 8.5 MiB
        assert self._sampler_peak(4096) < 12 * 2**20

    @pytest.mark.parametrize("n_points, rank", [(1, 1), (8, 8), (32, 32), (64, 38), (256, 39)])
    def test_root_rank_and_clipped_mass(self, n_points, rank):
        # against a dense eigh oracle: the pivoted root stops once the residual
        # trace is within the tolerance, so it keeps at most one column past the
        # eigen-rank, it is within the tolerance of the target in the 2-norm,
        # and the clipped mass is the residual's trace: +0.0 at full rank,
        # where every row is a pivot
        grid = [0.0] if n_points == 1 else np.linspace(0.0, 4.0, n_points)
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, 1, seed=37)
        M = _dense(field)[0]
        _, tol, eigen_rank = _eigen_rank(M)
        k = field.root.shape[1]
        assert eigen_rank == rank and rank <= k <= rank + 1
        residual = M - field.root @ field.root.conj().T
        assert np.linalg.norm(residual, 2) <= tol
        assert field.clipped_mass == pytest.approx(np.trace(residual).real, rel=0.0, abs=1e-12 * M[0, 0].real)
        if k == n_points:
            assert field.clipped_mass == 0.0 and math.copysign(1.0, field.clipped_mass) == 1.0

    def test_root_stopped_on_largest_diagonal_fails(self):
        # stopping once the residual's largest diagonal entry, not its trace,
        # is within the tolerance keeps fewer of the same greedy columns and
        # leaves the residual past the tolerance in the 2-norm
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), np.linspace(0.0, 4.0, 256), 1, 37)
        M, R = _dense(field)[0], field.root
        _, tol, _ = _eigen_rank(M)
        diag = M[0, 0].real - np.cumsum(np.abs(R) ** 2, axis=1)  # residual diagonal after j + 1 columns
        stop = 1 + int(np.argmax(diag.max(axis=0) <= tol))
        assert stop < R.shape[1]
        assert np.linalg.norm(M - R[:, :stop] @ R[:, :stop].conj().T, 2) > 2.0 * tol

    @pytest.mark.parametrize("scale, raises", [(-10.0, True), (-0.1, False)])
    def test_negative_eigenvalue_raises(self, scale, raises):
        # a circulant, so Hermitian Toeplitz, target with eigenvalues exp(-(m / 4)^2)
        # and one at scale * tol: the Lanczos bound on the residual finds
        # -10 tol, and lets -0.1 tol pass
        n = 128
        freq = np.minimum(np.arange(n), n - np.arange(n))
        mu = np.exp(-((freq / 4.0) ** 2))
        mu[n // 2] = scale * 1e-8 * mu.mean()
        column = np.fft.ifft(mu)
        row = column[(-np.arange(n)) % n]
        M = scipy.linalg.toeplitz(row.conj(), row)
        assert np.linalg.eigvalsh(M).min() == pytest.approx(scale * 1e-8 * row[0].real, rel=1e-6)
        if raises:
            with pytest.raises(PositivityError, match="not positive type"):
                trajectories._pivoted_root(row)
        else:
            root, _ = trajectories._pivoted_root(row)
            assert np.linalg.norm(M - root @ root.conj().T, 2) <= 1e-8 * row[0].real

    def test_sample_covariance_error_law(self, monkeypatch):
        # circular draws give E ||C_hat - C||_F^2 = sum_jk C_jj C_kk / N =
        # (tr C)^2 / N, whatever the rank: the mean of N ||C_hat - C||_F^2 /
        # (tr C)^2 over 30 seeds is 1 within a Student-t bound at a two-sided
        # false-alarm rate of 1e-3 (3.66 standard errors); one stream reused
        # for two realizations reads about 2
        _cache_correlator(monkeypatch)
        grid, n_real, seeds = np.linspace(0.0, 4.0, 64), 2000, range(30)
        ratios = []
        for seed in seeds:
            field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, n_real, seed)
            C, sample = _dense(field)
            ratios.append(n_real * np.linalg.norm(sample - C) ** 2 / np.trace(C).real ** 2)
            err, bound = trajectories._lag_summary(field)[4:]
            assert err <= bound, seed  # a single-run false alarm at rate 1e-3
        assert field.root.shape[1] < grid.size
        se = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
        bound = scipy.stats.t.isf(0.5e-3, len(ratios) - 1)
        assert abs(np.mean(ratios) - 1.0) <= bound * se

    @pytest.mark.parametrize("n_points", [32, 256])
    def test_frobenius_check_has_power(self, monkeypatch, n_points):
        # at the noise defaults' effective rank p_1^2 / p_2 of about 20 the
        # bound on X = N ||C_hat - C||_F^2 sits near 1.4 p_1^2: a correct run
        # stays below it, while a variance off by sqrt(2), a root that drops
        # its leading direction and a stream reused for two realizations (X
        # near 2 p_1^2) each fail in a single run.  Dropping the last
        # direction, whose mass is below the rank tolerance, is a bias of
        # 1e-8 that no Monte-Carlo check sees; the 2-norm root tests do
        _cache_correlator(monkeypatch)
        args = (EnvironmentSpec(), GaussianKernel(5.0), np.linspace(0.0, 4.0, n_points), 5000)
        field = sample_colored_noise(*args, seed=47)
        err, bound = trajectories._lag_summary(field)[4:]
        assert err <= bound
        scaled = dataclasses.replace(field, draws=math.sqrt(2.0) * field.draws)
        err, bound = trajectories._lag_summary(scaled)[4:]
        assert err > bound
        dropped = dataclasses.replace(field, root=field.root[:, 1:], draws=field.draws[1:, 1:])
        err, bound = trajectories._lag_summary(dropped)[4:]
        assert err > bound
        keyed = trajectories._keyed_words

        def reused(seed, columns, first, n):  # realization 2m + 1 draws the words of 2m
            words = keyed(seed, columns, first, n)
            end = n - n % 4
            words[:, 2:end:4], words[:, 3:end:4] = words[:, 0:end:4], words[:, 1:end:4]
            return words

        monkeypatch.setattr(trajectories, "_keyed_words", reused)
        err, bound = trajectories._lag_summary(sample_colored_noise(*args, seed=47))[4:]
        assert err > bound

    @pytest.mark.parametrize("n_points, n_real", [(1, 300), (8, 300), (32, 300), (256, 20_000)],
                             ids=["1", "8", "32", "256"])
    def test_lag_summary_columns(self, monkeypatch, n_points, n_real):
        # one row per lag: the target's first row, and the plain mean of each
        # superdiagonal of the sample covariance; the means and the Frobenius
        # error, taken from the factors, match the dense forms to 1e-13
        _cache_correlator(monkeypatch)
        grid = [0.5] if n_points == 1 else np.linspace(0.5, 4.5, n_points)
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, n_real, seed=41)
        lag_t, target, sample, std_error, err, _ = trajectories._lag_summary(field)
        assert lag_t.shape == target.shape == sample.shape == std_error.shape == (n_points,)
        assert np.array_equal(lag_t, np.asarray(grid) - grid[0])
        assert np.array_equal(target, field.target)
        M, dense = _dense(field)
        means = np.array([np.diagonal(dense, lag).mean() for lag in range(n_points)])
        assert np.abs(sample - means).max() <= 1e-13 * np.abs(means).max()
        assert err == pytest.approx(np.linalg.norm(dense - M) / np.linalg.norm(M), rel=1e-13, abs=0.0)

    def test_lag_std_error_brute_force(self, monkeypatch):
        # the convolution gives sum_{a, b < m} |M_ab|^2 / (N m^2), m = n - lag
        _cache_correlator(monkeypatch)
        n, n_real = 12, 700
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0),
                                     np.linspace(0.0, 3.0, n), n_real, seed=43)
        power = np.abs(_dense(field)[0]) ** 2
        brute = [math.sqrt(power[: n - lag, : n - lag].sum() / (n_real * (n - lag) ** 2))
                 for lag in range(n)]
        std_error = trajectories._lag_summary(field)[3]
        assert np.abs(std_error - brute).max() <= 1e-12 * np.abs(brute).min()

    def test_lag_std_error_law(self, monkeypatch):
        # E |c_hat_l - c_l|^2 = std_error_l^2 at every lag: the mean over the
        # 16 lags of |c_hat_l - c_l|^2 / std_error_l^2, one value per seed, has
        # mean 1, and over 200 seeds it stays within a Student-t bound at a
        # two-sided false-alarm rate of 1e-3 (3.34 standard errors; the
        # ratios are skewed, so 4 of 2000 disjoint 200-seed sets alarmed, and
        # 6 of 2000 40-seed sets).  A law off by sqrt(2) either way reads 1/2
        # or 2 and must fail.
        _cache_correlator(monkeypatch)
        grid, n_real, seeds = np.linspace(0.0, 4.0, 16), 200, range(200)
        ratios = []
        for seed in seeds:
            field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0), grid, n_real, seed)
            _, target, sample, std_error, _, _ = trajectories._lag_summary(field)
            ratios.append(np.mean(np.abs(sample - target) ** 2 / std_error**2))
        bound = scipy.stats.t.isf(0.5e-3, len(seeds) - 1)

        def within(scale):  # the ratios of std_error * scale
            q = np.array(ratios) / scale**2
            return abs(q.mean() - 1.0) <= bound * q.std(ddof=1) / math.sqrt(q.size)

        assert within(1.0)
        assert not within(math.sqrt(2.0)) and not within(1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("seed, r", [(0, 0), (3, 5), (3, 2**40), (2**63 + 7, 1), (41, 2**64 - 1)])
    def test_stream_matches_keyed_philox(self, seed, r):
        # the stream keyed (seed, r), keys up to 2^64 - 1: numpy's Philox
        # words and the written-out rounds, word for word
        got = _keyed_words(seed, [r], 0, 64)
        assert got.shape == (1, 64) and got.dtype == np.uint64
        assert np.array_equal(got[0], _numpy_words(seed, r, 0, 64))
        assert np.array_equal(got[0], _philox_words(seed, r, 0, 64))

    def test_rekey_matches_fresh_stream(self):
        # one read keys each of its columns afresh: row i of a read of the
        # keys below, a key repeated and one past 2^63, is the fresh stream
        # of that key alone
        keys = [5, 0, 2**40, 5, 2**64 - 1]
        got = _keyed_words(3, keys, 1021, 40)
        assert got.shape == (len(keys), 40)
        for row, key in zip(got, keys):
            assert np.array_equal(row, _numpy_words(3, key, 1021, 40))
            assert np.array_equal(row, _keyed_words(3, [key], 1021, 40)[0])

    @pytest.mark.parametrize("first, n", [(0, 5), (1, 3), (6, 9), (7, 1), (1021, 40),
                                          (2**40 + 1, 7), (2**40 + 2, 2), (2**40 + 3, 10)])
    def test_keyed_words_positioned_by_counter(self, first, n):
        # a read that starts at any word, first mod 4 in {0, 1, 2, 3}, past
        # 2^40, and crosses counter blocks, for a key of 2^64 - 1 too:
        # numpy's words from that counter and the written-out rounds
        keys = (9, 2**64 - 1)
        got = _keyed_words(2**40 + 3, keys, first, n)
        assert got.shape == (2, n) and got.dtype == np.uint64
        for row, key in zip(got, keys):
            assert np.array_equal(row, _numpy_words(2**40 + 3, key, first, n))
            assert np.array_equal(row, _philox_words(2**40 + 3, key, first, n))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_a_word_refused(self, seed):
        # a seed is one key word: nothing outside [0, 2^64) wraps onto a key
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64 - 1\]"):
            _keyed_words(seed, [0], 0, 4)

    @pytest.mark.parametrize("n_points, n_real", [(8, 1), (32, 5000)])
    def test_rekeys_once_per_block(self, monkeypatch, n_points, n_real):
        # one read of words 2 start .. 2 stop - 1 of all k streams per block
        # of R realizations, the whole block even where it passes n_real
        _cache_correlator(monkeypatch)
        calls = []
        keyed = trajectories._keyed_words

        def spy(seed, columns, first, n):
            calls.append((list(columns), first, n))
            return keyed(seed, columns, first, n)

        monkeypatch.setattr(trajectories, "_keyed_words", spy)
        field = sample_colored_noise(EnvironmentSpec(), GaussianKernel(1.0),
                                     np.linspace(0.0, 4.0, n_points), n_real, seed=3)
        k = field.root.shape[1]
        R = max(1, trajectories._SAMPLE_BYTES // (16 * k))
        assert calls == [(list(range(k)), 2 * start, 2 * R) for start in range(0, n_real, R)]

    def test_normal_law(self, monkeypatch):
        # the complex normals in units of their own Monte-Carlo error: the
        # means of Re xi, Im xi, |xi|^2 - 1, Re xi^2 and Im xi^2 each within a
        # Sidak z at a family-wise false-alarm rate of 1e-3, and |xi|^2
        # Exp(1) by a Kolmogorov-Smirnov test at 1e-3.  Variance off by
        # sqrt(2), or a phase that reuses u1 as u2, must fail
        def normals():
            return np.concatenate([xi[:stop - start].flatten()  # a copy: the buffer is refilled
                                   for start, stop, xi in trajectories._draw_blocks(61, 3, 20_000)])

        def law_holds(xi):
            stats = (xi.real, xi.imag, np.abs(xi) ** 2 - 1.0, (xi**2).real, (xi**2).imag)
            z = max(abs(v.mean()) / (v.std(ddof=1) / math.sqrt(v.size)) for v in stats)
            ks = scipy.stats.kstest(np.abs(xi) ** 2, "expon").pvalue
            return z <= _sidak_z(1e-3, len(stats)) and ks >= 1e-3

        xi = normals()
        assert xi.size == 60_000 and law_holds(xi)
        assert not law_holds(2.0**0.25 * xi)
        keyed = trajectories._keyed_words

        def reuse_u1(seed, columns, first, n):
            words = keyed(seed, columns, first, n)
            words[:, 1::2] = words[:, 0::2]
            return words

        monkeypatch.setattr(trajectories, "_keyed_words", reuse_u1)
        assert not law_holds(normals())


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

    def test_zero_dissipation_is_deterministic(self, monkeypatch):
        m = GKLSModel(2, 0.5 * SZ, [(SM, -1.0)], np.zeros((1, 1)))
        rho0 = DensityMatrix.pure([0.6, 0.8])
        ens, _, states = _recorded(monkeypatch, m, rho0, t=0.5, dt=1e-3, n_traj=32, seed=6)
        spread = np.abs(states - states[:1]).max()
        assert spread <= 1e-12
        assert ensemble_check(ens, m, rho0, 1e-3).max_deviation <= 1e-5  # euler phase error only

    def test_closed_system(self, monkeypatch):
        # no jump operators: every trajectory is the unitary orbit, exactly
        m = GKLSModel(2, 0.5 * SZ, [], np.zeros((0, 0)))
        rho0 = DensityMatrix.pure(np.array([1.0, 1.0]) / math.sqrt(2.0))
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 4, seed=1)
        assert ensemble_check(ens, m, rho0, 1e-3).max_deviation <= 1e-12
        assert ens.stat_error.max() == 0.0
        # seven in chunks of three take carries across chunks and a fold of
        # unequal blocks (4 + 2 + 1), and keep the mean and a zero spread
        monkeypatch.setattr(trajectories, "_CHUNK", 3)
        seven = unravel_linear(m, rho0, 0.1, 1e-3, 7, seed=1)
        assert np.array_equal(seven.mean_state, ens.mean_state)
        assert not np.any(seven.std_error)

    def test_rekeys_once_per_word_column_per_chunk(self, monkeypatch):
        # 3000 trajectories x 2000 steps of one jump take 63 word columns:
        # each of the three chunks keys the streams of its first window of 32
        # columns and then of the other 31 in one read each, at the counter
        # of its first row; no stream is keyed per trajectory
        calls = []
        keyed = trajectories._keyed_words

        def spy(seed, columns, first, n):
            calls.append((columns, first, n))
            return keyed(seed, columns, first, n)

        monkeypatch.setattr(trajectories, "_keyed_words", spy)
        unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]), 2.0, 1e-3, 3000,
                       seed=5)
        chunk = trajectories._CHUNK
        assert calls == [(range(j, min(j + 32, 63)), start, min(chunk, 3000 - start))
                         for start in range(0, 3000, chunk) for j in (0, 32)]

    def test_single_trajectory_norm_drifts(self):
        m = qubit_decay_model(1.0, 1.0)
        ens = unravel_linear(m, DensityMatrix.pure([1, 0]), 1.0, 1e-3, 1, seed=8)
        assert ens.states.shape == (1, 1, 2)
        norm_final = np.linalg.norm(ens.states[0, -1])
        assert norm_final != pytest.approx(1.0, abs=1e-3)

    def test_chunk_schedule_independence(self, monkeypatch):
        # trajectory r depends only on (seed, r): a run with more
        # trajectories, split into 64-trajectory chunks, blocks of at most 7
        # steps (cut to 4, a group) and one-word draws (so blocks start
        # mid-word and straddle draws), reproduces the one-chunk, one-block
        # runs bit for bit; each 50-step save interval ends in a 2-step group.
        # The moments, reduced over fixed dyadic blocks of trajectories, keep
        # their bits too
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        _, _, small = _recorded(monkeypatch, m, rho0, 0.2, 1e-3, 5, seed=13, n_out=5)
        whole, _, whole_states = _recorded(monkeypatch, m, rho0, 0.2, 1e-3, 300, seed=13, n_out=5)
        monkeypatch.setattr(trajectories, "_CHUNK", 64)
        monkeypatch.setattr(trajectories, "_BLOCK_FIELDS", 64 * 7)
        monkeypatch.setattr(trajectories, "_WORDS", 1)
        large, _, large_states = _recorded(monkeypatch, m, rho0, 0.2, 1e-3, 300, seed=13, n_out=5)
        assert np.array_equal(small, large_states[:5])
        assert np.array_equal(whole_states, large_states)
        for field in dataclasses.fields(trajectories.TrajectoryEnsemble):
            assert np.array_equal(getattr(whole, field.name), getattr(large, field.name))

    @pytest.mark.parametrize("n_traj, chunk", [(1, None), (2, 1), (45, 4), (41, 8), (48, 1)])
    def test_single_row_chunk_independence(self, monkeypatch, n_traj, chunk):
        # numpy multiplies complex rows of length 1 in place by a loop of its
        # own; a run of one trajectory, a last chunk of one row (n_traj = 1
        # mod _CHUNK) and chunks of one row still reproduce the rows of one
        # 48-trajectory chunk bit for bit, and so do the moments
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        whole, _, whole_states = _recorded(monkeypatch, m, rho0, 0.1, 1e-3, 48, seed=5)
        if chunk is not None:
            monkeypatch.setattr(trajectories, "_CHUNK", chunk)
        ens, _, states = _recorded(monkeypatch, m, rho0, 0.1, 1e-3, n_traj, seed=5)
        assert np.array_equal(states, whole_states[:n_traj])
        if n_traj == 48:
            for field in dataclasses.fields(trajectories.TrajectoryEnsemble):
                assert np.array_equal(getattr(whole, field.name), getattr(ens, field.name))

    def test_block_schedule_made_as_stepped(self, monkeypatch):
        # 10^12 steps: the first block is stepped at once, with no schedule
        # of its 1.5e7 blocks built first
        class Stepped(Exception):
            pass

        def stepper(*args):
            raise Stepped

        monkeypatch.setattr(trajectories, "step_trajectory_chunk", stepper)
        with pytest.raises(Stepped):
            unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]), 1.0, 1e-12, 4,
                           seed=1)

    def test_dense_model_chunk_schedule_independence(self, monkeypatch):
        # the same bit-exact schedule contract for a model whose products
        # are sums of three terms: two jumps, 2-step groups, blocks of 4, 4
        # and 2 steps in each 10-step save interval
        m = _dense_three_level()
        rho0 = DensityMatrix.pure(np.array([0.6, 0.48j, 0.64]))
        _, _, small = _recorded(monkeypatch, m, rho0, 0.05, 1e-3, 5, seed=19, n_out=6)
        whole, _, whole_states = _recorded(monkeypatch, m, rho0, 0.05, 1e-3, 300, seed=19, n_out=6)
        monkeypatch.setattr(trajectories, "_CHUNK", 64)
        monkeypatch.setattr(trajectories, "_BLOCK_FIELDS", 64 * 2 * 7)
        monkeypatch.setattr(trajectories, "_WORDS", 1)
        large, _, large_states = _recorded(monkeypatch, m, rho0, 0.05, 1e-3, 300, seed=19, n_out=6)
        assert np.all(np.isfinite(whole_states))
        assert np.array_equal(small, large_states[:5])
        assert np.array_equal(whole_states, large_states)
        for field in dataclasses.fields(trajectories.TrajectoryEnsemble):
            assert np.array_equal(getattr(whole, field.name), getattr(large, field.name))

    @pytest.mark.parametrize("model, n_traj, chunk, block, n_steps, n_out", [
        (qubit_decay_model(1.0, 1.0), 20, 8, 7, 60, 7),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5])), 20, 8, 7, 60, 7),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0), (SM.T, 1.0)], np.diag([1.0, 0.5, 0.25])),
         20, 8, 7, 350, 8),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0), (SM.T, 1.0), (SZ, 0.0), (SM, -1.0)],
                   np.diag([1.0, 0.5, 0.25, 0.3, 0.2])), 20, 8, 7, 60, 7),
        (GKLSModel(2, 0.5 * SZ, [], np.zeros((0, 0))), 20, 8, 7, 60, 7),
        (qubit_decay_model(1.0, 1.0), 1100, None, None, 200, 11),
        (GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5])), 20, 5, 7, 600, 7),
    ], ids=["one_jump", "two_jumps", "three_jumps", "five_jumps", "closed", "default_sizes",
            "odd_chunks"])
    def test_matches_whole_stream_reference(self, monkeypatch, model, n_traj, chunk, block,
                                            n_steps, n_out):
        # saves every 10 (or 50) steps, so one jump's 4-step groups leave a
        # 2-step group before each save; blocks of at most 7 steps are cut to
        # 4, and three jumps take 12 fields a block, so blocks start mid-word
        # and one straddles the draws of fields 0..1023 and 1024..2047; five
        # jumps take two tables a step; the default sizes
        # take two chunks (1024 + 76) and one block of 200 steps; chunks of
        # 5 start at rows 0, 5, 10 and 15, so their word reads start at every
        # position within a counter's four words.  The fields
        # stepped through are the whole-stream fields exactly, and the states
        # the per-step reference's to rounding
        if chunk is not None:
            monkeypatch.setattr(trajectories, "_CHUNK", chunk)
            monkeypatch.setattr(trajectories, "_BLOCK_FIELDS",
                                chunk * max(len(model.jump_operators), 1) * block)
        psi0 = np.array([0.6, 0.8j])
        n_jump = len(model.jump_operators)
        ens, fields, states = _recorded(monkeypatch, model, DensityMatrix.pure(psi0),
                                        n_steps * 1e-3, 1e-3, n_traj, seed=29, n_out=n_out)
        expected_fields = np.array([_philox_fields(29, r, n_steps * n_jump) for r in range(n_traj)])
        assert np.array_equal(fields, expected_fields.reshape(n_traj, n_steps, n_jump))
        # start from the state as unravel_linear phases it
        expected = _reference_unravel(model, states[0, 0], n_steps * 1e-3, 1e-3,
                                      n_traj, 29, ens.grid.size)
        norms = np.linalg.norm(expected, axis=-1, keepdims=True)
        assert np.all(np.abs(states - expected) <= _TABLE_ROUNDING * norms)
        # the streamed moments are the two-pass sums over the saved states,
        # to the rounding of their different summation orders
        for ours, direct in zip((ens.mean_state, ens.stat_error, ens.std_error),
                                _summaries(states)):
            assert ours.shape == direct.shape
            assert np.allclose(ours, direct, rtol=1e-12, atol=1e-15)

    def test_reference_bound_catches_reversed_bytes(self, monkeypatch):
        # the rounding bound keeps the reference test's power: a stepper that
        # takes each byte's four fields in reverse order misses it by more
        # than six orders of magnitude
        m = qubit_decay_model(1.0, 1.0)
        monkeypatch.setattr(trajectories, "step_trajectory_chunk",
                            _reversed_bytes(trajectories.step_trajectory_chunk))
        _, _, states = _recorded(monkeypatch, m, DensityMatrix.pure([0.6, 0.8j]), 0.06, 1e-3, 20,
                                 seed=29, n_out=4)
        expected = _reference_unravel(m, states[0, 0], 0.06, 1e-3, 20, 29, 4)
        norms = np.linalg.norm(expected, axis=-1, keepdims=True)
        assert np.max(np.abs(states - expected) / norms) > 1e6 * _TABLE_ROUNDING

    @pytest.mark.parametrize("n_out", [0, 1, -4])
    def test_n_out_named(self, n_out):
        # refused by name before the step count is divided by n_out - 1
        with pytest.raises(ValueError, match="n_out must be at least 2"):
            unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]),
                           0.1, 1e-3, 4, seed=1, n_out=n_out)

    def test_fields_never_form_noise(self):
        # 1024 trajectories x 2000 steps: past the saved states, the peak
        # holds at most 8 bytes per field of a block (the uint8 fields, the
        # intp byte codes and their temporaries) and 1 MiB for the generator
        # and its words; a complex noise block of the same
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
        assert ens.states.shape == (1024, 1, 2)
        assert peak < ens.states.nbytes + 8 * trajectories._BLOCK_FIELDS + 2**20

    def test_saved_times_cost_no_states(self):
        # 20 000 trajectories x 1000 steps: saving every step instead of
        # every 100th adds the moments and at most one block of saved states
        # and its coordinates, not a state per trajectory and time (604 MiB)
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        unravel_linear(m, rho0, 0.01, 1e-3, 4, seed=1)
        peaks = []
        for n_out in (11, 1001):
            tracemalloc.start()
            try:
                ens = unravel_linear(m, rho0, 1.0, 1e-3, 20_000, seed=3, n_out=n_out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert ens.mean_state.shape == (n_out, 2, 2) and ens.states.shape == (20_000, 1, 2)
        assert peaks[1] - peaks[0] < 16 * trajectories._BLOCK_FIELDS

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
        mixed = DensityMatrix(np.eye(2) / 2)
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
        _, fields, _ = _recorded(monkeypatch, m, DensityMatrix.pure([1, 0]), n_steps * dt, dt,
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
        # increment (r, s, k) is field s * n_jump + k of trajectory r's raw
        # words, its word j being word r of Philox(key=(seed, j)), decoded
        # here; 600 steps of two jumps take two windows of 32 word columns
        m = GKLSModel(2, 0.5 * SZ, [(SM, -1.0), (SZ, 0.0)], np.diag([1.0, 0.5]))
        n_traj, n_steps, dt = 5, 600, 1e-3
        _, fields, _ = _recorded(monkeypatch, m, DensityMatrix.pure([1, 0]), n_steps * dt, dt,
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

    def test_ensemble_check_nan_fails(self, monkeypatch):
        # a NaN that enters trajectory 2 after the fourth saved time, in
        # blocks of one 10-step save interval, reaches the moments and fails
        # both checks
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        stepper = trajectories.step_trajectory_chunk

        def poisoned(psi, u_step, incr, noise, save_stride, out, step0=0):
            if step0 == 30:
                psi[2, 1] = complex(math.nan, 0.0)
            return stepper(psi, u_step, incr, noise, save_stride, out, step0)

        monkeypatch.setattr(trajectories, "_BLOCK_FIELDS", 4 * 10)
        monkeypatch.setattr(trajectories, "step_trajectory_chunk", poisoned)
        ens = unravel_linear(m, rho0, 0.1, 1e-3, 4, seed=1)
        assert np.all(np.isfinite(ens.mean_state[:4])) and np.isnan(ens.mean_state[4, 1, 1])
        check = ensemble_check(ens, m, rho0, 1e-3)
        assert not check.mean_ok and not check.trace_ok

    def test_ensemble_check_one_propagator(self, monkeypatch):
        # the exact reference applies one exp(h G) per grid step h and
        # re-anchors by exp(k h G) every 64 steps (gkls.grid_states), so n
        # saved times take 2 + (n - 1) // 64 expm calls, the step propagator
        # of one_step_means among them: 3 at 101 saved times; it matches
        # exp(t G) at each time to rounding
        m = qubit_decay_model(1.0, 1.0)
        rho0 = DensityMatrix.pure([1, 0])
        ens = unravel_linear(m, rho0, 0.5, 1e-3, 64, seed=3, n_out=101)
        calls = []

        def counted(A):
            calls.append(A.shape)
            return expm(A)

        monkeypatch.setattr(trajectories, "expm", counted)
        check = ensemble_check(ens, m, rho0, 1e-3)
        assert len(calls) == 2 + (101 - 1) // 64 == 3
        exact = np.array([evolve(m, rho0, float(t)).matrix for t in ens.grid])
        deviation = np.linalg.norm(ens.mean_state - exact, axis=(1, 2)).max()
        assert abs(check.max_deviation - deviation) <= 1e-12

    @pytest.mark.parametrize("grid, match", [
        ([0.0, 0.1, 0.3], "uniform"),
        ([0.1, 0.2, 0.3], "start at 0"),
        ([0.0, 0.0015, 0.003], "multiple"),
    ])
    def test_one_step_means_refuses_grids_it_would_misread(self, grid, match):
        # only the step grid[1] and the length are read, so a grid that is
        # not uniform, does not start at 0 or steps by no multiple of dt raises
        with pytest.raises(ValueError, match=match):
            one_step_means(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]), 1e-3, grid)

    def test_one_step_means_single_point(self):
        # a one-point grid has no step to read: it holds rho0 alone
        rho0 = DensityMatrix.pure([0.6, 0.8])
        means = one_step_means(qubit_decay_model(1.0, 1.0), rho0, 1e-3, [0.0])
        assert np.array_equal(means, rho0.matrix[None])

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
        # boundary (which cuts a 2-step group); each saves its own save steps
        rng = np.random.default_rng(0)
        d, steps, chunk, stride = 2, 60, 5, 10
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        u_step = np.eye(d) - 1j * 1e-2 * (0.5 * SZ - 0.25j * (SM.conj().T @ SM))
        ls = np.array([0.7 * SM, 0.4 * SZ], dtype=complex)
        incr = 0.1 * np.array([1, 1j, -1, -1j])[:, None, None] * ls[:, None]
        fields = rng.integers(0, 4, size=(chunk, steps, 2), dtype=np.uint8)
        out = np.empty((chunk, steps // stride + 1, d), dtype=complex)
        psi = np.tile(psi0, (chunk, 1))
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, :25], stride, out[:, :3])
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, 25:], stride, out[:, 3:], 25)
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
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, :13], stride, out[:, :2])
        _accel.step_trajectory_chunk(psi, u_step, incr, fields[:, 13:], stride, out[:, 2:], 13)
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
