"""Stochastic unravelings: colored-noise sampling and linear diffusive trajectories.

Two stochastic representations of the open dynamics live here.  The colored
noise sampler draws Gaussian fields whose two-point function reproduces the
smeared environment correlator.  The linear (unnormalized) unraveling evolves
pure states by

    |psi> <- exp(-i H_eff dt) |psi> + sum_k sqrt(gamma_k) L_k dxi_k |psi>,

with complex increments E[dxi dxi*] = dt, E[dxi dxi] = 0, read in the Ito
sense (deterministic contraction applied exactly, noise at weak order one); the elementary Ito identity then makes the ensemble mean of
|psi><psi| obey the GKLS equation, which is what ``ensemble_compare`` checks.

Reproducibility: trajectory r (and noise realization r) draws from a
counter-based Philox stream keyed by (seed, r), so a fixed seed gives
bit-identical results regardless of how the work is scheduled or chunked
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A
keyed stream is a pure function of its key and position: it can be drawn in
blocks, and one generator can be re-keyed to (seed, r) at counter 0, without
changing a single draw.

Memory: ``unravel_linear`` steps at most ``_CHUNK`` trajectories at a time,
through noise blocks of at most ``_NOISE_BYTES`` (or of one step, should one
step of a chunk need more), so its working memory is O(chunk * block) plus
the saved states, whatever the number of steps.  ``sample_colored_noise``
draws R = ``_SAMPLE_BYTES`` // (16 n) realizations at a time and keeps only
their n x n sum of outer products, so its working memory is O(R * n + n^2)
on an n-point grid: no O(n_real * n) buffer exists unless a caller reads
``NoiseField.samples``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._accel import step_trajectory_chunk
from ._csv import write_csv
from .correlators import EnvironmentSpec, wightman_timelike
from .gkls import DensityMatrix, GKLSModel, evolve, expm, step_count
from .kernels import ClockKernel, PositivityError

__all__ = [
    "NoiseField",
    "TrajectoryEnsemble",
    "sample_colored_noise",
    "unravel_linear",
    "ensemble_compare",
    "write_ensemble_csv",
]

#: trajectories stepped together
_CHUNK = 1024
#: bytes of the complex noise block a chunk is stepped through
_NOISE_BYTES = 2 * 2**20
#: bytes of the block of normal draws the colored-noise sampler multiplies at once
_SAMPLE_BYTES = 256 * 2**10


@functools.cache
def _seed_sequence() -> np.random.SeedSequence:
    """The one fixed seed sequence every ``_stream`` Philox is built from
    before its key is set; made on first use, so that importing the package
    does not import ``numpy.random``."""
    return np.random.SeedSequence(0)


def _stream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed (seed, index), at counter 0.

    ``Philox(key=...)`` would first seed a SeedSequence from OS entropy that
    the key then discards; building from one fixed sequence and re-keying
    gives the same draws for less.
    """
    gen = np.random.Generator(np.random.Philox(_seed_sequence()))
    _rekey(gen, seed, index)
    return gen


def _rekey(gen: np.random.Generator, seed: int, index: int) -> None:
    """Reset a ``_stream`` generator to the start of ``_stream(seed, index)``:
    key (seed, index), counter 0, empty buffer.

    This is about eight times cheaper than building a new Philox.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_blocks(seed: int, n: int, n_real: int):
    """Yield ``(start, stop, xi)`` for each fixed block of R = ``_SAMPLE_BYTES``
    // (16 n) realizations (at least one).

    Row r - start of the (R, n) array ``xi`` holds the n complex normals of
    the stream keyed (seed, r), scaled by 1/sqrt(2) so E[xi xi*] = 1; the
    rows past ``n_real`` of the last block are zero.  One buffer is refilled
    for every block.
    """
    rows = max(1, _SAMPLE_BYTES // (16 * n))
    xi = np.empty((rows, n), dtype=complex)
    gen = _stream(seed, 0)
    for start in range(0, n_real, rows):
        stop = min(start + rows, n_real)
        for r, draw in zip(range(start, stop), xi):
            _rekey(gen, seed, r)
            gen.standard_normal(out=draw.view(np.float64))
        xi[stop - start:] = 0.0
        xi /= math.sqrt(2.0)
        yield start, stop, xi


@dataclass(frozen=True)
class NoiseField:
    """A complex Gaussian field with a prescribed covariance, and the sample
    covariance of ``n_real`` of its realizations.

    Realization r is z_r = ``root`` @ xi_r, with xi_r drawn from the stream
    keyed (``seed``, r); E[z_j z_k*] converges to ``target_covariance[j, k]``.
    ``covariance`` is (1/N) sum_r z_r z_r^H, built while the draws were made.
    ``clipped_mass`` reports how much negative eigenvalue weight was clipped
    during the Hermitian square-root factorization.
    """

    grid: np.ndarray
    target_covariance: np.ndarray
    clipped_mass: float
    root: np.ndarray
    seed: int
    n_real: int
    covariance: np.ndarray

    @property
    def samples(self) -> np.ndarray:
        """The (n_real, n) realizations, ``samples[r, j]`` being realization r
        at grid point j, regenerated from their keyed streams on every read.

        Each block of draws is multiplied by ``root.T`` in one GEMM, so the
        bits of realization r depend on (seed, r, grid) only, never on
        ``n_real``.
        """
        z = np.empty((self.n_real, self.grid.size), dtype=complex)
        for start, stop, xi in _draw_blocks(self.seed, self.grid.size, self.n_real):
            z[start:stop] = (xi @ self.root.T)[: stop - start]
        return z

    def sample_covariance(self) -> np.ndarray:
        """(1/N) sum_r z_r z_r^H over the N = ``n_real`` realizations."""
        return self.covariance


def sample_colored_noise(
    env: EnvironmentSpec,
    kernel: ClockKernel,
    grid,
    n_real: int,
    seed: int,
    cutoff: float | None = None,
) -> NoiseField:
    """Draw Gaussian noise with covariance C(t_j - t_k) from the smeared bath.

    ``grid`` must be uniform: one point, or distinct evenly spaced points.
    The target covariance is then Hermitian Toeplitz, so C is evaluated once
    per lag, at t_0 - t_k rounded to 12 decimals, and C(-s) = conj(C(s))
    fills the other triangle.  Factorization is the Hermitian
    eigen-square-root with negative eigenvalues clipped at zero (the clipped
    mass is reported); a significantly negative spectrum signals a bad kernel
    and raises instead.  Realization r is ``root @ xi`` with xi drawn from
    the stream keyed (seed, r).

    The sample covariance is streamed: the draws come in fixed blocks of
    R = ``_SAMPLE_BYTES`` // (16 n) rows (at least one), and S = sum_r
    xi_r xi_r^H grows by ``xi.T @ conj(xi)`` per block, so the stored
    ``root @ (S / n_real) @ root^H`` equals (1/N) sum_r z_r z_r^H without
    any realization being formed.  ``NoiseField.samples`` regenerates them
    on demand; realization r still depends on (seed, r, grid) only.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
        raise ValueError("noise grid must be a non-empty 1-D array of finite times")
    if t.size > 256:
        raise ValueError("noise grid larger than 256 points")
    steps = np.diff(t)
    if np.any(steps == 0.0) or not np.allclose(steps, steps[:1], rtol=1e-9,
                                               atol=1e-12 * np.abs(t).max()):
        raise ValueError("noise grid must be uniform: distinct, evenly spaced times")
    if n_real < 1:
        raise ValueError("need at least one realization")
    n = t.size
    row = np.array([wightman_timelike(env, kernel, round(t[0] - tk, 12), cutoff=cutoff)
                    for tk in t], dtype=complex)
    # M[j, k] is row[k - j] on and above the diagonal, conj(row[j - k]) below
    full = np.concatenate((row[:0:-1].conj(), row))
    M = np.lib.stride_tricks.sliding_window_view(full, n)[::-1]
    M = 0.5 * (M + M.conj().T)
    eigvals, V = np.linalg.eigh(M)
    max_diag = max(np.real(np.diag(M)).max(), 0.0)
    if eigvals.min() < -1e-8 * max(max_diag, 1e-300):
        raise PositivityError(
            f"noise covariance has negative eigenvalue {eigvals.min():.3e}; "
            "the kernel is not positive type at this cutoff"
        )
    clipped = float(-np.clip(eigvals, None, 0.0).sum())
    root = V * np.sqrt(np.clip(eigvals, 0.0, None))
    S = np.zeros((n, n), dtype=complex)
    for _, _, xi in _draw_blocks(seed, n, n_real):
        S += xi.T @ xi.conj()
    return NoiseField(t, M, clipped, root, seed, n_real, root @ (S / n_real) @ root.conj().T)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Unnormalized pure-state trajectories on a time grid, with summaries.

    ``states[r, i]`` is trajectory r at grid time ``grid[i]``.  ``mean_state``
    is the plain ensemble average of the projectors (its trace is 1 only up
    to the reported Monte-Carlo ``stat_error``, so it is stored as a raw
    Hermitian array rather than a validated state).
    """

    n_traj: int
    grid: np.ndarray
    states: np.ndarray
    seed: int
    mean_state: np.ndarray
    stat_error: np.ndarray


def _ensemble_summaries(states):
    n_traj, n_save, d = states.shape
    means = np.empty((n_save, d, d), dtype=complex)
    errs = np.empty(n_save)
    for i in range(n_save):
        proj = np.einsum("ri,rj->rij", states[:, i, :], states[:, i, :].conj())
        mean = proj.mean(axis=0)
        var = np.mean(np.abs(proj - mean) ** 2, axis=0)
        means[i] = 0.5 * (mean + mean.conj().T)
        errs[i] = math.sqrt(var.sum() / n_traj)
    return means, errs


def unravel_linear(
    m: GKLSModel,
    rho0: DensityMatrix,
    t: float,
    dt: float,
    n_traj: int,
    seed: int,
    n_out: int = 11,
) -> TrajectoryEnsemble:
    """Linear diffusive unraveling whose ensemble mean reproduces evolve().

    Requires a pure initial state, a diagonal Kossakowski block (rotate to
    eigenjumps first), and dt small against the effective Hamiltonian.
    States are recorded at ``n_out`` evenly spaced grid times including both
    endpoints, so (n_out - 1) must divide the step count.

    Trajectory r draws its increments from the stream keyed (seed, r); each
    chunk keeps one generator per trajectory and draws the noise one step
    block at a time, so no buffer grows with n_traj * n_steps.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    eigvals, eigvecs = np.linalg.eigh(rho0.matrix)
    if eigvals[-1] < 1.0 - 1e-10:
        raise ValueError("unravel_linear requires a pure (rank-1) initial state")
    psi0 = np.ascontiguousarray(eigvecs[:, -1])
    K = m.kossakowski
    off = K - np.diag(np.diag(K))
    if K.size and np.abs(off).max() > 1e-12 * max(np.abs(K).max(), 1.0):
        raise ValueError(
            "kossakowski block must be diagonal: rotate to eigenjumps first"
        )
    gammas = np.real(np.diag(K))
    ls = np.array([L for L, _ in m.jump_operators])
    H_eff = m.hamiltonian - 0.5j * sum(
        g * (L.conj().T @ L) for g, (L, _) in zip(gammas, m.jump_operators)
    )
    if dt * np.linalg.norm(H_eff, 2) > 0.05 + 1e-12:
        raise ValueError("dt too large: require dt * ||H_eff|| <= 0.05")
    n_steps = step_count(t, dt)
    if n_out < 2 or n_steps % (n_out - 1) != 0:
        raise ValueError("(n_out - 1) must divide the number of steps")
    stride = n_steps // (n_out - 1)
    u_step = np.ascontiguousarray(expm(-1j * dt * H_eff))
    ls_scaled = np.ascontiguousarray(
        np.array([math.sqrt(max(g, 0.0)) * L for g, L in zip(gammas, ls)])
    )
    chunk = min(_CHUNK, n_traj)
    block = max(1, min(n_steps, _NOISE_BYTES // (16 * chunk * max(len(gammas), 1))))
    noise = np.empty((chunk, block, len(gammas)), dtype=complex)
    states = np.empty((n_traj, n_out, m.dim), dtype=complex)
    streams = [_stream(seed, 0) for _ in range(chunk)]
    for start in range(0, n_traj, chunk):
        stop = min(start + chunk, n_traj)
        for r, gen in zip(range(start, stop), streams):
            _rekey(gen, seed, r)
        psi = np.tile(psi0, (stop - start, 1))
        for step0 in range(0, n_steps, block):
            buf = noise[: stop - start, : min(block, n_steps - step0)]
            for gen, rows in zip(streams, buf):
                gen.standard_normal(out=rows.view(np.float64))
            buf *= math.sqrt(dt / 2.0)
            step_trajectory_chunk(psi, u_step, ls_scaled, buf, stride, states[start:stop], step0)
    grid = dt * stride * np.arange(n_out)
    mean, err = _ensemble_summaries(states)
    return TrajectoryEnsemble(
        n_traj=n_traj, grid=grid, states=states, seed=seed,
        mean_state=mean, stat_error=err,
    )


def ensemble_compare(e: TrajectoryEnsemble, m: GKLSModel, rho0: DensityMatrix):
    """Max Frobenius deviation of the ensemble mean from evolve(), absolute
    and in units of the per-time statistical error; both NaN when the mean
    holds a NaN, so no check can pass on it."""
    if np.isnan(e.mean_state).any():
        return (math.nan, math.nan)
    max_dev = 0.0
    max_sigma = 0.0
    for i, t in enumerate(e.grid):
        exact = evolve(m, rho0, float(t)).matrix
        dev = float(np.linalg.norm(e.mean_state[i] - exact))
        max_dev = max(max_dev, dev)
        if e.stat_error[i] > 0.0:
            max_sigma = max(max_sigma, dev / e.stat_error[i])
    return (max_dev, max_sigma)


def write_ensemble_csv(e: TrajectoryEnsemble, path) -> None:
    """Emit t, mean-state entries (re/im), stat_error per grid time."""
    d = e.states.shape[2]
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    header.append("stat_error")
    rows = []
    for t, mean, err in zip(e.grid, e.mean_state, e.stat_error):
        rows.append([t, *(x for z in mean.ravel() for x in (z.real, z.imag)), err])
    write_csv(path, header, rows)
