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
the saved states, whatever the number of steps.
"""

from __future__ import annotations

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


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _rekey(gen: np.random.Generator, seed: int, index: int) -> None:
    """Reset a ``_stream`` generator to the start of ``_stream(seed, index)``:
    key (seed, index), counter 0, empty buffer.

    This is over ten times cheaper than a new Philox, whose constructor seeds
    a SeedSequence from OS entropy that the key then discards.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True)
class NoiseField:
    """Realizations of a complex Gaussian field with a prescribed covariance.

    ``samples[r, j]`` is realization r at grid point j;
    E[z_j z_k*] converges to ``target_covariance[j, k]``.  ``clipped_mass``
    reports how much negative eigenvalue weight was clipped during the
    Hermitian square-root factorization.
    """

    grid: np.ndarray
    samples: np.ndarray
    target_covariance: np.ndarray
    clipped_mass: float

    def sample_covariance(self) -> np.ndarray:
        """(1/N) sum_r z_r z_r^H, accumulated over blocks of realizations.

        Each block holds at most ``_NOISE_BYTES`` of samples, so the
        conjugate copy the product needs never spans all N realizations.
        """
        z = self.samples
        n_real, n = z.shape
        rows = max(1, _NOISE_BYTES // (z.itemsize * n))
        total = np.zeros((n, n), dtype=complex)
        for start in range(0, n_real, rows):
            block = z[start:start + rows]
            total += block.conj().T @ block
        return total.T / n_real


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

    The realizations are formed in fixed blocks of R = ``_SAMPLE_BYTES`` //
    (16 n) rows (at least one), realization r sitting in row r mod R of
    block r // R: the draws of a block are scaled by 1/sqrt(2) together and
    multiplied by ``root.T`` in one GEMM, the rows past ``n_real`` of the
    last block zero-filled, so every block is the same (R, n) @ (n, n)
    product.  R depends on n alone, so the bits of realization r depend on
    (seed, r, grid) only, never on ``n_real``.
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
    rows = max(1, _SAMPLE_BYTES // (16 * n))
    samples = np.empty((n_real, n), dtype=complex)
    xi = np.empty((rows, n), dtype=complex)
    gen = _stream(seed, 0)
    for start in range(0, n_real, rows):
        stop = min(start + rows, n_real)
        for r, draw in zip(range(start, stop), xi):
            _rekey(gen, seed, r)
            gen.standard_normal(out=draw.view(np.float64))
        xi[stop - start:] = 0.0
        xi /= math.sqrt(2.0)
        if stop - start == rows:
            np.matmul(xi, root.T, out=samples[start:stop])
        else:
            samples[start:stop] = (xi @ root.T)[: stop - start]
    return NoiseField(grid=t, samples=samples, target_covariance=M, clipped_mass=clipped)


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
