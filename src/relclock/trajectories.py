"""Stochastic unravelings: colored-noise sampling and linear diffusive trajectories.

Two stochastic representations of the open dynamics live here.  The colored
noise sampler draws Gaussian fields whose two-point function reproduces the
smeared environment correlator.  The linear (unnormalized) unraveling evolves
pure states by

    |psi> <- exp(-i H_eff dt) |psi> + sum_k sqrt(gamma_k) L_k dxi_k |psi>,

with complex increments E[dxi dxi*] = dt, E[dxi dxi] = 0, read in the Ito
sense (deterministic contraction applied exactly, noise at weak order one); the elementary Ito identity then makes the ensemble mean of
|psi><psi| obey the GKLS equation, which is what ``ensemble_compare`` checks.

Reproducibility: trajectory r draws from a counter-based Philox stream keyed
by (seed, r), so a fixed seed gives bit-identical ensembles regardless of how
trajectories are scheduled or chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import step_trajectory_chunk
from ._csv import write_csv
from .correlators import EnvironmentSpec, wightman_timelike
from .gkls import DensityMatrix, GKLSModel, evolve, step_count
from .kernels import ClockKernel, PositivityError

__all__ = [
    "NoiseField",
    "TrajectoryEnsemble",
    "sample_colored_noise",
    "unravel_linear",
    "ensemble_compare",
    "write_ensemble_csv",
]

_CHUNK = 256


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


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
        z = self.samples
        return (z.conj().T @ z).T / z.shape[0]


def sample_colored_noise(
    env: EnvironmentSpec,
    kernel: ClockKernel,
    grid,
    n_real: int,
    seed: int,
    cutoff: float | None = None,
) -> NoiseField:
    """Draw Gaussian noise with covariance C(t_j - t_k) from the smeared bath.

    The target covariance is Hermitian Toeplitz for uniform grids; repeated
    time differences are evaluated once.  Factorization is the Hermitian
    eigen-square-root with negative eigenvalues clipped at zero (the clipped
    mass is reported); a significantly negative spectrum signals a bad kernel
    and raises instead.
    """
    t = np.asarray(grid, dtype=float)
    if t.size > 256:
        raise ValueError("noise grid larger than 256 points")
    if n_real < 1:
        raise ValueError("need at least one realization")
    n = t.size
    diffs = t[:, None] - t[None, :]
    cache: dict[float, complex] = {}
    M = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            key = round(diffs[j, k], 12)
            if key not in cache:
                if -key in cache:
                    cache[key] = np.conj(cache[-key])
                else:
                    cache[key] = wightman_timelike(env, kernel, key, cutoff=cutoff)
            M[j, k] = cache[key]
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
    samples = np.empty((n_real, n), dtype=complex)
    for r in range(n_real):
        g = _stream(seed, r).standard_normal((n, 2))
        xi = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0)
        samples[r] = root @ xi
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
    """
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
    from scipy.linalg import expm
    u_step = np.ascontiguousarray(expm(-1j * dt * H_eff))
    ls_scaled = np.ascontiguousarray(
        np.array([math.sqrt(max(g, 0.0)) * L for g, L in zip(gammas, ls)])
    )
    d = m.dim
    states = np.empty((n_traj, n_out, d), dtype=complex)
    for start in range(0, n_traj, _CHUNK):
        stop = min(start + _CHUNK, n_traj)
        c = stop - start
        noise = np.empty((c, n_steps, len(gammas)), dtype=complex)
        for r in range(start, stop):
            g = _stream(seed, r).standard_normal((n_steps, len(gammas), 2))
            noise[r - start] = math.sqrt(dt / 2.0) * (g[..., 0] + 1j * g[..., 1])
        out = np.empty((c, n_out, d), dtype=complex)
        step_trajectory_chunk(psi0, u_step, ls_scaled, noise, stride, out)
        states[start:stop] = out
    grid = dt * stride * np.arange(n_out)
    mean, err = _ensemble_summaries(states)
    return TrajectoryEnsemble(
        n_traj=n_traj, grid=grid, states=states, seed=seed,
        mean_state=mean, stat_error=err,
    )


def ensemble_compare(e: TrajectoryEnsemble, m: GKLSModel, rho0: DensityMatrix):
    """Max Frobenius deviation of the ensemble mean from evolve(), absolute
    and in units of the per-time statistical error."""
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
