"""Stochastic unravelings: colored-noise sampling and linear diffusive trajectories.

Two stochastic representations of the open dynamics live here.  The colored
noise sampler draws Gaussian fields whose two-point function reproduces the
smeared environment correlator.  The linear (unnormalized) unraveling evolves
pure states by

    |psi> <- U |psi> + sum_k dxi_k Lt_k |psi>,   U = exp(-i H_eff dt),
    Lt_k = sqrt(gamma_k) L_k,

with complex increments E[dxi_k] = 0, E[dxi_k dxi_l*] = delta_kl dt and
E[dxi dxi] = 0.  The step is linear in dxi and |psi><psi| quadratic in psi,
so the ensemble mean of the projector obeys rho <- Phi(rho) = U rho U^H +
dt sum_k Lt_k rho Lt_k^H exactly, whatever else the increments' law is;
Phi^n rho0 differs from exp(n dt L) rho0 by the scheme's O(dt) bias, which
``ensemble_check`` bounds apart from the Monte-Carlo error.  The increments
are uniform phases sqrt(dt) * {1, i, -1, -i}, two random bits each: the
simplified weak Euler scheme with discrete increments (Kloeden & Platen
1992, ch. 14).

Reproducibility: trajectory r (and noise realization r) draws from a
counter-based Philox stream keyed by (seed, r), so a fixed seed gives
bit-identical results regardless of how the work is scheduled or chunked
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  A
keyed stream is a pure function of its key and position: it can be drawn in
blocks, and one generator can be re-keyed to (seed, r) at counter 0, without
changing a single draw.  Increment (r, s, k) of the unraveling is the 2-bit
field f = s * n_jump + k of stream r's raw 64-bit words: word f // 32, bits
2 (f mod 32) and 2 (f mod 32) + 1.

Memory: ``unravel_linear`` steps at most ``_CHUNK`` trajectories at a time,
through blocks of at most ``_BLOCK_FIELDS`` one-byte two-bit fields (or of
four steps, should four steps of a chunk need more), unpacked from a
word buffer of ``_WORDS`` words per trajectory; the stepper adds an intp
byte code per four fields and tables of at most 256 d x d matrices, and no
complex noise array is formed.  Its working memory is O(chunk * block) plus
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
from .gkls import (DensityMatrix, GKLSModel, build_generator, check_uniform_grid, evolve, expm,
                   step_count, unvec, vec)
from .kernels import ClockKernel, PositivityError

__all__ = [
    "NoiseField",
    "TrajectoryEnsemble",
    "sample_colored_noise",
    "unravel_linear",
    "EnsembleCheck",
    "ensemble_check",
    "one_step_means",
    "write_ensemble_csv",
]

#: trajectories stepped together
_CHUNK = 1024
#: two-bit fields (one byte each) of the block a chunk is stepped through
_BLOCK_FIELDS = 2**18
#: raw 64-bit words a trajectory draws at a time, 32 two-bit increments each
_WORDS = 32
#: bytes of the block of normal draws the colored-noise sampler multiplies at once
_SAMPLE_BYTES = 256 * 2**10
#: deviations of a mean within this are rounding, not Monte-Carlo error
_ROUNDING = 1e-12
#: family-wise false-alarm rate of each ``ensemble_check`` test
_FALSE_ALARM = 1e-3


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


def _phase_table(dt: float) -> np.ndarray:
    """The increment each two-bit field value selects: sqrt(dt) * (1, i, -1, -i).

    Uniform over the four, so E xi = 0, E |xi|^2 = dt and E xi^2 = 0.
    """
    return math.sqrt(dt) * np.array([1.0, 1.0j, -1.0, -1.0j])


def _unpack(packed: np.ndarray, first: int, out: np.ndarray) -> None:
    """out[:, j] <- field first + j of the same row of ``packed``.

    ``packed`` holds a row's fields four to a byte, field f at bits 2 (f mod
    4) and above of byte f // 4: the little-endian bytes of its drawn words.
    Each byte is spread over the four bytes of a little-endian uint32, its
    field i into byte i, by two shift-and-or steps and a mask.
    """
    rows, n = out.shape
    b0 = first // 4
    spread = packed[:, b0:(first + n + 3) // 4].astype("<u4")
    spread |= spread << 6
    spread |= spread << 12
    spread &= 0x03030303
    out[...] = spread.view(np.uint8)[:, first - 4 * b0:first - 4 * b0 + n]


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


def sample_colored_noise(
    env: EnvironmentSpec, kernel: ClockKernel, grid, n_real: int, seed: int
) -> NoiseField:
    """Draw Gaussian noise with covariance C(t_j - t_k) from the smeared bath.

    C is ``wightman_timelike`` at its default energy cutoff, 40 m_E.
    ``grid`` must be uniform: one point, or distinct evenly spaced points
    (``gkls.check_uniform_grid``).  The target covariance is then Hermitian
    Toeplitz, so C is evaluated once per lag, at t_0 - t_k rounded to 12
    decimals, and C(-s) = conj(C(s)) fills the other triangle.
    Factorization is the Hermitian eigen-square-root with negative
    eigenvalues clipped at zero (the clipped mass is reported); a
    significantly negative spectrum signals a bad kernel and raises instead.
    Realization r is ``root @ xi`` with xi drawn from the stream keyed
    (seed, r).

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
    check_uniform_grid(t, "noise grid")
    if n_real < 1:
        raise ValueError("need at least one realization")
    n = t.size
    row = np.array([wightman_timelike(env, kernel, round(t[0] - tk, 12)) for tk in t],
                   dtype=complex)
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


def _step_operators(m: GKLSModel, dt: float):
    """(u_step, ls_scaled): exp(-i H_eff dt) and the sqrt(gamma_k) L_k of a
    model with a diagonal Kossakowski block, for a dt small against H_eff."""
    K = m.kossakowski
    off = K - np.diag(np.diag(K))
    if K.size and np.abs(off).max() > 1e-12 * max(np.abs(K).max(), 1.0):
        raise ValueError(
            "kossakowski block must be diagonal: rotate to eigenjumps first"
        )
    gammas = np.real(np.diag(K))
    H_eff = m.hamiltonian - 0.5j * sum(
        g * (L.conj().T @ L) for g, (L, _) in zip(gammas, m.jump_operators)
    )
    if dt * np.linalg.norm(H_eff, 2) > 0.05 + 1e-12:
        raise ValueError("dt too large: require dt * ||H_eff|| <= 0.05")
    u_step = np.ascontiguousarray(expm(-1j * dt * H_eff))
    ls_scaled = np.ascontiguousarray(np.array(
        [math.sqrt(max(g, 0.0)) * L for g, (L, _) in zip(gammas, m.jump_operators)],
        dtype=complex,
    ).reshape(len(gammas), m.dim, m.dim))
    return u_step, ls_scaled


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
    States are recorded at ``n_out`` >= 2 evenly spaced grid times including
    both endpoints, so (n_out - 1) must divide the step count.

    The increments are sqrt(dt) * {1, i, -1, -i} (``_phase_table``), picked
    by 2-bit fields of trajectory r's stream keyed (seed, r): increment
    (s, k) is field s * n_jump + k, in word (s * n_jump + k) // 32.  Each
    chunk keeps one generator per trajectory, draws ``_WORDS`` raw words per
    trajectory for each 32 * ``_WORDS`` fields, and hands the stepper the
    unpacked uint8 fields one block at a time, with the noise term each
    field value selects, so no buffer grows with n_traj * n_steps.  The
    stepper applies tabulated products of up to four steps (``_accel``);
    the blocks end only at save points or a multiple of four steps after
    one, so the blocking never changes a trajectory's bits.  The ensemble
    mean of the projectors has exactly the expectation Phi^n rho0 it would
    have with Gaussian increments; only the fluctuations differ.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out}")
    eigvals, eigvecs = np.linalg.eigh(rho0.matrix)
    if eigvals[-1] < 1.0 - 1e-10:
        raise ValueError("unravel_linear requires a pure (rank-1) initial state")
    psi0 = np.ascontiguousarray(eigvecs[:, -1])
    u_step, ls_scaled = _step_operators(m, dt)
    n_steps = step_count(t, dt)
    if n_steps % (n_out - 1) != 0:
        raise ValueError("(n_out - 1) must divide the number of steps")
    stride = n_steps // (n_out - 1)
    n_jump = len(ls_scaled)
    incr = _phase_table(dt)[:, None, None] * ls_scaled[:, None]
    chunk = min(_CHUNK, n_traj)
    # blocks end at save points or a multiple of 4 steps after one, which
    # every group size divides
    limit = max(4, _BLOCK_FIELDS // (chunk * max(n_jump, 1)))
    span = limit - limit % stride if stride <= limit else limit - limit % 4
    blocks = []
    for base in range(0, n_steps, max(span, stride)):
        stop = min(base + max(span, stride), n_steps)
        blocks += [(s, min(s + span, stop)) for s in range(base, stop, span)]
    fields = np.empty((chunk, span * n_jump), dtype=np.uint8)
    window = 32 * _WORDS
    words = np.empty((chunk, _WORDS), dtype="<u8")
    packed = words.view(np.uint8)
    states = np.empty((n_traj, n_out, m.dim), dtype=complex)
    streams = [_stream(seed, 0) for _ in range(chunk)]
    draws = [gen.bit_generator.random_raw for gen in streams]
    for start in range(0, n_traj, chunk):
        rows = min(chunk, n_traj - start)
        for r, gen in zip(range(start, start + rows), streams):
            _rekey(gen, seed, r)
        psi = np.tile(psi0, (rows, 1))
        for step0, step1 in blocks:
            buf = fields[:rows, : (step1 - step0) * n_jump]
            # fields f0 .. f1 - 1, cut where a new window of words is drawn
            f0 = f = step0 * n_jump
            f1 = step1 * n_jump
            while f < f1:
                if f % window == 0:
                    for draw, row in zip(draws, words[:rows]):
                        row[...] = draw(_WORDS)
                piece = min(f1, f - f % window + window) - f
                _unpack(packed[:rows], f % window, buf[:, f - f0 : f - f0 + piece])
                f += piece
            step_trajectory_chunk(psi, u_step, incr, buf.reshape(rows, step1 - step0, n_jump),
                                  stride, states[start:start + rows], step0)
    grid = dt * stride * np.arange(n_out)
    mean, err = _ensemble_summaries(states)
    return TrajectoryEnsemble(
        n_traj=n_traj, grid=grid, states=states, seed=seed,
        mean_state=mean, stat_error=err,
    )


def one_step_means(m: GKLSModel, rho0: DensityMatrix, dt: float, grid) -> np.ndarray:
    """Phi^n rho0 at each time n dt of ``grid``, which starts at 0.

    Phi(rho) = U rho U^H + dt sum_k Lt_k rho Lt_k^H, with the U and Lt_k
    ``unravel_linear`` steps by, is the one-step map of its ensemble mean:
    Phi^n rho0 is the mean state's exact expectation after n steps.
    """
    u_step, ls_scaled = _step_operators(m, dt)
    phi = np.kron(u_step.conj(), u_step)
    for L in ls_scaled:
        phi += dt * np.kron(L.conj(), L)
    steps = np.rint(np.asarray(grid, dtype=float) / dt).astype(int)
    v = vec(rho0.matrix)
    means = np.empty((steps.size, m.dim, m.dim), dtype=complex)
    means[0] = rho0.matrix
    for i in range(1, steps.size):
        v = np.linalg.matrix_power(phi, int(steps[i] - steps[i - 1])) @ v
        means[i] = unvec(v, m.dim)
    return means


def _sidak_z(alpha: float, n: int) -> float:
    """The z at which n independent |N(0, 1)| all stay below z with
    probability 1 - alpha (Sidak); it bounds correlated normals as well."""
    level = -math.expm1(math.log1p(-alpha) / n)
    lo, hi = 0.0, 40.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2.0)) > level else (lo, mid)
    return hi


def _sigma_units(dev: float, se: float) -> float:
    """|dev| in units of se once ``_ROUNDING`` is taken off: 0 within
    rounding, infinite beyond it with no spread, NaN for a NaN deviation."""
    excess = max(abs(dev) - _ROUNDING, 0.0)
    if excess == 0.0:
        return 0.0
    return excess / se if se > 0.0 else math.inf


@dataclass(frozen=True)
class EnsembleCheck:
    """An unraveling's mean state against the master equation, split into a
    Monte-Carlo part in units of its own standard errors and the scheme's
    deterministic bias.

    Monte-Carlo part: at each saved time the mean state is compared with its
    exact expectation Phi^n rho0 (``one_step_means``), coordinate by
    coordinate (the d^2 real coordinates of a Hermitian matrix) and in its
    trace, each deviation over the standard error of that same estimate.
    ``mean_sigma_units`` and ``trace_sigma_units`` are the largest of these.
    Each is bounded by a Sidak z at family-wise false-alarm rate ``alpha``
    (``_FALSE_ALARM``): ``mean_z_bound`` over the (n_out - 1) d^2
    coordinates, ``trace_z_bound`` over the n_out - 1 times t > 0.
    Deviations within ``_ROUNDING`` count as zero, so t = 0 and noiseless
    coordinates must match to rounding.

    Bias part: ``scheme_bias`` = max_t ||Phi^n rho0 - exp(t L) rho0||_F,
    bounded by ``scheme_bias_bound`` = t dt ||L||_2^2, the O(dt^2 ||L||^2)
    error of one step summed over t / dt steps.  ``trace_defect`` =
    max_t |tr Phi^n rho0 - 1| is the part of it in the trace, so |tr
    rho_mean - 1| is within trace_z_bound standard errors plus trace_defect.

    ``max_deviation`` = max_t ||rho_mean - exp(t L) rho0||_F is both parts
    together: the ensemble mean's whole deviation from the master equation,
    NaN when the mean holds a NaN.
    """

    alpha: float
    max_deviation: float
    mean_sigma_units: float
    mean_z_bound: float
    trace_sigma_units: float
    trace_z_bound: float
    trace_defect: float
    scheme_bias: float
    scheme_bias_bound: float

    @property
    def mean_ok(self) -> bool:
        return bool(self.mean_sigma_units <= self.mean_z_bound
                    and self.scheme_bias <= self.scheme_bias_bound)

    @property
    def trace_ok(self) -> bool:
        return bool(self.trace_sigma_units <= self.trace_z_bound)


def ensemble_check(e: TrajectoryEnsemble, m: GKLSModel, rho0: DensityMatrix,
                   dt: float) -> EnsembleCheck:
    """The ``EnsembleCheck`` of an ``unravel_linear`` ensemble stepped by dt."""
    expected = one_step_means(m, rho0, dt, e.grid)
    exact = np.array([evolve(m, rho0, float(t)).matrix for t in e.grid])
    root_n = math.sqrt(e.n_traj)
    mean_z, trace_z = np.empty(e.grid.size), np.empty(e.grid.size)
    for i in range(e.grid.size):
        psi = e.states[:, i]
        dev = e.mean_state[i] - expected[i]
        # the d^2 real coordinates: Re rho_jk for j <= k, Im rho_jk for j < k
        z = []
        for j, k in zip(*np.triu_indices(m.dim)):
            proj = psi[:, j] * psi[:, k].conj()
            z.append(_sigma_units(float(dev[j, k].real), proj.real.std() / root_n))
            if j < k:
                z.append(_sigma_units(float(dev[j, k].imag), proj.imag.std() / root_n))
        mean_z[i] = np.max(z)
        norms = np.einsum("rj,rj->r", psi.real, psi.real) + np.einsum("rj,rj->r", psi.imag, psi.imag)
        trace_z[i] = _sigma_units(float(np.trace(dev).real), norms.std() / root_n)
    gen_norm = np.linalg.norm(build_generator(m).matrix, 2)
    return EnsembleCheck(
        alpha=_FALSE_ALARM,
        max_deviation=float(np.linalg.norm(e.mean_state - exact, axis=(1, 2)).max()),
        mean_sigma_units=float(mean_z.max()),
        mean_z_bound=_sidak_z(_FALSE_ALARM, (e.grid.size - 1) * m.dim**2),
        trace_sigma_units=float(trace_z.max()),
        trace_z_bound=_sidak_z(_FALSE_ALARM, e.grid.size - 1),
        trace_defect=float(np.abs(np.trace(expected, axis1=1, axis2=2) - 1.0).max()),
        scheme_bias=float(np.linalg.norm(expected - exact, axis=(1, 2)).max()),
        scheme_bias_bound=float(e.grid[-1] * dt * gen_norm**2),
    )


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
