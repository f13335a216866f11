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

Reproducibility: every draw comes from a counter-based Philox4x64-10 stream
keyed by (seed, index), so a fixed seed gives bit-identical results regardless
of how the work is scheduled or chunked (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  The streams are made here, in uint64
numpy (``_philox``), word for word those of numpy's ``Philox`` bit generator;
a keyed stream is a pure function of its key and counter, so one call
(``_keyed_words``) reads any run of words of many keys at once without making
the words before them.  The streams are keyed by column, not by trajectory:

- Increment (r, s, k) of the unraveling is the 2-bit field f = s * n_jump +
  k of trajectory r's raw 64-bit words, bits 2 (f mod 32) and 2 (f mod 32) +
  1 of its word j = f // 32, and that word is word r of the stream keyed
  (seed, j).  A chunk of trajectories reads a window of ``_WORDS`` word
  columns of all its rows in one call.
- Complex normal a of noise realization r is the Box-Muller transform of
  words 2r and 2r + 1 of the stream keyed (seed, a) (``_draw_blocks``), so it
  depends on (seed, r, a) alone, never on the number of realizations.

Memory: ``unravel_linear`` steps at most ``_CHUNK`` trajectories at a time,
through blocks of at most ``_BLOCK_FIELDS`` one-byte two-bit fields (or of
four steps, should four steps of a chunk need more), unpacked from a
word buffer of ``_WORDS`` words per trajectory; the stepper adds an intp
byte code per four fields and tables of at most 256 d x d matrices, and no
complex noise array is formed.  A block saves at most ``_BLOCK_FIELDS`` // 8
complex state components and is reduced at once to per-time moments, so the
working memory is O(chunk * block) plus O(n_out d^2 log n_traj) moments,
whatever the number of steps and saves.  ``sample_colored_noise`` draws R =
``_SAMPLE_BYTES`` // (16 k) realizations at a time and keeps factors, O(R k +
n k) on an n-point grid.  Either reads words in calls of about 8200 counter
blocks, below 1 MB with their Philox temporaries.  Nothing here imports
numpy's ``random`` package, which would bring OpenSSL with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._accel import merge_moments, saved_state_moments, step_trajectory_chunk
from ._csv import write_csv
from .correlators import EnvironmentSpec, wightman_timelike
from .gkls import (DensityMatrix, GKLSModel, build_generator, check_uniform_grid, expm,
                   grid_states, step_count)
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
#: the noise root stops once the residual trace is at most this times the
#: covariance's diagonal; a residual eigenvalue below minus that raises
_RANK_TOL = 1e-8
_MAX_POINTS = 4096  # noise grid points
_MAX_RANK = 256  # directions of the noise root, as many as the 256-point eigh root could keep
#: deviations of a mean within this are rounding, not Monte-Carlo error
_ROUNDING = 1e-12
#: family-wise false-alarm rate of each ``ensemble_check`` test
_FALSE_ALARM = 1e-3


#: the Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int):
    """(hi, lo): the high and low 64-bit words of the 128-bit products a * m.

    The high word is built from the four 32 x 32-bit products of the
    halves, carrying the middle sums, none of which overflows 64 bits
    (Warren, "Hacker's Delight", 8-2); the low word is the wrapping uint64
    product.
    """
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    a_hi, a_lo = a >> _SHIFT32, a & _LOW32
    mid = a_hi * m_lo
    mid += (a_lo * m_lo) >> _SHIFT32
    cross = a_lo * m_hi
    cross += mid & _LOW32
    hi = a_hi * m_hi
    hi += mid >> _SHIFT32
    hi += cross >> _SHIFT32
    return hi, a * np.uint64(m)


def _philox(counter, seed: int, index) -> np.ndarray:
    """The four words Philox4x64-10 makes from the counter (counter, 0, 0,
    0) and the key (seed, index), on a last axis of length 4.

    ``counter`` and ``index`` are uint64 arrays, broadcast against each
    other, and ``seed`` is one integer in [0, 2^64).  Ten rounds of two 64 x
    64 -> 128-bit products (``_mulhilo``), the key bumped by the Weyl
    increments between rounds, mod 2^64: the same words as numpy's
    ``Philox.random_raw``.
    """
    c0, index = np.broadcast_arrays(np.asarray(counter, dtype=np.uint64),
                                    np.asarray(index, dtype=np.uint64))
    c1 = c2 = c3 = np.zeros(c0.shape, dtype=np.uint64)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_WEYL[0]) % 2**64)
        k1 = index + np.uint64(r * _PHILOX_WEYL[1] % 2**64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_MULTIPLIERS[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_MULTIPLIERS[1])
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1)


def _keyed_words(seed: int, columns, first: int, n: int) -> np.ndarray:
    """The (len(columns), n) raw words first .. first + n - 1 of the Philox
    streams keyed (seed, j), one row per j in ``columns``.

    Words 4c .. 4c + 3 of a stream come from counter c + 1 alone, so a read
    starts at any word without making the ones before it: one ``_philox``
    call over the counters first // 4 + 1 onwards, less the first (first
    mod 4) words.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64 - 1], got {seed}")
    block = first // 4
    counters = np.arange(block + 1, (first + n + 3) // 4 + 1, dtype=np.uint64)
    keys = np.asarray(columns, dtype=np.uint64)[:, None]
    words = _philox(counters, seed, keys).reshape(len(keys), -1)
    return words[:, first - 4 * block:first - 4 * block + n]


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


def _draw_blocks(seed: int, k: int, n_real: int):
    """Yield ``(start, stop, xi)`` per block of R = ``_SAMPLE_BYTES`` // (16 k)
    realizations (at least one; none when k is 0): row r - start of the
    buffer ``xi`` holds xi[r, a] = sqrt(-ln u1) e^{2 pi i u2}, E |xi|^2 = 1,
    u1 and u2 from words 2r and 2r + 1 of the stream keyed (seed, a) by u =
    ((w >> 11) + 1) 2^-53 (Box & Muller 1958).  A block reads its words in
    one ``_keyed_words`` call and zeroes rows past ``n_real`` after the
    transform, so xi[r, a] depends on (seed, r, a) alone.
    """
    if k == 0:
        return
    rows = max(1, _SAMPLE_BYTES // (16 * k))
    xi = np.empty((rows, k), dtype=complex)
    parts = xi.view(np.float64).reshape(rows, k, 2)
    for start in range(0, n_real, rows):
        words = _keyed_words(seed, range(k), 2 * start, 2 * rows)
        u = ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        radius = np.sqrt(-np.log(u[:, 0::2]))
        angle = (2.0 * math.pi) * u[:, 1::2]
        np.multiply(radius.T, np.cos(angle).T, out=parts[..., 0])
        np.multiply(radius.T, np.sin(angle).T, out=parts[..., 1])
        xi[n_real - start:] = 0.0
        yield start, min(start + rows, n_real), xi


@dataclass(frozen=True)
class NoiseField:
    """A complex Gaussian field of Hermitian Toeplitz covariance M, first row
    ``target``, and the sample covariance of ``n_real`` realizations, held
    as factors: M's n x k root R (``_pivoted_root``), with ``clipped_mass``
    the trace of M - R R^H, and W = (1/N) sum_r xi_r xi_r^H, ``draws``, of
    the normals of realization r = R xi_r (``_draw_blocks``): R W R^H.
    """

    grid: np.ndarray
    target: np.ndarray
    clipped_mass: float
    root: np.ndarray
    seed: int
    n_real: int
    draws: np.ndarray

    @property
    def samples(self) -> np.ndarray:
        """The (n_real, n) realizations, regenerated on every read."""
        z = np.zeros((self.n_real, self.grid.size), dtype=complex)
        for start, stop, xi in _draw_blocks(self.seed, self.root.shape[1], self.n_real):
            z[start:stop] = (xi @ self.root.T)[: stop - start]
        return z


def _pivoted_root(row: np.ndarray):
    """``(R, clipped_mass)`` of the Hermitian Toeplitz M with first row ``row``.

    Pivoted Cholesky (Harbrecht, Peters & Schneider 2012, Appl. Numer. Math.
    62) appends (M[:, p] - R R[p]^H) / sqrt(E_pp), p the largest diagonal
    entry of E = M - R R^H (diag(M) - sum |R|^2 per row, 0 on the pivots),
    until tr E, ``clipped_mass`` (unclamped), is at most tol = ``_RANK_TOL``
    M_00 (past ``_MAX_RANK`` columns it raises ValueError): stopping on the
    largest entry leaves ||E||_2 up to n tol.  E <= M, so lambda_min(E) >=
    -tol certifies M: 64 Lanczos steps on E x = M x - R (R^H x), M x by a
    2n-point circulant FFT (Chan & Ng 1996, SIAM Review 38), give Ritz
    values above lambda_min(E) that reach it first, and one below -tol (a
    negative LDL^T pivot of T + tol) raises PositivityError.
    """
    from numpy import fft  # 0.3-0.5 MB resident: only the noise scenario loads it

    n, c0, tol = row.size, row[0].real, _RANK_TOL * max(row[0].real, 1e-300)
    cols, pivots, power, resid = [], [], np.zeros(n), np.full(n, c0)
    while resid.sum() > tol:
        if len(cols) == _MAX_RANK:
            raise ValueError(f"noise root needs more than {_MAX_RANK} directions: "
                             "use a shorter t_span or fewer points")
        p = int(np.argmax(resid))
        col = np.concatenate((row[p::-1], row[1:n - p].conj()))
        for c in cols:  # a fixed order: no bit depends on BLAS threads
            col -= c[p].conjugate() * c
        cols.append(col / math.sqrt(resid[p]))
        pivots.append(p)
        power += cols[-1].real ** 2 + cols[-1].imag ** 2
        resid = c0 - power
        resid[pivots] = 0.0
    R = np.array(cols, dtype=complex).reshape(len(cols), n).T
    spectrum = fft.fft(np.concatenate((row.conj(), [0.0], row[:0:-1])))
    q = np.cos(np.arange(n, dtype=float) ** 2)  # quasi-random, neither even nor odd
    q, q_last, b, d = q / np.linalg.norm(q), 0.0, 0.0, math.inf
    for _ in range(min(n, 64)):
        w = fft.ifft(spectrum * fft.fft(q, 2 * n))[:n] - R @ (R.conj().T @ q) - b * q_last
        a = np.vdot(q, w).real
        d = a + tol - b * b / d  # the LDL^T pivots of T + tol
        if d < 0.0:
            raise PositivityError(f"noise covariance has an eigenvalue below -{tol:.3e}: not positive type")
        w -= a * q
        b = np.linalg.norm(w)
        if b == 0.0:
            break
        q_last, q = q, w / b
    return R, float(resid.sum())


def _lag_summary(field: NoiseField):
    """``(lag_t, target, sample, std_error, error, bound)`` from the factors.

    Per lag l < n: t_l - t_0, c_l = M[0, l], the mean of the l-th
    superdiagonal of C_hat = R W R^H over its m = n - l entries (R A R^H
    sums there to FFT(P)[l] / 2n, P = sum_ab conj(A_ab F_a) F_b with F_a the
    2n-point FFT of R's column a, in a fixed order), and its standard error:
    Cov(C_hat[a, a + l], C_hat[b, b + l]) = |M_ab|^2 / N (Isserlis), so
    std_error_l^2 = (m c_0^2 + 2 sum_{0<d<m} (m - d) |c_d|^2) / N m^2.

    ``error`` is ||C_hat - M||_F / ||M||_F.  With D = R (W - I) R^H, G = R^H
    R and E = M - R R^H, its square is tr ((W - I) G)^2 - 2 (tr DM - tr (W -
    I) G^2) + ||E||_F^2, tr DM from D's lag sums and ||E||_F <= tr E (E is
    PSD; equal for a root short of one direction).  A correct sampler exceeds
    ``bound`` with probability at most alpha = ``_FALSE_ALARM``: X = N
    ||D||_F^2 has mean p_1^2, variance s^2 = 2 p_2^2 + (4 p_1^2 p_2 + 2 p_4)
    / N (complex Wishart), p_m = tr G^m, and tends to a sum of weighted
    squared normals, for which P(X >= p_1^2 + 2 p_2 sqrt(x) + 2 lambda_max^2
    x) <= e^-x (Laurent & Massart 2000, Ann. Stat. 28); here x = -ln alpha,
    with s sqrt(2x) and sqrt(p_4) >= lambda_max^2.  A zero target has error
    0 with a zero root, else inf, and bound 0.
    """
    from numpy import fft

    (n, k), c, N = field.root.shape, field.target, field.n_real
    F = fft.fft(field.root.T, 2 * n, axis=1)
    kept = fft.fft((F.real**2 + F.imag**2).sum(axis=0))[:n] / (2 * n)
    diff = fft.fft(np.einsum("aw,ab,bw->w", F.conj(), field.draws.T - np.eye(k), F).real)[:n] / (2 * n)
    power, m = c.real**2 + c.imag**2, np.arange(1.0, n + 1.0)
    weighted = np.convolve(power, m)[:n]  # sum_{d < m} (m - d) |c_d|^2
    std_error = np.sqrt((2.0 * weighted - m * power[0]) / (N * m**2))[::-1]
    w = np.where(m > 1.0, 2.0, 1.0)  # a lag and its mirror
    scale = math.sqrt(np.dot(w * m[::-1], power))
    columns = (field.grid - field.grid[0], c, (kept + diff) / m[::-1], std_error)
    if scale == 0.0:
        return (*columns, 0.0 if not field.root.any() else math.inf, 0.0)
    G = field.root.conj().T @ field.root
    A = (field.draws - np.eye(k)) @ G
    err2 = (np.sum(A * A.T).real - 2.0 * (np.dot(w, (diff * c.conj()).real) - np.trace(A @ G).real)
            + (n * c[0].real - np.trace(G).real) ** 2)
    p1, p2, p4 = np.trace(G).real, np.vdot(G, G).real, np.linalg.norm(G @ G) ** 2
    x, s = -math.log(_FALSE_ALARM), math.sqrt(2.0 * p2**2 + (4.0 * p1**2 * p2 + 2.0 * p4) / N)
    bound = p1**2 + s * math.sqrt(2.0 * x) + 2.0 * math.sqrt(p4) * x
    return (*columns, math.sqrt(err2) / scale, math.sqrt(bound / N) / scale)


def sample_colored_noise(
    env: EnvironmentSpec, kernel: ClockKernel, grid, n_real: int, seed: int
) -> NoiseField:
    """Draw Gaussian noise with covariance C(t_j - t_k) from the smeared bath.

    C is ``wightman_timelike`` at its default energy cutoff, 40 m_E, on a
    uniform ``grid`` (``gkls.check_uniform_grid``) of at most ``_MAX_POINTS``
    points, so the target M is Hermitian Toeplitz: C is evaluated once per
    lag, at t_0 - t_l rounded to 12 decimals, and that row is kept.  The
    clock kernel smooths C, so M's root (``_pivoted_root``) has k << n
    columns (40 of 256 points for a unit Gaussian over a span of 4), and k =
    0 at ``coupling_g`` = 0.  Realization r is root @ xi_r (``_draw_blocks``),
    and S = sum_r xi_r xi_r^H grows by ``xi.T @ conj(xi)`` per block: the
    field keeps S / N, and no realization is formed.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
        raise ValueError("noise grid must be a non-empty 1-D array of finite times")
    if t.size > _MAX_POINTS:
        raise ValueError(f"noise grid of {t.size} points is past the cap of {_MAX_POINTS}")
    check_uniform_grid(t, "noise grid")
    if n_real < 1:
        raise ValueError("need at least one realization")
    row = np.array([wightman_timelike(env, kernel, round(t[0] - tk, 12)) for tk in t], dtype=complex)
    root, clipped = _pivoted_root(row)
    S = np.zeros((root.shape[1],) * 2, dtype=complex)
    for _, _, xi in _draw_blocks(seed, root.shape[1], n_real):
        S += xi.T @ xi.conj()
    return NoiseField(t, row, clipped, root, seed, n_real, S / n_real)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """The moments of unnormalized pure-state trajectories at the times ``grid``.

    ``mean_state[i]`` is the plain average of the projectors, a raw
    Hermitian array (its trace is 1 only up to the Monte-Carlo error).
    ``std_error[i]`` holds the standard errors of its d^2 real coordinates,
    packed row-major with Re rho_ab at [a, b] for a <= b and Im rho_ab at
    [b, a] for a < b, then that of its trace.  ``states[r, 0]`` is
    trajectory r at the last time; no earlier state is kept.
    """

    grid: np.ndarray
    states: np.ndarray
    mean_state: np.ndarray
    std_error: np.ndarray

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def stat_error(self) -> np.ndarray:
        """sqrt(sum_ab Var(psi_a psi_b*) / n_traj), off-diagonal coordinates twice."""
        d = self.mean_state.shape[1]
        return np.sqrt((self.std_error[:, :-1] ** 2 @ (2.0 - np.eye(d)).ravel()))


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
    Moments are kept at ``n_out`` >= 2 evenly spaced grid times including
    both endpoints, so (n_out - 1) must divide the step count.

    Each chunk reads its increments' words one window of ``_WORDS`` columns
    at a time (module docstring), and the stepper (``_accel``) takes their
    unpacked two-bit fields one block at a time; blocks end only at save
    points or a multiple of four steps after one, so the blocking never
    changes a trajectory's bits.  A block's saved states are reduced at once
    to the moments of fixed dyadic blocks of trajectories
    (``saved_state_moments``), which binary carries and a last fold merge
    across chunks (``merge_moments``): no buffer grows with n_traj * n_steps
    or n_traj * n_out, and no bit depends on the chunking.  The mean
    projector has exactly the expectation Phi^n rho0 it would have with
    Gaussian increments (``_phase_table``).
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
    chunk, d = min(_CHUNK, n_traj), m.dim
    # blocks end at save points or a multiple of 4 steps after one, which
    # every group size divides, and save at most _BLOCK_FIELDS // 8 components
    limit = max(4, _BLOCK_FIELDS // (chunk * max(n_jump, 1)))
    span = limit - limit % stride if stride <= limit else limit - limit % 4
    span = min(span, stride * max(1, _BLOCK_FIELDS // (8 * d * chunk)))
    seg = max(span, stride)  # a save interval, or a span of whole ones
    fields = np.empty((chunk, span * n_jump), dtype=np.uint8)
    n_words = -(-n_steps * n_jump // 32)
    window = 32 * _WORDS
    words = np.empty((chunk, _WORDS), dtype="<u8")
    packed = words.view(np.uint8)
    # a block's saves, laid out as the stepper holds its states: a row per component
    saved = np.empty((span // stride + 1, d, chunk), dtype=complex)
    stack = []  # nodes of trajectories 0 .. start - 1, one per canonical dyadic block
    final = np.empty((n_traj, 1, d), dtype=complex)
    for start in range(0, n_traj, chunk):
        rows = min(chunk, n_traj - start)
        psi = np.tile(psi0, (rows, 1))
        # blocks of span steps, cut at the end of each seg and of the run,
        # made as they are stepped: no O(n_steps / span) schedule is kept
        for step0, step1 in ((s, min(s + span, b + seg, n_steps)) for b in range(0, n_steps, seg)
                             for s in range(b, min(b + seg, n_steps), span)):
            buf = fields[:rows, : (step1 - step0) * n_jump]
            # fields f0 .. f1 - 1, cut where a new window of words is drawn
            f0 = f = step0 * n_jump
            f1 = step1 * n_jump
            while f < f1:
                if f % window == 0:
                    # word j of trajectory r is word r of the stream keyed (seed, j)
                    first = f // 32
                    columns = range(first, min(first + _WORDS, n_words))
                    words[:rows, :len(columns)] = _keyed_words(seed, columns, start, rows).T
                piece = min(f1, f - f % window + window) - f
                _unpack(packed[:rows], f % window, buf[:, f - f0 : f - f0 + piece])
                f += piece
            save0 = step0 // stride + (step0 > 0)
            out = saved[: step1 // stride + 1 - save0, :, :rows]
            step_trajectory_chunk(psi, u_step, incr, buf.reshape(rows, step1 - step0, n_jump),
                                  stride, out.transpose(2, 0, 1), step0)
            if len(out) == 0:
                continue
            parts = saved_state_moments(out, start)
            if step0 == 0:
                nodes = [(n, np.empty((n_out, d * d + 1)), np.empty((n_out, d * d + 1)))
                         for n, _, _ in parts]
            for (_, mean, m2), (_, part_mean, part_m2) in zip(nodes, parts):
                mean[save0:save0 + len(out)] = part_mean
                m2[save0:save0 + len(out)] = part_m2
        final[start:start + rows, 0] = psi
        for node in nodes:
            while stack and stack[-1][0] == node[0]:
                node = merge_moments(stack.pop(), node)
            stack.append(node)
    _, mean, m2 = functools.reduce(merge_moments, stack)
    coords = mean[:, :-1].reshape(n_out, d, d)
    re, im = np.triu(coords), np.tril(coords, -1).transpose(0, 2, 1)
    return TrajectoryEnsemble(
        grid=dt * stride * np.arange(n_out), states=final,
        mean_state=re + np.triu(re, 1).transpose(0, 2, 1) + 1j * (im - im.transpose(0, 2, 1)),
        std_error=np.sqrt(m2 / n_traj) / math.sqrt(n_traj),
    )


def one_step_means(m: GKLSModel, rho0: DensityMatrix, dt: float, grid) -> np.ndarray:
    """Phi^n rho0 at each time n dt of ``grid``: uniform, from 0, in steps
    that are a multiple of dt.

    Phi(rho) = U rho U^H + dt sum_k Lt_k rho Lt_k^H, with the U and Lt_k
    ``unravel_linear`` steps by, is the one-step map of its ensemble mean:
    Phi^n rho0 is the mean state's exact expectation after n steps.
    """
    grid = np.asarray(grid, dtype=float)
    check_uniform_grid(grid, "grid")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    stride = step_count(grid[1], dt) if grid.size > 1 else 1
    u_step, ls_scaled = _step_operators(m, dt)
    phi = np.kron(u_step.conj(), u_step)
    for L in ls_scaled:
        phi += dt * np.kron(L.conj(), L)
    return grid_states(lambda k: np.linalg.matrix_power(phi, k * stride), rho0.matrix, grid.size)


def _sidak_z(alpha: float, n: int) -> float:
    """The z at which n independent |N(0, 1)| all stay below z with
    probability 1 - alpha (Sidak); it bounds correlated normals as well."""
    level = -math.expm1(math.log1p(-alpha) / n)
    lo, hi = 0.0, 40.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2.0)) > level else (lo, mid)
    return hi


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
    """The ``EnsembleCheck`` of an ``unravel_linear`` ensemble stepped by dt,
    from its moments: the exact reference exp(t G) rho0 at the saved times
    comes from ``grid_states``, by the powers exp(k h G) of the grid step h."""
    expected = one_step_means(m, rho0, dt, e.grid)
    gen = build_generator(m).matrix
    exact = grid_states(lambda k: expm(k * e.grid[1] * gen), rho0.matrix, e.grid.size)
    dev = e.mean_state - expected
    # |dev| of each coordinate, packed as in std_error, then of the trace, in
    # units of its standard error once _ROUNDING is taken off: 0 within
    # rounding, infinite beyond it with no spread, NaN for a NaN
    upper = np.triu(np.ones((m.dim, m.dim), dtype=bool))
    coords = np.where(upper, dev.real, dev.imag.transpose(0, 2, 1)).reshape(e.grid.size, -1)
    excess = np.maximum(np.abs(np.column_stack((coords, np.trace(dev, axis1=1, axis2=2).real)))
                        - _ROUNDING, 0.0)
    z = np.divide(excess, e.std_error, out=np.full_like(excess, math.inf), where=e.std_error > 0.0)
    z[excess == 0.0] = 0.0
    return EnsembleCheck(
        alpha=_FALSE_ALARM,
        max_deviation=float(np.linalg.norm(e.mean_state - exact, axis=(1, 2)).max()),
        mean_sigma_units=float(z[:, :-1].max()),
        mean_z_bound=_sidak_z(_FALSE_ALARM, (e.grid.size - 1) * m.dim**2),
        trace_sigma_units=float(z[:, -1].max()),
        trace_z_bound=_sidak_z(_FALSE_ALARM, e.grid.size - 1),
        trace_defect=float(np.abs(np.trace(expected, axis1=1, axis2=2) - 1.0).max()),
        scheme_bias=float(np.linalg.norm(expected - exact, axis=(1, 2)).max()),
        scheme_bias_bound=float(e.grid[-1] * dt * np.linalg.norm(gen, 2) ** 2),
    )


def write_ensemble_csv(e: TrajectoryEnsemble, path) -> None:
    """Emit t, mean-state entries (re/im), stat_error per grid time."""
    d = e.mean_state.shape[2]
    entries = [f"{part}_rho_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
    write_csv(path, ["t", *entries, "stat_error"],
              ([t, *(x for z in mean.ravel() for x in (z.real, z.imag)), err]
               for t, mean, err in zip(e.grid, e.mean_state, e.stat_error)))
