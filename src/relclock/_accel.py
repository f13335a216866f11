"""Hot numeric kernels, vectorized in numpy.

``step_trajectory_chunk`` steps the linear unraveling and
``fv_drift_diffusion_step`` the classical sector of the hybrid evolver.  The
stepper draws no random numbers: each trajectory consumes only its own rows
of the noise array it is handed and writes only its own output slots, so
seeded results do not depend on how the trajectories are split into chunks.
It also takes the steps in blocks: the caller hands it one block of noise at
a time together with the states reached so far, so the noise it holds is
O(chunk * block) whatever the number of steps, and a run split into blocks
takes exactly the arithmetic of one unsplit call.

Row layout.  The stepper holds a chunk as d contiguous rows of length
n_chunk, row j being component j of every trajectory, and builds each new
row with elementwise ufuncs: the products ``row_j * coef`` over the exactly
nonzero entries of a row of ``u_step`` (or of ``ls_scaled[k]``), summed in
column order, then for a jump the product with the noise column
``noise[:, i, k]`` (a strided view, not a copy), added in k order.  A zero
entry may be skipped because its term is an exact zero for a finite state,
and adding an exact zero leaves a nonzero sum unchanged.  Every element of a
row goes through the same ufunc arithmetic, so a trajectory's bits depend
neither on its position in the row nor on the chunk size.

Where every row of ``u_step`` and of each ``L_k`` has at most one nonzero
entry (a diagonal H_eff with ladder or diagonal jumps, as in every model the
CLI unravels), each term is a single complex product with no sum to round.
BLAS forms that product the same way, so the rows equal ``state @
u_step.T`` plus ``noise[:, i, k, None] * (state @ L_k.T)`` bit for bit, up
to the sign of a component that is exactly zero.  A dense d-level model is
as correct, at d * d products per matrix and step, with its sums rounded in
column order rather than in BLAS's order.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# linear-unraveling stepper
# ---------------------------------------------------------------------------

def _nonzero_terms(matrix):
    """Per row a, the (j, matrix[a, j]) pairs with a nonzero entry, in column order."""
    return [[(j, complex(c)) for j, c in enumerate(row) if c != 0] for row in matrix]


def step_trajectory_chunk(psi, u_step, ls_scaled, noise, save_stride, out, step0=0):
    """Stochastic steps step0 + 1 .. step0 + n_block for a chunk of
    unnormalized trajectories.

    The deterministic contraction exp(-i H_eff dt) is applied exactly via
    the precomputed one-step matrix ``u_step``; the noise coupling is Ito-
    Euler: psi <- u_step psi + sum_k sqrt(gamma_k) L_k dxi_k psi.

    psi: (n_chunk, d) states after global step ``step0``, advanced in place
    u_step: (d, d) one-step propagator of the effective Hamiltonian
    ls_scaled: (n_jump, d, d), sqrt(gamma_k) * L_k
    noise: (n_chunk, n_block, n_jump) complex increments with E dxi = 0 and
        E dxi_k dxi_l* = delta_kl dt, any array of that shape (a strided view
        included); ``unravel_linear`` hands it the phases sqrt(dt) * {1, i,
        -1, -i}, and the mean of the projectors needs no other moment
    out: (n_chunk, n_save, d); the state after global step s is written to
        ``out[:, s // save_stride]`` whenever s is a multiple of save_stride
        (s = 0 included, when step0 is 0)
    """
    n_chunk, n_block, _ = noise.shape
    u_terms = _nonzero_terms(u_step)
    l_terms = [_nonzero_terms(L) for L in ls_scaled]
    state = np.ascontiguousarray(psi.T)
    new = np.empty_like(state)
    term = np.empty(n_chunk, dtype=complex)
    acc = np.empty(n_chunk, dtype=complex)
    if step0 == 0:
        out[:, 0, :] = psi
    for i in range(n_block):
        for row, terms in zip(new, u_terms):
            _combine(state, terms, row, term)
        for k, rows_k in enumerate(l_terms):
            xi = noise[:, i, k]
            for row, terms in zip(new, rows_k):
                if terms:
                    _combine(state, terms, acc, term)
                    np.multiply(xi, acc, out=acc)
                    row += acc
        state, new = new, state
        s = step0 + i + 1
        if s % save_stride == 0:
            out[:, s // save_stride, :] = state.T
    psi[...] = state.T
    return out


def _combine(state, terms, dest, scratch):
    """dest <- sum over (j, c) in ``terms`` of state[j] * c, in that order."""
    if not terms:
        dest[...] = 0.0
        return
    (j, c), *rest = terms
    np.multiply(state[j], c, out=dest)
    for j, c in rest:
        np.multiply(state[j], c, out=scratch)
        dest += scratch


# ---------------------------------------------------------------------------
# finite-volume drift-diffusion step (classical sector of the hybrid evolver)
# ---------------------------------------------------------------------------

def fv_drift_diffusion_step(blocks, V, D, dz, dt):
    """One explicit Scharfetter-Gummel step with reflecting boundaries.

    blocks: (n_cells, d, d) complex cell weights, updated out of place
    V: (d, d) real entrywise drift velocities (drift-operator eigenbasis)
    D: scalar diffusion constant (>= 0)
    """
    if D > 0.0:
        p = V * dz / D
        with np.errstate(over="ignore"):
            bp = np.where(np.abs(p) < 1e-5, 1.0 - 0.5 * p + p * p / 12.0,
                          p / np.expm1(np.where(np.abs(p) < 1e-5, 1.0, p)))
            bm = np.where(np.abs(p) < 1e-5, 1.0 + 0.5 * p + p * p / 12.0,
                          -p / np.expm1(np.where(np.abs(p) < 1e-5, 1.0, -p)))
        flux = (D / dz) * (bm[None, :, :] * blocks[:-1] - bp[None, :, :] * blocks[1:])
    elif np.any(V != 0.0):
        vpos = np.clip(V, 0.0, None)[None, :, :]
        vneg = np.clip(V, None, 0.0)[None, :, :]
        flux = vpos * blocks[:-1] + vneg * blocks[1:]
    else:
        return blocks.copy()
    out = blocks.copy()
    out[:-1] -= (dt / dz) * flux
    out[1:] += (dt / dz) * flux
    return out
