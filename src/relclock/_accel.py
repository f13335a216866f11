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
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# linear-unraveling stepper
# ---------------------------------------------------------------------------

def step_trajectory_chunk(psi, u_step, ls_scaled, noise, save_stride, out, step0=0):
    """Stochastic steps step0 + 1 .. step0 + n_block for a chunk of
    unnormalized trajectories.

    The deterministic contraction exp(-i H_eff dt) is applied exactly via
    the precomputed one-step matrix ``u_step``; the noise coupling is Ito-
    Euler: psi <- u_step psi + sum_k sqrt(gamma_k) L_k dxi_k psi.

    psi: (n_chunk, d) states after global step ``step0``, advanced in place
    u_step: (d, d) one-step propagator of the effective Hamiltonian
    ls_scaled: (n_jump, d, d), sqrt(gamma_k) * L_k
    noise: (n_chunk, n_block, n_jump) complex increments, E|dxi|^2 = dt
    out: (n_chunk, n_save, d); the state after global step s is written to
        ``out[:, s // save_stride]`` whenever s is a multiple of save_stride
        (s = 0 included, when step0 is 0)
    """
    n_chunk, n_block, n_jump = noise.shape
    state = psi
    if step0 == 0:
        out[:, 0, :] = state
    for i in range(n_block):
        new = state @ u_step.T
        for k in range(n_jump):
            new += noise[:, i, k, None] * (state @ ls_scaled[k].T)
        state = new
        s = step0 + i + 1
        if s % save_stride == 0:
            out[:, s // save_stride, :] = state
    psi[...] = state
    return out


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
