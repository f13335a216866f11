"""Hot numeric kernels, vectorized in numpy.

``step_trajectory_chunk`` steps the linear unraveling and
``fv_drift_diffusion_step`` the classical sector of the hybrid evolver.  The
stepper draws no random numbers: each trajectory consumes only its own rows
of the noise array it is handed and writes only its own output slots, so
seeded results do not depend on how the trajectories are split into chunks.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# linear-unraveling stepper
# ---------------------------------------------------------------------------

def step_trajectory_chunk(psi0, u_step, ls_scaled, noise, save_stride, out):
    """Stochastic steps for a chunk of unnormalized trajectories.

    The deterministic contraction exp(-i H_eff dt) is applied exactly via
    the precomputed one-step matrix ``u_step``; the noise coupling is Ito-
    Euler: psi <- u_step psi + sum_k sqrt(gamma_k) L_k dxi_k psi.

    psi0: (d,) start state shared by the chunk
    u_step: (d, d) one-step propagator of the effective Hamiltonian
    ls_scaled: (n_jump, d, d), sqrt(gamma_k) * L_k
    noise: (n_chunk, n_steps, n_jump) complex increments, E|dxi|^2 = dt
    out: (n_chunk, n_save, d) filled with states at every save_stride steps
    """
    n_chunk, n_steps, n_jump = noise.shape
    psi = np.broadcast_to(psi0, (n_chunk, psi0.size)).copy()
    out[:, 0, :] = psi
    isave = 1
    for s in range(n_steps):
        new = psi @ u_step.T
        for k in range(n_jump):
            new += noise[:, s, k, None] * (psi @ ls_scaled[k].T)
        psi = new
        if (s + 1) % save_stride == 0:
            out[:, isave, :] = psi
            isave += 1
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
