"""Hybrid classical-quantum clock dynamics: trade-off checks and grid evolution.

The hybrid state is an operator-valued density over a classical clock value
z, stored as one Hermitian block per finite-volume cell.  A step couples

  * a quantum GKLS sector with Lindblad strengths ``d0``, the same
    Hamiltonian and Lindblad operators in every cell,
  * a classical drift whose flux is the Hermitian sandwich
    {B, Y} with B = sum_mu d1[mu] (L_mu + L_mu^+)/2 (backaction), and
  * classical diffusion d2 * d^2/dz^2 (sample-path variance 2 d2 t).

With these normalizations the decoherence-diffusion trade-off
2 d2 >= d1 pinv(d0) d1^+ is exactly the complete-positivity boundary of the
realized dynamics (a Gaussian closed-form computation on the dephasing qubit
gives equality margin <-> equality of decay and packet-separation exponents).
The classical sector uses Scharfetter-Gummel fluxes with reflecting
boundaries: trace is conserved identically and the scheme's leading error is
a small extra diffusion, which errs on the positive-definite side.

:func:`cq_evolve_grid` picks its own step dt_max: the least of the cap
``_DT_CAP``, the diffusion limit 0.2 dz^2 / d2 and the generator limit
0.1 / (||G||_2 + max|V| / dz) of the quantum generator G.  It cuts t into
``_CHECKS`` equal parts of ceil(t / _CHECKS / dt_max) steps each, and returns
the least block eigenvalue at the start and after each part with the final
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import fv_drift_diffusion_step
from ._csv import write_csv
from .gkls import check_uniform_grid, expm, generator_matrix
from .kernels import psd_margin

__all__ = [
    "CQKernels",
    "HybridState",
    "TradeoffVerdict",
    "tradeoff_check",
    "cq_evolve_grid",
    "write_hybrid_csv",
]

_DT_CAP = 2e-3  #: the hybrid step never exceeds this
_CHECKS = 20  #: equal parts of a run; block positivity is read after each


@dataclass(frozen=True)
class CQKernels:
    """Lindblad strengths d0, backaction drift couplings d1, diffusion d2.

    d0 is (n_L, n_L) Hermitian PSD, d1 is (n_classical, n_L), d2 is
    (n_classical, n_classical) Hermitian PSD.  Scalars are accepted and
    promoted to 1x1 matrices.
    """

    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        d0, d1, d2 = (np.atleast_2d(np.asarray(M, dtype=complex)) for M in (self.d0, self.d1, self.d2))
        for name, M in (("d0", d0), ("d2", d2)):
            if M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            psd_margin(M, name)
        if d1.shape != (d2.shape[0], d0.shape[0]):
            raise ValueError(
                f"d1 must be (n_classical, n_lindblad) = {(d2.shape[0], d0.shape[0])}, "
                f"got {d1.shape}"
            )
        for name, M in (("d0", d0), ("d1", d1), ("d2", d2)):
            object.__setattr__(self, name, M)


@dataclass(frozen=True)
class TradeoffVerdict:
    status: str  # "satisfied" | "violated" | "range_violation"
    margin: float
    range_ok: bool

    def __bool__(self):
        return self.status == "satisfied"

    def to_json_dict(self) -> dict:
        return {"verdict": self.status, "margin": self.margin, "range_ok": self.range_ok}


def tradeoff_check(k: CQKernels) -> TradeoffVerdict:
    """Decoherence-diffusion trade-off: 2 d2 - d1 pinv(d0) d1^+ must be PSD.

    Also enforces the range condition d1 (I - pinv(d0) d0) = 0; backaction
    outside the range of d0 cannot be compensated by any diffusion.
    """
    pinv = np.linalg.pinv(k.d0)
    M = 2.0 * k.d2 - k.d1 @ pinv @ k.d1.conj().T
    M = 0.5 * (M + M.conj().T)
    margin = float(np.linalg.eigvalsh(M).min())
    proj = np.eye(k.d0.shape[0]) - pinv @ k.d0
    range_defect = np.abs(k.d1 @ proj).max()
    range_ok = range_defect <= 1e-10 * max(np.abs(k.d1).max(), 1.0)
    if not range_ok:
        return TradeoffVerdict(status="range_violation", margin=margin, range_ok=False)
    status = "satisfied" if margin >= -1e-12 else "violated"
    return TradeoffVerdict(status=status, margin=margin, range_ok=True)


class HybridState:
    """Operator-valued weights over a uniform classical grid.

    ``blocks[c]`` is the Hermitian weight of cell c (density times cell
    width); total trace is 1 to 1e-8.  Block positivity is a property of valid
    dynamics, not a construction invariant, so it is exposed via
    :meth:`min_block_eigenvalue` rather than enforced.
    """

    def __init__(self, z_grid, blocks):
        z = np.asarray(z_grid, dtype=float)
        b = np.asarray(blocks, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("z_grid must be a 1d grid with >= 2 cells")
        check_uniform_grid(z, "z_grid")
        if b.ndim != 3 or b.shape[0] != z.size or b.shape[1] != b.shape[2]:
            raise ValueError("blocks must be (n_cells, d, d)")
        if not np.isfinite(b).all():
            raise ValueError("blocks must be finite")
        if np.abs(b - b.conj().transpose(0, 2, 1)).max() > 1e-10 * max(
            np.abs(b).max(), 1e-300
        ):
            raise ValueError("blocks must be Hermitian")
        tr = float(np.real(np.einsum("cii->", b)))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"total trace must be 1 (got {tr!r})")
        self.z_grid = z
        self.blocks = b

    @property
    def dz(self) -> float:
        return float(self.z_grid[1] - self.z_grid[0])

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    def total_trace(self) -> float:
        return float(np.real(np.einsum("cii->", self.blocks)))

    def min_block_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.blocks).min())

    def z_density(self) -> np.ndarray:
        return np.real(np.einsum("cii->c", self.blocks))

    def z_mean(self) -> float:
        return float(np.sum(self.z_grid * self.z_density()))

    def z_variance(self) -> float:
        mu = self.z_mean()
        return float(np.sum((self.z_grid - mu) ** 2 * self.z_density()))

    @classmethod
    def gaussian_packet(
        cls, z_grid, center: float, width: float, qubit_state
    ) -> "HybridState":
        z = np.asarray(z_grid, dtype=float)
        w = np.exp(-((z - center) ** 2) / (2.0 * width**2))
        total = w.sum()
        if not total > 0.0:
            raise ValueError(
                f"a packet at centre {center!r} of width {width!r} puts no weight on the "
                f"z grid [{z[0]}, {z[-1]}]"
            )
        w /= total
        rho = np.asarray(qubit_state, dtype=complex)
        return cls(z, w[:, None, None] * rho[None, :, :])


def cq_evolve_grid(
    k: CQKernels, H, lindblads, st: HybridState, t: float
) -> tuple[HybridState, float]:
    """Strang-split hybrid evolution: classical half, quantum full, classical half.

    The quantum sector is the Hamiltonian ``H`` and the Lindblad operators
    ``lindblads``, one per row of ``k.d0``, the same in every cell.  The
    classical substep is an explicit Scharfetter-Gummel finite-volume
    drift-diffusion step in the drift operator's eigenbasis; the quantum
    substep applies the one GKLS propagator (an exact matrix exponential) to
    every cell.  Step rule and positivity record: see the module docstring.
    """
    if k.d2.shape != (1, 1):
        raise ValueError("grid evolution supports one classical direction")
    if not t > 0.0:
        raise ValueError(f"t must be > 0 (got {t!r})")
    D = float(np.real(k.d2[0, 0]))
    dz = st.dz
    z = st.z_grid
    d = st.dim

    lindblads = [np.asarray(L, dtype=complex) for L in lindblads]
    B = np.zeros((d, d), dtype=complex)  # backaction drift operator
    for mu, L in enumerate(lindblads):
        B += 0.5 * k.d1[0, mu] * (L + L.conj().T)
    lam, Q = np.linalg.eigh(0.5 * (B + B.conj().T))
    V = np.real(lam[:, None] + lam[None, :])  # entrywise drift velocities

    # the quantum generator in the drift eigenbasis
    G = generator_matrix(Q.conj().T @ np.asarray(H, dtype=complex) @ Q,
                         [Q.conj().T @ L @ Q for L in lindblads], k.d0)
    rate = np.linalg.norm(G, 2) + np.abs(V).max() / dz
    dt_max = min(_DT_CAP, 0.2 * dz * dz / max(D, 1e-30), 0.1 / max(rate, 1e-30))
    per_check = math.ceil(t / _CHECKS / dt_max)
    dt = t / _CHECKS / per_check

    prop_t = expm(dt * G).T
    blocks = st.blocks
    min_eig = st.min_block_eigenvalue()
    for _ in range(_CHECKS):
        blocks = np.einsum("ai,cij,bj->cab", Q.conj(), blocks, Q)  # rotate in
        for _ in range(per_check):
            blocks = fv_drift_diffusion_step(blocks, V, D, dz, 0.5 * dt)
            # vec per cell (column stacking), times the propagator
            vb = blocks.transpose(0, 2, 1).reshape(z.size, d * d) @ prop_t
            blocks = vb.reshape(z.size, d, d).transpose(0, 2, 1)
            blocks = fv_drift_diffusion_step(blocks, V, D, dz, 0.5 * dt)
        blocks = np.einsum("ia,cab,jb->cij", Q, blocks, Q.conj())  # rotate out
        blocks = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(blocks).min()))
    return HybridState(z, blocks), min_eig


def write_hybrid_csv(st: HybridState, path) -> None:
    """Emit z, Tr(block), block entries (re/im) per cell."""
    d = st.dim
    entries = [f"{part}_b_{i}{j}" for i in range(d) for j in range(d) for part in ("re", "im")]
    write_csv(path, ["z", "tr_block", *entries],
              ([zc, np.real(np.trace(block)), *(x for z in block.ravel() for x in (z.real, z.imag))]
               for zc, block in zip(st.z_grid, st.blocks)))
