"""Hybrid classical-quantum clock dynamics: trade-off checks and grid evolution.

The hybrid state is an operator-valued density over a classical clock value
z, stored as one Hermitian block per finite-volume cell.  A step couples

  * a quantum GKLS sector with Lindblad strengths ``d0``,
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._accel import fv_drift_diffusion_step
from ._csv import write_csv
from .gkls import check_uniform_grid, expm, generator_matrix, step_count
from .kernels import psd_margin

__all__ = [
    "CQKernels",
    "HybridState",
    "CQModel",
    "TradeoffVerdict",
    "tradeoff_check",
    "cq_evolve_grid",
    "write_hybrid_csv",
]


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
        d0 = np.atleast_2d(np.asarray(self.d0, dtype=complex))
        d1 = np.atleast_2d(np.asarray(self.d1, dtype=complex))
        d2 = np.atleast_2d(np.asarray(self.d2, dtype=complex))
        for name, M in (("d0", d0), ("d2", d2)):
            if M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            psd_margin(M, name)
        if d1.shape != (d2.shape[0], d0.shape[0]):
            raise ValueError(
                f"d1 must be (n_classical, n_lindblad) = {(d2.shape[0], d0.shape[0])}, "
                f"got {d1.shape}"
            )
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)


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


class CQModel:
    """Quantum sector of the hybrid dynamics: H(z) and Lindblad operators L(z).

    ``hamiltonian`` and ``lindblads`` may be constants or callables of z.
    """

    def __init__(self, dim: int, hamiltonian, lindblads):
        self.dim = int(dim)
        self._ham = hamiltonian
        self._lind = lindblads
        self.z_dependent = callable(hamiltonian) or callable(lindblads)

    def hamiltonian(self, z: float) -> np.ndarray:
        H = self._ham(z) if callable(self._ham) else self._ham
        return np.asarray(H, dtype=complex)

    def lindblads(self, z: float) -> list[np.ndarray]:
        ls = self._lind(z) if callable(self._lind) else self._lind
        return [np.asarray(L, dtype=complex) for L in ls]


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

    def quantum_marginal(self) -> np.ndarray:
        M = self.blocks.sum(axis=0)
        return 0.5 * (M + M.conj().T)

    @classmethod
    def gaussian_packet(
        cls, z_grid, center: float, width: float, qubit_state
    ) -> "HybridState":
        z = np.asarray(z_grid, dtype=float)
        w = np.exp(-((z - center) ** 2) / (2.0 * width**2))
        w /= w.sum()
        rho = np.asarray(qubit_state, dtype=complex)
        return cls(z, w[:, None, None] * rho[None, :, :])


def cq_evolve_grid(
    k: CQKernels, model: CQModel, st: HybridState, t: float, dt: float
) -> HybridState:
    """Strang-split hybrid evolution: classical half, quantum full, classical half.

    The classical substep is an explicit Scharfetter-Gummel finite-volume
    drift-diffusion step in the drift operator's eigenbasis; the quantum
    substep applies per-cell GKLS propagators (exact matrix exponentials).
    Requires z-independent Lindblad operators whenever the backaction drift
    is switched on, since the entrywise flux decoupling needs one common
    eigenbasis along the grid.
    """
    if k.d2.shape != (1, 1):
        raise ValueError("grid evolution supports one classical direction")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    n_steps = step_count(t, dt)
    D = float(np.real(k.d2[0, 0]))
    dz = st.dz
    z = st.z_grid
    d = st.dim

    has_drift = np.abs(k.d1).max() > 0.0
    if has_drift and callable(model._lind):
        raise NotImplementedError(
            "backaction drift with z-dependent Lindblad operators is not supported"
        )
    lind0 = model.lindblads(float(z[0]))
    B = np.zeros((d, d), dtype=complex)  # backaction drift operator
    if has_drift:
        for mu, L in enumerate(lind0):
            B += 0.5 * k.d1[0, mu] * (L + L.conj().T)
        B = 0.5 * (B + B.conj().T)
    lam, Q = np.linalg.eigh(B)
    V = np.real(lam[:, None] + lam[None, :])  # entrywise drift velocities

    # stability guards (explicit classical substep)
    if D > 0.0 and dt > 0.2 * dz * dz / D * (1.0 + 1e-12):
        raise ValueError("step-size error: dt must be <= 0.2 dz^2 / max(d2)")

    # per-cell quantum propagators in the drift eigenbasis
    def rotate(M):
        return Q.conj().T @ M @ Q

    props = []
    gen_norm = 0.0
    if model.z_dependent:
        for zc in z:
            G = generator_matrix(
                rotate(model.hamiltonian(float(zc))), [rotate(L) for L in model.lindblads(float(zc))], k.d0
            )
            gen_norm = max(gen_norm, np.linalg.norm(G, 2))
            props.append(expm(dt * G))
        props = np.array(props)
    else:
        G = generator_matrix(rotate(model.hamiltonian(0.0)), [rotate(L) for L in lind0], k.d0)
        gen_norm = np.linalg.norm(G, 2)
        props = None
        prop_single = expm(dt * G)
    if dt * (gen_norm + np.abs(V).max() / dz) > 0.1 + 1e-12:
        raise ValueError("step-size error: dt * ||generator|| must be <= 0.1")

    blocks = np.einsum("ai,cij,bj->cab", Q.conj(), st.blocks, Q)  # rotate in
    vb_shape = (z.size, d * d)
    for _ in range(n_steps):
        blocks = fv_drift_diffusion_step(blocks, V, D, dz, 0.5 * dt)
        vb = blocks.transpose(0, 2, 1).reshape(vb_shape)  # vec per cell (column stacking)
        if props is None:
            vb = vb @ prop_single.T
        else:
            vb = np.einsum("cij,cj->ci", props, vb)
        blocks = vb.reshape(z.size, d, d).transpose(0, 2, 1)
        blocks = fv_drift_diffusion_step(blocks, V, D, dz, 0.5 * dt)
    blocks = np.einsum("ia,cab,jb->cij", Q, blocks, Q.conj())  # rotate out
    blocks = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
    return HybridState(z, blocks)


def write_hybrid_csv(st: HybridState, path) -> None:
    """Emit z, Tr(block), block entries (re/im) per cell."""
    d = st.dim
    header = ["z", "tr_block"]
    for i in range(d):
        for j in range(d):
            header += [f"re_b_{i}{j}", f"im_b_{i}{j}"]
    rows = []
    for zc, block in zip(st.z_grid, st.blocks):
        rows.append([zc, np.real(np.trace(block)), *(x for z in block.ravel() for x in (z.real, z.imag))])
    write_csv(path, header, rows)
