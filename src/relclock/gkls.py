"""Finite-dimensional GKLS generators: construction, CPTP checks, evolution.

Sign conventions used throughout: a jump operator with Bohr label omega
satisfies [H_S, L] = omega * L, so lowering operators carry negative labels;
their rates are the rate density evaluated at that same (negative) frequency,
which is the emission side in this package's Fourier convention.  Vectorization
is column-stacking, vec(A X B) = (B^T kron A) vec(X), and the Choi matrix is
built in that convention; both are fixed here because convention mismatches
are the classic source of false CP violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rates import KossakowskiBlock

__all__ = [
    "DensityMatrix",
    "Superoperator",
    "GKLSModel",
    "ChoiVerdict",
    "build_generator",
    "cp_choi_check",
    "evolve",
    "stationarity_check",
    "bohr_decompose",
    "qubit_decay_model",
    "save_model",
    "load_model",
]


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def _hermitian_defect(M):
    return np.abs(M - M.conj().T).max()


class DensityMatrix:
    """Hermitian, unit-trace, (numerically) positive state."""

    def __init__(self, matrix, trace_tol: float = 1e-12, eig_floor: float = -1e-10):
        M = np.asarray(matrix, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("density matrix must be square")
        scale = max(np.abs(M).max(), 1.0)
        if _hermitian_defect(M) > 1e-12 * scale:
            raise ValueError("density matrix must be Hermitian")
        tr = np.real(np.trace(M))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace must be 1 (got {tr!r})")
        min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min())
        if min_eig < eig_floor:
            raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")
        self.matrix = 0.5 * (M + M.conj().T)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def gibbs(cls, hamiltonian, beta: float) -> "DensityMatrix":
        H = np.asarray(hamiltonian, dtype=complex)
        if beta == math.inf:
            eigvals, eigvecs = np.linalg.eigh(H)
            ground = eigvecs[:, 0]
            return cls.pure(ground)
        from scipy.linalg import expm
        w = expm(-beta * H)
        return cls(w / np.trace(w))

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d) / d)


@dataclass(frozen=True)
class Superoperator:
    """d^2 x d^2 matrix acting on column-stacked density matrices."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        d2 = M.shape[0]
        d = int(round(math.sqrt(d2)))
        if M.ndim != 2 or M.shape != (d2, d2) or d * d != d2:
            raise ValueError("superoperator must be d^2 x d^2")
        # trace preservation: the adjoint annihilates the identity
        defect = np.abs(M.conj().T @ vec(np.eye(d))).max()
        scale = max(np.abs(M).max(), 1.0)
        if defect > 1e-12 * scale * d:
            raise ValueError(f"superoperator is not trace preserving ({defect:.3e})")
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self) -> int:
        return int(round(math.sqrt(self.matrix.shape[0])))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)


@dataclass(frozen=True)
class ChoiVerdict:
    is_cp: bool
    min_choi_eigenvalue: float

    def __bool__(self):
        return self.is_cp


class GKLSModel:
    """Hamiltonian plus labeled jump operators and their Kossakowski block.

    ``hamiltonian`` is the full coherent part (system plus any Lamb shift);
    the Bohr eigenoperator check runs against ``system_hamiltonian`` (defaults
    to ``hamiltonian``).  Pass ``validate=False`` only to probe deliberately
    broken models, e.g. non-PSD rate matrices in CP tests.
    """

    def __init__(
        self,
        dim: int,
        hamiltonian,
        jump_operators,
        kossakowski,
        system_hamiltonian=None,
        validate: bool = True,
    ):
        self.dim = int(dim)
        self.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        self.jump_operators = [
            (np.asarray(L, dtype=complex), float(om)) for L, om in jump_operators
        ]
        if isinstance(kossakowski, KossakowskiBlock):
            self.kossakowski = np.asarray(kossakowski.matrix, dtype=complex)
        else:
            self.kossakowski = np.asarray(kossakowski, dtype=complex)
        self.system_hamiltonian = (
            self.hamiltonian
            if system_hamiltonian is None
            else np.asarray(system_hamiltonian, dtype=complex)
        )
        if validate:
            self._validate()

    def _validate(self):
        d = self.dim
        H = self.hamiltonian
        if H.shape != (d, d):
            raise ValueError("hamiltonian shape mismatch")
        scale = max(np.abs(H).max(), 1.0)
        if _hermitian_defect(H) > 1e-12 * scale:
            raise ValueError("hamiltonian must be Hermitian")
        n = len(self.jump_operators)
        K = self.kossakowski
        if K.shape != (n, n):
            raise ValueError(
                f"kossakowski block ({K.shape}) misaligned with {n} jump operators"
            )
        if _hermitian_defect(K) > 1e-12 * max(np.abs(K).max(), 1.0):
            raise ValueError("kossakowski block must be Hermitian")
        margin = float(np.linalg.eigvalsh(K).min())
        if margin < -1e-10 * max(np.real(np.trace(K)), 1.0):
            raise ValueError(f"kossakowski block is not PSD (min eig {margin:.3e})")
        # cross-frequency couplings must vanish
        omegas = [om for _, om in self.jump_operators]
        om_scale = max((abs(o) for o in omegas), default=1.0)
        for i in range(n):
            for j in range(n):
                if abs(omegas[i] - omegas[j]) > 1e-9 * max(om_scale, 1.0):
                    if abs(K[i, j]) > 1e-12 * max(np.abs(K).max(), 1.0):
                        raise ValueError(
                            "kossakowski couples different Bohr frequencies"
                        )
        # Bohr eigenoperator check: [H_S, L] = omega L
        Hs = self.system_hamiltonian
        hnorm = max(np.linalg.norm(Hs, 2), 1.0)
        for L, om in self.jump_operators:
            if L.shape != (d, d):
                raise ValueError("jump operator shape mismatch")
            defect = np.linalg.norm(Hs @ L - L @ Hs - om * L, 2)
            if defect > 1e-10 * hnorm * max(np.linalg.norm(L, 2), 1e-30):
                raise ValueError(
                    f"jump operator with label {om} is not a Bohr eigenoperator "
                    f"(defect {defect:.3e})"
                )


def build_generator(m: GKLSModel) -> Superoperator:
    """Vectorized GKLS generator -i[H, .] + sum kappa_ab (A_a . A_b^+ - ...)."""
    d = m.dim
    I = np.eye(d)
    H = m.hamiltonian
    M = -1j * (np.kron(I, H) - np.kron(H.T, I))
    K = m.kossakowski
    for i, (Li, _) in enumerate(m.jump_operators):
        for j, (Lj, _) in enumerate(m.jump_operators):
            k = K[i, j]
            if k == 0.0:
                continue
            LjLi = Lj.conj().T @ Li
            M = M + k * (
                np.kron(Lj.conj(), Li)
                - 0.5 * np.kron(I, LjLi)
                - 0.5 * np.kron(LjLi.T, I)
            )
    return Superoperator(matrix=M)


def cp_choi_check(s: Superoperator, dt: float, tol: float = 1e-10) -> ChoiVerdict:
    """Choi-positivity test of the short-time channel exp(dt * L)."""
    M = s.matrix
    d = s.dim
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    if dt * np.linalg.norm(M, 2) > 1.0 + 1e-9:
        raise ValueError("dt too large: require dt * ||L|| <= 1")
    from scipy.linalg import expm
    E = expm(dt * M)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d))
            unit[i, j] = 1.0
            Eij = unvec(E @ vec(unit), d)
            choi += np.kron(Eij, unit)
        # (kron ordering fixed by the column-stacking convention above)
    min_eig = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    return ChoiVerdict(is_cp=min_eig >= -tol, min_choi_eigenvalue=min_eig)


def evolve(m: GKLSModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Propagate rho0 by exp(t L) using a dense matrix exponential."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    from scipy.linalg import expm
    gen = build_generator(m)
    rho = unvec(expm(t * gen.matrix) @ vec(rho0.matrix), m.dim)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho, trace_tol=1e-10, eig_floor=-1e-8)


def stationarity_check(m: GKLSModel, rho: DensityMatrix) -> float:
    """Frobenius norm of L(rho); ~0 for stationary states."""
    gen = build_generator(m)
    return float(np.linalg.norm(gen.matrix @ vec(rho.matrix)))


def bohr_decompose(H_S, A, tol: float | None = None):
    """Split A into Bohr eigenoperators of H_S, [H_S, A_w] = w A_w.

    Frequencies within ``tol`` (default 1e-9 * ||H_S||) are binned together.
    Returns a list of (component, frequency) whose components sum to A.
    """
    H = np.asarray(H_S, dtype=complex)
    A = np.asarray(A, dtype=complex)
    eigvals, V = np.linalg.eigh(H)
    if tol is None:
        tol = 1e-9 * max(np.linalg.norm(H, 2), 1.0)
    At = V.conj().T @ A @ V
    d = H.shape[0]
    bins: dict[int, tuple[float, np.ndarray]] = {}
    freqs: list[float] = []
    for a in range(d):
        for b in range(d):
            if At[a, b] == 0.0:
                continue
            w = eigvals[a] - eigvals[b]
            for idx, f in enumerate(freqs):
                if abs(w - f) <= tol:
                    key = idx
                    break
            else:
                freqs.append(w)
                key = len(freqs) - 1
            comp = bins.get(key)
            if comp is None:
                bins[key] = (freqs[key], np.zeros((d, d), dtype=complex))
            piece = np.zeros((d, d), dtype=complex)
            piece[a, b] = At[a, b]
            bins[key] = (bins[key][0], bins[key][1] + piece)
    out = []
    anorm = max(np.linalg.norm(A), 1e-30)
    for w, comp_t in (bins[k] for k in sorted(bins)):
        comp = V @ comp_t @ V.conj().T
        if np.linalg.norm(comp) > 1e-14 * anorm:
            out.append((comp, float(w)))
    return out


def qubit_decay_model(
    omega0: float, gamma_down: float, gamma_up: float = 0.0, lamb_shift: float = 0.0
) -> GKLSModel:
    """Two-level model: H = omega0 sz/2, lowering/raising channels.

    The lowering operator carries label -omega0 and rate ``gamma_down``;
    the raising operator label +omega0 and rate ``gamma_up``.
    """
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
    H_S = 0.5 * omega0 * sz
    H = H_S + 0.5 * lamb_shift * sz
    jumps = [(sm, -omega0)]
    rates = [gamma_down]
    if gamma_up != 0.0:
        jumps.append((sm.conj().T, omega0))
        rates.append(gamma_up)
    return GKLSModel(
        dim=2,
        hamiltonian=H,
        jump_operators=jumps,
        kossakowski=np.diag(rates).astype(complex),
        system_hamiltonian=H_S,
    )


def _fmt_matrix(M: np.ndarray) -> list[str]:
    lines = []
    for row in np.atleast_2d(M):
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return lines


def _parse_matrix(lines, d, width=None):
    width = d if width is None else width
    rows = []
    for line in lines:
        rows.append([complex(*map(float, tok.split(","))) for tok in line.split()])
    M = np.array(rows, dtype=complex)
    if M.shape != (d, width):
        raise ValueError(f"matrix block has shape {M.shape}, expected {(d, width)}")
    return M


def save_model(m: GKLSModel, path) -> None:
    """Structured-text export: dimension, H (row-major re,im), jumps, rates."""
    lines = [f"dim {m.dim}", "hamiltonian"]
    lines += _fmt_matrix(m.hamiltonian)
    lines.append(f"jumps {len(m.jump_operators)}")
    for L, om in m.jump_operators:
        lines.append(f"omega {om:.17g}")
        lines += _fmt_matrix(L)
    lines.append("kossakowski")
    lines += _fmt_matrix(m.kossakowski)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> GKLSModel:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    it = iter(lines)
    head = next(it).split()
    if head[0] != "dim":
        raise ValueError("model file must start with 'dim <d>'")
    d = int(head[1])
    if next(it) != "hamiltonian":
        raise ValueError("expected 'hamiltonian' section")
    H = _parse_matrix([next(it) for _ in range(d)], d)
    head = next(it).split()
    if head[0] != "jumps":
        raise ValueError("expected 'jumps <n>' section")
    n = int(head[1])
    jumps = []
    for _ in range(n):
        om = float(next(it).split()[1])
        L = _parse_matrix([next(it) for _ in range(d)], d)
        jumps.append((L, om))
    if next(it) != "kossakowski":
        raise ValueError("expected 'kossakowski' section")
    K = _parse_matrix([next(it) for _ in range(n)], n, width=n)
    return GKLSModel(dim=d, hamiltonian=H, jump_operators=jumps, kossakowski=K)
