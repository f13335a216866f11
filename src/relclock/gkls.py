"""Finite-dimensional GKLS generators: construction, CPTP checks, evolution.

``evolve`` takes a state to one time, and ``grid_states`` to every time of a
uniform grid: it is the one place where a state is stepped along a grid.

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
from dataclasses import dataclass

import numpy as np

from .kernels import is_hermitian, psd_margin

__all__ = [
    "DensityMatrix",
    "Superoperator",
    "GKLSModel",
    "ChoiVerdict",
    "build_generator",
    "cp_choi_check",
    "evolve",
    "qubit_decay_model",
]


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


class DensityMatrix:
    """Hermitian, unit-trace, (numerically) positive state."""

    def __init__(self, matrix, trace_tol: float = 1e-12, eig_floor: float = -1e-10):
        M = np.asarray(matrix, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.isfinite(M).all():
            raise ValueError("density matrix has a non-finite entry")
        if not is_hermitian(M):
            raise ValueError("density matrix must be Hermitian")
        tr = np.real(np.trace(M))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace must be 1 (got {tr!r})")
        min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min())
        if min_eig < eig_floor:
            raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")
        self.matrix = 0.5 * (M + M.conj().T)

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


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
    to ``hamiltonian``).  Every model is validated on construction: the
    Kossakowski block must be PSD and couple equal Bohr frequencies only.  A
    deliberately broken generator, such as one with a non-PSD rate matrix,
    is built from ``generator_matrix`` directly.
    """

    def __init__(
        self,
        dim: int,
        hamiltonian,
        jump_operators,
        kossakowski,
        system_hamiltonian=None,
    ):
        self.dim = int(dim)
        self.hamiltonian = np.asarray(hamiltonian, dtype=complex)
        self.jump_operators = [
            (np.asarray(L, dtype=complex), float(om)) for L, om in jump_operators
        ]
        self.kossakowski = np.asarray(kossakowski, dtype=complex)
        self.system_hamiltonian = (
            self.hamiltonian
            if system_hamiltonian is None
            else np.asarray(system_hamiltonian, dtype=complex)
        )
        self._validate()

    def _validate(self):
        d = self.dim
        H = self.hamiltonian
        if H.shape != (d, d):
            raise ValueError("hamiltonian shape mismatch")
        if not is_hermitian(H):
            raise ValueError("hamiltonian must be Hermitian")
        n = len(self.jump_operators)
        K = self.kossakowski
        if K.shape != (n, n):
            raise ValueError(
                f"kossakowski block ({K.shape}) misaligned with {n} jump operators"
            )
        psd_margin(K, "kossakowski block")
        # cross-frequency couplings must vanish
        omegas = np.array([om for _, om in self.jump_operators])
        apart = np.abs(omegas[:, None] - omegas) > 1e-9 * max(np.abs(omegas).max(initial=1.0), 1.0)
        if np.any(np.abs(K[apart]) > 1e-12 * max(np.abs(K).max(initial=0.0), 1.0)):
            raise ValueError("kossakowski couples different Bohr frequencies")
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


def generator_matrix(H, ops, K) -> np.ndarray:
    """Vectorized GKLS generator -i[H, .] + sum K_ij (L_i . L_j^+ - ...).

    ``ops`` are the operators L_i and ``K`` their rate matrix; entries of K
    that are exactly zero are skipped.  No check is made here.
    """
    d = H.shape[0]
    I = np.eye(d)
    M = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for i, Li in enumerate(ops):
        for j, Lj in enumerate(ops):
            k = K[i, j]
            if k == 0.0:
                continue
            LjLi = Lj.conj().T @ Li
            M = M + k * (
                np.kron(Lj.conj(), Li)
                - 0.5 * np.kron(I, LjLi)
                - 0.5 * np.kron(LjLi.T, I)
            )
    return M


#: [13/13] Padé coefficients b_0..b_13 of exp (Higham 2005, eq. 2.7)
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)
#: largest 1-norm at which the [13/13] approximant is exact to double
#: precision in backward error (Higham 2005, Table 2.3)
_THETA_13 = 5.371920351148152e0


def expm(A) -> np.ndarray:
    """Matrix exponential by [13/13] Padé scaling and squaring (Higham 2005).

    A is scaled by 2^-s, the least power of two that brings its 1-norm to
    theta_13 or below, and the approximant is squared s times; a matrix of
    small norm takes s = 0.  The zero matrix gives the identity exactly.
    Non-finite entries raise.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expm needs a square matrix")
    A = A.astype(np.result_type(A.dtype, np.float64))
    if not np.isfinite(A).all():
        raise ValueError("expm input has a non-finite entry")
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    ident = np.eye(A.shape[0], dtype=A.dtype)
    if norm == 0.0:
        return ident
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    A2 = A @ A / 4.0**s
    A = A / 2.0**s
    A4 = A2 @ A2
    A6 = A2 @ A4
    b = _PADE_13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X


def build_generator(m: GKLSModel) -> Superoperator:
    """Trace-preserving GKLS generator of a validated model."""
    ops = [L for L, _ in m.jump_operators]
    return Superoperator(matrix=generator_matrix(m.hamiltonian, ops, m.kossakowski))


def cp_choi_check(s: Superoperator, dt: float) -> ChoiVerdict:
    """Choi-positivity test of the short-time channel exp(dt * L): CP when
    the least Choi eigenvalue is >= -1e-10."""
    M = s.matrix
    d = s.dim
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    if dt * np.linalg.norm(M, 2) > 1.0 + 1e-9:
        raise ValueError("dt too large: require dt * ||L|| <= 1")
    # choi[(a, i), (b, j)] = <a| E(|i><j|) |b>, read off E's column-stacked indices
    choi = expm(dt * M).reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    min_eig = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    return ChoiVerdict(is_cp=min_eig >= -1e-10, min_choi_eigenvalue=min_eig)


def check_uniform_grid(grid: np.ndarray, name: str) -> None:
    """Raise unless the 1-D ``grid`` is distinct, evenly spaced points.

    Every step must lie within 1e-9 of the first, relative, plus 1e-12 of
    the largest |point|, so the rounding of a linspace passes; a zero step
    (a repeated point, or a zero-width grid) raises.  One point passes.
    """
    steps = np.diff(grid)
    tol = 1e-12 * np.abs(grid).max(initial=0.0) + 1e-9 * np.abs(steps[:1])
    if np.any(steps == 0.0) or not np.all(np.abs(steps - steps[:1]) <= tol):
        raise ValueError(f"{name} must be uniform: distinct, evenly spaced points")


def step_count(t: float, dt: float) -> int:
    """Number of steps of size dt that make up t; t must be a multiple of dt."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite (got {dt!r})")
    n_steps = int(round(t / dt))
    if n_steps < 1 or abs(n_steps * dt - t) > 1e-9 * max(t, 1.0):
        raise ValueError("t must be a positive integer multiple of dt")
    return n_steps


_ANCHOR = 64  #: steps between re-anchorings of ``grid_states``


def grid_states(power, rho0: np.ndarray, n: int) -> np.ndarray:
    """The (n, d, d) states rho0, P rho0, P^2 rho0, ... of a uniform grid, where
    ``power(k)`` is the exact k-step superoperator and P = power(1).  Every
    ``_ANCHOR`` steps the state is recomputed as power(k) rho0, so rounding
    builds up over at most that many products however long the grid is."""
    v0 = v = vec(rho0)
    step = power(1)
    states = np.empty((n, v0.size), dtype=complex)
    for k in range(n):
        if k and k % _ANCHOR == 0:
            v = power(k) @ v0
        states[k] = v
        v = step @ v
    return states.reshape(n, *rho0.shape).transpose(0, 2, 1)


def evolve(m: GKLSModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Propagate rho0 by exp(t L) using a dense matrix exponential."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    gen = build_generator(m)
    rho = unvec(expm(t * gen.matrix) @ vec(rho0.matrix), m.dim)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho, trace_tol=1e-10, eig_floor=-1e-8)


def qubit_decay_model(omega0: float, gamma_down: float, gamma_up: float = 0.0) -> GKLSModel:
    """Two-level model: H = omega0 sz/2, lowering/raising channels.

    The lowering operator carries label -omega0 and rate ``gamma_down``;
    the raising operator label +omega0 and rate ``gamma_up``.
    """
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
    jumps = [(sm, -omega0)]
    rates = [gamma_down]
    if gamma_up != 0.0:
        jumps.append((sm.conj().T, omega0))
        rates.append(gamma_up)
    return GKLSModel(
        dim=2,
        hamiltonian=0.5 * omega0 * sz,
        jump_operators=jumps,
        kossakowski=np.diag(rates).astype(complex),
    )
