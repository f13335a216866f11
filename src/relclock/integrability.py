"""Discretized foliation-independence tests: functional curl and boost interchange.

Curl test.  A chain of qubit sites carries relational time values (heights);
the discrete normal at a site is the symmetric difference of its neighbors'
heights, giving a site rapidity eta_i.  Local GKLS generators either ignore
the normal (``normal_independent``) or sample their rates in the local clock
frame (``normal_sampled``), where the site Bohr frequency is time dilated to
omega0 * cosh(eta_i); the scalar vacuum rate itself is boost invariant, so
this dilation is precisely where the normal dependence of the generator
lives.  The functional curvature combines the generator commutator with
finite-difference shape variations of the heights; each of its operators is
permutation equivalent to A kron I, so its norms are those of A on the two
sites {x, y}, and [L_x, L_y] is structurally zero for x != y.

Boost test.  Independent field modes on a grid uniform in the rapidity
variable theta (p = m sinh theta) evolve diagonally; an infinitesimal boost
relabels modes, theta -> theta + d_eta, realized by Whittaker (sinc)
interpolation.  Covariantly transported rates commute with the relabeling up
to interpolation error, which vanishes under grid refinement; rates frozen to
a fixed geometric normal leave an order-one residual that plateaus.  Residual
norms are taken over a fixed family of normalized interior wave packets: the
full matrix norm is dominated by edge-truncation artifacts of the finite
sinc matrix, which would mask the physical split, and the zero-rate baseline
is reported alongside so discretization artifacts can be subtracted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .correlators import EnvironmentSpec
from .gkls import GKLSModel, Superoperator, build_generator
from .kernels import ClockKernel
from .rates import RateQuery, assemble_kossakowski, kappa_markov_vacuum

__all__ = [
    "SliceLattice",
    "CurlResidual",
    "MomentumGridModel",
    "BoostResidual",
    "build_slice_generator",
    "functional_curl_residual",
    "boost_interchange_residual",
]

_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class SliceLattice:
    """A discretized hypersurface: relational heights over a chain of qubits."""

    n_sites: int
    heights: tuple
    spacing: float
    rate_mode: str = "normal_independent"
    site_energy: float = 3.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if self.rate_mode not in ("normal_independent", "normal_sampled"):
            raise ValueError(f"unknown rate_mode {self.rate_mode!r}")
        h = tuple(float(v) for v in self.heights)
        if len(h) != self.n_sites:
            raise ValueError("heights length must equal n_sites")
        object.__setattr__(self, "heights", h)
        if not self.spacing > 0.0:
            raise ValueError("spacing must be > 0")
        for i in range(self.n_sites - 1):
            if abs(h[i + 1] - h[i]) >= self.spacing:
                raise ValueError(
                    "non-timelike discrete normal: |height step| must be < spacing"
                )

    @classmethod
    def tilted(cls, n_sites, spacing, tilt_rapidity, **kw) -> "SliceLattice":
        """Uniformly tilted slice whose interior rapidities equal tilt_rapidity."""
        step = spacing * math.tanh(tilt_rapidity)
        heights = tuple(i * step for i in range(n_sites))
        return cls(n_sites=n_sites, heights=heights, spacing=spacing, **kw)

    def discrete_rapidity(self, site: int) -> float:
        """Site rapidity from the symmetric height difference (one-sided at ends)."""
        h, a = self.heights, self.spacing
        if self.n_sites == 1:
            return 0.0
        if site == 0:
            v = (h[1] - h[0]) / a
        elif site == self.n_sites - 1:
            v = (h[-1] - h[-2]) / a
        else:
            v = (h[site + 1] - h[site - 1]) / (2.0 * a)
        if abs(v) >= 1.0:
            raise ValueError("non-timelike discrete normal")
        return math.atanh(v)


@dataclass(frozen=True)
class CurlResidual:
    """Norm of the discrete functional curvature and its three pieces."""

    value: float
    commutator_part: float
    shape_part_xy: float
    shape_part_yx: float


def _embed(op: np.ndarray, site: int, sites) -> np.ndarray:
    full = np.array([[1.0]], dtype=complex)
    for i in sites:
        full = np.kron(full, op if i == site else np.eye(2, dtype=complex))
    return full


def _site_generator(
    l: SliceLattice, site: int, sites, env: EnvironmentSpec, kernel: ClockKernel
) -> Superoperator:
    """Generator of ``site`` on the qubits ``sites``, with rates from all of ``l``."""
    if not (0 <= site < l.n_sites):
        raise ValueError("site out of range")
    omega0 = l.site_energy
    if l.rate_mode == "normal_sampled":
        nu = omega0 * math.cosh(l.discrete_rapidity(site))
    else:
        nu = omega0
    env0 = replace(env, rapidity=0.0)
    block = assemble_kossakowski(
        [RateQuery(omega=w, kernel=kernel, env=env0) for w in (-nu, +nu)], [[1.0]])
    H = 0.5 * omega0 * _embed(_SZ, site, sites)
    sm = _embed(_SM, site, sites)
    model = GKLSModel(
        dim=2 ** len(sites),
        hamiltonian=H,
        jump_operators=[(sm, -omega0), (sm.conj().T, omega0)],
        kossakowski=block.matrix,
    )
    return build_generator(model)


def build_slice_generator(
    l: SliceLattice, site: int, env: EnvironmentSpec, kernel: ClockKernel
) -> Superoperator:
    """Local GKLS generator at one site, embedded in the full chain space.

    ``normal_independent`` evaluates the decay/excitation rates at the bare
    site frequency; ``normal_sampled`` at the clock-frame (time-dilated)
    frequency omega0 * cosh(eta_site).  The chain superoperator is
    4^n_sites x 4^n_sites, so at most 6 sites are accepted.
    """
    if l.n_sites > 6:
        raise ValueError(f"full-chain generator needs n_sites <= 6, got {l.n_sites}")
    return _site_generator(l, site, range(l.n_sites), env, kernel)


def _deformed(l: SliceLattice, site: int, eps: float) -> SliceLattice:
    heights = list(l.heights)
    heights[site] += eps
    return replace(l, heights=tuple(heights))


def functional_curl_residual(
    l: SliceLattice, x: int, y: int, env: EnvironmentSpec, kernel: ClockKernel
) -> CurlResidual:
    """Discrete functional curvature ||[L_x, L_y] + D_xy - D_yx||.

    D_xy is the finite-difference response of the site-y generator to a
    height deformation eps = 1e-4 * spacing at x (nonzero only when x sits
    in y's normal stencil and rates are normal sampled).  Central
    differences are used: the clock frame rates are even in the site
    rapidity, so a one-sided difference would leave a spurious O(eps)
    residual on flat slices where the exact shape derivative vanishes.
    Spectral norms throughout, exact on the 16 x 16 superoperators of sites
    {x, y} (rates still read the whole lattice): each operator is A kron I
    up to a fixed permutation of the vec index, and ||A kron I||_2 =
    ||A||_2.  The commutator is structurally zero for x != y.
    """
    if x == y:
        raise ValueError("x and y must differ")
    eps = 1e-4 * l.spacing
    gen = lambda lat, site: _site_generator(lat, site, (x, y), env, kernel).matrix
    Lx, Ly = gen(l, x), gen(l, y)
    comm = Lx @ Ly - Ly @ Lx
    d_xy = (gen(_deformed(l, x, +eps), y) - gen(_deformed(l, x, -eps), y)) / (2.0 * eps)
    d_yx = (gen(_deformed(l, y, +eps), x) - gen(_deformed(l, y, -eps), x)) / (2.0 * eps)
    total = comm + d_xy - d_yx
    norm = lambda M: float(np.linalg.norm(M, 2)) if np.any(M) else 0.0
    return CurlResidual(
        value=norm(total),
        commutator_part=norm(comm),
        shape_part_xy=norm(d_xy),
        shape_part_yx=norm(d_yx),
    )


# ---------------------------------------------------------------------------
# boost-interchange test on a momentum grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumGridModel:
    """Independent field modes on a rapidity-uniform momentum grid.

    ``n_modes`` rapidities theta_j span [-theta_max, theta_max], so p_j =
    mass sinh theta_j.  A mode's rate is the vacuum ideal-clock rate of
    ``env`` at its sampled frequency k.n.  ``rate_source`` fixes how rates
    respond to a boost: transported for ``comoving_covariant`` (k.n is the
    boosted mode energy), frozen for ``geometric_normal`` (k.n stays the
    unboosted energy).  The refinement study runs n_modes, n_modes/2 and
    n_modes/4 modes, so n_modes must be a multiple of 4 in [8, 64].
    """

    env: EnvironmentSpec
    n_modes: int
    theta_max: float
    mass: float
    rate_source: str

    def __post_init__(self):
        if self.rate_source not in ("geometric_normal", "comoving_covariant"):
            raise ValueError(f"unknown rate_source {self.rate_source!r}")
        if self.n_modes > 64:
            raise ValueError("momentum grid larger than 64 modes")
        if self.n_modes < 8:
            raise ValueError(
                f"n_modes must be >= 8 for the refinement study (its coarsest "
                f"grid, n_modes/4, needs 2 modes), got {self.n_modes}"
            )
        if self.n_modes % 4 != 0:
            raise ValueError(
                f"n_modes must be divisible by 4 for the refinement study, got {self.n_modes}"
            )

    def rates_at(self, kn: np.ndarray) -> np.ndarray:
        """Vacuum ideal-clock rates Gamma(k.n) >= 0, one per sampled frequency."""
        return np.array([kappa_markov_vacuum(self.env, -x) for x in kn])


@dataclass(frozen=True)
class BoostResidual:
    """Boost-interchange residual at the model grid plus a refinement study."""

    residual: float
    refinement_order: float
    grid_sizes: tuple
    residuals: tuple
    baselines: tuple  # zero-rate (free) residuals, the interpolation error


#: normalized interior wave packets probing the interchange residual:
#: (center, width) as fractions of the grid half-width
PACKET_FAMILY = ((-0.27, 0.10), (0.0, 0.10), (0.27, 0.10))


def _packet_family(theta: np.ndarray, theta_max: float):
    for frac, wfrac in PACKET_FAMILY:
        v = np.exp(-((theta - frac * theta_max) ** 2) / (2.0 * (wfrac * theta_max) ** 2))
        yield (v / np.linalg.norm(v)).astype(complex)


def _residual_on_grid(m: MomentumGridModel, n: int, deta: float, zero_rates: bool):
    theta = np.linspace(-m.theta_max, m.theta_max, n)
    h = theta[1] - theta[0]
    E = m.mass * np.cosh(theta)
    E_after = m.mass * np.cosh(theta - deta)
    if zero_rates:
        G_before = G_after = np.zeros_like(theta)
    else:
        G_before = m.rates_at(E)
        G_after = m.rates_at(E_after) if m.rate_source == "comoving_covariant" else G_before
    L_before = -0.5 * G_before - 1j * E
    L_after = -0.5 * G_after - 1j * E_after
    B = np.sinc((theta[:, None] - deta - theta[None, :]) / h)
    worst = 0.0
    for v in _packet_family(theta, m.theta_max):
        edge_mass = abs(v[0]) ** 2 + abs(v[-1]) ** 2
        if edge_mass > 1e-12:
            # reported at the caller of boost_interchange_residual, past
            # this frame and the generator expression that calls it
            warnings.warn(
                "test packet leaves the momentum grid; relabeled modes are "
                "zero padded", stacklevel=4,
            )
        diff = B @ (L_before * v) - L_after * (B @ v)
        worst = max(worst, float(np.linalg.norm(diff)) / deta)
    return worst


def boost_interchange_residual(m: MomentumGridModel, d_rapidity: float = 1e-3) -> BoostResidual:
    """Residual of (boost then evolve) minus (evolve then boost), per rapidity.

    Runs the model grid alongside its 2x and 4x coarsenings and reports the
    observed refinement order from the last halving; covariantly transported
    rates leave only interpolation error (order >= 1 refinement), frozen
    geometric rates plateau.
    """
    if not 0.0 < d_rapidity < 0.1:
        raise ValueError("d_rapidity must be small and positive")
    n = m.n_modes
    sizes = (n // 4, n // 2, n)
    residuals = tuple(_residual_on_grid(m, k, d_rapidity, False) for k in sizes)
    baselines = tuple(_residual_on_grid(m, k, d_rapidity, True) for k in sizes)
    order = math.log2(residuals[-2] / residuals[-1]) if residuals[-1] > 0.0 else math.inf
    return BoostResidual(
        residual=residuals[-1],
        refinement_order=order,
        grid_sizes=sizes,
        residuals=residuals,
        baselines=baselines,
    )
