"""relclock: clock-smeared open-system rates and dynamics at desk scale.

Numerical library and CLI for finite-clock-resolution rate densities and
their ideal-clock limits, Lamb shifts, Kossakowski assembly, finite
dimensional GKLS evolution with CPTP certificates, mode-level Langevin
moments, stochastic unravelings, discretized foliation-integrability tests,
and hybrid classical-quantum clock dynamics.

Importing the package loads numpy only, and so does every CLI scenario:
no relclock module imports scipy.  Quadrature and special functions are
numpy (:mod:`relclock.specfun`), Gibbs states come from ``eigh``, the matrix
exponential is Padé scaling and squaring (``gkls.expm``), and
``TabulatedKernel`` interpolates with a numpy PCHIP.  scipy is a test-only
dependency, the oracle these routines are checked against.
"""

from .correlators import EnvironmentSpec, kms_rate_weights, vacuum_spectral_density, wightman_timelike
from .gkls import (
    DensityMatrix,
    GKLSModel,
    Superoperator,
    bohr_decompose,
    build_generator,
    cp_choi_check,
    evolve,
    qubit_decay_model,
    stationarity_check,
)
from .hybridcq import CQKernels, CQModel, HybridState, cq_evolve_grid, tradeoff_check
from .integrability import (
    MomentumGridModel,
    SliceLattice,
    boost_interchange_residual,
    build_slice_generator,
    functional_curl_residual,
)
from .kernels import (
    ClockKernel,
    CoherentReadoutKernel,
    GaussianKernel,
    TabulatedKernel,
    kernel_spectrum,
    positivity_gram_check,
)
from .langevin import (
    ModeMoments,
    ModeParams,
    ccr_defect,
    mode_evolve_moments,
    smeared_noise_spectrum,
    stationary_fdr_check,
)
from .rates import (
    KossakowskiBlock,
    RateQuery,
    assemble_kossakowski,
    delta_kappa_memory,
    kappa_markov_kms,
    kappa_markov_vacuum,
    kappa_tcl,
    kappa_tcl_kms,
    kappa_tcl_vacuum,
    lamb_shift_coefficient,
    odd_kernel_transform,
)
from .specfun import bose_occupation, dawson, gaussian_ft, integrate_adaptive
from .trajectories import (
    NoiseField,
    EnsembleCheck,
    TrajectoryEnsemble,
    ensemble_check,
    ensemble_compare,
    sample_colored_noise,
    unravel_linear,
)

__version__ = "0.1.0"
