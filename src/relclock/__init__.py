"""relclock: clock-smeared open-system rates and dynamics at desk scale.

Numerical library and CLI for finite-clock-resolution rate densities and
their ideal-clock limits, Lamb shifts, Kossakowski assembly, finite
dimensional GKLS evolution with CPTP certificates, mode-level Langevin
moments, stochastic unravelings, discretized foliation-integrability tests,
and hybrid classical-quantum clock dynamics.

Importing the package loads numpy only, and so does every CLI scenario:
no relclock module imports scipy.  Quadrature and special functions are
numpy (:mod:`relclock.specfun`), Gibbs states come from ``eigh``, and the
matrix exponential is Padé scaling and squaring (``gkls.expm``).  scipy is a
test-only dependency, the oracle these routines are checked against.
"""

from .correlators import EnvironmentSpec, vacuum_spectral_density, wightman_timelike
from .gkls import (
    DensityMatrix,
    GKLSModel,
    Superoperator,
    build_generator,
    cp_choi_check,
    evolve,
    qubit_decay_model,
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
    kernel_spectrum,
    positivity_gram_check,
)
from .langevin import (
    ModeMoments,
    ModeParams,
    ccr_defect,
    mode_evolve_moments,
    stationary_fdr_check,
)
from .rates import (
    KossakowskiBlock,
    RateQuery,
    assemble_kossakowski,
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
    sample_colored_noise,
    unravel_linear,
)

__version__ = "0.1.0"
