"""relclock: clock-smeared open-system rates and dynamics at desk scale.

Numerical library and CLI for finite-clock-resolution rate densities and
their ideal-clock limits, Lamb shifts, Kossakowski assembly, finite
dimensional GKLS evolution with CPTP certificates, mode-level Langevin
moments, stochastic unravelings, discretized foliation-integrability tests,
and hybrid classical-quantum clock dynamics.

Importing ``relclock`` or ``relclock.cli`` loads numpy and no physics
module: each name below is imported from its home module on first use, so a
CLI process loads only the modules its scenario runs.  No scenario loads
OpenSSL: ``cli`` hashes configs with CPython's built-in SHA-256, not
``hashlib``, and ``trajectories`` makes its Philox streams itself, without
numpy's ``random`` package.  No relclock module imports scipy.  Quadrature
and special functions are numpy (:mod:`relclock.specfun`), and the matrix
exponential is Padé scaling and squaring (``gkls.expm``).  scipy is a
test-only dependency, the oracle these routines are checked against.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "correlators": ("EnvironmentSpec", "vacuum_spectral_density", "wightman_timelike"),
        "gkls": ("DensityMatrix", "GKLSModel", "Superoperator", "build_generator",
                 "cp_choi_check", "evolve", "qubit_decay_model"),
        "hybridcq": ("CQKernels", "CQModel", "HybridState", "cq_evolve_grid", "tradeoff_check"),
        "integrability": ("MomentumGridModel", "SliceLattice", "boost_interchange_residual",
                          "build_slice_generator", "functional_curl_residual"),
        "kernels": ("ClockKernel", "CoherentReadoutKernel", "GaussianKernel",
                    "kernel_spectrum", "positivity_gram_check"),
        "langevin": ("ModeMoments", "ModeParams", "mode_evolve_moments", "stationary_fdr_check"),
        "rates": ("KossakowskiBlock", "RateQuery", "assemble_kossakowski", "kappa_markov_kms",
                  "kappa_markov_vacuum", "kappa_tcl", "kappa_tcl_kms", "kappa_tcl_vacuum",
                  "lamb_shift_coefficient", "odd_kernel_transform"),
        "specfun": ("bose_occupation", "dawson", "gaussian_ft", "integrate_adaptive"),
        "trajectories": ("NoiseField", "EnsembleCheck", "TrajectoryEnsemble", "ensemble_check",
                         "sample_colored_noise", "unravel_linear"),
    }.items()
    for name in names
}


def __getattr__(name):
    # any other name raises, so ``from relclock import <submodule>`` falls
    # back to importing the submodule
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
