"""relclock: clock-smeared open-system rates and dynamics at desk scale.

Numerical library and CLI for finite-clock-resolution rate densities and
their ideal-clock limits, Lamb shifts, Kossakowski assembly, finite
dimensional GKLS evolution with CPTP certificates, mode-level Langevin
moments, stochastic unravelings, discretized foliation-integrability tests,
and hybrid classical-quantum clock dynamics.

Each name is imported from its home module (``from relclock.gkls import
GKLSModel``); the package itself exports only ``__version__``, so
``import relclock`` loads no numpy and no submodule.  Importing
``relclock.cli`` loads numpy and no physics module: each runner imports its
scenario's modules, so a CLI process loads only what its scenario runs.  No
scenario loads OpenSSL: ``cli`` hashes configs with CPython's built-in
SHA-256, not ``hashlib``, and ``trajectories`` makes its Philox streams
itself, without numpy's ``random`` package.  No relclock module imports
scipy.  Quadrature and special functions are numpy
(:mod:`relclock.specfun`), and the matrix exponential is Padé scaling and
squaring (``gkls.expm``).  scipy is a test-only dependency, the oracle these
routines are checked against.
"""

__version__ = "0.1.0"
