"""Small child programs of the benchmark, each run in a fresh interpreter.

    PYTHONPATH=src python3 relbench/probe.py parse CONFIG...
        import relclock.cli and validate each config with parse_config; this
        is the set-up a user pays before any scenario runs.
    PYTHONPATH=src python3 relbench/probe.py machine
        print one JSON object describing the Python, numpy, scipy and BLAS
        that the scenarios run on.
"""

import sys


def parse(paths):
    from pathlib import Path

    from relclock.cli import parse_config

    for path in paths:
        parse_config(Path(path).read_text())
    return 0


def _blas_threads():
    """Thread count of the OpenBLAS bundled with the numpy wheel, if any."""
    import ctypes
    import glob
    import os

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    import json
    import os
    import platform

    import numpy as np
    import scipy

    import relclock.cli

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "relclock_file": os.path.abspath(relclock.cli.__file__),
    }))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    raise SystemExit(parse(rest) if mode == "parse" else machine())
