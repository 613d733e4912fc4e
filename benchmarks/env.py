"""The environment recorded with every benchmark result."""

import ctypes
import glob
import os
import platform
import sys

import numpy as np
import scipy

from blocksep import kernels


def _openblas_threads(package):
    """Thread count of the OpenBLAS copy a wheel bundles, or None."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def describe(args):
    """Backend, BLAS, core count, versions and the workload arguments.

    Exits with an error when a BLAS library runs more threads than there
    are cores to run them.
    """
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {pkg.__name__: _openblas_threads(pkg) for pkg in (np, scipy)}
    for name, count in threads.items():
        if count is not None and count > nproc:
            print(f"run.py: {name} BLAS runs {count} threads on {nproc} cores",
                  file=sys.stderr)
            sys.exit(2)
    return {
        "kernel_backend": "numba" if kernels.USING_NUMBA else "numpy",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
    }
