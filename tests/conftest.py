"""pytest header: the BLAS builds and thread counts the timings depend on.

numpy and scipy each bundle their own OpenBLAS copy.  Their build and live
thread count are read through ctypes, as ``spectrunc.linalg`` reads scipy's:
numpy's copy exports its functions with a ``64_`` suffix, scipy's without.
Report bytes and the wall-time budgets of the acceptance tests (criterion 6
allows 180 s) both depend on these; :func:`stamp` adds the versions, and
keys ``tests/output_digests.txt``.
"""

import ctypes
import platform

import numpy
import numpy.linalg._umath_linalg as _numpy_lapack
import scipy
import scipy.linalg as _sla


def _openblas(path: str, suffix: str) -> str:
    """``<build>, <n> threads`` of the OpenBLAS that ``path`` links, or why not."""
    try:
        lib = ctypes.CDLL(path)
        config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    except (OSError, AttributeError):
        return "not a scipy-openblas build"
    config.argtypes, config.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return f"{' '.join(config().decode().split())}, {threads()} threads"


def pytest_report_header(config):
    return [
        f"numpy BLAS: {_openblas(_numpy_lapack.__file__, '64_')}",
        f"scipy BLAS: {_openblas(_sla._flapack.__file__, '')}",
    ]


def stamp() -> list[str]:
    """What report bytes depend on: the Python, numpy and scipy versions and both BLAS."""
    return [
        f"python {platform.python_version()}",
        f"numpy {numpy.__version__}",
        f"scipy {scipy.__version__}",
        *pytest_report_header(None),
    ]
