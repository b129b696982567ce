"""pytest header: the BLAS builds and thread counts the timings depend on.

numpy and scipy each bundle their own OpenBLAS copy, read through
``spectrunc.linalg._openblas``.  Report bytes and the wall-time budgets of
the acceptance tests (criterion 6 allows 180 s) both depend on these;
:func:`stamp` adds the versions, and keys ``tests/output_digests.txt``.
"""

import platform

import numpy
import scipy

from spectrunc.linalg import _openblas


def _blas(copy: str) -> str:
    """``<build>, <n> threads`` of OpenBLAS copy ``copy``, or why not."""
    found = _openblas(copy)
    if found is None:
        return "not a scipy-openblas build"
    build, threads, _ = found
    return f"{build}, {threads()} threads"


def pytest_report_header(config):
    return [f"{copy} BLAS: {_blas(copy)}" for copy in ("numpy", "scipy")]


def stamp() -> list[str]:
    """What report bytes depend on: the Python, numpy and scipy versions and both BLAS."""
    return [
        f"python {platform.python_version()}",
        f"numpy {numpy.__version__}",
        f"scipy {scipy.__version__}",
        *pytest_report_header(None),
    ]
