"""Shared test setup.

Pin BLAS thread pools to one thread before numpy is first imported so
every floating-point reduction happens in a fixed order; the determinism
tests (byte-identical checkpoints) rely on this.

The report header names the NumPy version, its BLAS and the OpenBLAS
kernel chosen for this CPU: the bit-for-bit pins hold under the kernel
they were recorded with, so a pin failure elsewhere names its kernel.
"""

import ctypes
import glob
import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _openblas_corename() -> str:
    """The kernel OpenBLAS picked for this CPU, read from the library that
    NumPy bundles; "unknown" when there is none or it does not say."""
    package = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(package + ".libs", "*openblas*")) + glob.glob(
        os.path.join(package, ".dylibs", "*openblas*")
    ):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode(errors="replace")
    return "unknown"


def pytest_report_header(config):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    # An older NumPy has no dict mode, or keeps its build info elsewhere.
    except (TypeError, KeyError):
        blas_text = "unknown"
    return f"numpy {np.__version__}, BLAS {blas_text}, OpenBLAS core {_openblas_corename()}"
