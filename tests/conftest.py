"""Shared test setup.

Pin BLAS thread pools to one thread before numpy is first imported so
every floating-point reduction happens in a fixed order; the determinism
tests (byte-identical checkpoints) rely on this.

The report header names the NumPy version, its BLAS and the OpenBLAS
kernel chosen for this CPU (blas_kernel.py): the bit-for-bit pins hold
under the kernels they were recorded with, so a pin failure elsewhere
names its kernel.
"""

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
from blas_kernel import openblas_corename  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def pytest_report_header(config):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    # An older NumPy has no dict mode, or keeps its build info elsewhere.
    except (TypeError, KeyError):
        blas_text = "unknown"
    return f"numpy {np.__version__}, BLAS {blas_text}, OpenBLAS core {openblas_corename()}"
