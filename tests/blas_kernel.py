"""The OpenBLAS kernel that NumPy's bundled library picked for this CPU.

NumPy's bundled OpenBLAS is built for many CPUs and chooses its GEMM
kernel when it loads (OPENBLAS_CORETYPE overrides the choice). Kernels
sum a product's terms in different orders, so the bit-for-bit pins in
tests/checkpoints are recorded per kernel name, and conftest.py prints
the name in the report header.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_corename() -> str:
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
