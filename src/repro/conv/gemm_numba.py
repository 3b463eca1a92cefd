"""Numba-JIT LUT-GEMM kernel variant.

:func:`repro.conv.gemm.lut_matmul` imports this module on its first call,
and only when numba is importable, so the package as a whole carries no
hard numba dependency.  The kernel is the scalar three-loop formulation the CUDA kernel
compiles to -- one table gather per MAC, accumulated in a 64-bit register --
which the JIT turns into tight native code with none of the index-tensor
materialisation the vectorised kernels pay for.

Bit-exactness: the gather order is (p, f, k) with plain integer addition, so
the result is identical to ``naive``/``blocked`` for every input, which the
cross-kernel parity grid asserts whenever numba is present (CI runs one
matrix leg with numba and one without to keep both paths green).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..lut.table import LookupTable
from .gemm import (
    _validate_lut_matmul_operands,
    _wrap_accumulator,
    flat_index_dtype,
)

try:  # pragma: no cover - exercised only on the numba CI leg
    from numba import njit
except ImportError as _exc:  # pragma: no cover
    raise ConfigurationError(
        "repro.conv.gemm_numba requires the numba package; without it "
        "lut_matmul runs the blocked NumPy kernel"
    ) from _exc


@njit(cache=True)  # pragma: no cover - JIT body is opaque to the tracer
def _lut_gemm_jit(patch_bits, filter_bits, flat, out):  # pragma: no cover
    num_patches, depth = patch_bits.shape
    num_filters = filter_bits.shape[1]
    for p in range(num_patches):
        for f in range(num_filters):
            acc = out[p, f]         # 0 of the output dtype (int64)
            for k in range(depth):
                acc += flat[patch_bits[p, k] | filter_bits[k, f]]
            out[p, f] = acc


def lut_matmul_numba(patches: np.ndarray, filters: np.ndarray,
                     lut: LookupTable, *,
                     accumulator_bits: int | None = None,
                     saturate: bool = False) -> np.ndarray:
    """JIT-compiled scalar LUT-GEMM; same contract as ``lut_matmul_naive``."""
    patches, filters = _validate_lut_matmul_operands(patches, filters)

    idx_dtype = flat_index_dtype(lut.bit_width)
    mask = (1 << lut.bit_width) - 1
    patch_bits = ((patches & mask) << lut.bit_width).astype(idx_dtype)
    filter_bits = (filters & mask).astype(idx_dtype)

    result = np.zeros((patches.shape[0], filters.shape[1]), dtype=np.int64)
    _lut_gemm_jit(patch_bits, filter_bits, lut.flat, result)
    return _wrap_accumulator(result, accumulator_bits, saturate)
