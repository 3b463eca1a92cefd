"""Matrix-multiplication kernels of the convolution engines.

Two GEMM flavours are provided:

* :func:`gemm_float` -- the plain float matrix product used by the accurate
  GEMM-based convolution (what TensorFlow's own Conv2D reduces to).
* :func:`approx_gemm` -- the ``ApproxGEMM`` step of Algorithm 1: the patch
  matrix of quantised 8-bit values is multiplied with the quantised filter
  matrix using a multiplier *lookup table* for every scalar product, the
  integer accumulations are corrected with the pre-computed patch sums ``Sp``
  and filter sums ``Sf`` and the result is dequantised according to Eq. 4.

The integer LUT product itself -- :func:`lut_matmul` -- runs one kernel,
chosen on its first call from what the environment offers: the numba JIT
kernel (:mod:`repro.conv.gemm_numba`) when numba is importable, else
:func:`lut_matmul_blocked`, the cache-blocked NumPy gather-GEMM.
:func:`lut_matmul_naive` is the plain reference implementation the other
two must match bit for bit; the parity grid and the property suite use it
as their oracle.  Every kernel accumulates in int64; ``accumulator_bits``
and ``saturate`` model a narrower hardware accumulator.

``approx_gemm`` stays deliberately engine-agnostic: the kernels here, the
direct CPU loop in :mod:`repro.conv.reference` and the simulated CUDA kernel
in :mod:`repro.gpusim.kernels.gemm_kernel` must all produce bit-identical
results, which the cross-kernel parity grid in the test-suite checks.
"""

from __future__ import annotations

import functools
import importlib.util

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..lut.table import LookupTable
from ..quantization.affine import QuantParams

#: Default row-panel height of the blocked kernel (tuned so one panel's
#: index + product intermediates fit in L2 for the bench shapes).
DEFAULT_BLOCK_ROWS = 128

#: Default K-panel depth of the blocked kernel.
DEFAULT_BLOCK_K = 48


def gemm_float(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain float matrix multiplication with shape validation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("gemm_float expects two 2D matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {a.shape} x {b.shape}"
        )
    return a @ b


def flat_index_dtype(bit_width: int):
    """Smallest safe integer dtype for stitched flat LUT indices.

    The stitched index ``(a_bits << n) | b_bits`` spans ``2 * n`` bits for an
    ``n``-bit multiplier, so narrow index buffers overflow silently once the
    width grows: int16 already fails at 9 bits and a 16-bit LUT's top index
    (``2**32 - 1``) no longer fits a *signed* 32-bit integer.  Every kernel
    routes its index arithmetic through this choice; the regression tests pin
    the 12-bit and 16-bit boundaries.
    """
    if bit_width < 2 or bit_width > 16:
        raise ConfigurationError(f"bit width {bit_width} outside [2, 16]")
    return np.int32 if 2 * bit_width <= 31 else np.int64


def _wrap_accumulator(values: np.ndarray, accumulator_bits: int | None,
                      saturate: bool) -> np.ndarray:
    """Model a finite-width MAC accumulator.

    The paper's accelerator uses a 32-bit accumulator behind the 8-bit
    multiplier; by default the emulation uses int64 so no overflow can occur,
    but callers may opt into modelling the finite accumulator either with
    wrap-around (two's complement) or saturation semantics.
    """
    if accumulator_bits is None:
        return values
    if accumulator_bits < 8 or accumulator_bits > 64:
        raise ConfigurationError("accumulator_bits must lie in [8, 64]")
    if saturate:
        hi = (1 << (accumulator_bits - 1)) - 1
        return np.clip(values, -hi - 1, hi)
    # Two's-complement wrap of the int64 values: shift the kept bits to the
    # top and sign-extend them back down.
    shift = 64 - accumulator_bits
    return (values << shift) >> shift


def _validate_lut_matmul_operands(patches, filters):
    patches = np.asarray(patches, dtype=np.int64)
    filters = np.asarray(filters, dtype=np.int64)
    if patches.ndim != 2 or filters.ndim != 2:
        raise ShapeError("lut_matmul expects 2D operands")
    if patches.shape[1] != filters.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {patches.shape} x {filters.shape}"
        )
    return patches, filters


def lut_matmul_naive(patches: np.ndarray, filters: np.ndarray,
                     lut: LookupTable, *, tile_rows: int = 256,
                     accumulator_bits: int | None = None,
                     saturate: bool = False) -> np.ndarray:
    """The reference LUT-GEMM kernel: row tiles over a full-depth index tensor.

    Same contract as :func:`lut_matmul`.  The computation is tiled over
    patch rows only, so the intermediate index tensor is
    ``[tile_rows, K, F]`` -- small for the paper's layer shapes but far
    outside cache for deep inputs, which is what the blocked kernel fixes.
    Kept as the bit-exact oracle of the parity grid and the property suite.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    if tile_rows <= 0:
        raise ConfigurationError("tile_rows must be positive")

    num_patches, depth = patches.shape
    num_filters = filters.shape[1]
    result = np.zeros((num_patches, num_filters), dtype=np.int64)

    # Pre-stitch the filter half of the index once; the patch half is added
    # tile by tile.  Index = (patch_bits << n) | filter_bits.
    mask = (1 << lut.bit_width) - 1
    filter_bits = (filters & mask)                      # [K, F]
    for start in range(0, num_patches, tile_rows):
        stop = min(start + tile_rows, num_patches)
        tile = patches[start:stop]                      # [T, K]
        tile_bits = (tile & mask) << lut.bit_width      # [T, K]
        idx = tile_bits[:, :, None] | filter_bits[None, :, :]   # [T, K, F]
        products = lut.lookup_flat(idx)                 # [T, K, F] int64
        acc = products.sum(axis=1, dtype=np.int64)      # [T, F]
        result[start:stop] = _wrap_accumulator(
            acc, accumulator_bits, saturate)
    return result


def lut_matmul_blocked(patches: np.ndarray, filters: np.ndarray,
                       lut: LookupTable, *,
                       block_rows: int = DEFAULT_BLOCK_ROWS,
                       block_k: int = DEFAULT_BLOCK_K,
                       accumulator_bits: int | None = None,
                       saturate: bool = False) -> np.ndarray:
    """Cache-blocked gather-GEMM over K panels with a fused index inner loop.

    Same contract as :func:`lut_matmul_naive`, restructured for memory
    locality:

    * the quantise-to-bit-pattern step is *fused* out of the inner loop --
      both operands are converted to stitched-index bit planes exactly once,
      in the narrowest dtype the LUT width allows
      (:func:`flat_index_dtype`), instead of re-masking every row tile;
    * the product is walked in ``[block_rows, block_k, F]`` panels, so the
      stitched-index tensor and the gathered products stay cache-sized for
      any depth ``K`` (the naive kernel's intermediates grow linearly with
      ``K``);
    * the gather reads the LUT's native 16-bit storage via ``take`` and sums
      straight into an int64 accumulator, never materialising the int64
      product tensor the naive kernel allocates.

    Partial K-panel sums are combined by integer addition, so the result is
    bit-identical to the naive kernel for every block size -- the hypothesis
    suite asserts exactly that.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    if block_rows <= 0 or block_k <= 0:
        raise ConfigurationError("block_rows and block_k must be positive")

    num_patches, depth = patches.shape
    num_filters = filters.shape[1]
    idx_dtype = flat_index_dtype(lut.bit_width)
    mask = (1 << lut.bit_width) - 1
    flat = lut.flat

    # Fused quantise+flat-index preparation: one masked shift per operand
    # element for the whole product.
    patch_bits = ((patches & mask) << lut.bit_width).astype(idx_dtype)
    filter_bits = (filters & mask).astype(idx_dtype)

    result = np.zeros((num_patches, num_filters), dtype=np.int64)
    for r0 in range(0, num_patches, block_rows):
        r1 = min(r0 + block_rows, num_patches)
        acc = np.zeros((r1 - r0, num_filters), dtype=np.int64)
        for k0 in range(0, depth, block_k):
            k1 = min(k0 + block_k, depth)
            idx = patch_bits[r0:r1, k0:k1, None] | filter_bits[None, k0:k1, :]
            acc += flat.take(idx).sum(axis=1, dtype=np.int64)
        result[r0:r1] = _wrap_accumulator(acc, accumulator_bits, saturate)
    return result


@functools.cache
def _kernel():
    """The kernel :func:`lut_matmul` runs: numba when importable, else blocked.

    Resolved on the first call rather than at import, so ``import repro``
    never imports numba.
    """
    if importlib.util.find_spec("numba") is not None:  # pragma: no cover
        from .gemm_numba import lut_matmul_numba   # numba CI leg only
        return lut_matmul_numba
    return lut_matmul_blocked


def lut_matmul(patches: np.ndarray, filters: np.ndarray, lut: LookupTable, *,
               accumulator_bits: int | None = None,
               saturate: bool = False) -> np.ndarray:
    """Integer matrix product where every multiplication is a LUT lookup.

    ``patches`` has shape ``[P, K]`` (quantised patch rows), ``filters`` has
    shape ``[K, F]`` (quantised filter columns).  The product is returned as
    an ``[P, F]`` int64 matrix of *approximate* dot products, accumulated in
    int64 and optionally folded into an ``accumulator_bits``-wide
    accumulator that wraps (or, with ``saturate``, clips).  Runs the numba
    kernel when numba is importable, else :func:`lut_matmul_blocked`; both
    are bit-identical to :func:`lut_matmul_naive`.
    """
    return _kernel()(patches, filters, lut,
                     accumulator_bits=accumulator_bits, saturate=saturate)


def dequantize_gemm(acc: np.ndarray, patch_sums: np.ndarray,
                    filter_sums: np.ndarray, depth: int,
                    input_q: QuantParams, filter_q: QuantParams) -> np.ndarray:
    """Apply the Eq. 4 correction and dequantisation to integer accumulators.

    ``acc[p, f]`` is the (approximate) sum of quantised products for patch
    ``p`` and filter ``f``; ``patch_sums[p]`` is ``Sp``, ``filter_sums[f]`` is
    ``Sf`` and ``depth`` is the number of accumulated terms ``N``.  The result
    is the real-valued convolution output

    ``alpha1*alpha2 * (acc - beta2*Sp - beta1*Sf + N*beta1*beta2)``.
    """
    acc = np.asarray(acc, dtype=np.float64)
    patch_sums = np.asarray(patch_sums, dtype=np.float64)
    filter_sums = np.asarray(filter_sums, dtype=np.float64)
    if acc.ndim != 2:
        raise ShapeError("accumulator matrix must be 2D")
    if patch_sums.shape[0] != acc.shape[0]:
        raise ShapeError(
            f"patch sums ({patch_sums.shape[0]}) do not match accumulator rows "
            f"({acc.shape[0]})"
        )
    if filter_sums.shape[0] != acc.shape[1]:
        raise ShapeError(
            f"filter sums ({filter_sums.shape[0]}) do not match accumulator "
            f"columns ({acc.shape[1]})"
        )
    alpha1, beta1 = input_q.scale, input_q.zero_point
    alpha2, beta2 = filter_q.scale, filter_q.zero_point
    corrected = (
        acc
        - beta2 * patch_sums[:, None]
        - beta1 * filter_sums[None, :]
        + depth * beta1 * beta2
    )
    return alpha1 * alpha2 * corrected


def approx_gemm(patches: np.ndarray, patch_sums: np.ndarray,
                filters: np.ndarray, filter_sums: np.ndarray,
                input_q: QuantParams, filter_q: QuantParams,
                lut: LookupTable, *,
                accumulator_bits: int | None = None,
                saturate: bool = False) -> np.ndarray:
    """The ``ApproxGEMM`` step of Algorithm 1.

    Multiplies the quantised patch matrix with the quantised filter matrix
    through the multiplier LUT (:func:`lut_matmul`) and returns the
    dequantised float output of shape ``[patches, filters]``.
    """
    acc = lut_matmul(patches, filters, lut,
                     accumulator_bits=accumulator_bits, saturate=saturate)
    depth = patches.shape[1]
    return dequantize_gemm(acc, patch_sums, filter_sums, depth, input_q, filter_q)
