"""Matrix-multiplication kernels of the convolution engines.

Two GEMM flavours are provided:

* :func:`gemm_float` -- the plain float matrix product used by the accurate
  GEMM-based convolution (what TensorFlow's own Conv2D reduces to).
* :func:`approx_gemm` -- the ``ApproxGEMM`` step of Algorithm 1: the patch
  matrix of quantised 8-bit values is multiplied with the quantised filter
  matrix using a multiplier *lookup table* for every scalar product, the
  integer accumulations are corrected with the pre-computed patch sums ``Sp``
  and filter sums ``Sf`` and the result is dequantised according to Eq. 4.

The integer LUT product itself -- :func:`lut_matmul` -- runs the kernel
:func:`gemm_kernel` names for the table and the product's shape:

* ``"lowrank"``, :func:`lut_matmul_lowrank`: when the multiplier's error
  table ``E = L - a*w`` has proven integer factors ``det * E == U @ V.T``
  of rank ``r`` (:mod:`repro.lut.lowrank`), every LUT sum is
  ``A @ W + (U[A] @ V[W]) / det`` -- two float64 BLAS GEMMs, exact because
  every partial sum is an integer below 2**53.  Chosen iff the factors
  exist and both 2**53 bounds hold at depth ``K``;
* otherwise the gather kernel: numba's JIT kernel
  (:mod:`repro.conv.gemm_numba`) when numba is importable, else
  :func:`lut_matmul_blocked`, the cache-blocked NumPy gather-GEMM.

:func:`lut_matmul_naive` is the plain reference implementation the others
must match bit for bit; the parity grid and the property suite use it as
their oracle.  Every kernel accumulates exactly in int64;
``accumulator_bits`` and ``saturate`` model a narrower hardware
accumulator, applied last.

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


#: Integers up to 2**53 are exact in float64: the low-rank kernel runs only
#: where every partial sum of its GEMMs stays below this.
_FLOAT64_EXACT = 1 << 53

#: Largest multiply-add count of one BLAS call of the low-rank kernel.  A
#: default OpenBLAS build (``GEMM_MULTITHREAD_THRESHOLD=4``) runs a GEMM of
#: at most 65536 * 4 multiply-adds on the calling thread and wakes its
#: worker threads above it; those oversubscribe the pipeline's own worker
#: threads, and on small VMs the wake-up alone can stall a call for
#: milliseconds.  The figure holds for default OpenBLAS builds only; under
#: another BLAS it merely keeps the calls small.
_BLAS_CALL_MACS = 1 << 18

#: Fewest rows of one low-rank row panel: a shorter BLAS call re-reads its
#: whole right operand for too little work, so deep products keep this many
#: rows and are cut into depth slabs instead (:func:`_blas_matmul`).
_BLAS_CALL_ROWS = 16


def _blas_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` in float64, cut into depth slabs of at most
    :data:`_BLAS_CALL_MACS` multiply-adds each.

    The slabs are summed in float64, which is exact whenever the caller has
    bounded every partial sum below 2**53, as the low-rank kernel does.
    """
    slab = max(1, _BLAS_CALL_MACS // max(1, len(left) * right.shape[1]))
    out = left[:, :slab] @ right[:slab]
    for k0 in range(slab, left.shape[1], slab):
        out += left[:, k0:k0 + slab] @ right[k0:k0 + slab]
    return out


def _lowrank_refusal(lut: LookupTable, depth: int) -> str | None:
    """Why :func:`lut_matmul_lowrank` cannot be exact at this depth, or None.

    A float64 GEMM is exact when every partial sum, in whatever order BLAS
    forms it, is an integer below 2**53; the sum of the absolute values of
    the terms bounds all of them.  The exact product's terms are at most
    ``max|a| * max|w|`` each (the kernel multiplies the operands the table
    reads, so they lie in its range) and the error product's ``rank *
    max|U| * max|V|`` per position, ``depth`` positions deep.
    """
    factors = lut.error_factors()
    if factors is None:
        return (f"the error table of {lut.name!r} has no proven integer "
                f"factors")
    if depth * factors.rank * factors.u_max * factors.v_max >= _FLOAT64_EXACT:
        return (f"rank-{factors.rank} error sums of {lut.name!r} could reach "
                f"2**53 at depth {depth}")
    operand = max(-lut.operand_min, lut.operand_max)
    if depth * operand * operand >= _FLOAT64_EXACT:
        return f"exact product sums could reach 2**53 at depth {depth}"
    return None


def _lowrank_product(patches: np.ndarray, filters: np.ndarray,
                     lut: LookupTable, accumulator_bits: int | None,
                     saturate: bool) -> np.ndarray:
    """The body of :func:`lut_matmul_lowrank`, for callers that have
    validated the operands and checked :func:`_lowrank_refusal`."""
    factors = lut.error_factors()
    rank = factors.rank
    depth, num_filters = filters.shape
    width = lut.bit_width
    mask = (1 << width) - 1
    # The operand each bit pattern stands for in the table, so operands
    # outside the table range wrap exactly as in the gather kernels.
    values = np.arange(1 << width, dtype=np.float64)
    if lut.signed:
        values[1 << (width - 1):] -= 1 << width

    filter_bits = filters & mask
    exact_filters = values[filter_bits]
    u = factors.u.astype(np.float64)
    # V rows of every filter operand, laid out [K * rank, F] so the error
    # term is one GEMM against the [rows, K * rank] gather of U rows.
    error_filters = (factors.v.astype(np.float64)[filter_bits]
                     .transpose(0, 2, 1).reshape(depth * rank, num_filters))
    # One panel's error GEMM fills one BLAS call, so its gather holds at
    # most 8 * _BLAS_CALL_MACS / F bytes (2 MiB) until the row floor.
    rows = max(_BLAS_CALL_ROWS, _BLAS_CALL_MACS
               // max(1, depth * max(rank, 1) * num_filters))

    result = np.empty((patches.shape[0], num_filters), dtype=np.int64)
    for r0 in range(0, patches.shape[0], rows):
        bits = patches[r0:r0 + rows] & mask
        acc = _blas_matmul(values.take(bits), exact_filters).astype(np.int64)
        if rank:
            gathered = u.take(bits, axis=0).reshape(len(bits), depth * rank)
            error = _blas_matmul(gathered, error_filters).astype(np.int64)
            acc += error // factors.det
        result[r0:r0 + rows] = _wrap_accumulator(acc, accumulator_bits,
                                                 saturate)
    return result


def lut_matmul_lowrank(patches: np.ndarray, filters: np.ndarray,
                       lut: LookupTable, *,
                       accumulator_bits: int | None = None,
                       saturate: bool = False) -> np.ndarray:
    """Exact LUT-GEMM as BLAS work: ``A @ W + (U[A] @ V[W]) / det``.

    Same contract as :func:`lut_matmul_naive`, for tables whose error
    ``E = L - a*w`` has proven integer factors ``det * E == U @ V.T``
    (:meth:`LookupTable.error_factors`).  ``A`` and ``W`` are the operands
    the table reads: the bit patterns ``x & (2**n - 1)``, sign-extended for
    a signed table, exactly what the gather kernels index with.  Per row
    panel, one float64 GEMM forms the exact products and one
    ``[rows, K * rank] x [K * rank, F]`` GEMM over gathered factor rows
    forms ``det`` times the error sum.  Every partial sum of both is an
    integer below 2**53, hence exact in float64, and the integer division
    by ``det`` is exact by the factor identity.  Every BLAS call stays at
    or below :data:`_BLAS_CALL_MACS` multiply-adds.  Raises
    :class:`~repro.errors.ConfigurationError` when the table has no factors
    or the depth could push a partial sum past 2**53.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    refusal = _lowrank_refusal(lut, filters.shape[0])
    if refusal is not None:
        raise ConfigurationError(f"lut_matmul_lowrank: {refusal}")
    return _lowrank_product(patches, filters, lut, accumulator_bits, saturate)


@functools.cache
def _gather_kernel():
    """The gather kernel as ``(name, function)``: numba when importable,
    else blocked.

    Resolved on the first call rather than at import, so ``import repro``
    never imports numba.
    """
    if importlib.util.find_spec("numba") is not None:  # pragma: no cover
        from .gemm_numba import lut_matmul_numba   # numba CI leg only
        return "numba", lut_matmul_numba
    return "blocked", lut_matmul_blocked


def gemm_kernel(lut: LookupTable, depth: int) -> str:
    """The kernel :func:`lut_matmul` runs: ``"lowrank"``, ``"numba"`` or
    ``"blocked"``.

    The low-rank kernel runs whenever it is exact: the table has proven
    factors and no partial sum can reach 2**53 at depth ``K`` (see
    :func:`_lowrank_refusal`); otherwise the gather kernel runs.  The
    product's other dimensions do not enter.  This is the one place the
    kernel choice is made, and a pure function of its arguments, so a
    tracer can record the choice and its inputs.
    """
    if _lowrank_refusal(lut, depth) is None:
        return "lowrank"
    return _gather_kernel()[0]


def lut_matmul(patches: np.ndarray, filters: np.ndarray, lut: LookupTable, *,
               accumulator_bits: int | None = None,
               saturate: bool = False) -> np.ndarray:
    """Integer matrix product where every multiplication is a LUT lookup.

    ``patches`` has shape ``[P, K]`` (quantised patch rows), ``filters`` has
    shape ``[K, F]`` (quantised filter columns).  The product is returned as
    an ``[P, F]`` int64 matrix of *approximate* dot products, accumulated in
    int64 and optionally folded into an ``accumulator_bits``-wide
    accumulator that wraps (or, with ``saturate``, clips).  Runs the kernel
    :func:`gemm_kernel` names; every kernel is bit-identical to
    :func:`lut_matmul_naive`.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    if gemm_kernel(lut, filters.shape[0]) == "lowrank":
        return _lowrank_product(patches, filters, lut, accumulator_bits,
                                saturate)
    return _gather_kernel()[1](patches, filters, lut,
                               accumulator_bits=accumulator_bits,
                               saturate=saturate)


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
