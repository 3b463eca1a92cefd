"""Image-to-columns (im2col) transformation.

The GEMM formulation of the convolution first builds the *patch matrix*
``Mp`` in which "each row corresponds to a single position of the kernel"
(Section III).  For the approximate path, Algorithm 1 additionally computes
the per-patch dequantisation sums ``Sp`` (the second sum of Eq. 4) in the
same pass over the data -- the trick the CUDA kernel implements with a shared
memory prefix scan and ``atomicAdd``.

Two entry points are provided:

* :func:`im2col` works on real-valued tensors and is used by the accurate
  GEMM-based convolution and by the tests that validate geometry.
* :func:`im2col_quantized` additionally quantises the patches and returns
  ``(Mp, Sp)``; padded positions are filled with the zero-point so they
  represent an exact real 0, as required by the paper's quantisation scheme.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..quantization.affine import QuantParams
from .padding import ConvGeometry, resolve_geometry


def _check_nhwc(inputs: np.ndarray) -> None:
    if inputs.ndim != 4:
        raise ShapeError(
            f"expected a 4D NHWC input tensor, got shape {inputs.shape}"
        )


def _patch_indices(geometry: ConvGeometry, channels: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices mapping padded input pixels to patch-matrix columns.

    Returns ``(rows, cols, chans)`` arrays of shape
    ``(out_h * out_w, kernel_h * kernel_w * channels)`` suitable for fancy
    indexing a padded NHWC image.
    """
    g = geometry
    ky = np.arange(g.kernel_height) * g.dilation_h
    kx = np.arange(g.kernel_width) * g.dilation_w
    oy = np.arange(g.output_height) * g.stride_h
    ox = np.arange(g.output_width) * g.stride_w

    # Row index of every (output position, kernel tap) pair.
    rows = (oy[:, None, None, None] + ky[None, None, :, None])  # [OH,1,KH,1]
    cols = (ox[None, :, None, None] + kx[None, None, None, :])  # [1,OW,1,KW]
    rows = np.broadcast_to(
        rows, (g.output_height, g.output_width, g.kernel_height, g.kernel_width))
    cols = np.broadcast_to(
        cols, (g.output_height, g.output_width, g.kernel_height, g.kernel_width))

    rows = rows.reshape(g.patch_positions, -1)          # [P, KH*KW]
    cols = cols.reshape(g.patch_positions, -1)

    # Expand over channels (channel is the fastest changing index, matching
    # the NHWC layout and the HWCK filter flattening).
    rows = np.repeat(rows, channels, axis=1)
    cols = np.repeat(cols, channels, axis=1)
    chans = np.tile(np.arange(channels), g.kernel_height * g.kernel_width)
    chans = np.broadcast_to(chans, (g.patch_positions, chans.size))
    return rows, cols, chans


def im2col(inputs: np.ndarray, kernel_height: int, kernel_width: int, *,
           strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
           pad_value: float = 0.0) -> tuple[np.ndarray, ConvGeometry]:
    """Extract convolution patches from an NHWC batch.

    Returns a matrix of shape ``(N * out_h * out_w, kernel_h * kernel_w * C)``
    (one row per kernel position) together with the resolved geometry.
    """
    _check_nhwc(inputs)
    batch, in_h, in_w, channels = inputs.shape
    geometry = resolve_geometry(
        in_h, in_w, kernel_height, kernel_width,
        strides=strides, dilations=dilations, padding=padding,
    )
    padded = np.pad(
        inputs,
        ((0, 0),
         (geometry.pad_top, geometry.pad_bottom),
         (geometry.pad_left, geometry.pad_right),
         (0, 0)),
        mode="constant", constant_values=pad_value,
    )
    rows, cols, chans = _patch_indices(geometry, channels)
    #

    patches = padded[:, rows, cols, chans]              # [N, P, K]
    patches = patches.reshape(batch * geometry.patch_positions, -1)
    return patches, geometry


def im2col_quantized(inputs: np.ndarray, kernel_height: int, kernel_width: int,
                     qparams: QuantParams, *, strides=(1, 1), dilations=(1, 1),
                     padding: str = "SAME",
                     ) -> tuple[np.ndarray, np.ndarray, ConvGeometry]:
    """Quantise an NHWC batch and build the patch matrix and patch sums.

    This is the ``Im2Cols`` step of Algorithm 1: the returned ``Mp`` holds the
    quantised 8-bit patch values (one row per kernel position) and ``Sp`` the
    per-row sums of those quantised values, needed by the dequantisation
    correction of Eq. 4.  Padded positions receive the zero-point
    ``beta`` so that they represent an exact real zero and their contribution
    to Eq. 4 cancels.
    """
    _check_nhwc(inputs)
    batch, in_h, in_w, channels = inputs.shape
    geometry = resolve_geometry(
        in_h, in_w, kernel_height, kernel_width,
        strides=strides, dilations=dilations, padding=padding,
    )
    quantized = qparams.quantize(inputs)
    padded = np.pad(
        quantized,
        ((0, 0),
         (geometry.pad_top, geometry.pad_bottom),
         (geometry.pad_left, geometry.pad_right),
         (0, 0)),
        mode="constant", constant_values=qparams.zero_point,
    )
    rows, cols, chans = _patch_indices(geometry, channels)
    patches = padded[:, rows, cols, chans]
    patches = patches.reshape(batch * geometry.patch_positions, -1)
    patch_sums = patches.sum(axis=1, dtype=np.int64)
    return patches.astype(np.int64), patch_sums, geometry


def col2im(patches: np.ndarray, input_shape, kernel_height: int,
           kernel_width: int, *, strides=(1, 1), dilations=(1, 1),
           padding: str = "SAME") -> np.ndarray:
    """Scatter-add patch-matrix rows back onto an NHWC tensor.

    This is the adjoint of :func:`im2col`: every patch value is added to the
    input pixel it was gathered from (pixels covered by several kernel
    positions accumulate all of their contributions; padded positions are
    discarded).  It is the core of the convolution backward pass, turning
    the gradient of the patch matrix into the gradient of the input batch.
    """
    batch, in_h, in_w, channels = input_shape
    geometry = resolve_geometry(
        in_h, in_w, kernel_height, kernel_width,
        strides=strides, dilations=dilations, padding=padding,
    )
    expected = (batch * geometry.patch_positions,
                kernel_height * kernel_width * channels)
    if patches.shape != expected:
        raise ShapeError(
            f"patch matrix has shape {patches.shape}, expected {expected} for "
            f"input shape {tuple(input_shape)}"
        )
    padded = np.zeros(
        (batch, geometry.padded_height, geometry.padded_width, channels),
        dtype=np.float64,
    )
    rows, cols, chans = _patch_indices(geometry, channels)
    values = patches.reshape(batch, geometry.patch_positions, -1)
    np.add.at(
        padded,
        (np.arange(batch)[:, None, None], rows[None], cols[None], chans[None]),
        values,
    )
    return padded[:, geometry.pad_top:geometry.pad_top + in_h,
                  geometry.pad_left:geometry.pad_left + in_w, :]


def flatten_filters(filters: np.ndarray) -> np.ndarray:
    """Flatten an HWCK filter bank into the GEMM filter matrix.

    Each column of the result corresponds to one filter; the row order
    (kernel row, kernel column, channel) matches the patch layout produced by
    :func:`im2col`.
    """
    if filters.ndim != 4:
        raise ShapeError(
            f"expected a 4D HWCK filter tensor, got shape {filters.shape}"
        )
    kh, kw, channels, count = filters.shape
    return filters.reshape(kh * kw * channels, count)


def filter_sums(quantized_filters: np.ndarray) -> np.ndarray:
    """Per-filter sums ``Sf`` of quantised filter values (third sum of Eq. 4).

    ``quantized_filters`` is the flattened GEMM filter matrix (rows = kernel
    taps, columns = filters); the result has one entry per filter.
    """
    if quantized_filters.ndim != 2:
        raise ShapeError(
            "filter_sums expects the flattened [taps, filters] matrix, got "
            f"shape {quantized_filters.shape}"
        )
    return quantized_filters.sum(axis=0, dtype=np.int64)
