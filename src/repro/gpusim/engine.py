"""Functional GPU engine: Algorithm 1 executed on the simulated device.

This engine reproduces the structure of the CUDA implementation exactly --
chunking, the Im2Cols kernel (patch matrix + ``Sp``), the tiled LUT GEMM
kernel and the Eq. 4 dequantisation -- while recording every launch and all
memory traffic on the :class:`~repro.gpusim.device.GPUDevice`.  Its numerical
output is identical to :func:`repro.conv.approx_conv2d.approx_conv2d`, which
the integration tests verify; its accounting feeds the micro-benchmarks and
the texture-cache ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import counters
from ..conv.approx_conv2d import PreparedConv, prepare_conv2d, split_chunks
from ..errors import ConfigurationError
from ..lut.table import LookupTable
from ..quantization.affine import IntegerRange
from ..quantization.ranges import TensorRange
from ..quantization.rounding import RoundMode
from .device import GPUDevice
from .kernels.gemm_kernel import run_approx_gemm_kernel
from .kernels.im2cols_kernel import run_im2cols_kernel


@dataclass
class GPUConvRunReport:
    """Statistics of one approximate convolution executed on the device."""

    chunks: int = 0
    kernel_launches: int = 0
    texture_fetches: int = 0
    atomic_adds: int = 0
    shared_bytes: int = 0
    patch_values: int = 0
    lut_name: str = ""
    per_chunk: list[dict] = field(default_factory=list)

    def merge(self, other: "GPUConvRunReport") -> None:
        """Accumulate another run report (e.g. one chunk's) into this one."""
        counters.add(self, other)
        if other.lut_name:
            self.lut_name = other.lut_name
        self.per_chunk.extend(other.per_chunk)


def run_gpusim_chunk(device: GPUDevice, chunk: np.ndarray,
                     prepared: PreparedConv, *, strides=(1, 1),
                     dilations=(1, 1), padding: str = "SAME",
                     ) -> tuple[np.ndarray, GPUConvRunReport]:
    """Execute one chunk of Algorithm 1 on the simulated device.

    Launches the Im2Cols and ApproxGEMM kernels for a single chunk of a
    prepared convolution and returns the NHWC output together with a
    one-chunk :class:`GPUConvRunReport`.  Both the
    :class:`GPUConvolutionEngine` and the ``gpusim`` engine of
    :mod:`repro.backends` are thin loops over this function.
    """
    im2cols = run_im2cols_kernel(
        device, chunk, prepared.kernel_height, prepared.kernel_width,
        prepared.input_q,
        strides=strides, dilations=dilations, padding=padding,
    )
    gemm = run_approx_gemm_kernel(
        device, im2cols.patches, im2cols.patch_sums,
        prepared.flat_filters, prepared.filter_sums,
        prepared.input_q, prepared.filter_q, prepared.lut,
    )
    geometry = im2cols.geometry
    output = gemm.output.reshape(
        chunk.shape[0], geometry.output_height, geometry.output_width,
        prepared.filter_count,
    )
    report = GPUConvRunReport(
        chunks=1,
        kernel_launches=2,
        texture_fetches=gemm.texture_fetches,
        atomic_adds=im2cols.atomic_adds,
        shared_bytes=im2cols.shared_bytes + gemm.shared_bytes,
        patch_values=int(im2cols.patches.size),
        lut_name=prepared.lut.name,
        per_chunk=[{
            "images": chunk.shape[0],
            "patches": int(im2cols.patches.shape[0]),
            "patch_length": int(im2cols.patches.shape[1]),
            "texture_fetches": gemm.texture_fetches,
        }],
    )
    return output, report


class GPUConvolutionEngine:
    """Runs approximate 2D convolutions on a simulated CUDA device."""

    def __init__(self, device: GPUDevice | None = None, *,
                 chunk_size: int = 32) -> None:
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.device = device if device is not None else GPUDevice()
        self.chunk_size = chunk_size

    def approx_conv2d(self, inputs: np.ndarray, filters: np.ndarray,
                      lut: LookupTable, *, strides=(1, 1), dilations=(1, 1),
                      padding: str = "SAME",
                      input_range: TensorRange | tuple[float, float] | None = None,
                      filter_range: TensorRange | tuple[float, float] | None = None,
                      qrange: IntegerRange | None = None,
                      round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                      report: GPUConvRunReport | None = None) -> np.ndarray:
        """Algorithm 1 on the simulated device; returns the NHWC float output.

        ``qrange`` defaults to the range the lookup table serves, as in
        :func:`repro.conv.approx_conv2d.prepare_conv2d`.
        """
        # ComputeCoeffs + filter quantisation through the shared path.
        prepared = prepare_conv2d(
            inputs, filters, lut,
            input_range=input_range, filter_range=filter_range,
            qrange=qrange, round_mode=round_mode,
        )

        report = report if report is not None else GPUConvRunReport()
        report.lut_name = lut.name

        outputs = []
        for start, stop in split_chunks(inputs.shape[0], self.chunk_size):
            output, chunk_report = run_gpusim_chunk(
                self.device, inputs[start:stop], prepared,
                strides=strides, dilations=dilations, padding=padding,
            )
            outputs.append(output)
            report.merge(chunk_report)

        return np.concatenate(outputs, axis=0)
