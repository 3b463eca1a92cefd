"""The three chunk engines behind :class:`~repro.backends.InferencePipeline`.

Each engine executes *one chunk* of a convolution whose batch-independent
state has already been resolved into a
:class:`~repro.conv.approx_conv2d.PreparedConv` by the shared
``prepare_conv2d`` path.  Everything above the chunk level -- range
resolution, filter caching, batch sharding, threading, accounting -- lives in
the pipeline and is therefore identical across engines.

``numpy``
    The vectorised im2col + LUT-GEMM engine of Algorithm 1 (the fast path).
``cpusim``
    The ALWANN-style direct nested loop -- the paper's CPU baseline.  Orders
    of magnitude slower; intended for small cross-checks.
``gpusim``
    Algorithm 1 on the simulated CUDA device, recording kernel launches,
    texture fetches and shared-memory traffic.

The set is fixed, as in the paper, which binds its one approximate op to one
engine per device.  Every engine returns ``(output, gpu)``: the chunk's NHWC
float output and, for ``gpusim`` only, its
:class:`~repro.gpusim.engine.GPUConvRunReport`.  All three must be
bit-identical; the cross-backend parity test enforces it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..conv.approx_conv2d import PreparedConv, approx_conv2d_chunk
from ..conv.reference import approx_conv2d_direct_quantized
from ..errors import RegistryError
from ..gpusim.device import GPUDevice
from ..gpusim.engine import GPUConvRunReport, run_gpusim_chunk

ChunkEngine = Callable[..., tuple[np.ndarray, GPUConvRunReport | None]]


def run_numpy(chunk: np.ndarray, prepared: PreparedConv, *, strides=(1, 1),
              dilations=(1, 1), padding: str = "SAME",
              accumulator_bits: int | None = None, saturate: bool = False,
              ) -> tuple[np.ndarray, None]:
    """Vectorised im2col + LUT-GEMM engine (Algorithm 1, host NumPy).

    The LUT-GEMM runs through :func:`repro.conv.gemm.lut_matmul`: the numba
    JIT kernel when numba is importable, else the blocked NumPy kernel.
    """
    output = approx_conv2d_chunk(
        chunk, prepared, strides=strides, dilations=dilations,
        padding=padding, accumulator_bits=accumulator_bits, saturate=saturate,
    )
    return output, None


def run_cpusim(chunk: np.ndarray, prepared: PreparedConv, *, strides=(1, 1),
               dilations=(1, 1), padding: str = "SAME",
               accumulator_bits: int | None = None, saturate: bool = False,
               ) -> tuple[np.ndarray, None]:
    """ALWANN-style direct nested-loop engine (the paper's CPU baseline).

    Models an unbounded accumulator: :func:`check_engine` rejects a finite
    one before any chunk runs.
    """
    output = approx_conv2d_direct_quantized(
        chunk, prepared.quantized_filters_hwck(), prepared.lut,
        prepared.input_q, prepared.filter_q,
        strides=strides, dilations=dilations, padding=padding,
    )
    return output, None


def run_gpusim(chunk: np.ndarray, prepared: PreparedConv, *, strides=(1, 1),
               dilations=(1, 1), padding: str = "SAME",
               accumulator_bits: int | None = None, saturate: bool = False,
               ) -> tuple[np.ndarray, GPUConvRunReport]:
    """Algorithm 1 on the simulated CUDA device with launch accounting.

    Each chunk runs on a fresh :class:`~repro.gpusim.device.GPUDevice`, so
    no device retains launch records across calls; the chunk's accounting
    travels in the returned report.  Accumulates in unbounded integers:
    :func:`check_engine` rejects a finite accumulator before any chunk runs.
    """
    return run_gpusim_chunk(
        GPUDevice(), chunk, prepared,
        strides=strides, dilations=dilations, padding=padding,
    )


ENGINES: dict[str, ChunkEngine] = {
    "numpy": run_numpy,
    "cpusim": run_cpusim,
    "gpusim": run_gpusim,
}

#: Engines without a finite-accumulator model, with the error they raise.
_UNBOUNDED = {
    "cpusim": "the cpusim backend models an unbounded accumulator; "
              "use the numpy backend for finite-accumulator studies",
    "gpusim": "the gpusim backend accumulates in unbounded integers; "
              "use the numpy backend for finite-accumulator studies",
}


def check_engine(name: str, *, accumulator_bits: int | None = None,
                 saturate: bool = False) -> ChunkEngine:
    """The engine called ``name``, checked against the accumulator model.

    Raises :class:`~repro.errors.RegistryError` for an unknown name, listing
    the known ones, and for a finite accumulator on an engine that only
    models an unbounded one.
    """
    engine = ENGINES.get(name)
    if engine is None:
        raise RegistryError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    if (accumulator_bits is not None or saturate) and name in _UNBOUNDED:
        raise RegistryError(_UNBOUNDED[name])
    return engine


def available_backends() -> list[str]:
    """Sorted names of every engine."""
    return sorted(ENGINES)
