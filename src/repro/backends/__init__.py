"""Unified execution backends behind one batched inference API.

This package is the dispatch seam between the functional emulation code and
the engines that execute it.  The three chunk engines (the vectorised NumPy
engine, the direct CPU loop and the simulated CUDA device) sit in one fixed
name table (:mod:`repro.backends.engines`); every entry point, the
``AxConv2D`` graph op included, resolves its quantisation coefficients and
lookup tables through the same cached path before handing chunks to one of
them.

Entry points:

* :func:`emulate_conv2d` -- one-call approximate convolution on any backend;
* :class:`InferencePipeline` -- reusable pipeline with LUT/filter-bank
  caching and thread-pool batch sharding;
* :func:`available_backends` -- the engine names (``cpusim``, ``gpusim``,
  ``numpy``).
"""

from .cache import (
    CacheStats,
    DEFAULT_FILTER_CACHE,
    DEFAULT_LUT_CACHE,
    FilterBankCache,
    LUTCache,
    PreparedFilterBank,
    cache_stats,
    clear_caches,
)
from .engines import available_backends
from .pipeline import (
    InferencePipeline,
    RunReport,
    RunResult,
    emulate_conv2d,
    shared_pipeline,
)

__all__ = [
    "CacheStats",
    "DEFAULT_FILTER_CACHE",
    "DEFAULT_LUT_CACHE",
    "FilterBankCache",
    "InferencePipeline",
    "LUTCache",
    "PreparedFilterBank",
    "RunReport",
    "RunResult",
    "available_backends",
    "cache_stats",
    "clear_caches",
    "emulate_conv2d",
    "shared_pipeline",
]
