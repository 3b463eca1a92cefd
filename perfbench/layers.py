"""The library's layers as the benchmark traces them, and their metrics.

Layers are named after the modules that implement them.  The spans wrap the
library's functions at their module boundaries:

===========================  ===============================================
span                         wrapped function
===========================  ===============================================
``graph.executor.forward``   ``Executor.run`` / ``Executor.record``
``graph.executor.backward``  ``Executor.backward``
``backends.pipeline.run``    ``InferencePipeline.run``
``backends.pipeline.prepare`` ``InferencePipeline.prepare`` (LUT and
                             filter-bank cache lookups, re-quantisation)
``lut.build``                ``LookupTable.from_multiplier``
``conv.im2col``              ``im2col_quantized`` as Algorithm 1 calls it
``conv.lut_matmul``          ``lut_matmul``
``conv.dequantize``          ``dequantize_gemm``
``conv.float_backward``      ``conv2d_float_backward`` (the STE backward)
``train.optim``              ``Optimizer.step``
``dse.engine``               ``repro.dse.search``
``dse.evaluate``             ``Evaluator.score_assignment``
``dse.build_model``          the candidate model build and the layer-wise
                             transform
``serve.batcher.*``          ``Batcher.submit`` / ``Batcher.next_batch``
``serve.session``            ``ModelSession.run``
``serve.batch``              ``EmulationService._execute``: one executed
                             batch, the session run plus the demux
===========================  ===============================================

Every per-layer time and count is given per workload unit (batch,
candidate, step or request) of the traced operations, with these
exceptions: ``lut.build.*`` and ``backends.lut_cache.*`` cover the set-up
phase, where the tables are built; ``serve.batches`` counts the batches of
the whole fixed-rate loop; ratios, means, percentiles and rates are what
their names say.  A layer that does not run on a workload reports 0, and so
do the per-shape figures of shapes the workload does not run.

``trace.coverage`` is the share of the operation roots (``op`` spans of the
closed loops, ``serve.batch`` spans) that named layer spans cover; the rest
is ``trace.other_s``.  ``trace.overhead_ratio`` compares the traced and the
untraced operations of the same run: time per unit, traced over untraced,
minus one.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import repro
from repro.backends import InferencePipeline
from repro.conv.gemm import flat_index_dtype
from repro.dse import Evaluator
from repro.graph import Executor
from repro.lut import LookupTable
from repro.multipliers import library
from repro.serve import Batcher, EmulationService, ModelSession
from repro.train import Optimizer

from tracing import Tracer, coverage, self_times, span_self_times

#: ``repro.conv.approx_conv2d`` is shadowed by the function of the same name
#: in ``repro.conv``, so the modules are taken from ``sys.modules``.
CONV_MODULE = sys.modules["repro.conv.approx_conv2d"]
GEMM_MODULE = sys.modules["repro.conv.gemm"]

#: Root span of one timed operation of a closed-loop workload.
OP_SPAN = "op"

#: Root spans of one operation: the closed-loop op and one served batch.
ROOTS = {OP_SPAN, "serve.batch"}

#: ``[P, K, F]`` of every conv layer's LUT-GEMM on infer_resnet20 (ResNet-20,
#: 32x32, batch 32) and dse_resnet8 (ResNet-8, 16x16, 32 images).
SHAPES = (
    "32768x27x16", "32768x144x16", "8192x144x32", "8192x288x32",
    "2048x288x64", "2048x576x64",
    "8192x27x16", "8192x144x16", "2048x144x32", "2048x288x32",
    "512x288x64", "512x576x64",
)

#: The roofline replays one ``[ROOFLINE_ROWS, min(K, ROOFLINE_DEPTH), F]``
#: panel of a shape: at most 128 x 48 x 64 int32 indices (1.5 MiB) plus their
#: gathered values stay cache-resident, so the replay measures the gather and
#: the reduction, not memory traffic.  Each of ``ROOFLINE_REPEATS`` repeats
#: covers about ``ROOFLINE_MACS`` MACs.
ROOFLINE_ROWS = 128
ROOFLINE_DEPTH = 48
ROOFLINE_MACS = 2_000_000
ROOFLINE_REPEATS = 9

#: Self-time metrics: metric name -> span name.
SELF_TIMES = {
    "graph.executor.forward.self_s": "graph.executor.forward",
    "graph.executor.backward.self_s": "graph.executor.backward",
    "backends.pipeline.run.self_s": "backends.pipeline.run",
    "backends.pipeline.prepare.self_s": "backends.pipeline.prepare",
    "conv.im2col.self_s": "conv.im2col",
    "conv.lut_matmul.self_s": "conv.lut_matmul",
    "conv.dequantize.self_s": "conv.dequantize",
    "conv.float_backward.self_s": "conv.float_backward",
    "train.optim.self_s": "train.optim",
    "dse.evaluate.self_s": "dse.evaluate",
    "dse.build_model.self_s": "dse.build_model",
    "dse.engine.self_s": "dse.engine",
}


def _gemm_shape(args, kwargs) -> dict:
    patches, filters, lut = args[:3]
    rows, depth = np.shape(patches)
    count = np.shape(filters)[1]
    return {"shape": f"{rows}x{depth}x{count}",
            "macs": rows * depth * count, "lut": lut.name}


def _queue_waits(tracer, span, args, batch) -> None:
    if batch is None:
        return
    now = time.monotonic()   # the Batcher's default clock
    waits = tracer.samples.setdefault("serve.queue_wait_ms", [])
    waits.extend((now - entry.enqueued_at) * 1e3 for entry in batch.entries)
    tracer.samples.setdefault("serve.batch_samples", []).append(batch.samples)


def library_tracer(tracer: Tracer) -> Tracer:
    """Register every library layer boundary on ``tracer``."""
    wrap = tracer.wrap
    wrap(Executor, "run", "graph.executor.forward")
    wrap(Executor, "record", "graph.executor.forward")
    wrap(Executor, "backward", "graph.executor.backward")
    wrap(InferencePipeline, "run", "backends.pipeline.run")
    wrap(InferencePipeline, "prepare", "backends.pipeline.prepare")
    wrap(LookupTable, "from_multiplier", "lut.build")
    wrap(CONV_MODULE, "im2col_quantized", "conv.im2col")
    wrap(GEMM_MODULE, "lut_matmul", "conv.lut_matmul", describe=_gemm_shape)
    wrap(GEMM_MODULE, "dequantize_gemm", "conv.dequantize")
    wrap(sys.modules["repro.graph.ops.conv"], "conv2d_float_backward",
         "conv.float_backward")
    wrap(Optimizer, "step", "train.optim")
    wrap(repro.dse, "search", "dse.engine")
    wrap(Evaluator, "score_assignment", "dse.evaluate")
    wrap(sys.modules["repro.dse.evaluator"], "approximate_graph_layerwise",
         "dse.build_model")
    wrap(Batcher, "submit", "serve.batcher.submit")
    wrap(Batcher, "next_batch", "serve.batcher.next_batch",
         on_return=_queue_waits)
    wrap(ModelSession, "run", "serve.session")
    # The demux has no public boundary of its own: it is the part of
    # EmulationService._execute after ModelSession.run returns.
    wrap(EmulationService, "_execute", "serve.batch")
    return tracer


def gemm_spot_check(run) -> list[bool]:
    """Check ``lut_matmul`` against a plain gather on a sample of inputs.

    Runs ``run()`` (a small pass: the sample) with every ``lut_matmul`` call
    checked: each row of the kernel's accumulators must equal
    ``lut.flat[(p << n) | w].sum(axis=1)`` over the operands' bit patterns.
    Returns one verdict per call (one per conv layer of the pass).
    """
    verdicts: list[bool] = []

    def verify(tracer, span, args, acc) -> None:
        patches, filters = np.asarray(args[0]), np.asarray(args[1])
        lut = args[2]
        bits, mask = lut.bit_width, (1 << lut.bit_width) - 1
        index = ((patches[:, :, None] & mask) << bits) | (filters[None] & mask)
        expected = lut.flat[index].astype(np.int64).sum(axis=1)
        verdicts.append(bool(np.array_equal(acc, expected)))

    checker = Tracer()
    checker.wrap(GEMM_MODULE, "lut_matmul", "check", on_return=verify)
    with checker.installed():
        run()
    return verdicts


def roofline_macs_per_s(lut: LookupTable,
                        shape: tuple[int, int, int]) -> float:
    """Gather+reduce rate at one ``[P, K, F]`` LUT-GEMM shape.

    The LUT-GEMM's irreducible work is one table fetch and one add per MAC.
    This replays exactly that over one pre-stitched, cache-resident panel
    of the shape (see :data:`ROOFLINE_ROWS`) and returns the best rate of
    the repeats: the speed a gather kernel would reach at this shape if
    index construction, panel accumulation and loop overhead were free.
    """
    rows, depth, count = shape
    rng = np.random.default_rng(0)
    lo, hi = lut.operand_min, lut.operand_max
    panel_depth = min(depth, ROOFLINE_DEPTH)
    patches = rng.integers(lo, hi + 1,
                           size=(min(rows, ROOFLINE_ROWS), panel_depth))
    filters = rng.integers(lo, hi + 1, size=(panel_depth, count))
    bits, mask = lut.bit_width, (1 << lut.bit_width) - 1
    index = (((patches & mask) << bits)[:, :, None]
             | (filters & mask)[None]).astype(flat_index_dtype(bits))
    flat = lut.flat
    panels = max(1, ROOFLINE_MACS // index.size)
    best = float("inf")
    for _ in range(ROOFLINE_REPEATS):
        began = time.perf_counter()
        for _ in range(panels):
            flat.take(index).sum(axis=1, dtype=np.int64)
        best = min(best, time.perf_counter() - began)
    return panels * index.size / best


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(tracer: Tracer, units: float, *, counts: dict,
                      setup: dict, samples: dict,
                      overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``counts`` are the library counters summed over the traced operations,
    ``setup`` the set-up phase's LUT figures and ``samples`` the
    benchmark's own boundary measurements (generator lateness).
    """
    spans = tracer.spans
    per_unit = 1.0 / units if units else 0.0
    selfs = self_times(spans)
    metrics = {name: selfs.get(span, 0.0) * per_unit
               for name, span in SELF_TIMES.items()}

    gemm = [s for s in spans if s.name == "conv.lut_matmul"]
    gemm_self = span_self_times(spans)
    macs = sum(s.attrs["macs"] for s in gemm)
    metrics["conv.lut_matmul.macs"] = macs * per_unit
    total_self = sum(gemm_self[s.id] for s in gemm)
    metrics["conv.lut_matmul.macs_per_s"] = (
        macs / total_self if total_self else 0.0)
    for shape in SHAPES:
        at = [s for s in gemm if s.attrs["shape"] == shape]
        seconds = sum(gemm_self[s.id] for s in at)
        rate = sum(s.attrs["macs"] for s in at) / seconds if seconds else 0.0
        metrics[f"conv.lut_matmul.macs_per_s.{shape}"] = rate
        fraction = 0.0
        if rate:
            lut = LookupTable.from_multiplier(
                library.create(at[0].attrs["lut"]))
            dims = tuple(int(d) for d in shape.split("x"))
            fraction = rate / roofline_macs_per_s(lut, dims)
        metrics[f"conv.lut_matmul.roofline_fraction.{shape}"] = fraction

    metrics["conv.lut_lookups"] = counts.get("lut_lookups", 0) * per_unit
    metrics["conv.chunks"] = counts.get("chunks", 0) * per_unit
    hits, misses = counts.get("filter_hits", 0), counts.get("filter_misses", 0)
    metrics["backends.filter_cache.hits"] = hits * per_unit
    metrics["backends.filter_cache.misses"] = misses * per_unit
    metrics["backends.filter_cache.invalidations"] = (
        counts.get("filter_invalidations", 0) * per_unit)
    metrics["backends.filter_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    metrics.update(setup)

    batches = [s for s in spans if s.name == "serve.batch"]
    sessions = [s for s in spans if s.name == "serve.session"]
    session_end = {s.parent: s.end for s in sessions}
    waits = tracer.samples.get("serve.queue_wait_ms", [])
    sizes = tracer.samples.get("serve.batch_samples", [])
    metrics["serve.queue_wait_ms.p50"] = _percentile(waits, 50)
    metrics["serve.queue_wait_ms.p99"] = _percentile(waits, 99)
    metrics["serve.batch_samples.mean"] = (
        statistics.fmean(sizes) if sizes else 0.0)
    metrics["serve.batches"] = float(len(batches))
    metrics["serve.session.busy_s"] = (
        sum(s.duration for s in sessions) * per_unit)
    metrics["serve.demux_ms.p50"] = _percentile(
        [(b.end - session_end[b.id]) * 1e3 for b in batches
         if b.id in session_end], 50)
    metrics["serve.generator_late_ms.max"] = max(
        samples.get("serve.generator_late_ms", [0.0]))

    other, share = coverage(spans, ROOTS)
    metrics["trace.coverage"] = share
    metrics["trace.other_s"] = other * per_unit
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics

