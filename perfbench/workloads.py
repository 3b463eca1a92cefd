"""The four benchmark workloads, driven through the library's public API.

Every workload builds its inputs from the ``--seed`` it is given and
exposes three steps: :meth:`setup` (model build, graph transform, LUT
builds, calibration and warm-up: everything before the first timed
operation), :meth:`measure` (the timed phase) and :meth:`check_pass` (one
small untimed run the LUT-GEMM spot check rides on).

Three workloads are closed loops with one caller: ``infer_resnet20`` (op =
one batch-32 forward pass), ``dse_resnet8`` (op = one NSGA-II search of 8
candidates) and ``finetune_resnet8`` (op = an episode of 4 SGD steps from the
same initial weights).  Their operations repeat exactly, so each op's output
and its simulated counts (MACs, LUT lookups, chunks, cache hits, misses and
invalidations) must equal the first op's.  ``serve_simple_cnn`` sends
single-sample requests at a fixed rate (open loop), then replays a fixed
trace offline, as fast as the service drains it.
"""

from __future__ import annotations

import functools
import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import dse
from repro.backends import DEFAULT_LUT_CACHE, cache_stats
from repro.datasets import generate_cifar_like, normalize
from repro.graph import (
    Executor,
    approximate_graph_layerwise,
    freeze_ranges,
    uniform_assignment,
)
from repro.models import build_resnet, build_simple_cnn, calibrate_classifier
from repro.serve import EmulationService, ServiceConfig, TraceRequest
from repro.train import SGD, Trainer, trainable_constants

from layers import OP_SPAN


@dataclass
class Timing:
    """One timed operation: its work, output, simulated counts and times.

    ``latencies_s`` are the operation's unit latencies (the steps of a
    training episode); ``seconds`` and ``traced`` are set by the loop that
    timed the operation.  ``parts`` split ``seconds`` into identically
    repeated pieces of work (see :meth:`Measurement.fastest`).
    """

    units: int
    images: int
    output: object = None
    counts: dict = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    seconds: float = 0.0
    traced: bool = False
    parts: dict[str, float] = field(default_factory=dict)


@dataclass
class Measurement:
    """What one timed phase did.

    ``attempted``/``failed`` count workload units (batches, candidates,
    steps or requests); ``problems`` lists failed checks that make the
    whole run untrustworthy.
    """

    unit: str
    attempted: int = 0
    failed: int = 0
    timings: list[Timing] = field(default_factory=list)
    #: Request latencies of an open loop (empty for closed loops).
    latencies_s: list[float] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Units and library counters of the traced operations.
    layer_units: int = 0
    layer_counts: list[dict] = field(default_factory=list)

    def fastest(self) -> Timing | None:
        """The least-disturbed untraced operation; None if none finished.

        Other tenants of a shared host only ever slow an operation down, so
        the operation with the highest image rate is the best estimate of
        the undisturbed speed.  Operations split into ``parts`` (the batch
        forward of infer, of which a run holds only a few) yield the sum of
        each part's fastest time instead, which also finds the undisturbed
        stretches of a long operation.
        """
        timings = [t for t in self.timings if not t.traced]
        if timings and timings[0].parts:
            seconds = sum(min(t.parts[name] for t in timings)
                          for name in timings[0].parts)
            return Timing(timings[0].units, timings[0].images,
                          latencies_s=[seconds], seconds=seconds)
        return max(timings, key=lambda t: t.images / t.seconds, default=None)

    def latencies(self) -> list[float]:
        """Open-loop request latencies, else the fastest op's units'."""
        if self.latencies_s:
            return self.latencies_s
        best = self.fastest()
        return best.latencies_s if best else []

    @property
    def overhead_ratio(self) -> float:
        """Traced over untraced time per unit, minus one."""
        def per_unit(traced: bool) -> float:
            chosen = [t for t in self.timings if t.traced == traced]
            units = sum(t.units for t in chosen)
            return sum(t.seconds for t in chosen) / units if units else 0.0

        untraced = per_unit(False)
        return per_unit(True) / untraced - 1.0 if untraced else 0.0


def _counts(ax_nodes) -> dict:
    """Library counters: conv-layer operation counts and cache counters."""
    caches = cache_stats()
    return {
        "macs": sum(node.stats.macs for node in ax_nodes),
        "lut_lookups": sum(node.stats.lut_lookups for node in ax_nodes),
        "chunks": sum(node.stats.chunks for node in ax_nodes),
        "filter_hits": caches["filters"].hits,
        "filter_misses": caches["filters"].misses,
        "filter_invalidations": caches["filters"].invalidations,
        "lut_hits": caches["lut"].hits,
        "lut_misses": caches["lut"].misses,
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


class Workload:
    """A named workload built from one seed."""

    name = ""
    unit = ""

    def __init__(self, seed: int, *, traced: bool = False) -> None:
        self.seed = seed
        self.traced = traced

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Measurement:
        raise NotImplementedError

    def check_pass(self) -> None:
        raise NotImplementedError

    def trace_targets(self, tracer) -> None:
        """Register workload-specific spans (none by default)."""


class ClosedLoop(Workload):
    """One caller issuing repeatable operations back to back."""

    def run_op(self) -> Timing:
        raise NotImplementedError

    def failed_units(self, first: Timing, result: Timing) -> int:
        """Units of ``result`` whose output differs from the first op's."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Measurement:
        """Run operations for ``seconds`` (at least two).

        With a tracer, every second operation runs traced, so the traced and
        untraced time per unit of the same run give the tracing overhead.
        """
        m = Measurement(unit=self.unit)
        first: Timing | None = None
        start = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - start < seconds:
            traced = tracer is not None and index % 2 == 1
            index += 1
            began = time.perf_counter()
            try:
                if traced:
                    with tracer.installed(), tracer.span(OP_SPAN):
                        result = self.run_op()
                else:
                    result = self.run_op()
            except Exception:  # noqa: BLE001 - a failed op is counted
                traceback.print_exc()
                m.problems.append(f"operation {index} raised")
                m.attempted += 1
                m.failed += 1
                continue
            result.seconds = time.perf_counter() - began
            result.traced = traced
            if result.parts:
                result.parts["rest"] = result.seconds - sum(
                    result.parts.values())
            result.latencies_s = result.latencies_s or [result.seconds]
            m.timings.append(result)
            m.attempted += result.units
            m.counts.append(result.counts)
            if traced:
                m.layer_units += result.units
                m.layer_counts.append(result.counts)
            first = first or result
            m.failed += self.failed_units(first, result)
        if any(counts != m.counts[0] for counts in m.counts[1:]):
            m.problems.append("simulated counts differ between operations")
        return m


class InferResNet20(ClosedLoop):
    """ResNet-20, 32x32 inputs, batch 32, uniform mul8s_mitchell."""

    name = "infer_resnet20"
    unit = "batch"
    BATCH = 32

    def setup(self) -> None:
        self.model = build_resnet(20, input_size=32, seed=0)
        calibrate_classifier(self.model, generate_cifar_like(
            self.BATCH, seed=self.seed + 1, image_size=32))
        approximate_graph_layerwise(self.model.graph, uniform_assignment(
            self.model.graph, "mul8s_mitchell"))
        self.ax = self.model.graph.nodes_by_type("AxConv2D")
        self.executor = Executor(self.model.graph, profile=True)
        self.feed = normalize(generate_cifar_like(
            self.BATCH, seed=self.seed, image_size=32).images)
        # Warm the caches: filter banks do not depend on the batch size.
        self._forward(self.feed[:1])

    def _forward(self, feed):
        return self.executor.run(self.model.logits,
                                 {self.model.input_node: feed})

    def run_op(self) -> Timing:
        """One batch forward; its parts are the graph nodes' compute times.

        What the nodes do not cover (the executor's own work, the counters
        read here) is the part ``rest``, so the parts add up to the whole
        operation.
        """
        before = _counts(self.ax)
        node_seconds = dict(self.executor.profile.node_seconds)
        logits = self._forward(self.feed)
        parts = _delta(self.executor.profile.node_seconds, node_seconds)
        return Timing(units=1, images=self.BATCH, output=logits,
                      counts=_delta(_counts(self.ax), before), parts=parts)

    def failed_units(self, first, result) -> int:
        return 0 if np.array_equal(first.output, result.output) else 1

    def check_pass(self) -> None:
        self._forward(self.feed[:2])


class DseResNet8(ClosedLoop):
    """NSGA-II over per-layer multipliers of ResNet-8 at 16x16."""

    name = "dse_resnet8"
    unit = "candidate"
    CATALOGUE = ["mul8s_exact", "mul8s_udm", "mul8s_drum4", "mul8s_trunc2",
                 "mul8s_bam_v5"]
    BUDGET = 8
    IMAGES = 32

    def setup(self) -> None:
        calibration = generate_cifar_like(
            100, seed=self.seed + 1, image_size=16, noise=0.4)
        self.dataset = generate_cifar_like(
            self.IMAGES, seed=self.seed, image_size=16, noise=0.4)
        self.builder = dse.make_calibrated_builder(
            functools.partial(build_resnet, 8, input_size=16, seed=0),
            calibration)
        self.space = dse.SearchSpace.for_model(self.builder(), self.CATALOGUE)
        for name in self.CATALOGUE:
            DEFAULT_LUT_CACHE.resolve(name)
        # Warm the filter-bank cache: banks do not depend on the multiplier.
        self._evaluator(self.dataset.subset(1)).score_assignment(
            {layer: "mul8s_exact" for layer in self.space.layers})

    def build_model(self):
        """Model build of one candidate (traced as ``dse.build_model``)."""
        return self.builder()

    def trace_targets(self, tracer) -> None:
        tracer.wrap(DseResNet8, "build_model", "dse.build_model")

    def _evaluator(self, dataset) -> dse.Evaluator:
        return dse.Evaluator(self.space, self.build_model, dataset)

    def run_op(self) -> Timing:
        report = dse.search(
            self.build_model, self.dataset, catalogue=self.CATALOGUE,
            strategy="nsga2",
            strategy_params={"population": 4, "generations": 8},
            budget=self.BUDGET, seed=self.seed, batch_size=self.IMAGES)
        stats = report.run_report.stats
        counts = {"macs": stats.macs, "lut_lookups": stats.lut_lookups,
                  "chunks": stats.chunks}
        for prefix, cache in (("filter", report.filter_cache),
                              ("lut", report.lut_cache)):
            counts.update({f"{prefix}_hits": cache.hits,
                           f"{prefix}_misses": cache.misses,
                           f"{prefix}_invalidations": cache.invalidations})
        return Timing(units=report.evaluations,
                      images=report.evaluations * self.IMAGES,
                      output=report.front.to_json(), counts=counts)

    def failed_units(self, first, result) -> int:
        return 0 if result.output == first.output else result.units

    def check_pass(self) -> None:
        mixed = {layer: self.CATALOGUE[i % len(self.CATALOGUE)]
                 for i, layer in enumerate(self.space.layers)}
        self._evaluator(self.dataset.subset(2)).score_assignment(mixed)


class FinetuneResNet8(ClosedLoop):
    """Full-trunk SGD fine-tuning of ResNet-8 (16x16) with mul8s_mitchell."""

    name = "finetune_resnet8"
    unit = "step"
    BATCH = 16
    STEPS = 4

    def setup(self) -> None:
        self.model = build_resnet(8, input_size=16, seed=0)
        calibrate_classifier(self.model, generate_cifar_like(
            64, seed=self.seed + 1, image_size=16, noise=0.4))
        approximate_graph_layerwise(self.model.graph, uniform_assignment(
            self.model.graph, "mul8s_mitchell"))
        self.ax = self.model.graph.nodes_by_type("AxConv2D")
        self.params = trainable_constants(self.model.graph, self.model.logits)
        self.initial = [param.value.copy() for param in self.params]
        self.data = generate_cifar_like(
            self.BATCH * self.STEPS, seed=self.seed, image_size=16, noise=0.4)
        self._episode(1)

    def _episode(self, steps: int):
        for param, value in zip(self.params, self.initial):
            param.set_value(value)
        trainer = Trainer(
            self.model, SGD(self.params, lr=0.001, momentum=0.9),
            batch_size=self.BATCH, seed=self.seed, grad_clip_norm=1.0)
        losses, latencies = [], []
        for step in range(steps):
            batch = slice(step * self.BATCH, (step + 1) * self.BATCH)
            began = time.perf_counter()
            loss, _ = trainer.train_step(
                self.data.images[batch], self.data.labels[batch])
            latencies.append(time.perf_counter() - began)
            losses.append(loss)
        return losses, latencies

    def run_op(self) -> Timing:
        before = _counts(self.ax)
        losses, latencies = self._episode(self.STEPS)
        return Timing(units=self.STEPS, images=self.STEPS * self.BATCH,
                      output=losses, counts=_delta(_counts(self.ax), before),
                      latencies_s=latencies)

    def failed_units(self, first, result) -> int:
        return sum(
            1 for mine, theirs in zip(result.output, first.output)
            if not math.isfinite(mine) or mine != theirs)

    def check_pass(self) -> None:
        Executor(self.model.graph).run(
            self.model.logits,
            {self.model.input_node: normalize(self.data.images[:2])})


class ServeSimpleCNN(Workload):
    """Single-sample requests to EmulationService at a fixed rate, and replays.

    Requests cycle over four configurations; their inputs are drawn from a
    pool of 64 seeded samples, so every response can be compared with an
    unbatched ``ModelSession.run`` of the same sample.
    """

    name = "serve_simple_cnn"
    unit = "request"
    MODEL = "simple_cnn"
    CONFIGS = ("mul8s_exact", "mul8s_mitchell", "mul8s_drum4", "mul8s_trunc2")
    RATE = 50.0             #: fixed arrival rate of the open loop, requests/s
    OPEN_SHARE = 0.7        #: share of ``--seconds`` in the fixed-rate loop
    #: Offline replays, run back to back after the fixed-rate loop; the
    #: fastest is reported.  The first replay after the mostly idle loop
    #: runs up to a third slower than the next ones, and a replay of 150
    #: requests varied twofold, so each replay is long (~1 s) and there are
    #: several.
    REPLAYS = 6
    REPLAY_REQUESTS = 600
    POOL = 64
    SHAPE = (16, 16, 3)
    CONFIG = ServiceConfig(max_batch_samples=16, max_delay_s=0.005, workers=2)

    def _service(self) -> EmulationService:
        service = EmulationService(self.CONFIG)
        service.register_model(self.MODEL, functools.partial(
            build_simple_cnn, input_size=16, seed=0))
        service.warmup(self.MODEL, list(self.CONFIGS))
        return service

    def setup(self) -> None:
        self.pool_seeds = [self.seed * 1_000_003 + k for k in range(self.POOL)]
        self.picks = np.random.default_rng(self.seed).integers(
            self.POOL, size=100_000)
        self.pool = np.concatenate([
            TraceRequest(self.MODEL, seed=s).materialize(self.SHAPE)
            for s in self.pool_seeds])
        self.live = self._service()
        # One fresh service per replay (a stopped service cannot restart);
        # the traced run adds a traced replay for the tracing overhead.
        self.offline = [self._service()
                        for _ in range(self.REPLAYS + self.traced)]

    def _request(self, index: int) -> tuple[int, str]:
        return int(self.picks[index]), self.CONFIGS[index % len(self.CONFIGS)]

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement(unit=self.unit)
        count = max(1, round(self.RATE * seconds * self.OPEN_SHARE))
        before = _counts([])
        self.live.start()
        try:
            with tracer.installed() if tracer else nullcontext():
                served = self._open_loop(m, range(count))
        finally:
            self.live.stop()
        counts = _delta(_counts([]), before)
        replayed = []
        for service in self.offline[:self.REPLAYS]:
            wall, responses = self._replay(service, m)
            m.timings.append(Timing(len(responses), len(responses),
                                    seconds=wall))
            replayed += responses
        if tracer is not None:
            with tracer.fresh().installed():
                wall, responses = self._replay(self.offline[-1], m)
            m.timings.append(Timing(len(responses), len(responses),
                                    seconds=wall, traced=True))
        for key in ("macs", "lut_lookups", "chunks"):
            counts[key] = sum(getattr(result.report.stats, key)
                              for _, _, result in served)
        m.layer_units, m.layer_counts = count, [counts]
        m.attempted = count + self.REPLAY_REQUESTS * len(self.offline)
        m.failed += self._check_responses(served + replayed, m)
        return m

    def _collect(self, records, m: Measurement):
        """Wait for every handle; returns ``(index, outputs, result)``."""
        responses = []
        for index, handle in records:
            try:
                result = handle.result(timeout=30.0)
            except Exception:  # noqa: BLE001 - counted as failed
                traceback.print_exc()
                m.failed += 1
                continue
            responses.append((index, result.outputs, result))
        return responses

    def _submit(self, service, index: int):
        pick, config = self._request(index)
        return service.submit(self.MODEL, self.pool[pick:pick + 1], config)

    def _open_loop(self, m: Measurement, indices: range):
        """Send requests ``indices`` at :attr:`RATE`, timed from their due."""
        records, returned_at = [], {}
        late = m.samples.setdefault("serve.generator_late_ms", [])
        origin = time.perf_counter() + 0.01
        for index in indices:
            due = origin + (index - indices.start) / self.RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(max(time.perf_counter() - due, 0.0) * 1e3)
            try:
                records.append((index, self._submit(self.live, index)))
            except Exception:  # noqa: BLE001 - a refused request counts
                traceback.print_exc()
                m.failed += 1
            returned_at[index] = time.perf_counter() - due
        responses = self._collect(records, m)
        for index, _, result in responses:
            # The service times a request from inside submit(), so its
            # completion lies at most ``latency_s`` after submit() returned:
            # this over-counts by at most the tail of the submit call.
            m.latencies_s.append(returned_at[index] + result.latency_s)
        return responses

    def _replay(self, service, m: Measurement):
        """Offline replay: enqueue the fixed trace, then start the workers.

        The same procedure as ``EmulationService.replay``, spelled out with
        ``submit``/``start`` so that every response can be checked.
        """
        records = []
        try:
            began = time.perf_counter()
            for index in range(self.REPLAY_REQUESTS):
                try:
                    records.append((index, self._submit(service, index)))
                except Exception:  # noqa: BLE001 - a refused request counts
                    traceback.print_exc()
                    m.failed += 1
            service.start()
            responses = self._collect(records, m)
            wall = time.perf_counter() - began
        finally:
            service.stop()
        return wall, responses

    def _check_responses(self, responses, m: Measurement) -> int:
        """Responses that differ from an unbatched ``ModelSession.run``.

        Batch composition only changes the summation order of the float
        dense layer (every conv output is computed per sample from frozen
        ranges), so a response may differ from the unbatched run by at most
        the classic bound for two orderings of a K-term dot product,
        ``2 * gamma_K * sum_k |x_k w_k|`` with ``gamma_K = K u / (1 - K u)``
        and ``u = 2**-53`` (Higham, Accuracy and Stability of Numerical
        Algorithms, Sec. 3.1).
        """
        references: dict[tuple[int, str], np.ndarray] = {}
        bounds: dict[str, np.ndarray] = {}
        failed = 0
        worst = 0.0
        for index, outputs, _ in responses:
            pick, config = self._request(index)
            if config not in bounds:
                bounds[config] = self._dense_bounds(config)
            if (pick, config) not in references:
                session = self.live.session(self.MODEL, config)
                references[pick, config], _ = session.run(
                    self.pool[pick:pick + 1])
            error = np.abs(outputs - references[pick, config])
            bound = bounds[config][pick]
            worst = max(worst, float(np.max(error / bound)))
            failed += int(np.any(error > bound))
        print(f"serve: {len(responses)} responses checked against unbatched "
              f"runs; worst deviation {worst:.3g} of the reordering bound")
        return failed

    def _dense_bounds(self, config: str) -> np.ndarray:
        """Per-sample, per-logit reordering bound of the dense layer."""
        session = self.live.session(self.MODEL, config)
        spec = session.spec
        model = spec.builder()
        approximate_graph_layerwise(
            model.graph, dict(session.assignment),
            round_mode=session.round_mode, chunk_size=session.chunk_size)
        freeze_ranges(model.graph,
                      {model.input_node: normalize(spec.calibration)},
                      margin=session.range_margin)
        features = Executor(model.graph).run(
            model.feature_node, {model.input_node: normalize(self.pool)})
        weights = model.classifier_weights.value
        depth = weights.shape[0]
        gamma = depth * 2.0**-53 / (1 - depth * 2.0**-53)
        return 2 * gamma * (np.abs(features.reshape(self.POOL, -1))
                            @ np.abs(weights))

    def check_pass(self) -> None:
        for config in self.CONFIGS:
            self.live.session(self.MODEL, config).run(self.pool[:1])


WORKLOADS = {cls.name: cls for cls in (
    InferResNet20, DseResNet8, FinetuneResNet8, ServeSimpleCNN)}
