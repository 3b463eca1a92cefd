#!/usr/bin/env python3
"""Benchmark of the emulator: one workload per run, metrics as JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer_resnet20 --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a traced run that reports its per-layer metrics, writes
the spans to ``perfbench/out/<workload>-seed<n>.spans.json`` and a Chrome
trace (open it in Perfetto) next to it.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it list the same figures for people, with the
workload-specific names (``candidates_per_s``, ``steps_per_s``,
``requests_per_s``) and ``error_rate``.

End-to-end metrics, on every workload (host time).  Other tenants of a
shared host only ever slow the benchmark down, so throughput is taken from
the least-disturbed operation: the fastest whole operation of the run (a
search, a 4-step training episode, a serve replay).  A run holds only a
few infer batch forwards of several seconds each, so infer sums each graph
node's fastest compute time and the fastest remainder (the executor's own
work).  A run in which no untraced operation finished reports 0 and
``correct: false``:

``setup_s``
    Median over three fresh processes of the time from workload start
    (``import repro`` included) to the first timed operation.
``images_per_s``
    Images through the emulated network per second: forward passes
    (infer), candidate evaluations times 32 images (dse), training images
    (finetune) and single-sample requests of the saturated replay (serve).
``latency_p50_ms`` / ``latency_p90_ms``
    Serve: every request of the fixed-rate open loop, timed from when it
    was due.  Closed loops, in the fastest operation: the batch forward
    (infer), the whole search (dse), the training steps (finetune).  The serve p99 is printed too; on
    a shared host it moves with the worst stall of the run, so the steady
    p90 is the gated tail.
``peak_rss_mb``
    Peak resident set size of the measuring process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def timed_setup(name: str, seed: int, *, traced: bool = False):
    """Import the library, build the workload and set it up; time it all."""
    began = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, traced=traced)
    workload.setup()
    return workload, time.perf_counter() - began


def setup_in_fresh_process(args) -> float:
    """Set-up time of the workload in a new interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=150,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify(workload, m) -> bool:
    """Run the LUT-GEMM spot check; True when every check passed."""
    import layers

    try:
        verdicts = layers.gemm_spot_check(workload.check_pass)
    except Exception:  # noqa: BLE001 - reported as a failed check
        traceback.print_exc()
        verdicts = []
    if not verdicts or not all(verdicts):
        m.problems.append(
            f"lut_matmul spot check failed on {verdicts.count(False)} of "
            f"{len(verdicts)} conv layer calls")
    if m.problems:
        m.failed = m.attempted
    return not m.problems and m.failed == 0


def summary_lines(name: str, m, metrics: dict, units: dict) -> list[str]:
    """The run's figures for people, under the workload's own names."""
    rate_names = {"candidate": "candidates_per_s", "step": "steps_per_s",
                  "request": "requests_per_s"}
    best = m.fastest()
    lines = [f"{name}: {m.attempted} {m.unit}(s) attempted, {m.failed} "
             f"failed; {len(m.timings)} timed operations; "
             f"{len(m.latencies())} latency samples"]
    if best:
        lines.append(f"  least disturbed operation: {best.units} {m.unit}(s) "
                     f"in {best.seconds:.3f} s")
    lines += [f"  {key:<48} {value:.6g} {units[key]}"
              for key, value in metrics.items()]
    if best and m.unit in rate_names:
        lines.append(f"  {rate_names[m.unit]:<48} "
                     f"{best.units / best.seconds:.6g} 1/s")
    if m.latencies_s:
        p99 = statistics.quantiles(
            m.latencies_s, n=100, method="inclusive")[98] * 1e3
        lines.append(f"  {'latency_p99_ms':<48} {p99:.6g} ms")
    if m.counts:
        record = ", ".join(f"{k}={v}" for k, v in m.counts[0].items())
        lines.append(f"  simulated counts of each of the {len(m.counts)} "
                     f"operations (must repeat exactly): {record}")
    error_rate = m.failed / m.attempted if m.attempted else 1.0
    lines.append(f"  {'error_rate':<48} {error_rate:.6g} ratio")
    lines += [f"  problem: {problem}" for problem in m.problems]
    return lines


def end_to_end(args):
    samples = [setup_in_fresh_process(args)
               for _ in range(SETUP_SAMPLES - 1)]
    workload, seconds = timed_setup(args.workload, args.seed)
    samples.append(seconds)
    m = workload.measure(args.seconds)
    import numpy as np

    best, latencies = m.fastest(), m.latencies()
    if best is None or not latencies:
        m.problems.append("no untraced operation finished")
        best, latencies = None, [0.0]
    metrics = {
        "setup_s": statistics.median(samples),
        "images_per_s": best.images / best.seconds if best else 0.0,
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, workload, m


def traced(args):
    import layers
    from repro.backends import cache_stats
    from tracing import Tracer, self_times

    setup_tracer = layers.library_tracer(Tracer())
    before = cache_stats()["lut"]
    with setup_tracer.installed():
        workload, _ = timed_setup(args.workload, args.seed, traced=True)
    after = cache_stats()["lut"]
    builds = [s for s in setup_tracer.spans if s.name == "lut.build"]
    setup = {
        "lut.build.count": float(len(builds)),
        "lut.build.self_s": self_times(builds).get("lut.build", 0.0),
        "backends.lut_cache.hits": float(after.hits - before.hits),
        "backends.lut_cache.misses": float(after.misses - before.misses),
    }
    tracer = layers.library_tracer(Tracer())
    workload.trace_targets(tracer)
    m = workload.measure(args.seconds, tracer)
    counts = {key: sum(c[key] for c in m.layer_counts)
              for key in (m.layer_counts[0] if m.layer_counts else {})}
    units = m.layer_units
    metrics = layers.per_layer_metrics(
        tracer, units, counts=counts, setup=setup, samples=m.samples,
        overhead_ratio=m.overhead_ratio)

    out = CHECKOUT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_json(out / f"{stem}.spans.json", {
        "workload": args.workload, "seed": args.seed, "unit": m.unit,
        "traced_units": units, "counts": counts,
        "setup_spans": len(setup_tracer.spans)}, layers.ROOTS)
    tracer.write_chrome(out / f"{stem}.trace.json")
    return metrics, workload, m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no library sources under {CHECKOUT / 'src'}; run "
                     "from the root of a full checkout")
    sys.path.insert(0, str(CHECKOUT / "src"))
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    if args.setup_only:
        _, seconds = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    metrics, workload, m = (traced if args.trace else end_to_end)(args)
    correct = verify(workload, m)
    if set(metrics) != set(units):
        return _fail(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                     f"match the {kind} list of BENCHMARK.json")
    for line in summary_lines(args.workload, m, metrics, units):
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
