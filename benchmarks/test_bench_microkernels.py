"""Micro-benchmarks of the emulation hot paths.

These do not correspond to a specific paper artefact; they document where the
pure-Python emulation spends its time (quantisation, im2col, LUT GEMM) so the
Fig. 2 style attribution of the *host* implementation can be sanity-checked
against the analytical models.

The LUT-GEMM section follows tinygrad's benchmark discipline: instead of
comparing warm vs cold timings, each kernel's achieved MACs/s is asserted
against a *stated roofline* measured on this host.  One emulated MAC is one
table gather plus one integer add, so the roofline is the throughput of a
bare gather+reduce over pre-stitched indices on the bench shape -- the speed
the kernel would reach if index construction, blocking overhead and the
Python loop were free.  The JSON artefact records the roofline, each
kernel's absolute MACs/s and its fraction of the roofline, plus the
blocked-vs-naive speedup (>= 1.5x, asserted here and archived by CI).

The low-rank kernel does no per-MAC gather, so it has no place on the
gather roofline; it is measured against the blocked kernel on the same
rank-2 table (``mul8s_drum4``) at the bench shape instead, and the
lowrank-vs-blocked speedup is asserted (>= 2x).
"""

from __future__ import annotations

import importlib.util
import statistics
import time

import numpy as np
import pytest

from repro.conv import im2col_quantized
from repro.conv.gemm import (
    flat_index_dtype,
    lut_matmul_blocked,
    lut_matmul_lowrank,
    lut_matmul_naive,
)
from repro.lut import LookupTable
from repro.multipliers import library
from repro.quantization import compute_coeffs_from_tensor

#: Every LUT-GEMM kernel this environment can run; the numba kernel joins
#: when numba is importable.
KERNELS = {"naive": lut_matmul_naive, "blocked": lut_matmul_blocked}
if importlib.util.find_spec("numba") is not None:
    from repro.conv.gemm_numba import lut_matmul_numba

    KERNELS["numba"] = lut_matmul_numba

#: Bench shape: one im2col'd 3x3x16 layer chunk against 64 filters.
BENCH_P, BENCH_K, BENCH_F = 1024, 144, 64

#: Minimum fraction of the gather+reduce roofline each kernel must achieve
#: on the bench shape.  The blocked kernel pays only index stitching and the
#: panel loop on top of the roofline operation; the naive kernel additionally
#: materialises the full-depth int64 product tensor, which costs most of its
#: budget.  Floors sit well below the typically observed fractions
#: (blocked ~0.7, naive ~0.25 on dev-class hosts) to stay robust to noisy
#: shared runners while still catching order-of-magnitude regressions.
ROOFLINE_FLOORS = {"naive": 0.06, "blocked": 0.20, "numba": 0.20}

#: The tentpole claim, asserted on every run: median blocked MACs/s must be
#: at least this multiple of the naive kernel's.
MIN_BLOCKED_SPEEDUP = 1.5

#: Median low-rank MACs/s over blocked MACs/s on the rank-2 DRUM4 table
#: (typically 4-8x at the bench shape on a 2-core host).
MIN_LOWRANK_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def activations():
    rng = np.random.default_rng(5)
    return rng.normal(size=(8, 32, 32, 16))


@pytest.fixture(scope="module")
def gemm_case():
    rng = np.random.default_rng(9)
    patches = rng.integers(-128, 128, size=(BENCH_P, BENCH_K))
    weights = rng.integers(-128, 128, size=(BENCH_K, BENCH_F))
    return patches, weights


def _median_seconds(fn, *args, repeats=7, **kwargs):
    """Median wall time of ``fn`` after one untimed warmup call."""
    fn(*args, **kwargs)
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


@pytest.mark.benchmark(group="micro")
def test_quantize_batch(benchmark, activations):
    params = compute_coeffs_from_tensor(activations)
    out = benchmark(params.quantize, activations)
    assert out.min() >= -128 and out.max() <= 127


@pytest.mark.benchmark(group="micro")
def test_dequantize_batch(benchmark, activations):
    params = compute_coeffs_from_tensor(activations)
    quantized = params.quantize(activations)
    out = benchmark(params.dequantize, quantized)
    assert out.shape == activations.shape


@pytest.mark.benchmark(group="micro")
def test_im2col_quantized(benchmark, activations):
    params = compute_coeffs_from_tensor(activations)
    patches, sums, _ = benchmark(im2col_quantized, activations, 3, 3, params)
    assert patches.shape[1] == 9 * 16
    assert sums.shape[0] == patches.shape[0]


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("kernel", ["naive", "blocked"])
def test_lut_gemm(benchmark, exact_lut, gemm_case, kernel):
    patches, weights = gemm_case
    acc = benchmark(KERNELS[kernel], patches, weights, exact_lut)
    assert acc.shape == (BENCH_P, BENCH_F)


def _roofline_macs_per_s(lut, patches, weights,
                         panel_rows=128, panel_k=48):
    """Measured peak: a bare gather+reduce over one pre-stitched panel.

    This is the kernel's irreducible work on this host -- one table fetch
    and one add per MAC -- with everything else already paid: the stitched
    index for a single cache-resident ``[panel_rows, panel_k, F]`` panel is
    built once, and the measurement replays gather+reduce over that panel as
    many times as the kernels walk panels of the bench shape.  Index
    construction, accumulation across panels and loop overhead are free
    here, so no real kernel can exceed this rate.
    """
    idx_dtype = flat_index_dtype(lut.bit_width)
    mask = (1 << lut.bit_width) - 1
    pbits = ((patches[:panel_rows] & mask) << lut.bit_width).astype(idx_dtype)
    fbits = (weights[:panel_k] & mask).astype(idx_dtype)
    idx = pbits[:, :panel_k, None] | fbits[None, :, :]
    flat = lut.flat
    panels = -(-patches.shape[0] // panel_rows) * -(-patches.shape[1] // panel_k)

    def gather_reduce():
        for _ in range(panels):
            flat.take(idx).sum(axis=1, dtype=np.int64)

    macs = panels * idx.size
    return macs / _median_seconds(gather_reduce)


def test_lut_gemm_roofline(exact_lut, gemm_case, bench_json):
    """Roofline-anchored LUT-GEMM throughput (emulated MACs per second).

    Timed by hand (medians over repeats) rather than through the
    ``benchmark`` fixture so the numbers are still produced and asserted
    under ``--benchmark-disable``, which is how the CI smoke job runs.
    """
    patches, weights = gemm_case
    macs = BENCH_P * BENCH_K * BENCH_F
    roofline = _roofline_macs_per_s(exact_lut, patches, weights)

    payload = {
        "lut_gemm_macs": macs,
        "roofline_macs_per_s": roofline,
    }
    achieved = {}
    for kernel, run in KERNELS.items():
        median = _median_seconds(run, patches, weights, exact_lut)
        achieved[kernel] = macs / median
        payload[f"{kernel}_median_seconds"] = median
        payload[f"{kernel}_macs_per_s"] = achieved[kernel]
        payload[f"{kernel}_roofline_fraction"] = achieved[kernel] / roofline

    speedup = achieved["blocked"] / achieved["naive"]
    payload["blocked_vs_naive_speedup"] = speedup

    drum4 = LookupTable.from_multiplier(library.create("mul8s_drum4"))
    drum4_seconds = {
        name: _median_seconds(run, patches, weights, drum4)
        for name, run in (("blocked", lut_matmul_blocked),
                          ("lowrank", lut_matmul_lowrank))}
    lowrank_speedup = drum4_seconds["blocked"] / drum4_seconds["lowrank"]
    payload["drum4_blocked_median_seconds"] = drum4_seconds["blocked"]
    payload["lowrank_median_seconds"] = drum4_seconds["lowrank"]
    payload["lowrank_macs_per_s"] = macs / drum4_seconds["lowrank"]
    payload["lowrank_vs_blocked_speedup"] = lowrank_speedup
    # Compatibility keys: the trajectory numbers earlier PRs archived,
    # continued by the default kernel's figures.
    payload["lut_gemm_macs_per_s"] = achieved["blocked"]
    payload["lut_gemm_median_seconds"] = payload["blocked_median_seconds"]
    bench_json("microkernels", payload)

    for kernel, floor in ROOFLINE_FLOORS.items():
        if kernel not in achieved:
            continue
        fraction = achieved[kernel] / roofline
        assert fraction >= floor, (
            f"{kernel} kernel reached {achieved[kernel]:.3e} MACs/s = "
            f"{fraction:.2f} of the {roofline:.3e} MACs/s roofline "
            f"(floor: {floor})"
        )
    assert speedup >= MIN_BLOCKED_SPEEDUP, (
        f"blocked kernel is only {speedup:.2f}x the naive kernel "
        f"(required: {MIN_BLOCKED_SPEEDUP}x)"
    )
    assert lowrank_speedup >= MIN_LOWRANK_SPEEDUP, (
        f"lowrank kernel is only {lowrank_speedup:.2f}x the blocked kernel "
        f"on mul8s_drum4 (required: {MIN_LOWRANK_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="micro")
def test_float_gemm_reference(benchmark, gemm_case):
    """The accurate float GEMM the LUT path is compared against."""
    patches, weights = gemm_case
    out = benchmark(np.matmul,
                    patches.astype(np.float64), weights.astype(np.float64))
    assert out.shape == (BENCH_P, BENCH_F)
