"""Tests of the error-table factorisation and the LUT-GEMM kernel choice.

The low-rank kernel is exact only because its factors are *proven*:
``det * E == U @ V.T`` in integer arithmetic, for the error table ``E`` of
the multiplier.  These tests pin the rank of every library multiplier (the
table ``docs/ARCHITECTURE.md`` prints), re-check the identity, show that
tables without the structure are refused, and fix the decisions of
:func:`repro.conv.gemm.gemm_kernel`, the one place the kernel is chosen.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.conv import gemm
from repro.lut import LookupTable
from repro.lut import lowrank
from repro.lut.lowrank import MAX_BITS, factor_error_table
from repro.multipliers import library

#: Error rank of every library multiplier; None where the table has no
#: proven factors of rank <= 32.  Taken before any test can register more.
LIBRARY = library.available()
RANKS = {
    "mul8s_bam_v5": 5, "mul8s_drum4": 2, "mul8s_exact": 0,
    "mul8s_mitchell": None, "mul8s_noise64": None, "mul8s_ptrunc4": 11,
    "mul8s_trunc2": 2, "mul8s_udm": 1,
    "mul8u_bam_h2v4": 3, "mul8u_bam_v4": 4, "mul8u_bam_v6": 6,
    "mul8u_bitflip_hi": None, "mul8u_bitflip_lo": None,
    "mul8u_drum3": 2, "mul8u_drum4": 2, "mul8u_drum6": 2, "mul8u_exact": 0,
    "mul8u_loa4": 11, "mul8u_loa6": None, "mul8u_loa8": None,
    "mul8u_mitchell": None, "mul8u_mitchell_it1": 1,
    "mul8u_noise256": None, "mul8u_noise64": None,
    "mul8u_ptrunc4": 11, "mul8u_ptrunc6": None, "mul8u_ptrunc6c": None,
    "mul8u_trunc1": 2, "mul8u_trunc2": 2, "mul8u_trunc3": 2,
    "mul8u_udm": 1,
}

GATHER = gemm._gather_kernel()[0]


def _lut(name: str) -> LookupTable:
    return LookupTable.from_multiplier(library.create(name))


class TestFactors:
    def test_rank_table_covers_the_library(self):
        assert sorted(RANKS) == LIBRARY

    @pytest.mark.parametrize("name", sorted(RANKS))
    def test_rank_and_identity(self, name):
        """The documented rank, and ``det * E == U @ V.T`` in int64."""
        lut = _lut(name)
        factors = lut.error_factors()
        if RANKS[name] is None:
            assert factors is None
            return
        assert factors.rank == RANKS[name]
        assert factors.u.dtype == factors.v.dtype == np.int64
        assert factors.det != 0
        error = lut.error_versus_exact()
        # No int64 product below can overflow.
        assert factors.rank * factors.u_max * factors.v_max < 2**63
        assert abs(factors.det) * int(np.abs(error).max()) < 2**63
        np.testing.assert_array_equal(factors.u @ factors.v.T,
                                      factors.det * error)

    def test_random_error_table_has_no_factors(self, monkeypatch):
        """A registered table whose errors are noise is full rank."""
        monkeypatch.setattr(library, "_FACTORIES", dict(library._FACTORIES))
        ops = np.arange(256, dtype=np.int64)
        noise = np.random.default_rng(3).integers(0, 64, size=(256, 256))
        table = np.clip(np.multiply.outer(ops, ops) + noise, 0, 65535)
        library.register_table("test_random_error", table)
        lut = _lut("test_random_error")
        assert lut.error_factors() is None
        assert gemm.gemm_kernel(lut, 144) == GATHER

    def test_12bit_table_factors_or_refuses(self):
        """Wide tables are refused without building the error table."""
        n = 1 << 12
        ops = np.arange(n, dtype=np.int32)
        lut = LookupTable(np.multiply.outer(ops, ops), bit_width=12,
                          name="mul12u_exact")
        assert 12 > MAX_BITS
        assert lut.error_factors() is None
        assert gemm.gemm_kernel(lut, 27) == GATHER

    def test_10bit_truncated_table_factors_and_matches_naive(self):
        """At the widest factored width, a truncated-operand table has
        rank 1 and the low-rank kernel reproduces the gather."""
        n = 1 << MAX_BITS
        ops = np.arange(n, dtype=np.int64)
        lut = LookupTable(np.multiply.outer(ops & ~3, ops), bit_width=MAX_BITS,
                          name="mul10u_trunc2")
        assert lut.error_factors().rank == 1
        rng = np.random.default_rng(10)
        patches = rng.integers(0, n, size=(21, 40))
        filters = rng.integers(0, n, size=(40, 9))
        np.testing.assert_array_equal(
            gemm.lut_matmul_lowrank(patches, filters, lut),
            gemm.lut_matmul_naive(patches, filters, lut))

    def test_threads_first_touching_one_table_share_its_factors(self):
        """Concurrent first calls factor once and see the same factors."""
        lut = _lut("mul8s_bam_v5")
        workers = 6
        barrier = threading.Barrier(workers)
        seen = [None] * workers

        def touch(slot):
            barrier.wait(timeout=30)
            seen[slot] = lut.error_factors()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(factors is seen[0] for factors in seen)
        fresh = _lut("mul8s_bam_v5").error_factors()
        np.testing.assert_array_equal(seen[0].u, fresh.u)
        np.testing.assert_array_equal(seen[0].v, fresh.v)
        assert seen[0].det == fresh.det


class TestKernelChoice:
    """The decisions of the kernel choice."""

    @pytest.mark.parametrize("name,depth,kernel", [
        ("mul8s_mitchell", 144, GATHER),    # no factors
        ("mul8u_ptrunc6", 27, GATHER),      # no factors of rank <= 32
        ("mul8s_drum4", 144, "lowrank"),    # rank 2
        ("mul8u_loa4", 144, "lowrank"),     # rank 11
        ("mul8u_loa4", 40000, GATHER),      # 2**53 bound
        ("mul8s_exact", 576, "lowrank"),    # rank 0: one exact GEMM
    ])
    def test_gemm_kernel(self, name, depth, kernel):
        assert gemm.gemm_kernel(_lut(name), depth) == kernel

    @pytest.mark.parametrize("name,kernel", [
        ("mul8s_mitchell", GATHER), ("mul8s_drum4", "lowrank")])
    def test_lut_matmul_runs_the_chosen_kernel(self, monkeypatch, name,
                                               kernel):
        """lut_matmul calls the kernel gemm_kernel names, and no other."""
        lut = _lut(name)
        monkeypatch.setattr(gemm, "_lowrank_product",
                            lambda *args, **kwargs: "lowrank")
        monkeypatch.setattr(
            gemm, "_gather_kernel",
            lambda: (GATHER, lambda *args, **kwargs: GATHER))
        patches = np.zeros((4, 144), dtype=np.int64)
        filters = np.zeros((144, 16), dtype=np.int64)
        assert gemm.lut_matmul(patches, filters, lut) == kernel


class TestExactArithmetic:
    def test_adjugate_of_a_random_integer_matrix(self):
        rng = np.random.default_rng(5)
        matrix = rng.integers(-50, 50, size=(6, 6)).tolist()
        det, adj = lowrank._adjugate(matrix)
        product = np.array(matrix, dtype=object) @ np.array(adj, dtype=object)
        assert det == round(np.linalg.det(np.array(matrix, dtype=float)))
        assert (product == det * np.eye(6, dtype=np.int64)).all()

    def test_adjugate_reports_the_first_vanishing_minor(self):
        assert lowrank._adjugate([[2, 1, 0], [4, 2, 1], [1, 1, 1]]) == (1, None)

    def test_noise_pivot_is_dropped(self, monkeypatch):
        """A float pivot whose exact minor is zero is cut, not trusted."""
        error = np.multiply.outer(np.arange(1, 9), np.arange(-4, 4))
        monkeypatch.setattr(lowrank, "_pivots",
                            lambda e: ([7, 3], [0, 5]))
        factors = factor_error_table(error)
        assert factors.rank == 1
        np.testing.assert_array_equal(factors.u @ factors.v.T,
                                      factors.det * error)

    def test_int64_overflow_of_the_check_is_refused(self):
        """A rank-1 table whose det * E would leave int64 has no factors."""
        column = np.array([1 << 20, 3, 5, 7], dtype=np.int64)
        assert factor_error_table(np.multiply.outer(column, column)) is None

    def test_pivot_below_the_float_tolerance_costs_a_refusal(self):
        """Float elimination misses a tiny genuine pivot: the integer check
        catches the incomplete factors instead of accepting them."""
        error = np.zeros((4, 4), dtype=np.int64)
        error[0, 0], error[2, 3] = 10**12, 1
        assert lowrank._pivots(error) == ([0], [0])
        assert factor_error_table(error) is None
