"""Exact integer low-rank factors of a multiplier's error table.

A multiplier table ``L`` differs from the exact product by its error table
``E[a, w] = L[a, w] - a*w``.  For the truncation and broken-array families
(trunc, DRUM, UDM, BAM, LOA4, ...) ``E`` has small rank, so every LUT sum
splits into an exact GEMM plus a rank-``r`` correction::

    sum_k L[a_k, w_k] = sum_k a_k*w_k + (1/det) * sum_k sum_r U[a_k, r] * V[w_k, r]

which :func:`repro.conv.gemm.lut_matmul_lowrank` evaluates with BLAS
instead of one table gather per MAC.  :func:`factor_error_table` finds the
integer factors ``U``, ``V`` and the integer ``det`` and *proves* them:

1. complete-pivot Gaussian elimination on ``E`` in float64 picks the pivot
   rows ``I`` and columns ``J`` (the skeleton of ``E``);
2. with ``M = E[I, J]``, fraction-free Gauss-Jordan elimination in Python
   integers gives ``det`` and ``adj`` with ``M @ adj == det * Id`` exactly;
3. ``U = E[:, J] @ adj`` and ``V = E[I, :].T`` are integer matrices, and
   ``det * E == U @ V.T`` is checked entry by entry in int64, each product
   guarded against int64 overflow before it is formed.

Floating point only *chooses* the pivots; acceptance rests on the integer
identity of step 3, so a wrong pivot choice can only cost a refusal, never
a wrong product.  A table has no factors when the identity fails, when
``M`` is singular or when more than :data:`MAX_RANK` pivots are needed;
:meth:`repro.lut.LookupTable.error_factors` does not try tables wider than
:data:`MAX_BITS` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Largest rank worth factoring: at F=64, the widest Table-I layer, the
#: rank-r kernel's two GEMMs cost as much as the gather kernel at r = 32.
MAX_RANK = 32

#: Widest table factored.  The pivot search holds the dense float64 error
#: table, 8 MiB at 10 bits; wider tables keep the gather kernels.
MAX_BITS = 10

#: Pivot threshold relative to ``max|E|``: float residuals below it are
#: taken as rounding noise.  A genuine pivot below it only costs a refusal
#: (the integer check fails), never a wrong result.
_PIVOT_TOLERANCE = 1e-9

_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class ErrorFactors:
    """Integer factors with ``det * E == u @ v.T``, rows by operand bit pattern.

    ``u`` and ``v`` are ``[2**n, rank]`` int64 matrices; row ``b`` belongs to
    the operand whose bit pattern is ``b``, the way the flat table is
    addressed.  ``u_max`` and ``v_max`` are their largest magnitudes, which
    bound every partial sum of the low-rank GEMM.
    """

    u: np.ndarray
    v: np.ndarray
    det: int

    @property
    def rank(self) -> int:
        """Number of rank-1 terms (0 for an exact multiplier)."""
        return self.u.shape[1]

    @cached_property
    def u_max(self) -> int:
        """Largest ``|u|`` entry (0 at rank 0)."""
        return int(np.abs(self.u).max(initial=0))

    @cached_property
    def v_max(self) -> int:
        """Largest ``|v|`` entry (0 at rank 0)."""
        return int(np.abs(self.v).max(initial=0))


def _pivots(error: np.ndarray) -> tuple[list[int], list[int]] | None:
    """Rows and columns chosen by complete pivoting; None above MAX_RANK."""
    residual = error.astype(np.float64)
    tolerance = float(np.abs(residual).max(initial=0.0)) * _PIVOT_TOLERANCE
    rows: list[int] = []
    cols: list[int] = []
    while True:
        i, j = np.unravel_index(int(np.argmax(np.abs(residual))),
                                residual.shape)
        pivot = residual[i, j]
        if abs(pivot) <= tolerance:
            return rows, cols
        if len(rows) == MAX_RANK:
            return None
        rows.append(int(i))
        cols.append(int(j))
        residual -= np.outer(residual[:, j], residual[i, :] / pivot)


def _adjugate(matrix: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """``(det, adj)`` of a square integer matrix, exact in Python integers.

    Fraction-free Gauss-Jordan elimination on ``[M | Id]`` without row
    exchanges: every division is exact, and the elimination ends at
    ``[det * Id | adj]``.  Returns ``(k, None)`` instead when the ``k``-th
    pivot, a leading principal minor of ``M``, vanishes.
    """
    size = len(matrix)
    rows = [list(row) + [int(i == k) for k in range(size)]
            for i, row in enumerate(matrix)]
    previous = 1
    for k in range(size):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot == 0:
            return k, None
        for i in range(size):
            if i != k:
                factor = rows[i][k]
                rows[i] = [(pivot * a - factor * b) // previous
                           for a, b in zip(rows[i], pivot_row)]
        previous = pivot
    return previous, [row[size:] for row in rows]


def factor_error_table(error: np.ndarray) -> ErrorFactors | None:
    """Proven integer factors of ``error`` (a ``2**n x 2**n`` table), or None.

    ``error`` is indexed by operand bit patterns in both dimensions, as
    :meth:`repro.lut.LookupTable.error_versus_exact` returns it.  See the
    module docstring for the construction and the proof.
    """
    error = np.asarray(error, dtype=np.int64)
    chosen = _pivots(error)
    if chosen is None:
        return None
    rows, cols = chosen
    while True:
        det, adj = _adjugate([[int(error[i, j]) for j in cols] for i in rows])
        if adj is not None:
            break
        # A zero leading minor: the float pivots from there on were noise.
        rows, cols = rows[:det], cols[:det]
    rank = len(rows)
    if rank == 0:
        empty = np.zeros((error.shape[0], 0), dtype=np.int64)
        return ErrorFactors(u=empty, v=empty.copy(), det=1)

    # Python-integer magnitude guards: each int64 product below is formed
    # only when no entry of it can overflow.
    e_max = int(np.abs(error).max())
    adj_max = max(abs(x) for row in adj for x in row)
    if rank * e_max * adj_max >= _INT64_LIMIT:
        return None
    u = error[:, cols] @ np.array(adj, dtype=np.int64)
    v = np.ascontiguousarray(error[rows, :].T)
    if (abs(det) * e_max >= _INT64_LIMIT
            or rank * int(np.abs(u).max()) * e_max >= _INT64_LIMIT):
        return None
    if not np.array_equal(u @ v.T, det * error):
        return None
    return ErrorFactors(u=u, v=v, det=det)
