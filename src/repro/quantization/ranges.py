"""Tensor range tracking.

The transformed graph of Fig. 1 inserts ``Min``/``Max`` reduction nodes in
front of every approximate layer so the quantisation range of each input is
"determined once per a batch".  For workflows that prefer static (calibrated)
ranges -- e.g. when emulating an accelerator whose quantisation parameters
are frozen at compile time -- this module also provides a running calibrator
that aggregates ranges over many batches, including the moving-average
scheme TensorFlow uses during quantisation-aware training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QuantizationError


@dataclass(frozen=True)
class TensorRange:
    """Closed real interval ``[min_value, max_value]`` covered by a tensor."""

    min_value: float
    max_value: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.min_value) and np.isfinite(self.max_value)):
            raise QuantizationError("tensor range must be finite")
        if self.min_value > self.max_value:
            raise QuantizationError(
                f"inverted range [{self.min_value}, {self.max_value}]"
            )

    @classmethod
    def of(cls, values: np.ndarray) -> "TensorRange":
        """Range of an array (the per-batch Min/Max of the transformed graph)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise QuantizationError("cannot take the range of an empty tensor")
        if not np.all(np.isfinite(values)):
            raise QuantizationError("tensor contains non-finite values")
        return cls(float(values.min()), float(values.max()))

    def union(self, other: "TensorRange") -> "TensorRange":
        """Smallest range containing both operands."""
        return TensorRange(
            min(self.min_value, other.min_value),
            max(self.max_value, other.max_value),
        )

    def include_zero(self) -> "TensorRange":
        """Extend the range so that zero is representable."""
        return TensorRange(min(self.min_value, 0.0), max(self.max_value, 0.0))

    @property
    def span(self) -> float:
        """Width of the interval."""
        return self.max_value - self.min_value

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(min, max)`` as plain floats."""
        return self.min_value, self.max_value


class RangeTracker:
    """Aggregates tensor ranges over successive batches.

    Two policies are supported:

    * ``"minmax"`` -- keep the union of all observed ranges (post-training
      calibration).
    * ``"ema"`` -- exponential moving average of the per-batch ranges
      (quantisation-aware-training style), controlled by ``momentum``.
    """

    def __init__(self, policy: str = "minmax", *, momentum: float = 0.99) -> None:
        if policy not in ("minmax", "ema"):
            raise QuantizationError(f"unknown range policy {policy!r}")
        if not 0.0 < momentum < 1.0:
            raise QuantizationError("momentum must lie in (0, 1)")
        self._policy = policy
        self._momentum = momentum
        self._range: TensorRange | None = None
        self._batches = 0

    @property
    def policy(self) -> str:
        """Aggregation policy ("minmax" or "ema")."""
        return self._policy

    @property
    def batches_seen(self) -> int:
        """Number of batches folded into the current range."""
        return self._batches

    def update(self, values: np.ndarray) -> TensorRange:
        """Fold one batch into the tracked range and return the new range."""
        batch_range = TensorRange.of(values)
        if self._range is None:
            self._range = batch_range
        elif self._policy == "minmax":
            self._range = self._range.union(batch_range)
        else:
            m = self._momentum
            self._range = TensorRange(
                m * self._range.min_value + (1.0 - m) * batch_range.min_value,
                m * self._range.max_value + (1.0 - m) * batch_range.max_value,
            )
        self._batches += 1
        return self._range

    @property
    def range(self) -> TensorRange:
        """The aggregated range; raises if no batch has been observed yet."""
        if self._range is None:
            raise QuantizationError("no batches observed yet")
        return self._range

    def reset(self) -> None:
        """Discard all observed statistics."""
        self._range = None
        self._batches = 0
