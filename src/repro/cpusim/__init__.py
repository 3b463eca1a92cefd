"""CPU emulation baseline (ALWANN-style direct loop) and its timing model."""

from .direct import CPUTimingModel

__all__ = ["CPUTimingModel"]
