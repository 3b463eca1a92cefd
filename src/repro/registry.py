"""One named-registry type for the library's extension points.

The multiplier catalogue (:mod:`repro.multipliers.library`), the
convolution backends (:mod:`repro.backends.registry`) and the DSE search
strategies (:mod:`repro.dse.strategies`) each map names to factories.
:class:`Registry` is that mapping: thread-safe register / unregister /
lookup plus the sorted name list, raising the owner's error type with the
owner's wording.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Thread-safe name -> entry mapping of one kind of component.

    ``kind`` names one entry in error messages (``"backend"``), ``error`` is
    the exception type raised, and ``listing`` heads the name list an
    unknown-name error appends (``"registered backends"``).
    """

    def __init__(self, kind: str, error: type[Exception],
                 listing: str) -> None:
        self._kind = kind
        self._error = error
        self._listing = listing
        self._entries: dict[str, T] = {}
        self._lock = threading.Lock()

    def register(self, name: str, entry: T, *, overwrite: bool = False) -> None:
        """Add ``entry`` under ``name``; a taken name raises unless ``overwrite``."""
        with self._lock:
            if not overwrite and name in self._entries:
                raise self._error(f"{self._kind} {name!r} is already registered")
            self._entries[name] = entry

    def unregister(self, name: str) -> None:
        """Remove ``name``; unknown names raise."""
        with self._lock:
            if name not in self._entries:
                raise self._error(f"{self._kind} {name!r} is not registered")
            del self._entries[name]

    def lookup(self, name: str) -> T:
        """The entry registered under ``name``; unknown names raise, listing
        the registered ones."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                known = ", ".join(sorted(self._entries))
                raise self._error(
                    f"unknown {self._kind} {name!r}; {self._listing}: {known}"
                ) from None

    def names(self) -> list[str]:
        """Sorted names of every registered entry."""
        with self._lock:
            return sorted(self._entries)
