"""One name registry for every pluggable choice in the model.

Flumen's design space is a set of named choices: NoP topologies, system
configurations, mesh arrangements, fault kinds, arrival processes and
sweep tasks.  Each lives in one module-level :class:`Registry`
(``TOPOLOGIES``, ``CONFIGURATIONS``, ``MESHES``, ``FAULTS``,
``ARRIVALS``, ``TASKS``), so adding a choice is one ``register`` call
and no dispatch code changes.

Each name holds one entry: the implementation production code runs.
Reference oracles are not registered; the equivalence suites construct
them directly, or shadow an entry with :meth:`Registry.temporary`.

Rules shared by every registry:

* names list in registration order;
* registering a taken name raises unless ``replace=True``;
* an unknown name raises :class:`UnknownNameError` listing the live
  names;
* removing a missing name is a no-op.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import Generic, TypeVar

T = TypeVar("T")


class UnknownNameError(ValueError, KeyError):
    """A name no registry entry answers to.

    Subclasses both ``ValueError`` (bad argument) and ``KeyError``
    (failed lookup), so either ``except`` clause catches it.
    """

    # KeyError.__str__ would quote the message like a dict key.
    __str__ = ValueError.__str__


class Registry(Generic[T]):
    """Named entries of one ``kind``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T | None = None, *,
                 replace: bool = False):
        """Register ``entry`` under ``name``; usable as a decorator.

        Re-registering a taken name raises unless ``replace=True``.
        """
        def _register(target: T) -> T:
            if name in self._entries and not replace:
                raise ValueError(f"{self.kind} {name!r} is already "
                                 f"registered; pass replace=True to override")
            self._entries[name] = target
            return target
        return _register if entry is None else _register(entry)

    def unregister(self, name: str) -> None:
        """Remove ``name``."""
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        """The entry for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(f"unknown {self.kind} {name!r}; "
                                   f"known: {self.names()}") from None

    def names(self) -> tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._entries)

    @contextmanager
    def temporary(self, name: str, entry: T) -> Iterator[T]:
        """Register ``entry`` for the duration of a ``with`` block.

        A taken name is shadowed and gets its entry back, in its place
        in the order, when the block exits.
        """
        previous = self._entries.get(name)
        self._entries[name] = entry
        try:
            yield entry
        finally:
            if previous is None:
                self._entries.pop(name, None)
            else:
                self._entries[name] = previous

    def __contains__(self, name: object) -> bool:
        return name in self._entries
