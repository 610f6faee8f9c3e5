"""One name registry for every pluggable choice in the model.

Flumen's design space is a set of named choices: NoP topologies, system
configurations, mesh arrangements, fault kinds, arrival processes and
sweep tasks.  Each lives in one module-level :class:`Registry`
(``TOPOLOGIES``, ``CONFIGURATIONS``, ``MESHES``, ``FAULTS``,
``ARRIVALS``, ``TASKS``), so adding a choice is one ``register`` call
and no dispatch code changes.

Each name holds up to two entries: the reference implementation (the
bit-identity *oracle*) and an optional ``vectorized=True`` twin.
:meth:`Registry.get` prefers the twin and falls back to the reference;
``get(name, vectorized=False)`` always reaches the oracle, which is how
the equivalence suites pin the two against each other.

Rules shared by every registry:

* names list in registration order;
* registering a taken slot raises unless ``replace=True``;
* an unknown name raises :class:`UnknownNameError` listing the live
  names;
* removing a missing name or slot is a no-op.
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
    """Named entries of one ``kind``, each with an optional fast twin."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: name -> [reference entry | None, vectorized entry | None].
        self._slots: dict[str, list[T | None]] = {}

    def register(self, name: str, entry: T | None = None, *,
                 vectorized: bool = False, replace: bool = False):
        """Register ``entry`` under ``name``; usable as a decorator.

        ``vectorized=True`` fills the twin slot, which then becomes the
        default dispatch for the name.  Re-registering a filled slot
        raises unless ``replace=True``.
        """
        def _register(target: T) -> T:
            slots = self._slots.setdefault(name, [None, None])
            if slots[vectorized] is not None and not replace:
                raise ValueError(f"{self.kind} {name!r} is already "
                                 f"registered; pass replace=True to override")
            slots[vectorized] = target
            return target
        return _register if entry is None else _register(entry)

    def unregister(self, name: str, *, vectorized: bool | None = None) -> None:
        """Remove ``name``; pass ``vectorized`` to drop just one slot."""
        if vectorized is None:
            self._slots.pop(name, None)
            return
        slots = self._slots.get(name)
        if slots is not None:
            slots[vectorized] = None
            if slots[0] is None and slots[1] is None:
                del self._slots[name]

    def get(self, name: str, *, vectorized: bool | None = None) -> T:
        """The entry for ``name``.

        ``vectorized=None`` prefers the twin and falls back to the
        reference; ``True`` or ``False`` require that slot.
        """
        try:
            reference, twin = self._slots[name]
        except KeyError:
            raise UnknownNameError(f"unknown {self.kind} {name!r}; "
                                   f"known: {self.names()}") from None
        if vectorized is None:
            entry = twin if twin is not None else reference
        else:
            entry = twin if vectorized else reference
        if entry is None:
            slot = "vectorized" if vectorized else "reference"
            raise ValueError(
                f"{self.kind} {name!r} has no {slot} implementation")
        return entry

    def has_vectorized(self, name: str) -> bool:
        """True when ``name`` has a registered vectorized twin."""
        return self._slots.get(name, [None, None])[1] is not None

    def names(self) -> tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._slots)

    @contextmanager
    def temporary(self, name: str, entry: T,
                  *, vectorized: bool = False) -> Iterator[T]:
        """Register ``entry`` for the duration of a ``with`` block."""
        self.register(name, entry, vectorized=vectorized)
        try:
            yield entry
        finally:
            self.unregister(name, vectorized=vectorized)

    def __contains__(self, name: object) -> bool:
        return name in self._slots
