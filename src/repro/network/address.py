"""Network addresses: the identity of a node in a distributed system."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True)
class Address:
    """A node address: host, port and an optional logical node id.

    The logical ``node_id`` identifies a node in overlay protocols (e.g. a
    ring key); two addresses with the same host/port but different ids are
    distinct identities, which models node incarnations after churn.
    """

    host: str
    port: int
    node_id: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        # Same exact-class semantics as the dataclass-generated __eq__, but
        # with an identity fast path and no field-tuple allocation — address
        # equality guards most protocol handlers.
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return (
                self.port == other.port
                and self.node_id == other.node_id
                and self.host == other.host
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Addresses key nearly every hot dict/set in the emulator and the
        # overlay protocols; cache the tuple hash on first use (frozen
        # fields make it immutable for the object's lifetime).
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.host, self.port, self.node_id))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # Never serialize the cached hash: str hashes are randomized per
        # process, so a pickled hash is wrong on the receiving node and
        # would break every dict/set lookup there.  The compact codec's
        # cached wire bytes (``_wire``) are rebuilt on demand as well.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_wire", None)
        return state

    def __str__(self) -> str:
        if self.node_id is None:
            return f"{self.host}:{self.port}"
        return f"{self.host}:{self.port}/{self.node_id}"

    def with_id(self, node_id: int) -> "Address":
        return Address(self.host, self.port, node_id).intern()

    def intern(self) -> "Address":
        """Return the canonical instance for this (host, port, node_id).

        A million-peer simulation re-materialises the same few thousand
        addresses over and over (codec decodes, ring lookups, failure
        detector pings); interning collapses them to one object each, so
        equality takes the identity fast path and the cached ``__hash__``
        is computed once per identity instead of once per copy.  The
        ``setdefault`` is a single atomic dict op under the GIL, safe for
        the work-stealing scheduler's worker threads.
        """
        return _INTERNED.setdefault(self, self)


#: Canonical Address per identity; unbounded by design — its size is the
#: number of distinct node identities, not the message rate.
_INTERNED: dict[Address, Address] = {}


def local_address(port: int, node_id: Optional[int] = None) -> Address:
    """Convenience constructor for in-process / localhost addresses."""
    return Address("127.0.0.1", port, node_id).intern()
