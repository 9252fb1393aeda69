"""The registered wire types of ``src/`` and seeded samples of each.

Standard library only, so the malformed-frame property can build its
corpus without hypothesis.  ``wire_types()`` imports every module under
``repro`` first: a registration lives next to its message class, and a
type no module has imported yet is not in the registry.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import random
import types
import typing

import repro
from repro.network.address import Address
from repro.network.compact import Value, registered_types

HOSTS = ("127.0.0.1", "10.0.0.2", "node-ü.example")


def wire_types() -> list[type]:
    """Every type a module under ``src/`` registers, sorted by name."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    return sorted(
        (cls for cls in registered_types() if cls.__module__.startswith("repro.")),
        key=lambda cls: cls.__name__,
    )


def _hints(cls: type) -> dict:
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.default is None and f.name in hints:
            hints[f.name] = typing.Optional[hints[f.name]]
    return hints


def sample_value(tp, rng: random.Random, full: bool = False):
    """A value of resolved type ``tp``.  ``full`` fills every optional and
    gives every tuple two items, so the encoding carries each of its length
    and count fields."""
    if tp == Value:
        return rng.choice(
            [None, True, False, rng.randrange(-2**63, 2**63), rng.random() * 1e6,
             "välue", rng.randbytes(rng.randrange(0, 40))]
        )
    if tp is int:
        return rng.randrange(-2**63, 2**63)
    if tp is bool:
        return rng.random() < 0.5
    if tp is float:
        return rng.uniform(-1e9, 1e9)
    if tp is str:
        return rng.choice(["", "boom", "héllo wörld"])
    if tp is bytes:
        return rng.randbytes(rng.randrange(0, 16))
    if tp is Address:
        node_id = rng.choice([None, rng.randrange(2**32)])
        return Address(rng.choice(HOSTS), rng.randrange(65536), node_id).intern()
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return sample_value(inner, rng, full) if full or rng.random() < 0.7 else None
    if origin is tuple and args[-1] is Ellipsis:
        count = 2 if full else rng.randrange(0, 4)
        return tuple(sample_value(args[0], rng, full) for _ in range(count))
    if origin is tuple:
        return tuple(sample_value(arg, rng, full) for arg in args)
    if dataclasses.is_dataclass(tp):
        return sample(tp, rng, full)
    raise TypeError(f"no sampler for {tp!r}")


def sample(cls: type, rng: random.Random, full: bool = False):
    """An instance of dataclass ``cls`` with every field drawn from ``rng``."""
    hints = _hints(cls)
    return cls(
        **{f.name: sample_value(hints[f.name], rng, full) for f in dataclasses.fields(cls)}
    )
