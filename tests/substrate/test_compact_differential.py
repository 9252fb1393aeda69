"""Compiled compact codec vs the interpreted oracle in ``tests/reference``.

Hypothesis draws messages of every type ``src/`` registers.  Both codecs
must produce the same bytes and each must decode the other's output to an
equal message.  The oracle's legacy mode interprets the layouts the codec
had before values, records and Cyclon entries got their own: every type
that rode no pickle blob then must still encode to the same bytes.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
import types
import typing
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.address import Address
from repro.network.compact import CompactCodec, Value
from tests.reference.compact import ReferenceCompactCodec
from tests.substrate.wire_kit import HOSTS, sample, wire_types

TYPES = wire_types()
COMPILED = CompactCodec()
ORACLE = ReferenceCompactCodec()
LEGACY = ReferenceCompactCodec(legacy=True)


def _legacy_pickles(cls: type) -> bool:
    """Whether the legacy layout pickles some part of a full sample."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return dumps(*args, **kwargs)

    dumps = pickle.dumps
    message = sample(cls, random.Random(0), full=True)
    with mock.patch.object(pickle, "dumps", spy):
        LEGACY.encode(message)
    return bool(calls)


#: Types whose layout the compiled codec changed: each had a pickle blob.
CHANGED = {cls for cls in TYPES if _legacy_pickles(cls)}
UNCHANGED = [cls for cls in TYPES if cls not in CHANGED]

_I64 = st.integers(-(2**63), 2**63 - 1)
_FLOAT = st.floats(allow_nan=False)
_TEXT = st.text(max_size=12)
_ADDRESSES = st.builds(
    lambda host, port, node_id: Address(host, port, node_id).intern(),
    st.sampled_from(HOSTS) | _TEXT,
    _I64,
    st.none() | _I64,
)
_VALUES = st.one_of(
    st.none(), st.booleans(), _I64, _FLOAT, _TEXT, st.binary(max_size=64)
)


def strategy_for(tp) -> st.SearchStrategy:
    if tp == Value:
        return _VALUES
    simple = {int: _I64, float: _FLOAT, bool: st.booleans(), str: _TEXT,
              bytes: st.binary(max_size=32), Address: _ADDRESSES}
    if tp in simple:
        return simple[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return st.none() | strategy_for(inner)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(strategy_for(args[0]), max_size=4).map(tuple)
    if origin is tuple:
        return st.tuples(*(strategy_for(arg) for arg in args))
    if dataclasses.is_dataclass(tp):
        return messages_of(tp)
    raise TypeError(f"no strategy for {tp!r}")


def messages_of(cls: type) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        fields[f.name] = st.none() | strategy_for(tp) if f.default is None else strategy_for(tp)
    return st.builds(cls, **fields)


def _same(a, b) -> bool:
    """Equality that also tells True from 1 and 1.0, and -0.0 from 0.0."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return type(b) is float and a == b and math.copysign(1, a) == math.copysign(1, b)
    return type(a) is type(b) and a == b


def test_the_census_of_changed_layouts():
    changed = sorted(cls.__name__ for cls in CHANGED)
    assert changed == [
        "ClientGetReply", "ClientPut", "ReadResponse", "ShuffleRequest",
        "ShuffleResponse", "ViewCommit", "ViewPrepareAck", "WriteRequest",
    ]
    assert len(UNCHANGED) == len(TYPES) - 8


_MESSAGES = st.sampled_from(TYPES).flatmap(messages_of)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(message=_MESSAGES)
def test_compiled_matches_the_oracle(message):
    compiled = COMPILED.encode(message)
    assert compiled == ORACLE.encode(message)
    assert _same(COMPILED.decode(compiled), message)
    assert _same(ORACLE.decode(compiled), message)
    assert _same(COMPILED.decode(memoryview(bytearray(compiled))), message)
    if type(message) not in CHANGED:
        assert compiled == LEGACY.encode(message)
        assert _same(LEGACY.decode(compiled), message)


def test_every_type_against_the_oracle():
    """The seeded sweep that makes sure no registered type is skipped."""
    rng = random.Random(26)
    for cls in TYPES:
        for full in (False, True, True):
            message = sample(cls, rng, full)
            compiled = COMPILED.encode(message)
            assert compiled == ORACLE.encode(message), cls.__name__
            assert _same(ORACLE.decode(compiled), message)
            assert _same(COMPILED.decode(compiled), message)
            if cls not in CHANGED:
                assert compiled == LEGACY.encode(message), cls.__name__
