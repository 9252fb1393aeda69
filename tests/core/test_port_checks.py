"""Port-geometry edge cases: connection validation and direction resolution."""

from __future__ import annotations

import pytest

from repro import Event, PortType
from repro.core.errors import ConnectionError as KConnectionError
from repro.core.errors import PortTypeError
from repro.core.event import Direction
from repro.core.port import check_faces_connectable
from repro.network.message import Message, Network

from ..kit import Collector, EchoServer, PingPort, Scaffold, make_system


def build_pair():
    built = {}

    def builder(root):
        built["server"] = root.create(EchoServer)
        built["client"] = root.create(Collector)

    system = make_system()
    system.bootstrap(Scaffold, builder)
    return system, built["server"], built["client"]


# ----------------------------------------------------- check_faces_connectable


def test_connect_rejects_different_port_types():
    class OtherPort(PortType):
        positive = ()
        negative = ()

    system, server, client = build_pair()
    face = server.provided(PingPort)
    # A real second port of a different type on the client.
    other = client.definition.provides(OtherPort)
    with pytest.raises(KConnectionError, match="different types"):
        check_faces_connectable(face, other)


def test_connect_rejects_two_provider_roles():
    built = {}

    def builder(root):
        built["a"] = root.create(EchoServer)
        built["b"] = root.create(EchoServer)

    system2 = make_system()
    system2.bootstrap(Scaffold, builder)
    with pytest.raises(KConnectionError, match="cannot connect two"):
        check_faces_connectable(
            built["a"].provided(PingPort), built["b"].provided(PingPort)
        )


def test_connect_rejects_two_requirer_roles():
    built = {}

    def builder(root):
        built["a"] = root.create(Collector)
        built["b"] = root.create(Collector)

    system = make_system()
    system.bootstrap(Scaffold, builder)
    with pytest.raises(KConnectionError, match="cannot connect two"):
        check_faces_connectable(
            built["a"].required(PingPort), built["b"].required(PingPort)
        )


def test_connect_returns_provider_then_requirer_in_any_argument_order():
    system, server, client = build_pair()
    provided = server.provided(PingPort)
    required = client.required(PingPort)
    assert check_faces_connectable(provided, required) == (provided, required)
    assert check_faces_connectable(required, provided) == (provided, required)


def test_delegation_pairs_complementary_faces_of_same_kind():
    # Parent provided/inside emits NEGATIVE (requirer role toward children),
    # child provided/outside emits POSITIVE: a legal delegation pair.
    built = {}

    def builder(root):
        built["inner"] = root.create(EchoServer)
        built["outer_face"] = root.provides(PingPort)

    system = make_system()
    system.bootstrap(Scaffold, builder)
    child_face = built["inner"].provided(PingPort)
    parent_inside = built["outer_face"]
    provider, requirer = check_faces_connectable(child_face, parent_inside)
    assert provider is child_face
    assert requirer is parent_inside


# ----------------------------------------------------------- PortType checks


def test_port_type_rejects_non_event_declarations():
    with pytest.raises(PortTypeError, match="not an Event subclass"):

        class Broken(PortType):
            positive = (int,)


def test_direction_of_prefers_the_trigger_sites_role():
    # Network allows Message in BOTH directions: the preferred direction
    # must win, in either direction.
    assert Network.direction_of(Message, Direction.POSITIVE) is Direction.POSITIVE
    assert Network.direction_of(Message, Direction.NEGATIVE) is Direction.NEGATIVE


def test_direction_of_falls_back_to_opposite_direction():
    from tests.kit import Ping, Pong

    # PingPort: Pong is positive-only; asking with NEGATIVE preference
    # resolves to POSITIVE anyway.
    assert PingPort.direction_of(Pong, Direction.NEGATIVE) is Direction.POSITIVE
    assert PingPort.direction_of(Ping, Direction.POSITIVE) is Direction.NEGATIVE


def test_direction_of_returns_none_for_foreign_events():
    class Alien(Event):
        pass

    assert PingPort.direction_of(Alien, Direction.POSITIVE) is None
    assert Network.direction_of(Alien, Direction.NEGATIVE) is None


def test_network_declares_message_bidirectional():
    # The ambiguity direction_of exists to resolve: the same event type is
    # legal both ways on Network ports.
    assert Network.allowed(Direction.POSITIVE, Message)
    assert Network.allowed(Direction.NEGATIVE, Message)
