"""Remote access to CATS: client-side PutGet over the network.

Paper Fig 10: the CATS Client issues functional requests to a CATS Node
over the PutGet port.  For deployments where the client runs in another
process, :class:`RemoteApiServer` (embedded next to a CatsNode) bridges
ClientPut/ClientGet messages onto the node's PutGet port, and
:class:`CatsClient` provides the same PutGet abstraction to local
applications while executing every operation remotely.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..network.address import Address
from ..network.compact import Value, register_compact
from ..network.message import Network, NetworkControlMessage
from .events import (
    GetRequest,
    GetResponse,
    PutGet,
    PutRequest,
    PutResponse,
    new_op_id,
)


@register_compact
@dataclass(frozen=True, slots=True)
class ClientPut(NetworkControlMessage):
    key: int = 0
    value: Value = None
    op_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class ClientGet(NetworkControlMessage):
    key: int = 0
    op_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class ClientPutReply(NetworkControlMessage):
    op_id: int = 0
    key: int = 0
    ok: bool = False
    error: str = ""


@register_compact
@dataclass(frozen=True, slots=True)
class ClientGetReply(NetworkControlMessage):
    op_id: int = 0
    key: int = 0
    found: bool = False
    value: Value = None
    ok: bool = True
    error: str = ""


class RemoteApiServer(ComponentDefinition):
    """Requires Network and PutGet; serves remote clients."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.putget = self.requires(PutGet)
        self._pending: dict[int, tuple[Address, int]] = {}  # op_id -> (client, client_op)

        self.subscribe(self.on_client_put, self.network, event_type=ClientPut)
        self.subscribe(self.on_client_get, self.network, event_type=ClientGet)
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    @handles(ClientPut)
    def on_client_put(self, message: ClientPut) -> None:
        op_id = new_op_id()
        self._pending[op_id] = (message.source, message.op_id)
        self.trigger(PutRequest(message.key, message.value, op_id=op_id), self.putget)

    @handles(ClientGet)
    def on_client_get(self, message: ClientGet) -> None:
        op_id = new_op_id()
        self._pending[op_id] = (message.source, message.op_id)
        self.trigger(GetRequest(message.key, op_id=op_id), self.putget)

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        pending = self._pending.pop(response.op_id, None)
        if pending is None:
            return
        client, client_op = pending
        self.trigger(
            ClientPutReply(
                self.address, client, op_id=client_op, key=response.key,
                ok=response.ok, error=response.error,
            ),
            self.network,
        )

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        pending = self._pending.pop(response.op_id, None)
        if pending is None:
            return
        client, client_op = pending
        self.trigger(
            ClientGetReply(
                self.address, client, op_id=client_op, key=response.key,
                found=response.found, value=response.value,
                ok=response.ok, error=response.error,
            ),
            self.network,
        )

    # ---------------------------------------------------- section-2.6 handover

    def dump_state(self) -> dict[int, tuple[Address, int]]:
        """In-flight op routing survives in-process replacement: PutGet
        responses to ops the old instance issued arrive on the same
        channels the new instance is plugged into."""
        return dict(self._pending)

    def load_state(self, state: dict[int, tuple[Address, int]]) -> None:
        self._pending = dict(state)


class CatsClient(ComponentDefinition):
    """Provides PutGet locally; requires Network; executes ops on a remote node."""

    def __init__(self, address: Address, server: Address) -> None:
        super().__init__()
        self.address = address
        self.server = server
        self.putget = self.provides(PutGet)
        self.network = self.requires(Network)

        self.subscribe(self.on_put, self.putget)
        self.subscribe(self.on_get, self.putget)
        self.subscribe(self.on_put_reply, self.network, event_type=ClientPutReply)
        self.subscribe(self.on_get_reply, self.network, event_type=ClientGetReply)

    @handles(PutRequest)
    def on_put(self, request: PutRequest) -> None:
        op_id = request.op_id or new_op_id()
        self.trigger(
            ClientPut(self.address, self.server, key=request.key, value=request.value, op_id=op_id),
            self.network,
        )

    @handles(GetRequest)
    def on_get(self, request: GetRequest) -> None:
        op_id = request.op_id or new_op_id()
        self.trigger(
            ClientGet(self.address, self.server, key=request.key, op_id=op_id),
            self.network,
        )

    @handles(ClientPutReply)
    def on_put_reply(self, reply: ClientPutReply) -> None:
        self.trigger(
            PutResponse(reply.op_id, reply.key, ok=reply.ok, error=reply.error),
            self.putget,
        )

    @handles(ClientGetReply)
    def on_get_reply(self, reply: ClientGetReply) -> None:
        self.trigger(
            GetResponse(
                reply.op_id, reply.key, found=reply.found, value=reply.value,
                ok=reply.ok, error=reply.error,
            ),
            self.putget,
        )
