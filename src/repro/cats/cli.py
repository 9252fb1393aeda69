"""Command-line deployment of CATS over TCP (paper Fig 10 as a CLI).

Every role runs on :class:`~repro.network.aio.AioTcpNetwork`, the one
socket transport.  Run each role in its own process:

    python -m repro.cats bootstrap-server --port 9100
    python -m repro.cats monitor-server --port 9200 --web-port 8080
    python -m repro.cats node --port 9301 --node-id 1000 \
        --bootstrap 127.0.0.1:9100 [--monitor 127.0.0.1:9200] [--web-port 8081]
    python -m repro.cats put --server 127.0.0.1:9301 mykey myvalue
    python -m repro.cats get --server 127.0.0.1:9301 mykey

Servers and nodes run until interrupted; ``put``/``get`` are one-shot
clients that print the result and exit.
"""

from __future__ import annotations

import argparse
import queue
import signal
import sys
import threading
from typing import Optional

from ..core.channel import connect
from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..network.address import Address
from ..network.aio import AioTcpNetwork
from ..network.message import Network
from ..protocols.bootstrap.server import BootstrapHost
from ..protocols.monitor.server import MonitorServer
from ..protocols.web.port import Web
from ..protocols.web.server import WebServer
from ..runtime.system import ComponentSystem
from ..runtime.work_stealing import WorkStealingScheduler
from ..timer.port import Timer
from ..timer.thread_timer import ThreadTimer
from .events import GetRequest, GetResponse, PutGet, PutRequest, PutResponse, new_op_id
from .key import KeySpace
from .node import CatsConfig, CatsHost
from .remote import CatsClient, serve_remote_api


def parse_address(text: str, node_id: Optional[int] = None) -> Address:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return Address(host, int(port), node_id)


# ---------------------------------------------------------------- components


class _MonitorMain(ComponentDefinition):
    def __init__(self, address: Address, web_port: int) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, address)
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        server = self.create(MonitorServer, self.address)
        self.connect(net.provided(Network), server.required(Network))
        self.connect(timer.provided(Timer), server.required(Timer))
        self.web = self.create(WebServer, port=web_port)
        self.connect(server.provided(Web), self.web.required(Web))


class _OneShotClient(ComponentDefinition):
    """Issues a single put or get through a remote node and reports back."""

    def __init__(self, server: Address, inbox: "queue.Queue") -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=0))
        self.address = net.definition.address
        self.client = self.create(CatsClient, self.address, server)
        self.connect(net.provided(Network), self.client.required(Network))
        # Drive the child's provided PutGet port directly (parent-style).
        self.putget = self.client.provided(PutGet)
        self._inbox = inbox
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        self._inbox.put(response)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        self._inbox.put(response)


# -------------------------------------------------------------------- roles


def _serve(system: ComponentSystem, banner: str) -> None:
    print(banner, flush=True)
    stop = threading.Event()

    def on_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    stop.wait()
    system.shutdown()


def run_bootstrap_server(args) -> int:
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    root = system.bootstrap(BootstrapHost, Address(args.host, args.port))
    _serve(system, f"bootstrap server on {root.definition.address}")
    return 0


def run_monitor_server(args) -> int:
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    root = system.bootstrap(_MonitorMain, Address(args.host, args.port), args.web_port)
    url = root.definition.web.definition.url
    _serve(
        system,
        f"monitor server on {root.definition.address}; web view at {url}/",
    )
    return 0


def run_node(args) -> int:
    config = CatsConfig(
        key_space=KeySpace(bits=args.key_bits),
        replication_degree=args.replication,
        bootstrap_server=args.bootstrap,
        monitor_server=args.monitor,
    )
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=args.workers))
    host = system.bootstrap(
        CatsHost,
        Address(args.host, args.port, args.node_id),
        config,
        AioTcpNetwork,
        ThreadTimer,
    )
    serve_remote_api(host)
    banner = f"CATS node {host.definition.address}"
    if args.web_port is not None:
        web = system.bootstrap(WebServer, port=args.web_port)
        connect(host.provided(Web), web.required(Web))
        banner += f"; status page at {web.definition.url}/"
    _serve(system, banner)
    return 0


def _one_shot(server: Address, request, timeout: float):
    inbox: "queue.Queue" = queue.Queue()
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    root = system.bootstrap(_OneShotClient, server, inbox)
    root.definition.trigger(request, root.definition.putget)
    try:
        return inbox.get(timeout=timeout)
    except queue.Empty:
        return None
    finally:
        system.shutdown()


def run_put(args) -> int:
    space = KeySpace(bits=args.key_bits)
    request = PutRequest(space.hash_key(args.key), args.value, op_id=new_op_id())
    response = _one_shot(args.server, request, args.timeout)
    if response is None or not response.ok:
        print(f"put failed: {getattr(response, 'error', 'timeout')}", file=sys.stderr)
        return 1
    print(f"ok: {args.key} stored")
    return 0


def run_get(args) -> int:
    space = KeySpace(bits=args.key_bits)
    request = GetRequest(space.hash_key(args.key), op_id=new_op_id())
    response = _one_shot(args.server, request, args.timeout)
    if response is None or not response.ok:
        print(f"get failed: {getattr(response, 'error', 'timeout')}", file=sys.stderr)
        return 1
    if not response.found:
        print(f"{args.key}: (not found)")
        return 2
    print(f"{args.key} = {response.value}")
    return 0


# ----------------------------------------------------------------- argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cats", description="CATS key-value store over TCP"
    )
    sub = parser.add_subparsers(dest="role", required=True)

    boot = sub.add_parser("bootstrap-server", help="run the bootstrap server")
    boot.add_argument("--host", default="127.0.0.1")
    boot.add_argument("--port", type=int, default=9100)
    boot.set_defaults(run=run_bootstrap_server)

    monitor = sub.add_parser("monitor-server", help="run the monitoring server")
    monitor.add_argument("--host", default="127.0.0.1")
    monitor.add_argument("--port", type=int, default=9200)
    monitor.add_argument("--web-port", type=int, default=8080)
    monitor.set_defaults(run=run_monitor_server)

    node = sub.add_parser("node", help="run one CATS node")
    node.add_argument("--host", default="127.0.0.1")
    node.add_argument("--port", type=int, required=True)
    node.add_argument("--node-id", type=int, required=True)
    node.add_argument(
        "--bootstrap", required=True, metavar="HOST:PORT", type=parse_address
    )
    node.add_argument("--monitor", metavar="HOST:PORT", type=parse_address)
    node.add_argument("--web-port", type=int)
    node.add_argument("--replication", type=int, default=3)
    node.add_argument("--key-bits", type=int, default=32)
    node.add_argument("--workers", type=int, default=2)
    node.set_defaults(run=run_node)

    for name, runner in (("put", run_put), ("get", run_get)):
        cmd = sub.add_parser(name, help=f"{name} a key through a node")
        cmd.add_argument(
            "--server", required=True, metavar="HOST:PORT", type=parse_address
        )
        cmd.add_argument("--key-bits", type=int, default=32)
        cmd.add_argument("--timeout", type=float, default=10.0)
        cmd.add_argument("key")
        if name == "put":
            cmd.add_argument("value")
        cmd.set_defaults(run=runner)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
