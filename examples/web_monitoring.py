#!/usr/bin/env python3
"""Distributed monitoring with a live web view (paper Fig 10).

A monitor server aggregates per-node status reports; a Jetty-style web
bridge serves the global view over real HTTP.  Three CATS nodes run on the
loopback network, each shipping its component statuses (ring neighbors,
view ids, router table sizes...) to the monitor every second.

Run:  python examples/web_monitoring.py
then open the printed URL (the script also fetches it itself).
"""

import json
import sys
import time
import urllib.request

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler
from repro.cats import CatsConfig, CatsHost, KeySpace
from repro.network import LoopbackNetwork, Network, local_address
from repro.protocols.monitor import MonitorServer
from repro.protocols.web import Web, WebServer
from repro.timer import ThreadTimer, Timer


class MonitorHost(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.address = local_address(9_000, node_id=9_000)
        net = self.create(LoopbackNetwork, self.address)
        timer = self.create(ThreadTimer)
        server = self.create(MonitorServer, self.address)
        self.connect(net.provided(Network), server.required(Network))
        self.connect(timer.provided(Timer), server.required(Timer))
        # The web bridge: HTTP requests -> Web port -> monitor server.
        self.web = self.create(WebServer)
        self.connect(server.provided(Web), self.web.required(Web))


# Assembly root: holds child Component handles, which are the unit of
# shard placement — the root moves with its whole subtree (or not at
# all), so section-2.6 migration hooks do not apply.
class Main(ComponentDefinition):  # repro: noqa[P006]
    def __init__(self) -> None:
        super().__init__()
        self.monitor = self.create(MonitorHost)
        monitor_addr = self.monitor.definition.address
        seeds = ()
        self.nodes = []
        for node_id in (10_000, 30_000, 50_000):
            config = CatsConfig(
                key_space=KeySpace(bits=16),
                monitor_server=monitor_addr,
                seeds=seeds,
                stabilize_period=0.3,
            )
            address = local_address(node_id, node_id=node_id)
            host = self.create(CatsHost, address, config, LoopbackNetwork, ThreadTimer)
            seeds = (local_address(10_000, node_id=10_000),)
            self.nodes.append(host)


def main() -> int:
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=3))
    root = system.bootstrap(Main)
    url = root.definition.monitor.definition.web.definition.url
    print(f"monitor web view: {url}/  (JSON at {url}/view.json)")

    print("letting the cluster run and report for ~5 seconds...")
    time.sleep(5.0)

    with urllib.request.urlopen(f"{url}/view.json", timeout=5) as response:
        view = json.loads(response.read())
    print(f"\nglobal view over HTTP: {len(view)} nodes reporting")
    for node, info in sorted(view.items()):
        ring = next(
            (v for k, v in info["components"].items() if k.startswith("ring")), {}
        )
        print(f"  {node}: age {info['age']}s, successors {ring.get('successors')}")

    with urllib.request.urlopen(f"{url}/", timeout=5) as response:
        html = response.read().decode()
    print(f"\nHTML page served: {len(html)} bytes, "
          f"title present: {'<h1>Global view' in html}")
    system.shutdown()
    return 0 if len(view) == 3 and "<h1>Global view" in html else 1


#: Root component for aggregate wiring verification
#: (``python -m repro.analysis all --wiring-examples examples``).
WIRING_ROOT = Main


if __name__ == "__main__":
    sys.exit(main())
