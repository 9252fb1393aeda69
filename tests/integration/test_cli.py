"""The CATS CLI: argument parsing and a full multi-process deployment smoke."""

from __future__ import annotations

import socket
import subprocess
import sys
import time

import pytest

from repro.cats.cli import build_parser, parse_address


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestArgumentParsing:
    def test_parse_address(self):
        address = parse_address("10.0.0.1:9100")
        assert address.host == "10.0.0.1" and address.port == 9100

    def test_parse_address_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_address("no-port-here")

    def test_node_requires_bootstrap(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["node", "--port", "9000", "--node-id", "1"])

    def test_full_node_arguments(self):
        args = build_parser().parse_args(
            [
                "node", "--port", "9301", "--node-id", "1000",
                "--bootstrap", "127.0.0.1:9100", "--replication", "5",
            ]
        )
        assert args.node_id == 1000
        assert args.replication == 5
        assert args.run.__name__ == "run_node"

    def test_put_and_get_arguments(self):
        put = build_parser().parse_args(
            ["put", "--server", "127.0.0.1:9301", "alice", "hello"]
        )
        assert (put.key, put.value) == ("alice", "hello")
        get = build_parser().parse_args(["get", "--server", "127.0.0.1:9301", "alice"])
        assert get.key == "alice"

    def test_no_transport_choice(self):
        """Every role runs on the one socket transport: there is no flag."""
        for argv in (
            ["bootstrap-server"],
            ["monitor-server"],
            ["node", "--port", "1", "--node-id", "1", "--bootstrap", "127.0.0.1:2"],
            ["put", "--server", "127.0.0.1:1", "k", "v"],
            ["get", "--server", "127.0.0.1:1", "k"],
        ):
            assert not hasattr(build_parser().parse_args(argv), "backend")
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, "--backend", "tcp"])


@pytest.mark.slow
class TestMultiProcessDeployment:
    """Real processes, real sockets: the paper's Fig 10 as processes."""

    def test_three_process_cluster_serves_put_get(self):
        boot_port = free_port()
        monitor_port = free_port()
        monitor_web = free_port()
        node_ports = [free_port() for _ in range(3)]
        processes = []

        def spawn(*cli_args):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cats", *cli_args],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
            processes.append(process)
            return process

        try:
            spawn("bootstrap-server", "--port", str(boot_port))
            spawn(
                "monitor-server", "--port", str(monitor_port),
                "--web-port", str(monitor_web),
            )
            time.sleep(1.0)
            for index, port in enumerate(node_ports):
                spawn(
                    "node", "--port", str(port),
                    "--node-id", str((index + 1) * 10_000),
                    "--bootstrap", f"127.0.0.1:{boot_port}",
                    "--monitor", f"127.0.0.1:{monitor_port}",
                )
                time.sleep(1.0)
            time.sleep(6.0)  # let the ring and views settle

            put = subprocess.run(
                [
                    sys.executable, "-m", "repro.cats", "put",
                    "--server", f"127.0.0.1:{node_ports[0]}",
                    "--timeout", "20", "answer", "42",
                ],
                capture_output=True, text=True, timeout=60,
            )
            assert put.returncode == 0, put.stdout + put.stderr

            get = subprocess.run(
                [
                    sys.executable, "-m", "repro.cats", "get",
                    "--server", f"127.0.0.1:{node_ports[-1]}",
                    "--timeout", "20", "answer",
                ],
                capture_output=True, text=True, timeout=60,
            )
            assert get.returncode == 0, get.stdout + get.stderr
            assert "answer = 42" in get.stdout

            # The monitor's web view aggregates all three nodes.
            import json
            import urllib.request

            with urllib.request.urlopen(
                f"http://127.0.0.1:{monitor_web}/view.json", timeout=10
            ) as response:
                view = json.loads(response.read())
            assert len(view) == 3, view.keys()
        finally:
            for process in processes:
                process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
