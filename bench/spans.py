"""Spans of a CATS operation, assembled after timing stops from tap records.

The tree of one operation (every span carries the client's op id)::

    client.op                      load generator: request sent -> response handled
      cats.remote.hop              everything outside the server's PutGet span
        network.aio.transit        request client -> node, reply node -> client
      cats.abd.op                  PutGet request -> response at the quorum layer
        cats.abd.round             group lookup, read quorum, write quorum
          network.aio.transit      the request and the reply that completed the round

A span's *self time* is its duration minus its children's.  Per operation
the self times add up to ``client.op`` exactly; the budget reports the
median of each layer's self time, and ``bench.unattributed_share`` is how
far those medians are from adding up to the median ``client.op``, plus the
share of operations whose span tree could not be built.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from repro.cats.events import (
    GroupRequest,
    GroupResponse,
    ReadRequest,
    ReadResponse,
    WriteRequest,
    WriteResponse,
)
from repro.cats.remote import ClientGet, ClientGetReply, ClientPut, ClientPutReply

from .layers import codec_seconds, layer_of, transits
from .result import Outcome
from .stats import median, percentile
from .taps import TraceLog

RESULTS = Path(__file__).resolve().parent / "results"
#: Operations whose spans are written out (the analysis uses all of them).
TRACE_FILE_OPS = 400

#: (request, reply, replies that complete the round); message keys carry class names.
ROUNDS = tuple(
    (request.__name__, reply.__name__, quorum)
    for request, reply, quorum in (
        (GroupRequest, GroupResponse, 1), (ReadRequest, ReadResponse, 2), (WriteRequest, WriteResponse, 2))
)
CLIENT_REQUESTS = {ClientPut.__name__, ClientGet.__name__}
CLIENT_REPLIES = {ClientPutReply.__name__, ClientGetReply.__name__}
BUDGET_LAYERS = ("cats.remote", "cats.abd.coordinator", "cats.abd.replica",
                 "network.aio", "network.codec")


def _server_ops(log: TraceLog) -> dict[int, dict]:
    """Client op id -> the server-side PutGet span that served it.

    The remote API gives each request a fresh server op id; a node handles
    client requests in arrival order, so the n-th ClientPut/ClientGet a
    node's network tap delivered is the n-th request its PutGet tap saw.
    """
    arrivals = defaultdict(list)  # node -> client op ids in arrival order
    for direction, _when, node, message_type, key in log.net:
        if direction == "in" and message_type in (ClientPut, ClientGet):
            arrivals[node].append(key[1])
    requests = defaultdict(list)
    responses = {}
    for direction, when, node, op_id, kind in log.putget:
        if direction == "req":
            requests[node].append((op_id, when, kind))
        else:
            responses[op_id] = when
    served = {}
    for node, client_ops in arrivals.items():
        for client_op, (server_op, began, kind) in zip(client_ops, requests[node]):
            if server_op in responses:
                served[client_op] = {
                    "node": node, "server_op": server_op, "kind": kind,
                    "start": began, "end": responses[server_op],
                }
    return served


def analyse_kv(
    outcome: Outcome, log: TraceLog, apps, open_window: tuple[float, float],
    traced_start: float, traced_seconds: float, nodes: int,
) -> None:
    """Fill the CATS per-layer metrics and the budget from one traced run."""
    crossing = transits(log)
    codec = codec_seconds(log)
    served = _server_ops(log)

    # Quorum-layer messages of each server op, as its coordinator's tap saw them.
    sent = defaultdict(list)      # (server op, type name) -> [(time, key)]
    received = defaultdict(list)
    sent_count = Counter()        # server op -> quorum-layer messages sent for it
    background = Counter()
    for direction, when, _node, message_type, key in log.net:
        layer = layer_of(message_type)
        if direction == "out" and when >= traced_start:
            background[layer] += 1
        if key is None or layer != "abd":
            continue
        (sent if direction == "out" else received)[(key[1], key[0])].append((when, key))
        if direction == "out":
            sent_count[key[1]] += 1
    client_hop = {}  # (client op, request or reply) -> message key
    for key in crossing:
        if key[0] in CLIENT_REQUESTS:
            client_hop[key[1], "request"] = key
        elif key[0] in CLIENT_REPLIES:
            client_hop[key[1], "reply"] = key

    def full_transit(key) -> float:
        left, arrived = crossing[key]
        return arrived - left

    ops = []      # per-operation layer self times, open-loop operations only
    documents = []
    per_kind = {"get": [], "put": []}
    messages_per = {"get": [], "put": []}
    one_round_gets = []
    quorum_waits = []
    remote_hops = []
    in_budget_window = 0  # operations the budget should cover
    for app in apps:
        for client_op, record in app.records.items():
            kind, due, started, done = record.kind, record.due, record.sent, record.done
            in_budget_window += open_window[0] <= due < open_window[1]
            server = served.get(client_op)
            if not record.ok or server is None:
                continue
            server_op = server["server_op"]
            messages_per[kind].append(sent_count[server_op])
            if kind == "get":
                one_round_gets.append((server_op, WriteRequest.__name__) not in sent)
            if not open_window[0] <= due < open_window[1]:
                continue
            client_span = done - started
            abd_span = server["end"] - server["start"]
            per_kind[kind].append(abd_span)
            remote_hops.append(client_span - abd_span)
            try:
                request_key = client_hop[client_op, "request"]
                reply_key = client_hop[client_op, "reply"]
                critical = [request_key, reply_key]
                rounds = []
                for request_name, reply_name, quorum in ROUNDS:
                    requests = sent.get((server_op, request_name))
                    replies = sorted(received.get((server_op, reply_name), ()))
                    if not requests:
                        continue
                    arrived, decisive = replies[quorum - 1]
                    # The request that the decisive reply answers went the other way.
                    asked = next(key for _t, key in requests if key[3] == decisive[2])
                    rounds.append((request_name, min(requests)[0], arrived, asked, decisive))
                    critical += [asked, decisive]
                    if request_name == ReadRequest.__name__:
                        quorum_waits.append(arrived - min(requests)[0])
                on_wire = {key: full_transit(key) for key in critical}
            except (StopIteration, IndexError, KeyError):
                continue  # a retried or partly recorded operation: counted as unattributed
            round_time = sum(end - begin for _n, begin, end, _a, _d in rounds)
            replica = sum(
                end - begin - on_wire[asked] - on_wire[decisive]
                for _n, begin, end, asked, decisive in rounds)
            codec_time = sum(codec.get(key, 0.0) for key in critical)
            ops.append({
                "client.op": client_span,
                "cats.remote": client_span - abd_span - on_wire[request_key] - on_wire[reply_key],
                "cats.abd.coordinator": abd_span - round_time,
                "cats.abd.replica": replica,
                "network.aio": sum(on_wire.values()) - codec_time,
                "network.codec": codec_time,
            })
            if len(documents) < TRACE_FILE_OPS:
                documents.append(_document(
                    client_op, kind, started, done, server, rounds, crossing, critical))

    if per_kind["get"]:
        outcome.metrics["cats.abd.get_ms_p50"] = 1e3 * median(per_kind["get"])
        outcome.metrics["cats.abd.msgs_per_get"] = sum(messages_per["get"]) / len(messages_per["get"])
        outcome.metrics["cats.abd.get_one_round_share"] = sum(one_round_gets) / len(one_round_gets)
    if per_kind["put"]:
        outcome.metrics["cats.abd.put_ms_p50"] = 1e3 * median(per_kind["put"])
        outcome.metrics["cats.abd.msgs_per_put"] = sum(messages_per["put"]) / len(messages_per["put"])
    outcome.metrics["cats.abd.quorum_wait_ms_p50"] = 1e3 * median(quorum_waits)
    outcome.metrics["cats.remote.hop_ms_p50"] = 1e3 * median(remote_hops)
    for layer, metric in (("ring", "cats.ring.msgs_per_node_s"), ("fd", "protocols.fd.msgs_per_node_s"),
                          ("cyclon", "protocols.cyclon.msgs_per_node_s")):
        outcome.metrics[metric] = background[layer] / (nodes * traced_seconds)

    whole = median([op["client.op"] for op in ops])
    attributed = 0.0
    outcome.samples["operations with a complete span tree"] = len(ops)
    outcome.metrics["client.op_ms_p50"] = 1e3 * whole
    outcome.metrics["client.op_ms_p95"] = 1e3 * percentile([op["client.op"] for op in ops], 0.95)
    for layer in BUDGET_LAYERS:
        self_time = median([op[layer] for op in ops])
        attributed += self_time
        outcome.metrics[f"{layer}_self_ms_p50" if "abd" in layer else f"{layer}.self_ms_p50"] = 1e3 * self_time
    # What the budget does not explain: the distance between the layers' medians
    # and the whole, plus the operations whose span tree could not be built.
    outcome.metrics["bench.unattributed_share"] = (
        (abs(whole - attributed) / whole if whole else 1.0)
        + (1.0 - len(ops) / in_budget_window if in_budget_window else 1.0)
    )
    outcome.check(bool(ops), "no operation could be attributed to layers")
    outcome.trace_document = {"spans": [span for spans in documents for span in spans]}


def _document(client_op, kind, started, done, server, rounds, crossing, critical) -> list[dict]:
    """The spans of one operation: name, start, end, parent, op id."""
    def span(name, start, end, parent):
        return {"op": client_op, "name": name, "start": start, "end": end, "parent": parent}

    spans = [
        span(f"client.op[{kind}]", started, done, None),
        span("cats.remote.hop", started, done, "client.op"),
        span("cats.abd.op", server["start"], server["end"], "cats.remote.hop"),
    ]
    for key in critical[:2]:
        spans.append(span(f"network.aio.transit[{key[0]}]", *crossing[key], "cats.remote.hop"))
    for name, begin, end, asked, decisive in rounds:
        round_name = f"cats.abd.round[{name}]"
        spans.append(span(round_name, begin, end, "cats.abd.op"))
        for key in (asked, decisive):
            spans.append(span(f"network.aio.transit[{key[0]}]", *crossing[key], round_name))
    return spans


def transit_spans(log: TraceLog) -> list[dict]:
    """The wire-only workloads have one span kind: the transit of a message."""
    return [
        {"op": key[1], "name": f"network.aio.transit[{key[0]}]", "start": left,
         "end": arrived, "parent": None}
        for key, (left, arrived) in list(transits(log).items())[: TRACE_FILE_OPS * 4]
    ]


def write_trace(outcome: Outcome) -> Path:
    """Write what the traced run kept in memory to bench/results/."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{outcome.workload}.json"
    document = {"workload": outcome.workload, "seed": outcome.seed,
                "clock": "time.perf_counter seconds", **outcome.trace_document}
    with open(path, "w") as handle:
        json.dump(document, handle)
    return path
