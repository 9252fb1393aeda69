"""Which layer a message belongs to, and the per-layer metrics of the socket
workloads, from counters and tap records."""

from __future__ import annotations

from repro.cats.events import (
    FindSuccessor,
    FoundSuccessor,
    GetNeighbors,
    GetNeighborsReply,
    GroupBusy,
    GroupRequest,
    GroupResponse,
    GroupWrongNode,
    Notify,
    ReadRequest,
    ReadResponse,
    ViewCommit,
    ViewCommitAck,
    ViewPrepare,
    ViewPrepareAck,
    ViewPrepareReject,
    ViewRejected,
    WriteRequest,
    WriteResponse,
)
from repro.cats.remote import ClientGet, ClientGetReply, ClientPut, ClientPutReply
from repro.protocols.failure_detector import FdPing, FdPong
from repro.protocols.overlay import ShuffleRequest, ShuffleResponse

from .stats import median, percentile
from .taps import TraceLog

#: Message class -> layer.  The classes are imported, so that a rename in the
#: program stops the benchmark with an ImportError instead of moving traffic
#: to "other" unnoticed.
MESSAGE_LAYER: dict[type, str] = {
    **dict.fromkeys((FindSuccessor, FoundSuccessor, GetNeighbors, GetNeighborsReply, Notify), "ring"),
    **dict.fromkeys((
        GroupRequest, GroupResponse, GroupBusy, GroupWrongNode, ReadRequest, ReadResponse,
        WriteRequest, WriteResponse, ViewRejected, ViewPrepare, ViewPrepareAck,
        ViewPrepareReject, ViewCommit, ViewCommitAck), "abd"),
    **dict.fromkeys((ClientGet, ClientGetReply, ClientPut, ClientPutReply), "remote"),
    **dict.fromkeys((FdPing, FdPong), "fd"),
    **dict.fromkeys((ShuffleRequest, ShuffleResponse), "cyclon"),
}


def layer_of(message_type: type) -> str:
    return MESSAGE_LAYER.get(message_type, "other")


AIO_COUNTERS = (
    "sent", "received", "batches", "batched_messages", "bytes_sent",
    "dropped_frames", "reconnects",
)


def socket_counters(system, networks) -> dict[str, float]:
    """Counters the network backends and the scheduler already publish."""
    totals = dict.fromkeys(AIO_COUNTERS, 0)
    for network in networks:
        snapshot = network.status_snapshot()
        for name in AIO_COUNTERS:
            totals[name] += snapshot[name]
    totals.update(system.scheduler.stats())
    return totals


def median_rate(windows: list[dict], ops: str = "ops") -> float:
    """Median over the windows of operations completed per second."""
    return median([window[ops] / window["wall"] for window in windows])


def queued_frames(networks) -> int:
    return sum(network.status_snapshot()["queued_frames"] for network in networks)


def transits(log: TraceLog) -> dict[tuple, tuple[float, float]]:
    """Message key -> (time it left the sender's tap, time it reached the receiver's)."""
    left: dict[tuple, float] = {}
    spans: dict[tuple, tuple[float, float]] = {}
    for direction, when, _node, _type, key in log.net:
        if key is None:
            continue
        if direction == "out":
            left.setdefault(key, when)
        elif key in left and key not in spans:
            spans[key] = (left[key], when)
    return spans


def codec_seconds(log: TraceLog) -> dict[tuple, float]:
    """Message key -> encode + decode seconds spent on it."""
    seconds: dict[tuple, float] = {}
    for key, elapsed, *_rest in log.encoded:
        if key is not None:
            seconds[key] = seconds.get(key, 0.0) + elapsed
    for key, elapsed in log.decoded:
        if key is not None:
            seconds[key] = seconds.get(key, 0.0) + elapsed
    return seconds


def socket_layer_metrics(
    windows: list[dict], ops: str, log: TraceLog, queue_samples: list[int],
    payload_bytes_per_op: float,
) -> dict[str, float]:
    """``windows`` are the traced measurement windows; ``ops`` names their op counter."""
    total = {name: sum(window[name] for window in windows) for name in windows[0]}
    done = max(1, total[ops])
    metrics = {
        "network.aio.msgs_per_batch": total["batched_messages"] / max(1, total["batches"]),
        "network.aio.wire_bytes_per_op": total["bytes_sent"] / done,
        "network.aio.queued_frames_p95": percentile(queue_samples, 0.95),
        "network.aio.dropped_frames": total["dropped_frames"],
        "network.aio.reconnects": total["reconnects"],
        "runtime.sched.slots_per_op": total["executed_slots"] / done,
        "runtime.sched.steal_success_share": total["steals"] / max(1, total["steal_attempts"]),
    }
    if log.encoded:
        wire = sum(record[2] for record in log.encoded)
        metrics.update({
            "network.codec.encode_us_per_msg": 1e6 * sum(r[1] for r in log.encoded) / len(log.encoded),
            "network.codec.wire_bytes_per_msg": wire / len(log.encoded),
            "network.codec.compress_eligible_share": sum(r[3] for r in log.encoded) / len(log.encoded),
            "network.codec.compress_win_share": sum(r[4] for r in log.encoded) / len(log.encoded),
        })
        if payload_bytes_per_op:
            metrics["network.codec.wire_bytes_per_payload_byte"] = (
                total["bytes_sent"] / (done * payload_bytes_per_op)
            )
    if log.decoded:
        metrics["network.codec.decode_us_per_msg"] = (
            1e6 * sum(r[1] for r in log.decoded) / len(log.decoded)
        )
    codec = codec_seconds(log)
    crossing = [
        1e3 * (arrived - left - codec.get(key, 0.0))
        for key, (left, arrived) in transits(log).items()
        if key[2] != key[3]  # skip messages a node sends to itself
    ]
    metrics["network.aio.transit_ms_p50"] = median(crossing)
    return metrics
