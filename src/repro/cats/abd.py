"""ConsistentAbd: linearizable get/put over view-fenced quorums (paper §4).

The CATS consistency layer.  Every key is replicated on the ``R`` ring
successors of the key; the first of them is the range's *primary*.  Reads
and writes are multi-writer ABD register operations — a read phase
collecting the highest ``(timestamp, writer)`` record from a majority,
followed (for puts, and for gets that observed disagreement) by a write
phase to a majority.

Consistency under churn comes from *view fencing*: the primary of a range
installs numbered views of its replication group.  A view change runs in
two rounds — ViewPrepare fences the members (they stop serving older views
of overlapping ranges and return their records for the range), then
ViewCommit distributes the merged state and activates the view.  Every
quorum operation is tagged ``(primary, view_id)`` and is rejected by
replicas unless that exact view is active, so operations from superseded
views cannot complete after the new view's state was assembled.  This
reproduces the behaviour of CATS' consistent quorums for the common case of
step-wise churn (single join/failure per range at a time); simultaneous
multi-node failures inside one replication group can still lose fenced
state, exactly the regime the CATS tech report's full protocol addresses.

Any node accepts client operations on its PutGet port and acts as the
*coordinator*: it resolves the key's primary through the one-hop router,
fetches the current view, and runs the quorum phases, retrying with fresh
routing state whenever a replica rejects its view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..core.lifecycle import Start, Stop
from ..network.address import Address
from ..network.message import Network
from ..protocols.router.port import Resolve, ResolveFailed, Resolved, Router
from ..timer.port import (
    CancelPeriodicTimeout,
    CancelTimeout,
    SchedulePeriodicTimeout,
    ScheduleTimeout,
    Timeout,
    Timer,
    new_timeout_id,
)
from .events import (
    GetRequest,
    GetResponse,
    GroupBusy,
    GroupRequest,
    GroupResponse,
    GroupWrongNode,
    PutGet,
    PutRequest,
    PutResponse,
    ReadRequest,
    ReadResponse,
    Ring,
    RingLookup,
    RingLookupResponse,
    RingNeighbors,
    ViewCommit,
    ViewCommitAck,
    ViewPrepare,
    ViewPrepareAck,
    ViewPrepareReject,
    ViewRejected,
    WriteRequest,
    WriteResponse,
    new_op_id,
)
from .key import KeySpace
from .store import LocalStore, Record


class ViewStatus(enum.Enum):
    PREPARING = "preparing"
    ACTIVE = "active"
    DEAD = "dead"


@dataclass(slots=True)
class View:
    primary: Address
    view_id: int
    members: tuple[Address, ...]
    range_start: int
    range_end: int
    status: ViewStatus

    @property
    def quorum(self) -> int:
        return len(self.members) // 2 + 1

    def covers(self, key: int, space: KeySpace) -> bool:
        return space.in_interval(key, self.range_start, self.range_end)


@dataclass(slots=True)
class _Install:
    """Primary-side in-flight view installation."""

    view: View
    acks: dict[Address, tuple] = field(default_factory=dict)
    #: overlapping views this installation supersedes; a majority of each
    #: must ack the prepare before the new view may activate (the
    #: consistent-quorums condition: no superseded quorum can still commit).
    old_views: tuple[View, ...] = ()
    recipients: tuple[Address, ...] = ()


@dataclass(slots=True)
class _Op:
    """Coordinator-side operation state machine."""

    op_id: int
    kind: str  # "get" | "put"
    key: int
    value: object = None
    phase: str = "resolve"  # resolve -> group -> read -> write -> done
    attempt: int = 0
    view: Optional[View] = None
    read_replies: dict[Address, ReadResponse] = field(default_factory=dict)
    write_acks: set[Address] = field(default_factory=set)
    #: members that rejected this attempt's view (see on_view_rejected)
    rejections: set[Address] = field(default_factory=set)
    pending_record: Optional[Record] = None
    done: bool = False
    timeout_id: int = 0  # the current attempt's OpTimeout, cancelled on completion


@dataclass(frozen=True, slots=True)
class OpTimeout(Timeout):
    op_id: int = 0
    attempt: int = 0


@dataclass(frozen=True, slots=True)
class OpRetry(Timeout):
    op_id: int = 0


@dataclass(frozen=True, slots=True)
class InstallRetry(Timeout):
    """Retransmission timer for an in-flight view installation."""

    view_id: int = 0


@dataclass(frozen=True, slots=True)
class GcTick(Timeout):
    """Periodic storage garbage collection."""


@dataclass(frozen=True, slots=True)
class ReballotTick(Timeout):
    """Deferred re-attempt of a view installation after a ballot reject."""


class ConsistentAbd(ComponentDefinition):
    """Provides PutGet; requires Network, Timer, Router and Ring."""

    def __init__(
        self,
        address: Address,
        key_space: KeySpace,
        replication_degree: int = 3,
        op_timeout: float = 2.0,
        max_retries: int = 20,
        install_retry_period: float = 1.0,
        gc_interval: float = 30.0,
    ) -> None:
        super().__init__()
        if address.node_id is None:
            raise ValueError("ConsistentAbd requires an address with a node_id")
        self.address = address
        self.key_space = key_space
        self.replication_degree = replication_degree
        self.op_timeout = op_timeout
        self.max_retries = max_retries
        self.install_retry_period = install_retry_period
        self.gc_interval = gc_interval
        self.gc_dropped = 0
        self.reballot_delay = 0.1
        self._reballot_floor = 0
        self._reballot_pending = False
        #: highest view id among GC-evicted DEAD views: keeps _next_ballot
        #: above every ballot this node has ever seen after eviction
        self._ballot_ceiling = 0

        self.putget = self.provides(PutGet)
        self.network = self.requires(Network)
        self.timer = self.requires(Timer)
        self.router = self.requires(Router)
        self.ring = self.requires(Ring)

        self.store = LocalStore(key_space)
        self.views: dict[Address, View] = {}  # replica side, keyed by primary
        self.my_view: Optional[View] = None
        self._install: Optional[_Install] = None
        self._neighbors: Optional[RingNeighbors] = None
        self._ops: dict[int, _Op] = {}

        # Statistics (surfaced via status()).
        self.ops_completed = 0
        self.ops_failed = 0
        self.retries = 0
        self.view_rejections = 0
        self.views_installed = 0

        self.subscribe(self.on_put, self.putget)
        self.subscribe(self.on_get, self.putget)
        self.subscribe(self.on_neighbors, self.ring)
        self.subscribe(self.on_ring_lookup_response, self.ring)
        self.subscribe(self.on_resolved, self.router)
        self.subscribe(self.on_resolve_failed, self.router)
        for message_type, handler in (
            (GroupRequest, self.on_group_request),
            (GroupResponse, self.on_group_response),
            (GroupBusy, self.on_group_busy),
            (GroupWrongNode, self.on_group_wrong_node),
            (ReadRequest, self.on_read_request),
            (ReadResponse, self.on_read_response),
            (WriteRequest, self.on_write_request),
            (WriteResponse, self.on_write_response),
            (ViewRejected, self.on_view_rejected),
            (ViewPrepare, self.on_view_prepare),
            (ViewPrepareAck, self.on_view_prepare_ack),
            (ViewPrepareReject, self.on_view_prepare_reject),
            (ViewCommit, self.on_view_commit),
            (ViewCommitAck, self.on_view_commit_ack),
        ):
            self.subscribe(handler, self.network, event_type=message_type)
        self.subscribe(self.on_op_timeout, self.timer)
        self.subscribe(self.on_op_retry, self.timer)
        self.subscribe(self.on_install_retry, self.timer)
        self.subscribe(self.on_reballot_tick, self.timer)
        self._gc_timeout_id = 0
        if self.gc_interval > 0:
            self.subscribe(self.on_gc_tick, self.timer)
            self.subscribe(self.on_started, self.control)
            self.subscribe(self.on_stopped, self.control)

    @handles(Start)
    def on_started(self, _event: Start) -> None:
        self._gc_timeout_id = new_timeout_id()
        self.trigger(
            SchedulePeriodicTimeout(
                self.gc_interval, self.gc_interval, GcTick(self._gc_timeout_id)
            ),
            self.timer,
        )

    @handles(Stop)
    def on_stopped(self, _event: Stop) -> None:
        """A stopped node must not keep a periodic GC timer ticking."""
        if self._gc_timeout_id:
            self.trigger(CancelPeriodicTimeout(self._gc_timeout_id), self.timer)
            self._gc_timeout_id = 0

    @handles(GcTick)
    def on_gc_tick(self, _tick: GcTick) -> None:
        """Drop records for ranges this node no longer replicates.

        Conservative: only runs when at least one active view includes us,
        and keeps every key covered by *any* such view.  Also evicts DEAD
        views (fenced, never consulted by blockers or old_views again);
        their ballots survive in ``_ballot_ceiling`` so ``_next_ballot``
        stays monotonic — without eviction ``views`` grows with every
        primary this replica has ever seen.
        """
        for primary in [
            p for p, view in self.views.items() if view.status is ViewStatus.DEAD
        ]:
            self._ballot_ceiling = max(
                self._ballot_ceiling, self.views[primary].view_id
            )
            del self.views[primary]
        covered = [
            view
            for view in self.views.values()
            if view.status is ViewStatus.ACTIVE and self.address in view.members
        ]
        if not covered:
            return
        self.gc_dropped += self.store.drop_if(
            lambda key: not any(
                view.covers(key, self.key_space) for view in covered
            )
        )

    # ================================================== view reconfiguration

    @handles(RingNeighbors)
    def on_neighbors(self, event: RingNeighbors) -> None:
        # Latest-snapshot cache: RingNeighbors is frozen with tuple/Address
        # payloads, each delivery replaces the previous reference, and
        # _desired_view reads several fields — retention is the point here.
        self._neighbors = event  # repro: noqa[M003]
        self._maybe_install_view()

    def _desired_view(self) -> Optional[tuple[tuple[Address, ...], int, int]]:
        neighbors = self._neighbors
        if neighbors is None or neighbors.predecessor is None:
            return None
        members: list[Address] = [self.address]
        for successor in neighbors.successors:
            if successor not in members:
                members.append(successor)
            if len(members) == self.replication_degree:
                break
        range_start = neighbors.predecessor.node_id
        range_end = self.address.node_id
        return tuple(members), range_start, range_end  # type: ignore[return-value]

    def _overlapping_views(self, range_start: int, range_end: int, statuses=None):
        views = list(self.views.values())
        if self.my_view is not None and self.my_view not in views:
            views.append(self.my_view)
        if self._install is not None and self._install.view not in views:
            views.append(self._install.view)
        return [
            view
            for view in views
            if (statuses is None or view.status in statuses)
            and self._ranges_overlap(view, range_start, range_end)
        ]

    def _next_ballot(self, range_start: int, range_end: int) -> int:
        """A view id above every overlapping view this node has ever seen."""
        known = self._overlapping_views(range_start, range_end)
        base = max((view.view_id for view in known), default=0)
        return max(base, self._reballot_floor, self._ballot_ceiling) + 1

    def _maybe_install_view(self) -> None:
        desired = self._desired_view()
        if desired is None:
            return
        members, range_start, range_end = desired
        current = self.my_view
        if (
            current is not None
            and current.status is ViewStatus.ACTIVE
            and current.members == members
            and current.range_start == range_start
            and current.range_end == range_end
        ):
            return
        if (
            self._install is not None
            and self._install.view.members == members
            and self._install.view.range_start == range_start
            and self._install.view.range_end == range_end
        ):
            return  # already installing exactly this view
        # Views this installation supersedes: a majority of each must be
        # fenced (via prepare acks) before activation, so no quorum of a
        # superseded view can still complete an operation afterwards.
        old_views = tuple(
            view
            for view in self._overlapping_views(
                range_start, range_end,
                statuses=(ViewStatus.ACTIVE, ViewStatus.PREPARING),
            )
            if view is not (self._install.view if self._install else None)
        )
        next_id = self._next_ballot(range_start, range_end)
        view = View(
            primary=self.address,
            view_id=next_id,
            members=members,
            range_start=range_start,
            range_end=range_end,
            status=ViewStatus.PREPARING,
        )
        recipients = {member for member in members}
        for old in old_views:
            recipients.update(old.members)
        recipients.discard(self.address)
        self._install = _Install(
            view=view, old_views=old_views, recipients=tuple(sorted(recipients))
        )
        self._install.acks[self.address] = self.store.records_in_range(
            range_start, range_end
        )
        self._send_prepares()
        self.trigger(
            ScheduleTimeout(
                self.install_retry_period,
                InstallRetry(new_timeout_id(), view_id=view.view_id),
            ),
            self.timer,
        )
        self._check_install_quorum()

    def _send_prepares(self) -> None:
        install = self._install
        if install is None:
            return
        view = install.view
        for member in install.recipients:
            if member not in install.acks:
                self.trigger(
                    ViewPrepare(
                        self.address,
                        member,
                        view_id=view.view_id,
                        range_start=view.range_start,
                        range_end=view.range_end,
                        members=view.members,
                    ),
                    self.network,
                )

    @handles(InstallRetry)
    def on_install_retry(self, timeout: InstallRetry) -> None:
        """Retransmit prepares while an installation is starved (lossy net)."""
        install = self._install
        if install is None or install.view.view_id != timeout.view_id:
            return
        self._send_prepares()
        self.trigger(
            ScheduleTimeout(
                self.install_retry_period,
                InstallRetry(new_timeout_id(), view_id=timeout.view_id),
            ),
            self.timer,
        )

    def _check_install_quorum(self) -> None:
        install = self._install
        if install is None or len(install.acks) < install.view.quorum:
            return
        # Consistent-quorums condition: a majority of every superseded view
        # must have been fenced (acked the prepare) before activation.
        for old in install.old_views:
            fenced = sum(1 for member in old.members if member in install.acks)
            if fenced < old.quorum:
                return
        # Merge the freshest record per key across the prepare majority.
        merged: dict[int, Record] = {}
        for records in install.acks.values():
            for record in records:
                current = merged.get(record.key)
                if current is None or record.stamp > current.stamp:
                    merged[record.key] = record
        self.store.apply_all(merged.values())
        view = install.view
        view.status = ViewStatus.ACTIVE
        self.my_view = view
        self._fence_overlapping(view)
        self.views[self.address] = view
        self.views_installed += 1
        self._install = None
        payload = tuple(merged.values())
        for member in view.members:
            if member != self.address:
                self.trigger(
                    ViewCommit(
                        self.address,
                        member,
                        view_id=view.view_id,
                        range_start=view.range_start,
                        range_end=view.range_end,
                        members=view.members,
                        records=payload,
                    ),
                    self.network,
                )

    def _ranges_overlap(self, a: View, start: int, end: int) -> bool:
        if a.range_start == a.range_end or start == end:
            return True  # a whole-ring range overlaps everything
        return (
            self.key_space.in_interval(end, a.range_start, a.range_end)
            or self.key_space.in_interval(a.range_end, start, end)
        )

    def _fence_overlapping(self, view: View) -> None:
        """Kill any older view whose range overlaps the new one."""
        for primary, other in tuple(self.views.items()):
            if other is view:
                continue
            if self._ranges_overlap(other, view.range_start, view.range_end):
                other.status = ViewStatus.DEAD

    def _ballot_blockers(
        self, view_id: int, primary: Address, range_start: int, range_end: int
    ) -> list[View]:
        """Live overlapping views whose ballot outranks ``(view_id, primary)``."""
        ballot = (view_id, primary.node_id)
        return [
            view
            for view in self._overlapping_views(
                range_start, range_end,
                statuses=(ViewStatus.ACTIVE, ViewStatus.PREPARING),
            )
            if view.primary != primary
            and (view.view_id, view.primary.node_id) >= ballot
        ]

    @handles(ViewPrepare)
    def on_view_prepare(self, message: ViewPrepare) -> None:
        existing = self.views.get(message.source)
        if existing is not None and existing.view_id > message.view_id:
            return  # stale prepare from this primary
        blockers = self._ballot_blockers(
            message.view_id, message.source, message.range_start, message.range_end
        )
        if blockers:
            best = max(blockers, key=lambda v: (v.view_id, v.primary.node_id))
            self.trigger(
                ViewPrepareReject(
                    self.address,
                    message.source,
                    view_id=message.view_id,
                    current_view_id=best.view_id,
                    current_primary_id=best.primary.node_id,  # type: ignore[arg-type]
                ),
                self.network,
            )
            return
        view = View(
            primary=message.source,
            view_id=message.view_id,
            members=message.members,
            range_start=message.range_start,
            range_end=message.range_end,
            status=ViewStatus.PREPARING,
        )
        self._fence_overlapping(view)
        self.views[message.source] = view
        records = self.store.records_in_range(message.range_start, message.range_end)
        self.trigger(
            ViewPrepareAck(
                self.address, message.source, view_id=message.view_id, records=records
            ),
            self.network,
        )
        self._recheck_own_view()

    @handles(ViewPrepareReject)
    def on_view_prepare_reject(self, message: ViewPrepareReject) -> None:
        install = self._install
        if install is None or install.view.view_id != message.view_id:
            return
        # Outbid: abandon this attempt and re-ballot above the reported
        # view after a short delay (breaking same-instant duels).
        self._reballot_floor = max(self._reballot_floor, message.current_view_id)
        self._install = None
        self._schedule_reballot()

    def _schedule_reballot(self) -> None:
        if self._reballot_pending:
            return
        self._reballot_pending = True
        self.trigger(
            ScheduleTimeout(self.reballot_delay, ReballotTick(new_timeout_id())),
            self.timer,
        )

    @handles(ReballotTick)
    def on_reballot_tick(self, _tick: ReballotTick) -> None:
        self._reballot_pending = False
        self._maybe_install_view()

    def _recheck_own_view(self) -> None:
        """If someone fenced the view we serve, schedule a reinstall."""
        if (
            self.my_view is not None
            and self.my_view.status is ViewStatus.DEAD
            and self._install is None
        ):
            self._schedule_reballot()

    @handles(ViewPrepareAck)
    def on_view_prepare_ack(self, message: ViewPrepareAck) -> None:
        install = self._install
        if install is None or install.view.view_id != message.view_id:
            # A late ack for a view we already activated: the member may
            # have missed the (lossy) commit — resend it.
            view = self.my_view
            if (
                view is not None
                and view.status is ViewStatus.ACTIVE
                and view.view_id == message.view_id
                and message.source in view.members
            ):
                self.store.apply_all(message.records)
                self.trigger(
                    ViewCommit(
                        self.address,
                        message.source,
                        view_id=view.view_id,
                        range_start=view.range_start,
                        range_end=view.range_end,
                        members=view.members,
                        records=self.store.records_in_range(
                            view.range_start, view.range_end
                        ),
                    ),
                    self.network,
                )
            return
        install.acks[message.source] = message.records
        self._check_install_quorum()

    @handles(ViewCommit)
    def on_view_commit(self, message: ViewCommit) -> None:
        view = self.views.get(message.source)
        if view is None or view.view_id != message.view_id:
            # We did not prepare this view (lost prepare / restart): accept
            # it only if no live overlapping view outranks its ballot.
            if self._ballot_blockers(
                message.view_id, message.source, message.range_start, message.range_end
            ):
                return
            view = View(
                primary=message.source,
                view_id=message.view_id,
                members=message.members,
                range_start=message.range_start,
                range_end=message.range_end,
                status=ViewStatus.PREPARING,
            )
            self._fence_overlapping(view)
            self.views[message.source] = view
        self.store.apply_all(message.records)
        view.status = ViewStatus.ACTIVE
        self.trigger(
            ViewCommitAck(self.address, message.source, view_id=message.view_id),
            self.network,
        )
        self._recheck_own_view()

    @handles(ViewCommitAck)
    def on_view_commit_ack(self, message: ViewCommitAck) -> None:
        pass  # commit acks are informational in this implementation

    # ========================================================= replica side

    def _active_view_for(self, primary: Address, view_id: int, key: int) -> Optional[View]:
        view = self.views.get(primary)
        if view is None or view.view_id != view_id:
            return None
        if view.status is ViewStatus.PREPARING:
            # We acked the prepare but the commit may have been lost:
            # re-ack so the primary resends it (liveness under loss).
            self.trigger(
                ViewPrepareAck(
                    self.address,
                    primary,
                    view_id=view.view_id,
                    records=self.store.records_in_range(
                        view.range_start, view.range_end
                    ),
                ),
                self.network,
            )
            return None
        if view.status is not ViewStatus.ACTIVE or not view.covers(key, self.key_space):
            return None
        return view

    @handles(GroupRequest)
    def on_group_request(self, message: GroupRequest) -> None:
        view = self.my_view
        if view is None or view.status is not ViewStatus.ACTIVE or self._install is not None:
            self.trigger(
                GroupBusy(self.address, message.source, key=message.key, op_id=message.op_id),
                self.network,
            )
            return
        if not view.covers(message.key, self.key_space):
            self.trigger(
                GroupWrongNode(
                    self.address, message.source, key=message.key, op_id=message.op_id
                ),
                self.network,
            )
            return
        self.trigger(
            GroupResponse(
                self.address,
                message.source,
                key=message.key,
                op_id=message.op_id,
                primary=self.address,
                view_id=view.view_id,
                members=view.members,
            ),
            self.network,
        )

    @handles(ReadRequest)
    def on_read_request(self, message: ReadRequest) -> None:
        view = self._active_view_for(message.primary, message.view_id, message.key)
        if view is None:
            self.view_rejections += 1
            self.trigger(
                ViewRejected(self.address, message.source, key=message.key, op_id=message.op_id),
                self.network,
            )
            return
        record = self.store.read(message.key)
        self.trigger(
            ReadResponse(
                self.address,
                message.source,
                key=message.key,
                op_id=message.op_id,
                found=record is not None,
                timestamp=record.timestamp if record else 0,
                writer=record.writer if record else 0,
                value=record.value if record else None,
            ),
            self.network,
        )

    @handles(WriteRequest)
    def on_write_request(self, message: WriteRequest) -> None:
        view = self._active_view_for(message.primary, message.view_id, message.key)
        if view is None:
            self.view_rejections += 1
            self.trigger(
                ViewRejected(self.address, message.source, key=message.key, op_id=message.op_id),
                self.network,
            )
            return
        self.store.apply(
            Record(message.key, message.timestamp, message.writer, message.value)
        )
        self.trigger(
            WriteResponse(self.address, message.source, key=message.key, op_id=message.op_id),
            self.network,
        )

    # ====================================================== coordinator side

    @handles(PutRequest)
    def on_put(self, request: PutRequest) -> None:
        op_id = request.op_id or new_op_id()
        op = _Op(op_id=op_id, kind="put", key=self.key_space.normalize(request.key), value=request.value)
        self._ops[op_id] = op
        self._begin_attempt(op)

    @handles(GetRequest)
    def on_get(self, request: GetRequest) -> None:
        op_id = request.op_id or new_op_id()
        op = _Op(op_id=op_id, kind="get", key=self.key_space.normalize(request.key))
        self._ops[op_id] = op
        self._begin_attempt(op)

    def _begin_attempt(self, op: _Op) -> None:
        op.attempt += 1
        op.phase = "resolve"
        op.view = None
        op.read_replies.clear()
        op.write_acks.clear()
        op.rejections.clear()
        op.pending_record = None
        if op.attempt > self.max_retries:
            self._fail(op, "retries exhausted")
            return
        if op.attempt <= 2:
            # Fast path: one-hop routing from the local membership view.
            self.trigger(Resolve(op.key, request_id=op.op_id), self.router)
        else:
            # The router's hint keeps missing: ask the (authoritative but
            # slower) ring walk instead.
            self.trigger(RingLookup(op.key, op_id=op.op_id), self.ring)
        if op.timeout_id:
            self.trigger(CancelTimeout(op.timeout_id), self.timer)
        op.timeout_id = new_timeout_id()
        self.trigger(
            ScheduleTimeout(
                self.op_timeout, OpTimeout(op.timeout_id, op_id=op.op_id, attempt=op.attempt)
            ),
            self.timer,
        )

    @handles(Resolved)
    def on_resolved(self, event: Resolved) -> None:
        self._resolved(event.request_id, event.node)

    @handles(RingLookupResponse)
    def on_ring_lookup_response(self, event: RingLookupResponse) -> None:
        self._resolved(event.op_id, event.responsible)

    def _resolved(self, op_id: int, node: Address) -> None:
        op = self._ops.get(op_id)
        if op is None or op.phase != "resolve":
            return
        op.phase = "group"
        self.trigger(
            GroupRequest(self.address, node, key=op.key, op_id=op.op_id),
            self.network,
        )

    @handles(ResolveFailed)
    def on_resolve_failed(self, event: ResolveFailed) -> None:
        op = self._ops.get(event.request_id)
        if op is not None and op.phase == "resolve":
            self._schedule_retry(op)

    @handles(GroupResponse)
    def on_group_response(self, message: GroupResponse) -> None:
        op = self._ops.get(message.op_id)
        if op is None or op.phase != "group":
            return
        op.view = View(
            primary=message.primary,
            view_id=message.view_id,
            members=message.members,
            range_start=0,
            range_end=0,
            status=ViewStatus.ACTIVE,
        )
        op.phase = "read"
        for member in message.members:
            self.trigger(
                ReadRequest(
                    self.address,
                    member,
                    key=op.key,
                    op_id=op.op_id,
                    primary=message.primary,
                    view_id=message.view_id,
                ),
                self.network,
            )

    @handles(GroupBusy)
    def on_group_busy(self, message: GroupBusy) -> None:
        op = self._ops.get(message.op_id)
        if op is not None and not op.done:
            self._schedule_retry(op)

    @handles(GroupWrongNode)
    def on_group_wrong_node(self, message: GroupWrongNode) -> None:
        op = self._ops.get(message.op_id)
        if op is not None and not op.done:
            self._schedule_retry(op)

    @handles(ViewRejected)
    def on_view_rejected(self, message: ViewRejected) -> None:
        op = self._ops.get(message.op_id)
        if op is None or op.done:
            return
        if op.phase in ("read", "write") and op.view is not None:
            # A member that does not serve the view (say, it never got the
            # commit) only matters once the rest can no longer make a quorum.
            op.rejections.add(message.source)
            if len(op.view.members) - len(op.rejections) >= op.view.quorum:
                return
        self._schedule_retry(op)

    @handles(ReadResponse)
    def on_read_response(self, message: ReadResponse) -> None:
        op = self._ops.get(message.op_id)
        if op is None or op.phase != "read" or op.view is None:
            return
        op.read_replies[message.source] = message
        if len(op.read_replies) < op.view.quorum:
            return
        replies = list(op.read_replies.values())
        best = max(replies, key=lambda r: (r.found, r.timestamp, r.writer))
        if op.kind == "put":
            record = Record(
                key=op.key,
                timestamp=best.timestamp + 1,
                writer=self.address.node_id,  # type: ignore[arg-type]
                value=op.value,
            )
            self._start_write(op, record)
            return
        # GET: if the quorum agrees on the record, answer immediately;
        # otherwise write back the freshest record first (ABD's second phase)
        # so a subsequent read cannot travel back in time.
        stamps = {(r.timestamp, r.writer, r.found) for r in replies}
        if len(stamps) == 1:
            self._complete_get(op, best)
            return
        if not best.found:
            self._complete_get(op, best)
            return
        record = Record(op.key, best.timestamp, best.writer, best.value)
        self._start_write(op, record)

    def _start_write(self, op: _Op, record: Record) -> None:
        assert op.view is not None
        op.phase = "write"
        op.pending_record = record
        for member in op.view.members:
            self.trigger(
                WriteRequest(
                    self.address,
                    member,
                    key=op.key,
                    op_id=op.op_id,
                    primary=op.view.primary,
                    view_id=op.view.view_id,
                    timestamp=record.timestamp,
                    writer=record.writer,
                    value=record.value,
                ),
                self.network,
            )

    @handles(WriteResponse)
    def on_write_response(self, message: WriteResponse) -> None:
        op = self._ops.get(message.op_id)
        if op is None or op.phase != "write" or op.view is None:
            return
        op.write_acks.add(message.source)
        if len(op.write_acks) < op.view.quorum:
            return
        if op.kind == "put":
            self._finish(op, PutResponse(op.op_id, op.key, ok=True))
        else:
            record = op.pending_record
            assert record is not None
            self._finish(
                op,
                GetResponse(op.op_id, op.key, found=True, value=record.value),
            )

    def _complete_get(self, op: _Op, best: ReadResponse) -> None:
        self._finish(
            op,
            GetResponse(
                op.op_id, op.key, found=best.found, value=best.value if best.found else None
            ),
        )

    # ---------------------------------------------------- retries & timeouts

    def _schedule_retry(self, op: _Op) -> None:
        if op.done:
            return
        self.retries += 1
        delay = min(0.05 * op.attempt, 0.5)
        self.trigger(
            ScheduleTimeout(delay, OpRetry(new_timeout_id(), op_id=op.op_id)),
            self.timer,
        )
        op.phase = "waiting_retry"

    @handles(OpRetry)
    def on_op_retry(self, timeout: OpRetry) -> None:
        op = self._ops.get(timeout.op_id)
        if op is not None and not op.done and op.phase == "waiting_retry":
            self._begin_attempt(op)

    @handles(OpTimeout)
    def on_op_timeout(self, timeout: OpTimeout) -> None:
        op = self._ops.get(timeout.op_id)
        if op is None or op.done or op.attempt != timeout.attempt:
            return
        if op.phase == "waiting_retry":
            return
        self._begin_attempt(op)

    # ----------------------------------------------------------- completion

    def _finish(self, op: _Op, response) -> None:
        if op.done:
            return
        op.done = True
        self.ops_completed += 1
        del self._ops[op.op_id]
        self._cancel_op_timeout(op)
        self.trigger(response, self.putget)

    def _cancel_op_timeout(self, op: _Op) -> None:
        """Release the pending attempt timer: a completed operation must not
        leave a stale OpTimeout ticking in the timer wheel."""
        if op.timeout_id:
            self.trigger(CancelTimeout(op.timeout_id), self.timer)
            op.timeout_id = 0

    def _fail(self, op: _Op, reason: str) -> None:
        if op.done:
            return
        op.done = True
        self.ops_failed += 1
        self._ops.pop(op.op_id, None)
        self._cancel_op_timeout(op)
        if op.kind == "put":
            self.trigger(
                PutResponse(op.op_id, op.key, ok=False, error=reason), self.putget
            )
        else:
            self.trigger(
                GetResponse(op.op_id, op.key, found=False, ok=False, error=reason),
                self.putget,
            )

    # ------------------------------------------------------------ inspection

    def status(self) -> dict:
        view = self.my_view
        return {
            "keys": len(self.store),
            "view_id": view.view_id if view else 0,
            "group": [str(m) for m in view.members] if view else [],
            "ops_completed": self.ops_completed,
            "ops_failed": self.ops_failed,
            "retries": self.retries,
            "view_rejections": self.view_rejections,
            "views_installed": self.views_installed,
        }

    # ---------------------------------------------------- section-2.6 handover

    def dump_state(self) -> dict:
        """Durable replica state for section-2.6 replacement.

        In-flight client operations and the pending view installation are
        deliberately dropped: their retry timers die with the old instance
        and clients re-drive them, exactly as across a crash-recovery.
        """
        return {
            "records": self.store.snapshot(),
            "views": dict(self.views),
            "my_view": self.my_view,
            "neighbors": self._neighbors,
            "ballot_ceiling": self._ballot_ceiling,
            "reballot_floor": self._reballot_floor,
            "stats": (
                self.ops_completed, self.ops_failed, self.retries,
                self.view_rejections, self.views_installed, self.gc_dropped,
            ),
        }

    def load_state(self, state: dict) -> None:
        self.store.apply_all(state["records"])
        self.views = dict(state["views"])
        self.my_view = state["my_view"]
        self._neighbors = state["neighbors"]
        self._ballot_ceiling = state["ballot_ceiling"]
        self._reballot_floor = state["reballot_floor"]
        (
            self.ops_completed, self.ops_failed, self.retries,
            self.view_rejections, self.views_installed, self.gc_dropped,
        ) = state["stats"]
