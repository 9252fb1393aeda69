"""The view-installation protocol: ballots, fencing, old-view majorities.

These test the consistent-quorums mechanics in isolation with probes:
an installation must fence a majority of every view it supersedes, lower
ballots are rejected, and an isolated node cannot activate a singleton
view over a replicated range (the split-brain scenario).
"""

from __future__ import annotations

import pytest

from repro.cats import KeySpace
from repro.cats.abd import ConsistentAbd, ViewStatus
from repro.cats.events import (
    GroupRequest,
    GroupResponse,
    PutGet,
    PutRequest,
    PutResponse,
    ReadRequest,
    ReadResponse,
    Ring,
    RingNeighbors,
    ViewCommit,
    ViewPrepare,
    ViewPrepareAck,
    ViewPrepareReject,
    ViewRejected,
    WriteRequest,
    WriteResponse,
)
from repro.network import Network
from repro.protocols.router.port import Resolve, Resolved, Router
from repro.testkit import ComponentHarness

from tests.sim_kit import sim_address

SPACE = KeySpace(bits=16)
ME = sim_address(30_000)
PEER_A = sim_address(10_000)
PEER_B = sim_address(50_000)
PEER_C = sim_address(20_000)


def make_harness():
    harness = ComponentHarness(
        ConsistentAbd, ME, SPACE, replication_degree=3, gc_interval=0
    )
    return harness, harness.probe(Network), harness.probe(Ring)


class TestInstallationQuorums:
    def test_multi_member_view_waits_for_member_acks(self):
        harness, network, ring = make_harness()
        ring.inject(RingNeighbors(predecessor=PEER_A, successors=(PEER_B, PEER_C)))
        abd = harness.definition
        assert abd.my_view is None  # still preparing
        prepares = network.drain(ViewPrepare)
        assert {p.destination for p in prepares} == {PEER_B, PEER_C}

        network.inject(ViewPrepareAck(PEER_B, ME, view_id=prepares[0].view_id))
        assert abd.my_view is not None  # majority (me + B) reached
        assert abd.my_view.status is ViewStatus.ACTIVE
        commits = network.drain(ViewCommit)
        assert {c.destination for c in commits} == {PEER_B, PEER_C}
        harness.shutdown()

    def test_superseded_view_needs_its_own_majority(self):
        """After serving in a 3-member view, a collapse to a singleton view
        must NOT activate without fencing a majority of the old view."""
        harness, network, ring = make_harness()
        # Establish a normal 3-member view first.
        ring.inject(RingNeighbors(predecessor=PEER_A, successors=(PEER_B, PEER_C)))
        prepare = network.drain(ViewPrepare)[0]
        network.inject(ViewPrepareAck(PEER_B, ME, view_id=prepare.view_id))
        network.drain()
        abd = harness.definition
        assert abd.my_view.members == (ME, PEER_B, PEER_C)

        # Simulated total isolation: the ring collapses to a singleton.
        ring.inject(RingNeighbors(predecessor=ME, successors=()))
        harness.run(for_=5.0)
        # The singleton view supersedes the 3-member view: it needs acks
        # from a majority of {ME, B, C}; alone, it can never activate.
        assert abd.my_view.status is ViewStatus.DEAD or abd._install is not None
        assert abd.my_view is None or abd.my_view.members != (ME,)
        # Operations on the range are rejected while unfenced.
        network.inject(
            ReadRequest(PEER_A, ME, key=25_000, op_id=9, primary=ME, view_id=99)
        )
        network.expect(ViewRejected)
        harness.shutdown()

    def test_prepare_with_lower_ballot_is_rejected(self):
        harness, network, ring = make_harness()
        # We hold an active view of ballot v for our range...
        ring.inject(RingNeighbors(predecessor=PEER_A, successors=(PEER_B, PEER_C)))
        prepare = network.drain(ViewPrepare)[0]
        network.inject(ViewPrepareAck(PEER_B, ME, view_id=prepare.view_id))
        network.drain()
        current_id = harness.definition.my_view.view_id

        # ...then an overlapping prepare arrives with a lower ballot.
        network.inject(
            ViewPrepare(
                PEER_A, ME,
                view_id=current_id - 1 if current_id > 1 else 0,
                range_start=25_000, range_end=35_000,
                members=(PEER_A,),
            )
        )
        reject = network.expect(ViewPrepareReject)
        assert reject.current_view_id == current_id
        harness.shutdown()

    def test_prepare_with_higher_ballot_fences_and_acks(self):
        harness, network, ring = make_harness()
        ring.inject(RingNeighbors(predecessor=PEER_A, successors=(PEER_B, PEER_C)))
        prepare = network.drain(ViewPrepare)[0]
        network.inject(ViewPrepareAck(PEER_B, ME, view_id=prepare.view_id))
        network.drain()
        abd = harness.definition
        current_id = abd.my_view.view_id

        network.inject(
            ViewPrepare(
                PEER_A, ME,
                view_id=current_id + 5,
                range_start=20_000, range_end=40_000,
                members=(PEER_A, ME),
            )
        )
        ack = network.expect(ViewPrepareAck)
        assert ack.view_id == current_id + 5
        assert abd.my_view.status is ViewStatus.DEAD  # fenced
        harness.shutdown()

    def test_rejected_primary_reballots_higher(self):
        harness, network, ring = make_harness()
        ring.inject(RingNeighbors(predecessor=PEER_A, successors=(PEER_B, PEER_C)))
        first = network.drain(ViewPrepare)[0]
        network.inject(
            ViewPrepareReject(
                PEER_B, ME,
                view_id=first.view_id,
                current_view_id=41,
                current_primary_id=PEER_B.node_id,
            )
        )
        harness.run(for_=1.0)  # reballot delay
        second = network.drain(ViewPrepare)
        assert second and all(p.view_id > 41 for p in second)
        harness.shutdown()

    def test_stale_commit_is_ignored(self):
        harness, network, ring = make_harness()
        ring.inject(RingNeighbors(predecessor=PEER_A, successors=(PEER_B, PEER_C)))
        prepare = network.drain(ViewPrepare)[0]
        network.inject(ViewPrepareAck(PEER_B, ME, view_id=prepare.view_id))
        network.drain()
        abd = harness.definition
        current_id = abd.my_view.view_id

        # A commit for an overlapping view with a lower ballot we never
        # prepared: must not install.
        network.inject(
            ViewCommit(
                PEER_A, ME,
                view_id=max(0, current_id - 1),
                range_start=25_000, range_end=35_000,
                members=(PEER_A,),
            )
        )
        assert PEER_A not in abd.views or abd.views[PEER_A].status is not ViewStatus.ACTIVE
        assert abd.my_view.status is ViewStatus.ACTIVE
        harness.shutdown()


class TestCoordinatorQuorums:
    """A coordinator restarts an attempt only once its view's quorum is lost."""

    def start_put(self):
        harness, network, _ring = make_harness()
        putget, router = harness.probe(PutGet), harness.probe(Router)
        putget.inject(PutRequest(25_000, "v", op_id=7))
        router.expect(Resolve)
        router.inject(Resolved(25_000, PEER_A, request_id=7))
        network.expect(GroupRequest)
        network.inject(
            GroupResponse(
                PEER_A, ME, key=25_000, op_id=7, primary=PEER_A, view_id=4,
                members=(PEER_A, PEER_B, ME),
            )
        )
        assert {r.destination for r in network.drain(ReadRequest)} == {PEER_A, PEER_B, ME}
        return harness, network, putget, router

    def test_one_rejecting_member_leaves_a_quorum_to_finish(self):
        """A member that never got the view's commit rejects every request
        of it; the other two members are a majority and finish the put."""
        harness, network, putget, router = self.start_put()
        network.inject(ViewRejected(PEER_B, ME, key=25_000, op_id=7))
        for member in (PEER_A, ME):
            network.inject(ReadResponse(member, ME, key=25_000, op_id=7))
        writes = network.drain(WriteRequest)
        assert {w.destination for w in writes} == {PEER_A, PEER_B, ME}
        network.inject(ViewRejected(PEER_B, ME, key=25_000, op_id=7))
        for member in (PEER_A, ME):
            network.inject(WriteResponse(member, ME, key=25_000, op_id=7))
        response = putget.expect(PutResponse)
        assert response.ok and response.op_id == 7
        assert harness.definition.retries == 0
        harness.shutdown()

    def test_rejections_that_leave_no_quorum_restart_the_attempt(self):
        harness, network, putget, router = self.start_put()
        network.inject(ViewRejected(PEER_B, ME, key=25_000, op_id=7))
        router.expect_none(Resolve)
        network.inject(ViewRejected(PEER_A, ME, key=25_000, op_id=7))
        harness.run(for_=1.0)  # the retry delay
        assert router.expect(Resolve).request_id == 7
        assert harness.definition.retries == 1
        harness.shutdown()
