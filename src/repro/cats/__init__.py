"""CATS: a scalable, consistent (linearizable) key-value store (paper §4).

The case-study system built on the component model: a consistent-hashing
ring with successor-list replication, a view-fenced ABD quorum layer for
linearizable get/put, one-hop routing over Cyclon peer sampling, and the
experiment driver that runs the whole store under deterministic simulation
or local real-time execution.
"""

from .abd import ConsistentAbd, View, ViewStatus
from .events import (
    GetRequest,
    GetResponse,
    PutGet,
    PutRequest,
    PutResponse,
    Ring,
    RingJoin,
    RingLookup,
    RingLookupResponse,
    RingNeighbors,
    RingReady,
    new_op_id,
)
from .key import KeySpace
from .node import CatsConfig, CatsHost, CatsNode
from .remote import CatsClient, RemoteApiServer
from .ring import CatsRing
from .simulator import (
    CatsSimulator,
    Experiment,
    ExperimentStats,
    FailNode,
    GetCmd,
    JoinNode,
    LookupCmd,
    PutCmd,
)
from .store import LocalStore, Record
from .webapp import CatsWebApplication
from .workload import WorkloadGenerator, WorkloadOp, WorkloadSpec

__all__ = [
    "CatsClient",
    "CatsConfig",
    "CatsHost",
    "CatsNode",
    "CatsRing",
    "CatsSimulator",
    "CatsWebApplication",
    "ConsistentAbd",
    "Experiment",
    "ExperimentStats",
    "FailNode",
    "GetCmd",
    "GetRequest",
    "GetResponse",
    "JoinNode",
    "KeySpace",
    "LocalStore",
    "LookupCmd",
    "PutCmd",
    "PutGet",
    "PutRequest",
    "PutResponse",
    "Record",
    "RemoteApiServer",
    "Ring",
    "RingJoin",
    "RingLookup",
    "RingLookupResponse",
    "RingNeighbors",
    "RingReady",
    "View",
    "ViewStatus",
    "WorkloadGenerator",
    "WorkloadOp",
    "WorkloadSpec",
    "new_op_id",
]
