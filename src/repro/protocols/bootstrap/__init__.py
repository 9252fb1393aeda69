"""The bootstrap service: server, client, and the Bootstrap abstraction."""

from .client import BootstrapClient
from .events import (
    Bootstrap,
    BootstrapDone,
    BootstrapRequest,
    BootstrapResponse,
    GetPeersRequest,
    GetPeersResponse,
    KeepAlive,
)
from .server import BootstrapHost, BootstrapServer

__all__ = [
    "Bootstrap",
    "BootstrapClient",
    "BootstrapDone",
    "BootstrapHost",
    "BootstrapRequest",
    "BootstrapResponse",
    "BootstrapServer",
    "GetPeersRequest",
    "GetPeersResponse",
    "KeepAlive",
]
