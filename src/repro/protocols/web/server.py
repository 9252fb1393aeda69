"""WebServer: HTTP bridge into the Web abstraction (the paper's Jetty stand-in).

A stdlib ThreadingHTTPServer translates each HTTP request into a WebRequest
triggered on the component's *required* Web port; the matching WebResponse
(correlated by request id) completes the HTTP exchange.  Handler threads
block on a per-request queue with a timeout, so a missing provider yields
504 rather than a hung socket.
"""

from __future__ import annotations

import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ...core.component import ComponentDefinition
from ...core.handler import handles
from .port import Web, WebRequest, WebResponse, new_request_id


# The HTTP bridge is process-local ingress like AioTcpNetwork: a migrated
# WebServer re-binds its listener in __init__ and pending HTTP exchanges
# fail over via the client-side response timeout, so section-2.6 state
# transfer is deliberately not implemented and the component stays
# pinned to its birth shard.
class WebServer(ComponentDefinition):  # repro: noqa[P006]
    """Requires Web (content comes from connected providers)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        response_timeout: float = 5.0,
    ) -> None:
        super().__init__()
        self.web = self.requires(Web)
        self.response_timeout = response_timeout
        # Lock-free on purpose: each dict operation below (insert in
        # dispatch, get in on_response, pop in the finally) is a single
        # atomic-under-the-GIL step keyed by a unique request id, so the
        # HTTP threads and the scheduler worker never need a mutex — and
        # the handler never blocks holding one.
        self._pending: dict[int, "queue.Queue[WebResponse]"] = {}
        self.subscribe(self.on_response, self.web)

        component = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                response = component.dispatch(self.path)
                body = response.body.encode()
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence request logging
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)  # repro: noqa[D004]
        self.host, self.port_number = self._httpd.server_address[:2]
        self._thread = threading.Thread(  # repro: noqa[D004]
            target=self._httpd.serve_forever,
            name=f"web-{self.port_number}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port_number}"

    # ------------------------------------------------------------- dispatch

    def dispatch(self, path: str) -> WebResponse:
        """Bridge one HTTP request into the event system (HTTP thread)."""
        request_id = new_request_id()
        inbox: "queue.Queue[WebResponse]" = queue.Queue(maxsize=1)
        self._pending[request_id] = inbox
        try:
            self.trigger(WebRequest(path=path, request_id=request_id), self.web)
            try:
                return inbox.get(timeout=self.response_timeout)
            except queue.Empty:
                return WebResponse(
                    request_id=request_id,
                    status=504,
                    content_type="text/plain",
                    body="no component answered",
                )
        finally:
            self._pending.pop(request_id, None)

    @handles(WebResponse)
    def on_response(self, response: WebResponse) -> None:
        inbox = self._pending.get(response.request_id)
        if inbox is not None:
            try:
                inbox.put_nowait(response)
            except queue.Full:
                pass

    def tear_down(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
