"""Scripted local HTTP server for exercising the network clients."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any


class StubServer:
    """Serves scripted responses in order; the last entry repeats.

    Each script entry is a dict with optional ``status`` (default 200),
    ``body`` (dict/list serialized as JSON, str, or bytes), and ``headers``.
    Every incoming request is recorded with method, path, headers, body,
    and the client's (host, port) address.
    """

    def __init__(self, script: list[dict[str, Any]]):
        if not script:
            raise ValueError("script must contain at least one response")
        self.script = list(script)
        self.requests: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keep-alive, so pooled clients reuse connections

            def _serve(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                with outer._lock:
                    outer.requests.append(
                        {
                            "method": self.command,
                            "path": self.path,
                            "headers": dict(self.headers),
                            "body": body,
                            "client": self.client_address,
                        }
                    )
                    entry = (
                        outer.script.pop(0) if len(outer.script) > 1 else outer.script[0]
                    )
                status = entry.get("status", 200)
                payload = entry.get("body", b"")
                if isinstance(payload, (dict, list)):
                    payload = json.dumps(payload).encode("utf-8")
                elif isinstance(payload, str):
                    payload = payload.encode("utf-8")
                self.send_response(status)
                for name, value in entry.get("headers", {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = _serve
            do_POST = _serve

            def log_message(self, *args: Any) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._server.shutdown()
        self._server.server_close()
