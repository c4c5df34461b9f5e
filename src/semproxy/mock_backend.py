"""Deterministic mock SOAP backend with a tunable cost model.

Answers Search(params...) with a result set derived from a hash of the
parameters, so identical parameters always produce byte-identical
responses. Processing cost is emulated as compute_delay_ms plus
rows x per_row_serialize_cost_us; by default the cost section is held
under a lock, modelling a single CPU-bound serializer.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import soap

COLUMNS = ("id", "title", "snippet")
STATS_PATH = "/_mock/stats"
RESET_PATH = "/_mock/reset"


@dataclass
class MockBackendConfig:
    compute_delay_ms: float = 1.0
    rows_per_response: int = 10
    per_row_serialize_cost_us: float = 50.0
    serial_processing: bool = True  # one request pays cost at a time


def search_result(parameters: tuple[str, ...], rows: int) -> soap.ResultSet:
    """Result set fully determined by the parameters."""
    digest = hashlib.sha256(
        b"\x1f".join(p.encode("utf-8") for p in parameters)).hexdigest()
    out = []
    for i in range(rows):
        row = tuple(
            hashlib.sha256(f"{digest}:{i}:{col}".encode()).hexdigest()[:12]
            for col in COLUMNS
        )
        out.append(row)
    return soap.ResultSet(columns=COLUMNS, rows=tuple(out))


class MockBackend:
    def __init__(self, listen_addr: tuple[str, int],
                 config: MockBackendConfig = None):
        self.config = config or MockBackendConfig()
        self.search_calls = 0
        self.faults = 0
        self._cost_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        backend = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # with Nagle on, a reply's last segment waits for the client's
            # delayed ACK (about 40 ms)
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):
                pass

            def _reply(self, status: int, body: bytes, ctype="text/xml; charset=utf-8"):
                head = (f"{self.protocol_version} {status} "
                        f"{HTTPStatus(status).phrase}\r\n"
                        f"Content-Type: {ctype}\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n")
                self.wfile.write(head.encode("latin-1") + body)  # one send

            def do_GET(self):
                if self.path == STATS_PATH:
                    with backend._stats_lock:
                        payload = json.dumps({
                            "search_calls": backend.search_calls,
                            "faults": backend.faults,
                        }).encode()
                    self._reply(200, payload, "application/json")
                else:
                    self.send_error(404)

            def do_POST(self):
                if self.path == RESET_PATH:
                    with backend._stats_lock:
                        backend.search_calls = 0
                        backend.faults = 0
                    self._reply(200, b"{}", "application/json")
                    return
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                status, body = backend.handle_soap(raw)
                self._reply(status, body)

        class Server(ThreadingHTTPServer):
            request_queue_size = 1024
            daemon_threads = True

        self._server = Server(listen_addr, Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True, name="mock-backend")

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def handle_soap(self, raw: bytes) -> tuple[int, bytes]:
        try:
            operation, parameters = soap.parse_envelope(raw)
        except soap.SoapError as exc:
            with self._stats_lock:
                self.faults += 1
            return 400, soap.build_fault("Client", str(exc))
        if operation != "Search":
            with self._stats_lock:
                self.faults += 1
            return 400, soap.build_fault(
                "Client.UnknownOperation", f"no such operation: {operation}")
        with self._stats_lock:
            self.search_calls += 1
        cfg = self.config
        cost_s = (cfg.compute_delay_ms
                  + cfg.rows_per_response * cfg.per_row_serialize_cost_us / 1000.0
                  ) / 1000.0
        if cfg.serial_processing:
            with self._cost_lock:
                time.sleep(cost_s)
        else:
            time.sleep(cost_s)
        result = search_result(parameters, cfg.rows_per_response)
        return 200, soap.build_response(result, operation)


def serve(listen_addr: tuple[str, int], config: MockBackendConfig = None) -> MockBackend:
    backend = MockBackend(listen_addr, config)
    backend.start()
    return backend
