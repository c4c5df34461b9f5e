"""Correctness checks that share no code with the program under test.

Responses are parsed with expat directly (not ``semproxy.soap``), and every
cell is recomputed from the mock backend's documented rule::

    digest = sha256(0x1F.join(parameters)).hexdigest()
    cell(i, col) = sha256(f"{digest}:{i}:{col}").hexdigest()[:12]

The count checks read only the numbers a run collected, so each can be fed
a broken ledger in the tests.
"""

from __future__ import annotations

import hashlib
from typing import Optional
from xml.parsers import expat

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"
COLUMNS = ("id", "title", "snippet")


def expected_rows(params: tuple[str, ...], rows: int) -> list[tuple[str, ...]]:
    digest = hashlib.sha256(
        b"\x1f".join(p.encode("utf-8") for p in params)).hexdigest()
    return [
        tuple(hashlib.sha256(f"{digest}:{i}:{col}".encode()).hexdigest()[:12]
              for col in COLUMNS)
        for i in range(rows)
    ]


class _ResponseReader:
    """Collects columns and rows of ``Envelope/Body/<Op>Response``."""

    _PATH = ((SOAP_ENV_NS, "Envelope"), (SOAP_ENV_NS, "Body"))

    def __init__(self, operation: str):
        self.response_tag = ("", f"{operation}Response")
        self.columns: list[str] = []
        self.rows: list[list[str]] = []
        self.error: Optional[str] = None
        self._stack: list[tuple[str, str]] = []
        self._text: list[str] = []

    @staticmethod
    def _split(name: str) -> tuple[str, str]:
        ns, _, local = name.rpartition(" ")
        return ns, local

    def start(self, name, attrs):
        tag = self._split(name)
        depth = len(self._stack)
        expected = {0: self._PATH[0], 1: self._PATH[1], 2: self.response_tag}
        if depth in expected and tag != expected[depth]:
            self.error = self.error or f"unexpected <{tag[1]}> at depth {depth}"
        elif depth == 3 and tag[1] not in ("columns", "rows"):
            self.error = self.error or f"unexpected <{tag[1]}> in response"
        elif depth == 4:
            want = "col" if self._stack[3][1] == "columns" else "row"
            if tag[1] != want:
                self.error = self.error or f"unexpected <{tag[1]}>"
            if want == "row":
                self.rows.append([])
        elif depth == 5 and (tag[1] != "cell" or self._stack[4][1] != "row"):
            self.error = self.error or f"unexpected <{tag[1]}> in row"
        elif depth > 5:
            self.error = self.error or "response nested too deep"
        self._stack.append(tag)
        self._text = []

    def end(self, name):
        tag = self._stack.pop()
        if tag[1] == "col" and len(self._stack) == 4:
            self.columns.append("".join(self._text))
        elif tag[1] == "cell" and len(self._stack) == 5:
            self.rows[-1].append("".join(self._text))

    def chars(self, data):
        self._text.append(data)


def parse_response(body: bytes, operation: str = "Search"
                   ) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a search response; raises ValueError otherwise."""
    reader = _ResponseReader(operation)
    parser = expat.ParserCreate(namespace_separator=" ")
    parser.StartElementHandler = reader.start
    parser.EndElementHandler = reader.end
    parser.CharacterDataHandler = reader.chars
    try:
        parser.Parse(body, True)
    except expat.ExpatError as exc:
        raise ValueError(f"invalid XML: {exc}") from exc
    if reader.error:
        raise ValueError(reader.error)
    return reader.columns, reader.rows


def check_body(body: bytes, params: tuple[str, ...], rows: int) -> Optional[str]:
    """None if ``body`` is the right answer for ``params``, else the reason."""
    try:
        columns, got = parse_response(body)
    except ValueError as exc:
        return str(exc)
    if tuple(columns) != COLUMNS:
        return f"columns {columns}"
    if len(got) != rows:
        return f"{len(got)} rows, expected {rows}"
    for i, (row, want) in enumerate(zip(got, expected_rows(params, rows))):
        if tuple(row) != want:
            return f"row {i} is {row}, expected {list(want)}"
    return None


def check_counts(*, requests: int, backend_calls: int, distinct_keys: int,
                 exact_calls: bool) -> list[str]:
    """Backend-call bounds over the proxy's whole life."""
    errors = []
    if not distinct_keys <= backend_calls <= requests:
        errors.append(f"backend calls {backend_calls} outside "
                      f"[distinct keys {distinct_keys}, requests {requests}]")
    if exact_calls and backend_calls != requests:
        errors.append(f"backend calls {backend_calls} != requests {requests}")
    return errors


def check_ledger(health: dict) -> list[str]:
    """Exactly-once delivery audit of ``/_sem/health``."""
    errors = []
    if health["delivered"] + health["dropped_disconnects"] != health["admitted"]:
        errors.append(
            f"ledger unbalanced: delivered {health['delivered']} + dropped "
            f"{health['dropped_disconnects']} != admitted {health['admitted']}")
    if health["duplicate_deliveries"] != 0:
        errors.append(f"{health['duplicate_deliveries']} duplicate deliveries")
    return errors
