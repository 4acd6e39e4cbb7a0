"""A minimal HTTP/1.1 client for the load generator.

Raw sockets instead of :mod:`http.client` so that one thread can drive
several keep-alive connections from a :mod:`selectors` loop (the open
loop of ``serve_small``) and so that chunked framing is checked
explicitly: a streamed body is complete only when its terminal
zero-length chunk has arrived.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from typing import Dict, List, Optional, Sequence


class ProtocolError(Exception):
    """The server's bytes are not a well-formed HTTP/1.1 response."""


class ResponseParser:
    """Incremental response parser: feed bytes until :attr:`complete`.

    Handles ``Content-Length`` and ``Transfer-Encoding: chunked``
    bodies.  :attr:`first_body_at` is the ``perf_counter`` reading of
    the first :meth:`feed` that carried body bytes.
    """

    def __init__(self):
        self._buf = bytearray()
        self.status: Optional[int] = None
        self.headers: Dict[str, str] = {}
        self._body: List[bytes] = []
        self.complete = False
        self.terminal_chunk = False
        self.first_body_at: Optional[float] = None
        self._remaining: Optional[int] = None  # content-length mode
        self._chunk_left = 0                   # chunked mode
        self._state = "headers"

    @property
    def body(self) -> bytes:
        return b"".join(self._body)

    def take_body(self) -> bytes:
        """The body, released from the parser (bulk bodies are large)."""
        body, self._body = self.body, []
        return body

    def _append_body(self, data) -> None:
        if data:
            if self.first_body_at is None:
                self.first_body_at = time.perf_counter()
            self._body.append(bytes(data))

    def feed(self, data: bytes) -> None:
        if self.complete:
            if data:
                raise ProtocolError("bytes after a complete response")
            return
        self._buf += data
        while not self.complete:
            if not self._step():
                return

    def _step(self) -> bool:
        """Consume what the buffer allows; ``False`` when it needs more."""
        buf = self._buf
        if self._state == "headers":
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return False
            head = bytes(buf[:end]).decode("iso-8859-1").split("\r\n")
            del buf[:end + 4]
            parts = head[0].split(" ", 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
                raise ProtocolError(f"bad status line {head[0]!r}")
            self.status = int(parts[1])
            for line in head[1:]:
                key, _, value = line.partition(":")
                self.headers[key.strip().lower()] = value.strip()
            if self.headers.get("transfer-encoding", "").lower() == "chunked":
                self._state = "chunk-size"
            else:
                self._remaining = int(self.headers.get("content-length", 0))
                self._state = "body"
                if self._remaining == 0:
                    self.complete = True
            return True
        if self._state == "body":
            take = min(len(buf), self._remaining)
            if take == 0:
                return False
            self._append_body(memoryview(buf)[:take])
            del buf[:take]
            self._remaining -= take
            if self._remaining == 0:
                self.complete = True
            return True
        if self._state == "chunk-size":
            end = buf.find(b"\r\n")
            if end < 0:
                return False
            size_text = bytes(buf[:end]).split(b";")[0].strip()
            try:
                size = int(size_text, 16)
            except ValueError:
                raise ProtocolError(f"bad chunk size {size_text!r}")
            del buf[:end + 2]
            if size == 0:
                self._state = "trailer"
            else:
                self._chunk_left = size
                self._state = "chunk-data"
            return True
        if self._state == "chunk-data":
            take = min(len(buf), self._chunk_left)
            if take == 0:
                return False
            self._append_body(memoryview(buf)[:take])
            del buf[:take]
            self._chunk_left -= take
            if self._chunk_left == 0:
                self._state = "chunk-end"
            return True
        if self._state == "chunk-end":
            if len(buf) < 2:
                return False
            if bytes(buf[:2]) != b"\r\n":
                raise ProtocolError("chunk not followed by CRLF")
            del buf[:2]
            self._state = "chunk-size"
            return True
        if self._state == "trailer":
            end = buf.find(b"\r\n")
            if end < 0:
                return False
            line = bytes(buf[:end])
            del buf[:end + 2]
            if line == b"":
                self.terminal_chunk = True
                self.complete = True
            return True
        raise AssertionError(self._state)


def request_bytes(method: str, path: str, body: Optional[dict] = None,
                  rid: Optional[str] = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1",
             f"Content-Length: {len(payload)}"]
    if body is not None:
        lines.append("Content-Type: application/json")
    if rid is not None:
        lines.append(f"X-Bench-Rid: {rid}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload


def connect(port: int, timeout: float = 60.0) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class Exchange:
    """One request/response with its timestamps (``perf_counter``)."""

    __slots__ = ("due", "sent", "done", "parser", "error", "rid", "free_at")

    def __init__(self, due: Optional[float], rid: str):
        self.due = due
        self.rid = rid
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.parser = ResponseParser()
        self.error: Optional[str] = None
        # When a connection was first free for this request after it was
        # due; ``sent - free_at`` is delay the generator itself added.
        self.free_at: Optional[float] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.parser.complete
                and self.parser.status is not None
                and 200 <= self.parser.status < 300)


def exchange(sock: socket.socket, data: bytes, ex: Exchange,
             bufsize: int = 1 << 20) -> Exchange:
    """Blocking request/response on one keep-alive connection."""
    ex.sent = time.perf_counter()
    try:
        sock.sendall(data)
        while not ex.parser.complete:
            chunk = sock.recv(bufsize)
            if not chunk:
                raise ProtocolError("connection closed mid-response")
            ex.parser.feed(chunk)
    except (OSError, ProtocolError) as exc:
        ex.error = f"{type(exc).__name__}: {exc}"
    ex.done = time.perf_counter()
    return ex


def get(port: int, path: str) -> ResponseParser:
    """One-off GET on a fresh connection (used outside measured phases)."""
    sock = connect(port)
    try:
        ex = exchange(sock, request_bytes("GET", path), Exchange(None, ""))
    finally:
        sock.close()
    if not ex.ok:
        raise ProtocolError(f"GET {path} failed: {ex.error} "
                            f"status={ex.parser.status}")
    return ex.parser


def open_loop(port: int, path: str, due: Sequence[float],
              bodies: Sequence[dict], rids: Sequence[str],
              connections: int) -> List[Exchange]:
    """Send ``bodies[i]`` at absolute ``perf_counter`` time ``due[i]``
    over at most ``connections`` keep-alive connections from this one
    thread.

    A request that is due while every connection is busy waits for the
    first one to free up; its latency still counts from ``due``.
    """
    exchanges = [Exchange(d, r) for d, r in zip(due, rids)]
    payloads = [request_bytes("POST", path, b, r)
                for b, r in zip(bodies, rids)]
    socks = [connect(port) for _ in range(connections)]
    start = time.perf_counter()
    idle_since = {sock: start for sock in socks}
    busy: Dict[socket.socket, Exchange] = {}
    selector = selectors.DefaultSelector()
    for sock in socks:
        selector.register(sock, selectors.EVENT_READ)
    next_index = 0
    try:
        while next_index < len(exchanges) or busy:
            while (next_index < len(exchanges) and idle_since
                   and exchanges[next_index].due <= time.perf_counter()):
                ex = exchanges[next_index]
                # The connection idle longest, as a FIFO pool would pick.
                # Which one is used matters: a connection reused soon
                # after its last response is likelier to hit the
                # server's delayed-ACK stall (see serving.BASE_RATE).
                sock = min(idle_since, key=idle_since.get)
                ex.free_at = max(ex.due, idle_since.pop(sock))
                ex.sent = time.perf_counter()
                try:
                    sock.sendall(payloads[next_index])
                except OSError as exc:
                    ex.error = f"{type(exc).__name__}: {exc}"
                    ex.done = time.perf_counter()
                    sock = _replace(selector, socks, sock, port)
                    idle_since[sock] = ex.done
                else:
                    busy[sock] = ex
                next_index += 1
            if next_index < len(exchanges) and idle_since:
                timeout = max(0.0, exchanges[next_index].due
                              - time.perf_counter())
            else:
                timeout = 5.0
            events = selector.select(timeout)
            if not events and timeout == 5.0 and busy:
                raise ProtocolError("no response byte for 5 s")
            for key, _ in events:
                sock = key.fileobj
                ex = busy.get(sock)
                try:
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        raise ProtocolError("connection closed")
                    if ex is None:
                        raise ProtocolError("unsolicited bytes")
                    ex.parser.feed(chunk)
                except (OSError, ProtocolError) as exc:
                    now = time.perf_counter()
                    if ex is not None:
                        ex.error = f"{type(exc).__name__}: {exc}"
                        ex.done = now
                        busy.pop(sock)
                    idle_since.pop(sock, None)
                    idle_since[_replace(selector, socks, sock, port)] = now
                    continue
                if ex.parser.complete:
                    ex.done = time.perf_counter()
                    busy.pop(sock)
                    idle_since[sock] = ex.done
    finally:
        for sock in socks:
            selector.unregister(sock)
            sock.close()
        selector.close()
    return exchanges


def _replace(selector, socks: list, sock: socket.socket,
             port: int) -> socket.socket:
    """Swap a broken connection for a fresh one."""
    selector.unregister(sock)
    sock.close()
    fresh = connect(port)
    socks[socks.index(sock)] = fresh
    selector.register(fresh, selectors.EVENT_READ)
    return fresh
