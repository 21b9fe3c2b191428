"""HTTP load generator: one process, at most two connections in flight.

The server answers ``Connection: close``, so one request is one TCP
connection.  Request bytes are encoded before any phase starts; the
generator only writes them, reads the reply to EOF and records times.

* :func:`open_loop` sends request ``i`` at its due time (or as soon as a
  connection frees up, which is the generator running late) and reports
  latency from the *due* time, so a server stall is charged to every
  request queued behind it.
* :func:`closed_loop` keeps both connections busy back to back until a
  deadline: the capacity phase.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

CONNECTIONS = 2
TIMEOUT_S = 60.0


@dataclass
class Reply:
    due: float
    sent: float
    done: float
    status: int | None
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200


def exchange(port: int, raw: bytes, timeout: float = TIMEOUT_S) -> tuple[int | None, bytes]:
    """Send one request on a fresh connection; ``(status, body)``.

    A connection that fails, times out or answers garbage gives status
    ``None``.
    """
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
            sock.sendall(raw)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
    except OSError:
        return None, b""
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None, b""
    return status, body


def get_json(port: int, path: str) -> dict | None:
    """``GET path`` as JSON, or None when unavailable."""
    raw = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    status, body = exchange(port, raw.encode("ascii"), timeout=10.0)
    if status != 200:
        return None
    try:
        return json.loads(body)
    except ValueError:
        return None


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(port: int, requests: list[bytes], offsets) -> list[Reply]:
    """Replay ``requests`` on the Poisson schedule ``offsets`` (seconds)."""
    replies: list[Reply | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.05

    def connection() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + float(offsets[index])
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, body = exchange(port, requests[index])
            replies[index] = Reply(due, sent, time.perf_counter(), status, body)

    _run_threads(connection)
    return replies


def closed_loop(
    port: int, requests: list[bytes], seconds: float, first: int = 0
) -> tuple[dict, float, bool]:
    """Send ``requests[first:]`` in order, back to back on both connections.

    Stops issuing at the deadline or when the requests run out.  Returns
    ``{request index: reply}`` for every request issued, the time from the
    start to the last completion, and whether the requests ran out before
    the deadline (then the phase did not fill its time).
    """
    replies: dict[int, Reply] = {}
    lock = threading.Lock()
    cursor = iter(range(first, len(requests)))
    start = time.perf_counter()
    deadline = start + seconds
    ran_out = False

    def connection() -> None:
        nonlocal ran_out
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                index = next(cursor, None)
                if index is None:
                    ran_out = True
                    return
            sent = time.perf_counter()
            status, body = exchange(port, requests[index])
            replies[index] = Reply(sent, sent, time.perf_counter(), status, body)

    _run_threads(connection)
    elapsed = max((reply.done for reply in replies.values()), default=start) - start
    return replies, elapsed, ran_out
