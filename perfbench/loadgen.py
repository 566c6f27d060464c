"""Pipelined open-loop load over one connection.

One sender thread writes each request at its scheduled instant, whether or
not earlier ones were answered; one receiver thread matches responses to
requests by ``id``.  Two threads keep the generator within a two-core box,
where a connection-per-request generator runs out of threads and turns
closed-loop.  Latency is timed from the scheduled send, so a stall also
charges the requests queued behind it; the sender's own lateness is
reported so that a saturated generator shows.  The generator's own
garbage collector is paused while a stream runs, so that its pauses are
not charged to the program.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np


def poisson_schedule(rate_rps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Cumulative send offsets (s) of a Poisson stream."""
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=count))


class Outcome:
    __slots__ = ("scheduled", "sent", "done", "response")

    def __init__(self, scheduled: float):
        self.scheduled = scheduled
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.response: Optional[Dict[str, Any]] = None

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.scheduled)

    @property
    def lateness_ms(self) -> float:
        return 1e3 * (self.sent - self.scheduled)


def _connect(address: str, timeout: float) -> socket.socket:
    if not address.startswith("tcp://"):
        raise ValueError(f"expected a tcp:// address, got {address!r}")
    host, _, port = address[len("tcp://"):].rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return sock


def request_once(address: str, document: Dict[str, Any],
                 timeout: float = 30.0) -> Dict[str, Any]:
    """One closed request (used for ``stats``)."""
    with _connect(address, timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall((json.dumps(document) + "\n").encode())
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed")
            buffer += chunk
    return json.loads(buffer.split(b"\n", 1)[0])


def open_loop(address: str, requests: Sequence[Dict[str, Any]],
              offsets_s: Sequence[float], timeout: float = 60.0
              ) -> List[Outcome]:
    """Send ``requests[i]`` at ``offsets_s[i]`` after start; wait for all."""
    sock = _connect(address, timeout)
    frames = [(json.dumps(dict(req, id=i), separators=(",", ":"))
               + "\n").encode() for i, req in enumerate(requests)]
    start = time.perf_counter() + 0.02
    outcomes = [Outcome(start + float(t)) for t in offsets_s]
    answered = threading.Event()

    def receive() -> None:
        buffer = b""
        pending = len(outcomes)
        try:
            while pending:
                chunk = sock.recv(262144)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                now = time.perf_counter()
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    response = json.loads(line)
                    outcome = outcomes[response["id"]]
                    outcome.done = now
                    outcome.response = response
                    pending -= 1
        except (OSError, ValueError, KeyError):
            pass            # unanswered requests count as failed
        finally:
            answered.set()

    receiver = threading.Thread(target=receive, name="perfbench-recv",
                                daemon=True)
    collecting = gc.isenabled()
    gc.disable()
    receiver.start()
    try:
        for outcome, frame in zip(outcomes, frames):
            delay = outcome.scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.perf_counter()
            sock.sendall(frame)
        last = outcomes[-1].scheduled if outcomes else start
        answered.wait(max(1.0, last + timeout - time.perf_counter()))
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
        receiver.join(timeout=5.0)
        if collecting:
            gc.enable()
    return outcomes
