"""Wire protocol of the serving daemon: JSON lines over a stream socket.

Every request and response is one JSON document on one ``\\n``-terminated
UTF-8 line.  Requests carry a caller-chosen ``id`` that the daemon echoes
back, so one connection may pipeline many requests and receive the responses
out of order (batches complete when their worker finishes, not in arrival
order).

Transports
----------
The protocol is transport-agnostic: the same framing, ops and error codes
run over a local ``AF_UNIX`` socket (one box) or TCP (cross-host), selected
by the *address scheme*:

``/tmp/repro.sock`` or ``unix:///tmp/repro.sock``
    an ``AF_UNIX`` stream socket at that filesystem path;
``tcp://HOST:PORT``
    an ``AF_INET`` stream socket (``PORT`` 0 binds an ephemeral port, which
    :func:`create_listener` resolves into the returned address).

:func:`parse_address`, :func:`connect_address` and :func:`create_listener`
are the only places that know the difference; daemon, router, fleet
coordinator and client all take address strings.  :func:`create_listener`
also owns the one stale-``AF_UNIX``-file check every server relies on.

Request ops
-----------
``tune``      ``{"op": "tune", "model": ..., "kernel": ..., "scale": ...}``
``map``       ``{"op": "map", "model": ..., "kernel": ..., ...}``
``stats``     daemon introspection: queue depth, batch histogram, latency,
              swap counters, shadow disagreement, drift scores
``swap``      hot-swap control: pin a route to a version, roll back, or
              re-track the registry's latest (see
              :mod:`repro.serve.lifecycle`)
``shadow``    start/stop/inspect a shadow deploy of a candidate version
``ping``      liveness probe
``shutdown``  drain outstanding work, stop the workers, exit

A :class:`~repro.serve.fleet.CampaignCoordinator` speaks the same framing
with its own op set (``lease`` / ``heartbeat`` / ``submit``, see
:mod:`repro.serve.fleet`); ``stats``/``ping``/``shutdown`` work there too.

Responses are ``{"id": ..., "ok": true, "result": {...}}`` on success and
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` on
failure.  ``code`` is machine-actionable; the important ones are
``overloaded`` (the bounded request queue is full — the daemon *sheds* the
request instead of queueing it; back off and retry) and ``worker_crashed``
(a worker died mid-batch and the request exhausted its retry).
"""

from __future__ import annotations

import json
import os
import socket
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.serve import faults

#: requests the dispatcher batches and hands to worker processes
BATCHED_OPS = ("tune", "map", "_crash", "_sleep")

#: requests the front-end answers inline (never queued, never shed)
INLINE_OPS = ("stats", "ping", "shutdown")

#: online-operations requests (answered inline by the daemon's lifecycle
#: manager; the router fans them out to every replica of the owning group)
ADMIN_OPS = ("swap", "shadow")

#: campaign-fleet requests (answered inline by a CampaignCoordinator)
FLEET_OPS = ("lease", "heartbeat", "submit")

#: error codes a client can act on
ERR_BAD_REQUEST = "bad_request"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_WORKER_CRASHED = "worker_crashed"
ERR_NO_REGISTRY = "no_registry"
ERR_NO_REPLICA = "no_replica"
ERR_INTERNAL = "internal"

MAX_LINE_BYTES = 32 * 1024 * 1024


# ----------------------------------------------------------------------
# addresses: one string names a transport + endpoint
# ----------------------------------------------------------------------
def parse_address(address: Union[str, os.PathLike]
                  ) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from an address.

    A bare string is an ``AF_UNIX`` path (the historical form); ``unix://``
    makes that explicit and ``tcp://host:port`` selects TCP.
    """
    address = os.fspath(address)
    if address.startswith("unix://"):
        path = address[len("unix://"):]
        if not path:
            raise ValueError("unix:// address needs a socket path")
        return "unix", path
    if address.startswith("tcp://"):
        host, sep, port = address[len("tcp://"):].rpartition(":")
        if not sep or not host:
            raise ValueError(f"tcp address must be tcp://HOST:PORT, "
                             f"got {address!r}")
        try:
            port_number = int(port)
        except ValueError as exc:
            raise ValueError(f"invalid port in {address!r}") from exc
        if not 0 <= port_number <= 65535:
            raise ValueError(f"port out of range in {address!r}")
        return "tcp", (host, port_number)
    if not address:
        raise ValueError("empty address")
    return "unix", address


def format_address(scheme: str,
                   location: Union[str, Tuple[str, int]]) -> str:
    if scheme == "unix":
        return str(location)
    host, port = location
    return f"tcp://{host}:{port}"


def connect_address(address: str,
                    timeout: Optional[float] = None) -> socket.socket:
    """A connected stream socket for ``address`` (caller closes it)."""
    scheme, location = parse_address(address)
    if scheme == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if timeout is not None:
            sock.settimeout(timeout)
        sock.connect(location)
        if scheme == "tcp":
            # small JSON frames: never wait for Nagle coalescing
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
    except BaseException:
        sock.close()
        raise
    return sock


def create_listener(address: str,
                    backlog: int = 128) -> Tuple[socket.socket, str]:
    """A bound + listening socket and its *resolved* address string.

    TCP port 0 binds an ephemeral port; the returned address carries the
    port the kernel actually assigned.  An ``AF_UNIX`` socket file left
    behind by a crashed server is probed first: nobody answering means it
    is stale and it is unlinked, while a live server raises
    :class:`RuntimeError` instead of being hijacked.
    """
    scheme, location = parse_address(address)
    if scheme == "unix":
        if os.path.exists(location):
            try:
                probe = connect_address(address, timeout=1.0)
            except OSError:
                os.unlink(location)          # stale: nobody listening
            else:
                probe.close()
                raise RuntimeError(f"{address} already has a live server")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(location)
            listener.listen(backlog)
        except BaseException:
            listener.close()
            raise
        return listener, format_address("unix", location)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(location)
        listener.listen(backlog)
        host, port = listener.getsockname()[:2]
    except BaseException:
        listener.close()
        raise
    return listener, format_address("tcp", (location[0], port))


class ProtocolError(Exception):
    """A malformed frame (bad JSON, missing fields, oversized line)."""


def encode_frame(document: Dict[str, Any]) -> bytes:
    """One JSON document as one newline-terminated UTF-8 line."""
    return (json.dumps(document, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("frame must be a JSON object")
    return document


def error_response(request_id, code: str, message: str,
                   **detail) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(detail)
    return {"id": request_id, "ok": False, "error": error}


def ok_response(request_id, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


# ----------------------------------------------------------------------
# framed socket I/O (shared by the daemon's connections and the client)
# ----------------------------------------------------------------------
class LineChannel:
    """Buffered newline framing over one connected socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = b""

    def send(self, document: Dict[str, Any]) -> None:
        frame = encode_frame(document)
        injector = faults.active()
        if injector is None:
            self.sock.sendall(frame)
            return
        # chaos only: an installed fault plan may drop, duplicate or delay
        # outgoing frames (receivers already tolerate all three: callers
        # time out and retry, and responses are matched by id)
        for part in injector.frames(frame):
            self.sock.sendall(part)

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next decoded frame, or ``None`` on a clean EOF."""
        self.sock.settimeout(timeout)
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ProtocolError("frame exceeds the line size limit")
            chunk = self.sock.recv(65536)
            if not chunk:
                if self._buffer:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return decode_frame(line)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# objective payloads (what a fleet lease ships to its worker)
# ----------------------------------------------------------------------
def objective_to_wire(objective) -> Dict[str, Any]:
    """An objective spec as a pure-JSON tree.

    ``float`` values survive the JSON round trip exactly (``repr`` round
    trips IEEE-754 doubles), so an objective evaluated remotely produces
    the same measurement bytes as a local run.
    """
    from repro.tuners.campaign import LookupObjectiveSpec, SimObjectiveSpec

    if isinstance(objective, LookupObjectiveSpec):
        return {"type": "lookup",
                "times": np.asarray(objective.times,
                                    dtype=np.float64).tolist(),
                "floor": float(objective.floor)}
    if isinstance(objective, SimObjectiveSpec):
        return {"type": "sim", "spec": objective.to_config()}
    raise TypeError(f"objective {type(objective).__name__} has no wire form")


def objective_from_wire(data: Dict[str, Any]):
    from repro.tuners.campaign import LookupObjectiveSpec, SimObjectiveSpec

    kind = data.get("type")
    if kind == "lookup":
        return LookupObjectiveSpec(
            times=np.asarray(data["times"], dtype=np.float64),
            floor=float(data["floor"]))
    if kind == "sim":
        return SimObjectiveSpec.from_config(data["spec"])
    raise ProtocolError(f"unknown objective type {kind!r}")


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


def validate_request(document: Dict[str, Any]) -> Tuple[Any, str]:
    """``(id, op)`` of a request frame, raising :class:`ProtocolError`."""
    op = document.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing the 'op' field")
    if (op not in BATCHED_OPS and op not in INLINE_OPS
            and op not in ADMIN_OPS and op not in FLEET_OPS):
        raise ProtocolError(f"unknown op {op!r}")
    if op in ADMIN_OPS:
        if not isinstance(document.get("model"), str):
            raise ProtocolError(f"op {op!r} requires a string 'model' field")
        if document.get("version") is not None and \
                not isinstance(document.get("version"), int):
            raise ProtocolError(f"op {op!r} 'version' must be an integer")
    if op == "shadow":
        action = document.get("action", "status")
        if action not in ("start", "stop", "status"):
            raise ProtocolError("op 'shadow' action must be start/stop/"
                                "status")
        if action == "start" and not isinstance(document.get("version"),
                                                int):
            raise ProtocolError("op 'shadow' start requires an integer "
                                "'version' (the candidate)")
    if op in ("tune", "map"):
        for field in ("model", "kernel"):
            if not isinstance(document.get(field), str):
                raise ProtocolError(f"op {op!r} requires a string "
                                    f"{field!r} field")
    if op == "map":
        for field in ("transfer_bytes", "wgsize"):
            if not isinstance(document.get(field), (int, float)):
                raise ProtocolError(f"op 'map' requires a numeric "
                                    f"{field!r} field")
    if op in FLEET_OPS and not isinstance(document.get("worker"), str):
        raise ProtocolError(f"op {op!r} requires a string 'worker' field")
    if op in ("heartbeat", "submit"):
        if not isinstance(document.get("lease"), str):
            raise ProtocolError(f"op {op!r} requires a string 'lease' field")
    if op == "submit":
        if not isinstance(document.get("campaign"), str):
            raise ProtocolError("op 'submit' requires a string 'campaign' "
                                "field")
        for field in ("eval", "attempt", "value"):
            if not isinstance(document.get(field), (int, float)):
                raise ProtocolError(f"op 'submit' requires a numeric "
                                    f"{field!r} field")
    return document.get("id"), op
