"""MLLP framing and the upstream HL7 client connection.

Wire format, bit-exact: 0x0B, payload bytes, 0x1C, 0x0D.  The portal is an
MLLP client only; the server role lives in the mock test harness.
"""

from __future__ import annotations

import logging
import socket
import time
from dataclasses import dataclass

from .er7 import Hl7Message, parse_message, serialize_message

logger = logging.getLogger(__name__)

START_BYTE = 0x0B
END_BYTE = 0x1C
CARRIAGE_RETURN = 0x0D

_HEADER = bytes([START_BYTE])
_TRAILER = bytes([END_BYTE, CARRIAGE_RETURN])

DEFAULT_MAX_FRAME = 1024 * 1024
DEFAULT_TIMEOUT_MS = 5000


class IllegalPayloadByte(ValueError):
    """Payload contains a framing byte and cannot be framed."""


class FrameTooLarge(Exception):
    """A frame exceeded the configured maximum; the peer is misbehaving."""


class ConnectFailed(Exception):
    """Upstream TCP connection could not be established."""


class ExchangeTimeout(Exception):
    """No framed response arrived within the endpoint timeout."""


class ConnectionLost(Exception):
    """The upstream peer closed or reset the connection mid-exchange."""


def frame(payload: bytes) -> bytes:
    """Wrap one message payload in an MLLP envelope."""
    if START_BYTE in payload or END_BYTE in payload:
        raise IllegalPayloadByte("payload contains an MLLP framing byte")
    return _HEADER + payload + _TRAILER


class Deframer:
    """Incremental MLLP decoder; chunk boundaries may fall anywhere.

    Bytes outside an envelope are discarded (counted and logged), a start
    byte inside a frame restarts it, and a frame whose 0x1C is not followed
    by 0x0D is dropped: a payload is only emitted once its terminator has
    fully arrived.
    """

    _IDLE, _IN_FRAME, _AWAIT_CR = range(3)

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self.discarded_bytes = 0
        self._state = self._IDLE
        self._payload = bytearray()

    def feed(self, chunk: bytes) -> list[bytes]:
        """Consume one chunk, returning every payload completed by it."""
        out: list[bytes] = []
        pos = 0
        while pos < len(chunk):
            if self._state == self._IDLE:
                start = chunk.find(START_BYTE, pos)
                if start < 0:
                    self._discard(len(chunk) - pos, "bytes outside frame")
                    break
                if start > pos:
                    self._discard(start - pos, "bytes outside frame")
                pos = start + 1
                self._state = self._IN_FRAME
            elif self._state == self._IN_FRAME:
                end = chunk.find(END_BYTE, pos)
                restart = chunk.find(START_BYTE, pos)
                if 0 <= restart < (end if end >= 0 else len(chunk)):
                    self._payload += chunk[pos:restart]
                    self._discard(len(self._payload), "frame restarted by new start byte")
                    self._payload.clear()
                    pos = restart + 1
                    continue
                if end < 0:
                    self._payload += chunk[pos:]
                    self._check_size()
                    break
                self._payload += chunk[pos:end]
                self._check_size()
                pos = end + 1
                self._state = self._AWAIT_CR
            else:  # _AWAIT_CR
                if chunk[pos] == CARRIAGE_RETURN:
                    out.append(bytes(self._payload))
                    pos += 1
                else:
                    self._discard(len(self._payload), "frame not terminated by CR")
                self._payload.clear()
                self._state = self._IDLE
        return out

    def _check_size(self):
        if len(self._payload) > self.max_frame:
            self._state = self._IDLE
            self._payload.clear()
            raise FrameTooLarge(f"frame exceeds {self.max_frame} bytes")

    def _discard(self, count: int, why: str):
        if count:
            self.discarded_bytes += count
            logger.warning("discarding %d byte(s): %s", count, why)


@dataclass(frozen=True)
class UpstreamEndpoint:
    """Where and how to reach one HL7 server."""

    host: str
    port: int
    user: str = ""
    password: str = ""
    timeout_ms: int = DEFAULT_TIMEOUT_MS

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")


class UpstreamConnection:
    """One live MLLP connection, owned by a single session, which makes
    at most one query at a time on it.  The deframe buffer is
    connection-local.
    """

    def __init__(self, sock: socket.socket, endpoint: UpstreamEndpoint):
        self._sock = sock
        self.endpoint = endpoint
        self._deframer = Deframer()
        self._sequence = 0
        self._closed = False

    def next_control_id(self) -> str:
        """Per-connection message control id, unique per query."""
        self._sequence += 1
        return f"Q{self._sequence}"

    def exchange(self, query: Hl7Message) -> Hl7Message:
        """Send one framed query and block for one framed response.

        Raises ExchangeTimeout, ConnectionLost, FrameTooLarge, or the
        parser's MalformedSegment or EmptyMessage (a frame with no segment,
        such as ``0x0B 0x1C 0x0D``).  A timeout or an oversized frame also
        closes the connection, so a late reply can never be read as the
        answer to a later query.
        """
        if self._closed:
            raise ConnectionLost("connection already closed")
        deadline = time.monotonic() + self.endpoint.timeout_ms / 1000.0
        try:
            self._sock.sendall(frame(serialize_message(query)))
        except OSError as e:
            self.close()
            raise ConnectionLost(f"send failed: {e}") from e
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ExchangeTimeout(f"no response within {self.endpoint.timeout_ms} ms")
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                self.close()
                raise ExchangeTimeout(f"no response within {self.endpoint.timeout_ms} ms") from None
            except OSError as e:
                self.close()
                raise ConnectionLost(f"receive failed: {e}") from e
            if chunk == b"":
                self.close()
                raise ConnectionLost("peer closed the connection")
            try:
                payloads = self._deframer.feed(chunk)
            except FrameTooLarge:
                self.close()
                raise
            if payloads:
                if len(payloads) > 1:
                    logger.warning("dropping %d unexpected extra frame(s)", len(payloads) - 1)
                return parse_message(payloads[0])

    def close(self):
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        return self._closed


def connect_upstream(endpoint: UpstreamEndpoint) -> UpstreamConnection:
    """Open a TCP connection to the endpoint, failing within its timeout."""
    try:
        sock = socket.create_connection(
            (endpoint.host, endpoint.port), timeout=endpoint.timeout_ms / 1000.0
        )
    except (OSError, UnicodeError) as e:  # UnicodeError: a host IDNA rejects
        raise ConnectFailed(f"{endpoint.host}:{endpoint.port}: {e}") from e
    sock.settimeout(endpoint.timeout_ms / 1000.0)
    return UpstreamConnection(sock, endpoint)
