"""Multi-client portal front door plus the event log.

One thread per downstream client, from the ``Listener`` it shares with the
mock HIS; sessions share only the immutable registry snapshot, the mapping
table, and the append-only event log, so no client can affect another's
state.  A session thread makes one ``recv`` and one ``send`` per command:
its socket is blocking, with the idle timeout left to the kernel
(SO_RCVTIMEO/SO_SNDTIMEO), and its log records are queued in memory for
the log's writer thread, which appends them in batches.
"""

from __future__ import annotations

import itertools
import socket
import struct
import sys
import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import gmtime, sleep, strftime, time_ns

from .interpreter import (
    NOK,
    CommandOutcome,
    Interpreter,
    Session,
    load_mapping,
    mapping_path,
    packaged_languages_dir,
    redact_password,
)
from .lexicon import RegistryHolder, RegistryMissing, load_registry
from .listener import Listener
from .mllp import DEFAULT_TIMEOUT_MS, connect_upstream

CONNECT = "CONNECT"
RECV = "RECV"
SEND = "SEND"
DISCONNECT = "DISCONNECT"
DIAG = "DIAG"

# Most bytes a command line may hold before its LF (a CR counts).
MAX_LINE_BYTES = 64 * 1024

# How long a record waits in memory before the event log's writer thread
# appends it: a busy portal then writes hundreds of records per write,
# and each record still reaches the file within about this delay.
BATCH_DELAY_S = 0.01


class BindFailed(Exception):
    """The listen port could not be bound; fatal at startup."""


@dataclass(frozen=True)
class ServerConfig:
    """Portal settings; listen_port 0 binds an ephemeral port."""

    listen_port: int = 7575
    languages_dir: Path = field(default_factory=packaged_languages_dir)
    mapping_selector: str = "simopac"
    log_path: Path = Path("simopacServerInterpretare.log")
    max_clients: int = 100
    upstream_timeout_ms: int = DEFAULT_TIMEOUT_MS
    idle_timeout_s: float = 600.0
    host: str = "0.0.0.0"

    def __post_init__(self):
        if not 0 <= self.listen_port <= 65535:
            raise ValueError(f"listen port out of range: {self.listen_port}")
        if self.max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        if self.upstream_timeout_ms <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("timeouts must be positive")


# C0 controls, DEL and C1 controls as \xNN; CR and LF keep their \r and
# \n, and a backslash is doubled so that every escape reads back as one.
# No record can then split into two lines, and no escape sequence reaches
# an operator's terminal.
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_CONTROL_ESCAPES.update({ord("\r"): "\\r", ord("\n"): "\\n", ord("\\"): "\\\\"})


class EventLog:
    """Append-only record log: "<ISO-8601 UTC ms> <sessionId> <direction> <text>".

    ``record`` formats a line, stamped at the call, and queues it with no
    lock or system call.  A writer thread appends each batch with one
    O_APPEND write, BATCH_DELAY_S after the batch's first record, and
    waits untimed while nothing is queued.  ``close()`` writes what is
    queued; a later record is dropped.  Failures go to stderr and are
    swallowed: the portal's availability wins over the completeness of
    its audit trail.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._stamp = (-1, "")  # (second, its prefix): read and replaced as one
        self._queue: deque[bytes] = deque()
        self._queued = threading.Event()
        self._open = False
        try:
            self._file = open(self.path, "ab", buffering=0)
        except OSError as e:
            print(f"event log unwritable: {e}", file=sys.stderr)
            return
        self._open = True
        self._writer = threading.Thread(target=self._write_batches, name="event-log", daemon=True)
        self._writer.start()

    def _timestamp(self) -> str:
        second, millis = divmod(time_ns() // 1_000_000, 1000)
        stamp = self._stamp
        if stamp[0] != second:
            stamp = self._stamp = (second, strftime("%Y-%m-%dT%H:%M:%S", gmtime(second)))
        return f"{stamp[1]}.{millis:03d}Z"

    def record(self, session_id: str, direction: str, text: str = "") -> None:
        if not self._open:
            return
        if not text.isprintable() or "\\" in text:
            text = text.translate(_CONTROL_ESCAPES)
        line = f"{self._timestamp()} {session_id} {direction} {text}\n"
        self._queue.append(line.encode("utf-8", "backslashreplace"))
        # After the append: the writer clears the event before it drains,
        # so a record it misses always sets the event again.
        if not self._queued.is_set():
            self._queued.set()

    def _write_batches(self) -> None:
        queue, queued = self._queue, self._queued
        while True:
            queued.wait()
            if self._open:
                sleep(BATCH_DELAY_S)
            queued.clear()
            # Read before the drain, which then holds every record made
            # before close() began.
            closing = not self._open
            batch = b"".join([queue.popleft() for _ in range(len(queue))])
            try:
                while batch:
                    batch = batch[self._file.write(batch) :]
            except OSError as e:
                print(f"event log unwritable: {e}", file=sys.stderr)
            if closing:
                return

    def close(self) -> None:
        """Write what is queued, stop the writer and close the file."""
        if not self._open:
            return
        self._open = False
        self._queued.set()
        self._writer.join()
        try:
            self._file.close()
        except OSError:
            pass


def set_idle_timeout(conn: socket.socket, seconds: float) -> None:
    """Make ``conn`` blocking, with ``seconds`` as its SO_RCVTIMEO and
    SO_SNDTIMEO: the kernel then ends a recv or send that waits that long
    with EAGAIN (BlockingIOError), and CPython makes no poll before each
    call, as it does for a socket with a Python timeout."""
    conn.settimeout(None)
    # struct timeval, at least 1 µs: a zero timeval means no timeout.
    whole, micros = divmod(max(1, round(seconds * 1_000_000)), 1_000_000)
    timeval = struct.pack("ll", whole, micros)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class PortalServer(Listener):
    """Accepts downstream clients and runs one session loop per client."""

    def __init__(self, config: ServerConfig, connect=connect_upstream):
        self.config = config
        # A registry with no usable language, or a broken mapping, is fatal
        # before the socket exists.
        self._holder = RegistryHolder(load_registry(config.languages_dir))
        mapping = load_mapping(mapping_path(config.mapping_selector))
        self._interpreter = Interpreter(
            self._holder, mapping, connect, config.upstream_timeout_ms
        )
        self.log = EventLog(config.log_path)
        self._ids = itertools.count(1)
        super().__init__(config.host, config.listen_port)

    def reload_languages(self) -> None:
        """Re-read the pack directory (SIGHUP; the only way packs change).
        A directory that does not load is refused and the packs in use
        stay.  Logs either outcome and never raises."""
        try:
            self._holder.reload()
        except (RegistryMissing, OSError) as e:
            self.log.record("-", DIAG, f"language registry reload refused: {e}")
        else:
            self.log.record("-", DIAG, "language registry reloaded")

    def start(self) -> None:
        try:
            super().start()
        except OSError as e:
            self.log.close()
            raise BindFailed(f"cannot listen on port {self.config.listen_port}: {e}") from e

    def stop(self) -> None:
        super().stop()
        self.log.close()

    def verify_request(self, conn: socket.socket, peer) -> bool:
        # Over the client limit: one NOK line, then drop.  No CONNECT or
        # DISCONNECT records; the refusal is a diagnostic event only.  Only
        # this thread adds connections, so the count can only fall meanwhile.
        if len(self._connections) < self.config.max_clients:
            return True
        self.log.record("-", DIAG, f"client limit reached, refusing {peer[0]}:{peer[1]}")
        try:
            conn.sendall(b"NOK\n")
        except OSError:
            pass
        return False

    def _handle(self, session: Session, line: str) -> CommandOutcome:
        """``handle_line``, with a last resort for a bug in it: the
        session answers NOK and lives on."""
        try:
            return self._interpreter.handle_line(session, line)
        except Exception as e:
            # Type and place only: the message could carry a login's arguments.
            frame = traceback.extract_tb(e.__traceback__)[-1]
            where = f"{Path(frame.filename).name}:{frame.lineno}"
            name = type(e).__name__
            self.log.record(session.id, DIAG, f"internal error {name} at {where}, answering NOK")
            session.last_error = f"Internal error: {name}"
            return CommandOutcome(NOK)

    def serve_connection(self, conn: socket.socket, peer) -> None:
        session_id = f"s{next(self._ids)}"
        session = Session(session_id)
        self.log.record(session_id, CONNECT, f"{peer[0]}:{peer[1]}")
        reason = "peer closed connection"
        set_idle_timeout(conn, self.config.idle_timeout_s)
        try:
            with conn.makefile("rb") as lines:
                while True:
                    raw = lines.readline(MAX_LINE_BYTES + 1)
                    # Only complete LF-terminated lines are commands; EOF
                    # inside a line ends the session without one.
                    if not raw.endswith(b"\n"):
                        if len(raw) > MAX_LINE_BYTES:
                            reason = "line too long"
                            text = f"no LF within {MAX_LINE_BYTES} bytes, answering NOK"
                            self.log.record(session_id, DIAG, text)
                            conn.sendall(b"NOK\n")
                        # readline() also stops short when the receive
                        # timeout expires; this peek raises BlockingIOError
                        # then, and reads b"" only at EOF.
                        elif conn.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT):
                            raise BlockingIOError  # bytes came after the timeout
                        return
                    # A trailing CR (Windows clients) is stripped.
                    line = raw[:-1].removesuffix(b"\r").decode("latin-1")
                    self.log.record(session_id, RECV, redact_password(line))
                    outcome = self._handle(session, line)
                    conn.sendall(outcome.response.encode("latin-1") + b"\n")
                    self.log.record(session_id, SEND, outcome.response)
                    if outcome.end_session:
                        reason = "client disconnect command"
                        return
        except BlockingIOError:  # the receive or send timeout expired
            reason = "idle timeout"
            self.log.record(session_id, DIAG, "idle timeout, closing session")
        except OSError:
            pass  # the peer is gone
        finally:
            if session.upstream is not None:
                session.upstream.close()
            # Released before DISCONNECT is logged, so a reader of that
            # record never sees the session still counted.
            self.release(conn)
            self.log.record(session_id, DISCONNECT, reason)
