"""Multi-client portal front door plus the event log.

One thread per downstream client, from the ``Listener`` it shares with the
mock HIS; sessions share only the immutable registry snapshot, the mapping
table, and the append-only event log, so no client can affect another's
state.
"""

from __future__ import annotations

import itertools
import socket
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import gmtime, strftime, time_ns

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

    One unbuffered O_APPEND write per record and no lock; a record is in the
    file (not fsynced) on return.  Failures go to stderr and are swallowed:
    the portal's availability wins over the completeness of its audit trail.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._stamp = (-1, "")  # (second, its prefix): read and replaced as one
        try:
            self._file = open(self.path, "ab", buffering=0)
        except OSError as e:
            self._file = None
            print(f"event log unwritable: {e}", file=sys.stderr)

    def _timestamp(self) -> str:
        second, millis = divmod(time_ns() // 1_000_000, 1000)
        stamp = self._stamp
        if stamp[0] != second:
            stamp = self._stamp = (second, strftime("%Y-%m-%dT%H:%M:%S", gmtime(second)))
        return f"{stamp[1]}.{millis:03d}Z"

    def record(self, session_id: str, direction: str, text: str = "") -> None:
        if self._file is None:
            return
        if not text.isprintable() or "\\" in text:
            text = text.translate(_CONTROL_ESCAPES)
        line = f"{self._timestamp()} {session_id} {direction} {text}\n"
        try:
            self._file.write(line.encode("utf-8", "backslashreplace"))
        except ValueError:
            pass  # closed: nothing is written after close()
        except OSError as e:
            print(f"event log unwritable: {e}", file=sys.stderr)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass


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
        conn.settimeout(self.config.idle_timeout_s)
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
        except socket.timeout:
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
