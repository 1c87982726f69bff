"""Multi-client portal front door plus the event log.

One thread per downstream client; sessions share only the immutable
registry snapshot, the mapping table, and the (internally locked) event
log, so no client can affect another's state.
"""

from __future__ import annotations

import itertools
import logging
import socket
import sys
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .interpreter import (
    Interpreter,
    Session,
    load_mapping,
    mapping_path,
    packaged_languages_dir,
)
from .lexicon import RegistryHolder, load_registry
from .mllp import connect_upstream

logger = logging.getLogger(__name__)

DEFAULT_LOG_NAME = "simopacServerInterpretare.log"

CONNECT = "CONNECT"
RECV = "RECV"
SEND = "SEND"
DISCONNECT = "DISCONNECT"
DIAG = "DIAG"


class BindFailed(Exception):
    """The listen port could not be bound; fatal at startup."""


@dataclass(frozen=True)
class ServerConfig:
    """Portal settings; listen_port 0 binds an ephemeral port."""

    listen_port: int = 7575
    languages_dir: Path = field(default_factory=packaged_languages_dir)
    mapping_selector: str = "simopac"
    log_path: Path = Path(DEFAULT_LOG_NAME)
    max_clients: int = 100
    upstream_timeout_ms: int = 5000
    idle_timeout_s: float = 600.0
    host: str = "0.0.0.0"

    def __post_init__(self):
        if not 0 <= self.listen_port <= 65535:
            raise ValueError(f"listen port out of range: {self.listen_port}")
        if self.max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        if self.upstream_timeout_ms <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("timeouts must be positive")


class EventLog:
    """Append-only record log; one flushed line per record.

    Records: "<ISO-8601 UTC ms> <sessionId> <direction> <text>".  Write
    failures are reported to stderr and swallowed: availability of the
    portal wins over completeness of the audit trail.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None

    @staticmethod
    def _timestamp() -> str:
        now = datetime.now(timezone.utc)
        return now.strftime("%Y-%m-%dT%H:%M:%S") + f".{now.microsecond // 1000:03d}Z"

    def record(self, session_id: str, direction: str, text: str = "") -> None:
        clean = text.replace("\r", "\\r").replace("\n", "\\n")
        line = f"{self._timestamp()} {session_id} {direction} {clean}\n"
        with self._lock:
            try:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(line)
                self._file.flush()
            except OSError as e:
                print(f"event log unwritable: {e}", file=sys.stderr)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None


class PortalServer:
    """Accepts downstream clients and runs one session loop per client."""

    def __init__(self, config: ServerConfig, connect=connect_upstream):
        self.config = config
        # A missing registry or broken mapping is fatal before listen.
        self._holder = RegistryHolder(load_registry(config.languages_dir))
        mapping = load_mapping(mapping_path(config.mapping_selector))
        self._interpreter = Interpreter(
            self._holder, mapping, connect, config.upstream_timeout_ms
        )
        self.log = EventLog(config.log_path)
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._session_conns: dict[str, socket.socket] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stopping = False
        self.port: int | None = None

    def __enter__(self) -> "PortalServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def reload_languages(self) -> None:
        self._holder.reload()
        self.log.record("-", DIAG, "language registry reloaded")

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.config.host, self.config.listen_port))
            listener.listen(128)
        except OSError as e:
            listener.close()
            raise BindFailed(f"cannot listen on port {self.config.listen_port}: {e}") from e
        listener.settimeout(0.2)  # so stop() can interrupt accept()
        self._listener = listener
        self.port = listener.getsockname()[1]
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._session_conns.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5)
        self.log.close()

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            with self._lock:
                full = len(self._session_conns) >= self.config.max_clients
                if not full:
                    session_id = f"s{next(self._ids)}"
                    self._session_conns[session_id] = conn
            if full:
                self._refuse(conn, peer)
                continue
            thread = threading.Thread(
                target=self._run_session, args=(session_id, conn, peer), daemon=True
            )
            # Registered before it runs: a session drops its own thread.
            with self._lock:
                self._threads.append(thread)
            thread.start()

    def _refuse(self, conn: socket.socket, peer) -> None:
        # Over the client limit: one NOK line, then drop.  No CONNECT or
        # DISCONNECT records; the refusal is a diagnostic event only.
        self.log.record("-", DIAG, f"client limit reached, refusing {peer[0]}:{peer[1]}")
        try:
            conn.sendall(b"NOK\n")
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _run_session(self, session_id: str, conn: socket.socket, peer) -> None:
        session = Session(session_id)
        self.log.record(session_id, CONNECT, f"{peer[0]}:{peer[1]}")
        reason = "peer closed connection"
        conn.settimeout(self.config.idle_timeout_s)
        buffer = b""
        try:
            running = True
            while running:
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    reason = "idle timeout"
                    self.log.record(session_id, DIAG, "idle timeout, closing session")
                    break
                except OSError:
                    break
                if chunk == b"":
                    break
                buffer += chunk
                # Only complete LF-terminated lines are commands; a trailing
                # CR (Windows clients) is stripped.
                while running and b"\n" in buffer:
                    raw, _, buffer = buffer.partition(b"\n")
                    if raw.endswith(b"\r"):
                        raw = raw[:-1]
                    line = raw.decode("latin-1")
                    self.log.record(session_id, RECV, line)
                    outcome = self._interpreter.handle_line(session, line)
                    try:
                        conn.sendall(outcome.response.encode("latin-1") + b"\n")
                    except OSError:
                        running = False
                        break
                    self.log.record(session_id, SEND, outcome.response)
                    if outcome.end_session:
                        reason = "client disconnect command"
                        running = False
        finally:
            if session.upstream is not None:
                session.upstream.close()
            with self._lock:
                self._session_conns.pop(session_id, None)
                self._threads.remove(threading.current_thread())
            try:
                conn.close()
            except OSError:
                pass
            self.log.record(session_id, DISCONNECT, reason)
