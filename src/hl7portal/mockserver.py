"""MLLP test-harness server answering patient queries from fixtures.

Stateless by construction: every response is computed from the query and
the fixture set alone.  Misbehavior flags exist so timeout and robustness
paths can be driven end to end.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .er7 import parse_message, parse_segment, serialize_segment
from .mllp import Deframer, FrameTooLarge, frame

logger = logging.getLogger(__name__)

SILENT = "silent"
GARBAGE = "garbage"


class FixtureError(ValueError):
    """A fixture block is malformed or duplicated."""


@dataclass(frozen=True)
class PatientFixture:
    """One patient record: lookup key plus the raw PID line served back."""

    cnp: str
    pid_line: str

    def __post_init__(self):
        if not self.cnp:
            raise FixtureError("fixture cnp must be non-empty")
        seg = parse_segment(self.pid_line)  # raises MalformedSegment if invalid
        if seg.name != "PID":
            raise FixtureError(f"fixture segment is {seg.name}, expected PID")


def parse_fixtures(text: str) -> list[PatientFixture]:
    """Blank-line-separated blocks: `cnp=<value>` then the raw PID line."""
    fixtures: list[PatientFixture] = []
    seen: set[str] = set()
    block: list[str] = []

    def finish(block: list[str]):
        if not block:
            return
        if len(block) != 2 or not block[0].startswith("cnp="):
            raise FixtureError(f"bad fixture block: {block!r}")
        cnp = block[0][len("cnp="):].strip()
        if cnp in seen:
            raise FixtureError(f"duplicate fixture cnp {cnp!r}")
        seen.add(cnp)
        fixtures.append(PatientFixture(cnp, block[1]))

    for line in text.splitlines():
        if line.strip().startswith("#"):
            continue
        if line.strip() == "":
            finish(block)
            block = []
        else:
            block.append(line)
    finish(block)
    return fixtures


def load_fixtures(path: str | Path) -> list[PatientFixture]:
    return parse_fixtures(Path(path).read_bytes().decode("latin-1"))


class MockHl7Server:
    """Accepts MLLP connections and answers QBP-style patient queries.

    With user/password set, queries whose MSH-8 is not "user:password" are
    rejected.  misbehave=SILENT reads queries and never answers;
    misbehave=GARBAGE answers with bytes that are not a valid HL7 frame
    sequence.
    """

    def __init__(
        self,
        port: int = 0,
        fixtures: list[PatientFixture] | None = None,
        user: str | None = None,
        password: str | None = None,
        misbehave: str | None = None,
        host: str = "127.0.0.1",
    ):
        if misbehave not in (None, SILENT, GARBAGE):
            raise ValueError(f"unknown misbehavior {misbehave!r}")
        self._fixtures = {f.cnp: f for f in (fixtures or [])}
        self._user = user
        self._password = password
        self._misbehave = misbehave
        self._host = host
        self._requested_port = port
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopping = False
        self.port: int | None = None

    def __enter__(self) -> "MockHl7Server":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(64)
        # A blocked accept() does not reliably wake when another thread
        # closes the socket; poll so stop() returns promptly.
        listener.settimeout(0.2)
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
            connections = list(self._connections)
        for conn in connections:
            try:
                # shutdown (unlike close) wakes a thread blocked in recv.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            # Registered before it runs: a connection drops its own thread.
            with self._lock:
                self._connections.add(conn)
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        deframer = Deframer()
        try:
            while True:
                try:
                    data = conn.recv(65536)
                    if not data:
                        return
                    payloads = deframer.feed(data)
                except (OSError, FrameTooLarge):
                    return
                try:
                    for payload in payloads:
                        if self._misbehave == SILENT:
                            continue
                        if self._misbehave == GARBAGE:
                            conn.sendall(self._garbage())
                            continue
                        conn.sendall(frame(self._respond(payload)))
                except OSError:
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
                self._threads.remove(threading.current_thread())
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _garbage() -> bytes:
        # Noise outside any frame, then a framed payload that is not HL7:
        # exercises both the deframer's discard path and the parser's
        # rejection path downstream.
        return b"\x00\xfe\x02not mllp at all\r\n" + frame(b"\x01\x02@@ not hl7 @@")

    def _respond(self, payload: bytes) -> bytes:
        timestamp = time.strftime("%Y%m%d%H%M%S")
        control = ""
        tag = ""
        qpd_echo = "QPD"
        cnp = None
        parse_failed = False
        try:
            query = parse_message(payload)
        except ValueError:
            parse_failed = True
        else:
            control = query.field_value("MSH", 10) or ""
            tag = query.field_value("QPD", 2) or ""
            cnp = query.field_value("QPD", 3)
            qpd = query.segment("QPD")
            if qpd is not None:
                qpd_echo = serialize_segment(qpd, query.encoding)
        credentials_ok = True
        if not parse_failed and self._user is not None:
            credentials_ok = (
                query.field_value("MSH", 8) == f"{self._user}:{self._password}"
            )
        fixture = self._fixtures.get(cnp) if cnp else None
        if parse_failed:
            ack, status = "AE", "AE"
        elif not credentials_ok:
            ack, status = "AR", "AR"
        elif fixture is None:
            ack, status = "AE", "NF"
        else:
            ack, status = "AA", "OK"
        lines = [
            f"MSH|^~\\&|MOCKHIS|HIS|||{timestamp}||RSP^K22|R{control}|P|2.3.1",
            f"MSA|{ack}|{control}",
            f"QAK|{tag}|{status}",
            qpd_echo,
        ]
        if fixture is not None and credentials_ok:
            # Spliced in raw, never re-serialized: byte fidelity is the
            # whole point of the fixture format.
            lines.append(fixture.pid_line)
        return ("\r".join(lines) + "\r").encode("latin-1")
