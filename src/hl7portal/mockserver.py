"""MLLP test-harness server answering patient queries from fixtures.

Stateless by construction: every response is computed from the query and
the fixture set alone.  Misbehavior flags exist so timeout and robustness
paths can be driven end to end.  Connections are accepted and served, one
thread each, by the ``Listener`` the portal also runs on.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from pathlib import Path

from .er7 import DEFAULT_ENCODING, encode_escapes, parse_message, parse_segment, serialize_segment
from .listener import Listener
from .mllp import Deframer, FrameTooLarge, frame

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


class MockHl7Server(Listener):
    """Accepts MLLP connections and answers QBP-style patient queries.

    With user/password set, queries whose MSH-8 is not "user:password" are
    rejected, and a query in other encoding characters than the default is
    answered AE, as an unreadable one is.  misbehave=SILENT reads queries and never answers;
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
        super().__init__(host, port)

    def serve_connection(self, conn: socket.socket, peer) -> None:
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
            self.release(conn)

    @staticmethod
    def _garbage() -> bytes:
        # Noise outside any frame, then a framed payload that is not HL7:
        # exercises both the deframer's discard path and the parser's
        # rejection path downstream.
        return b"\x00\xfe\x02not mllp at all\r\n" + frame(b"\x01\x02@@ not hl7 @@")

    def _respond(self, payload: bytes) -> bytes:
        timestamp = time.strftime("%Y%m%d%H%M%S")
        try:
            query = parse_message(payload)
        except ValueError:
            query = None
        if query is None or query.encoding != DEFAULT_ENCODING:
            # Unreadable, or escaped for separators the reply's MSH does not
            # declare: either way the QPD echo is bare and the answer AE.
            control, tag, qpd_echo, fixture = "", "", "QPD", None
            ack, status = "AE", "AE"
        else:
            # Decoded values, escaped again before they are spliced in.
            control = encode_escapes(query.field_value("MSH", 10) or "")
            tag = encode_escapes(query.field_value("QPD", 2) or "")
            cnp = query.field_value("QPD", 3)
            qpd = query.segment("QPD")
            qpd_echo = serialize_segment(qpd) if qpd is not None else "QPD"
            fixture = self._fixtures.get(cnp) if cnp else None
            if self._user is not None and (
                query.field_value("MSH", 8) != f"{self._user}:{self._password}"
            ):
                ack, status, fixture = "AR", "AR", None
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
        if fixture is not None:
            # Spliced in raw, never re-serialized: byte fidelity is the
            # whole point of the fixture format.
            lines.append(fixture.pid_line)
        return ("\r".join(lines) + "\r").encode("latin-1")
