"""Fixture parsing and mock upstream behavior."""

import socket
import time

import pytest

from helpers import PATIENT_CNP, PATIENT_PID
from hl7portal.er7 import MalformedSegment, parse_message
from hl7portal.interpreter import build_patient_query
from hl7portal.mllp import (
    Deframer,
    ExchangeTimeout,
    UpstreamEndpoint,
    connect_upstream,
    frame,
)
from hl7portal.er7 import serialize_message
from hl7portal.mockserver import (
    FixtureError,
    MockHl7Server,
    PatientFixture,
    parse_fixtures,
)


class TestFixtureParsing:
    def test_blocks_and_comments(self):
        text = (
            "# demo fixtures\n"
            f"cnp={PATIENT_CNP}\n{PATIENT_PID}\n"
            "\n"
            "cnp=2\nPID||||Alt Patient\n"
        )
        fixtures = parse_fixtures(text)
        assert [f.cnp for f in fixtures] == [PATIENT_CNP, "2"]
        assert fixtures[0].pid_line == PATIENT_PID

    def test_bad_block_rejected(self):
        with pytest.raises(FixtureError):
            parse_fixtures("PID|only a pid line\n")
        with pytest.raises(FixtureError):
            parse_fixtures("cnp=1\n")

    def test_duplicate_cnp_rejected(self):
        with pytest.raises(FixtureError):
            parse_fixtures("cnp=1\nPID|a\n\ncnp=1\nPID|b\n")

    def test_non_pid_segment_rejected(self):
        with pytest.raises(FixtureError):
            PatientFixture("1", "OBX|1")

    def test_invalid_er7_rejected(self):
        with pytest.raises(MalformedSegment):
            PatientFixture("1", "not a segment")


@pytest.fixture()
def mock():
    fixtures = [PatientFixture(PATIENT_CNP, PATIENT_PID)]
    with MockHl7Server(fixtures=fixtures) as server:
        yield server


def raw_query(port: int, cnp: str, user="u", password="p") -> bytes:
    """Send one framed query over a raw socket, return the response payload."""
    return raw_exchange(port, serialize_message(build_patient_query(cnp, user, password, "Q1")))


def raw_exchange(port: int, payload: bytes) -> bytes:
    """Send one framed payload over a raw socket, return the response payload."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(frame(payload))
        deframer = Deframer()
        while True:
            payloads = deframer.feed(sock.recv(65536))
            if payloads:
                return payloads[0]


class TestResponses:
    def test_hit_carries_fixture_pid_byte_for_byte(self, mock):
        payload = raw_query(mock.port, PATIENT_CNP)
        assert PATIENT_PID.encode("ascii") in payload.split(b"\r")
        response = parse_message(payload)
        assert response.field_value("MSA", 1) == "AA"
        assert response.field_value("MSA", 2) == "Q1"
        assert response.field_value("QAK", 2) == "OK"
        assert response.field_value("MSH", 9) == "RSP^K22"

    def test_qpd_is_echoed(self, mock):
        response = parse_message(raw_query(mock.port, PATIENT_CNP))
        assert response.field_value("QPD", 3) == PATIENT_CNP

    @pytest.mark.parametrize("cnp", [b"1\\X0A\\2", b"\\H\\x"])
    def test_qpd_is_echoed_byte_for_byte(self, mock, cnp):
        # Escapes the decoder does not know (HL7 v2.5.1 section 2.7) stay
        # as they were sent.
        qpd = b"QPD|Q22^Find Candidates|Q1|" + cnp
        payload = raw_exchange(mock.port, b"MSH|^~\\&|A|B|||1||QBP^Q22|Q1|P|2.3.1\r" + qpd + b"\r")
        assert payload.split(b"\r")[3] == qpd

    def test_control_id_is_escaped_in_the_reply(self, mock):
        # MSH-10 and QPD-2 come back as the values that were sent, not as
        # a separator spliced into MSH, MSA and QAK.
        payload = raw_exchange(
            mock.port,
            b"MSH|^~\\&|A|B|||1||QBP^Q22|Q\\F\\1|P|2.3.1\r"
            b"QPD|Q22^Find Candidates|Q\\F\\1|" + PATIENT_CNP.encode() + b"\r",
        )
        response = parse_message(payload)
        assert response.field_value("MSH", 10) == "RQ|1"
        assert response.field_value("MSA", 2) == "Q|1"
        assert response.field_value("QAK", 1) == "Q|1"
        assert response.field_value("QAK", 2) == "OK"

    def test_miss_has_no_pid(self, mock):
        response = parse_message(raw_query(mock.port, "0000"))
        assert response.field_value("MSA", 1) == "AE"
        assert response.field_value("QAK", 2) == "NF"
        assert response.segment("PID") is None

    def test_statelessness_across_queries(self, mock):
        # Everything but the MSH timestamp is a pure function of the query.
        first = raw_query(mock.port, PATIENT_CNP).split(b"\r")[1:]
        second = raw_query(mock.port, PATIENT_CNP).split(b"\r")[1:]
        after_miss = raw_query(mock.port, "0000")
        third = raw_query(mock.port, PATIENT_CNP).split(b"\r")[1:]
        assert first == second == third
        assert parse_message(after_miss).segment("PID") is None

    def test_credential_check(self):
        fixtures = [PatientFixture(PATIENT_CNP, PATIENT_PID)]
        with MockHl7Server(fixtures=fixtures, user="demo", password="s3cret") as mock:
            good = parse_message(raw_query(mock.port, PATIENT_CNP, "demo", "s3cret"))
            bad = parse_message(raw_query(mock.port, PATIENT_CNP, "demo", "wrong"))
        assert good.field_value("MSA", 1) == "AA"
        assert bad.field_value("MSA", 1) == "AR"
        assert bad.segment("PID") is None

    def test_query_without_qpd_still_answered(self, mock):
        with socket.create_connection(("127.0.0.1", mock.port), timeout=5) as sock:
            sock.sendall(frame(b"MSH|^~\\&|X|Y|||1||QBP^Q22|77|P|2.3.1"))
            deframer = Deframer()
            while True:
                payloads = deframer.feed(sock.recv(65536))
                if payloads:
                    break
        response = parse_message(payloads[0])
        assert response.field_value("MSA", 1) == "AE"
        assert response.field_value("MSA", 2) == "77"

    def test_query_in_another_encoding_answered_ae(self, mock):
        # The echo would carry separators the reply's MSH does not declare.
        payload = raw_exchange(
            mock.port,
            b"MSH#*%!$#A#B####QBP*Q22#Q1#P#2.3.1\rQPD#Q22*Find#Q1#175\r",
        )
        response = parse_message(payload)
        assert response.field_value("MSA", 1) == "AE"
        assert payload.split(b"\r")[3] == b"QPD"

    def test_closed_connections_release_their_threads(self, mock):
        for _ in range(5):
            raw_query(mock.port, PATIENT_CNP)
        # A connection drops its thread in the same step as its socket.
        deadline = time.monotonic() + 5
        while mock._connections and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not mock._connections
        assert len(mock._threads) <= 1


class TestStop:
    def test_stop_with_a_connection_open(self):
        mock = MockHl7Server()
        mock.start()
        with socket.create_connection(("127.0.0.1", mock.port), timeout=5) as sock:
            deadline = time.monotonic() + 5
            while not mock._connections and time.monotonic() < deadline:
                time.sleep(0.02)
            assert mock._connections
            start = time.monotonic()
            mock.stop()
            assert time.monotonic() - start < 1.0
            assert sock.recv(1) == b""


class TestMisbehavior:
    def test_silent_mode_forces_timeout(self):
        with MockHl7Server(misbehave="silent") as mock:
            conn = connect_upstream(
                UpstreamEndpoint("127.0.0.1", mock.port, timeout_ms=300)
            )
            try:
                with pytest.raises(ExchangeTimeout):
                    conn.exchange(build_patient_query("1", "u", "p", "Q1"))
            finally:
                conn.close()

    def test_garbage_mode_never_yields_a_message(self):
        with MockHl7Server(misbehave="garbage") as mock:
            conn = connect_upstream(
                UpstreamEndpoint("127.0.0.1", mock.port, timeout_ms=1000)
            )
            try:
                with pytest.raises((MalformedSegment, ExchangeTimeout)):
                    conn.exchange(build_patient_query("1", "u", "p", "Q1"))
            finally:
                conn.close()

    def test_unknown_misbehavior_rejected(self):
        with pytest.raises(ValueError):
            MockHl7Server(misbehave="flaky")
