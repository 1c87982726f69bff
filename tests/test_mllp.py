"""Framing and upstream-connection tests."""

import socket
import threading
import time

import pytest

from hl7portal.er7 import parse_message
from hl7portal.mllp import (
    ConnectFailed,
    ConnectionLost,
    Deframer,
    ExchangeTimeout,
    FrameTooLarge,
    IllegalPayloadByte,
    UpstreamEndpoint,
    connect_upstream,
    frame,
)


class TestFrame:
    def test_envelope_bytes(self):
        assert frame(b"MSH|x") == b"\x0bMSH|x\x1c\x0d"

    def test_empty_payload(self):
        assert frame(b"") == b"\x0b\x1c\x0d"

    @pytest.mark.parametrize("payload", [b"a\x0bb", b"a\x1cb"])
    def test_framing_bytes_in_payload_rejected(self, payload):
        with pytest.raises(IllegalPayloadByte):
            frame(payload)


class TestDeframer:
    def test_back_to_back_frames(self):
        d = Deframer()
        assert d.feed(frame(b"one") + frame(b"two")) == [b"one", b"two"]
        assert d.discarded_bytes == 0

    def test_one_byte_at_a_time(self):
        payloads = [b"MSH|^~\\&|A\rPID|1\r", b"", b"x" * 100]
        stream = b"".join(frame(p) for p in payloads)
        d = Deframer()
        got = []
        for i in range(len(stream)):
            got.extend(d.feed(stream[i : i + 1]))
        assert got == payloads

    def test_every_two_way_split(self):
        payloads = [b"abc", b"", b"defg"]
        stream = b"".join(frame(p) for p in payloads)
        for cut in range(len(stream) + 1):
            d = Deframer()
            got = d.feed(stream[:cut]) + d.feed(stream[cut:])
            assert got == payloads, f"split at {cut}"

    def test_noise_outside_frames_discarded(self):
        d = Deframer()
        assert d.feed(b"junk" + frame(b"p") + b"zz") == [b"p"]
        assert d.discarded_bytes == 6

    def test_start_byte_restarts_frame(self):
        d = Deframer()
        assert d.feed(b"\x0bAAA" + frame(b"B")) == [b"B"]
        assert d.discarded_bytes == 3

    def test_missing_cr_drops_frame(self):
        d = Deframer()
        assert d.feed(b"\x0bAA\x1cX" + frame(b"B")) == [b"B"]
        assert d.discarded_bytes == 3  # the AA payload plus the stray X

    def test_frame_size_limit(self):
        d = Deframer(max_frame=10)
        assert d.feed(frame(b"A" * 10)) == [b"A" * 10]
        with pytest.raises(FrameTooLarge):
            d.feed(b"\x0b" + b"A" * 11)


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _serve_once(handler) -> int:
    """Accept one connection on an ephemeral port, pass it to handler."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def run():
        conn, _ = listener.accept()
        try:
            handler(conn)
        finally:
            conn.close()
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return port


QUERY = parse_message(b"MSH|^~\\&|PORTAL\rQPD|Q22^Find Candidates|Q1|123\rRCP|I|1^RD")


class TestUpstreamConnection:
    def test_connect_failed_on_closed_port(self):
        endpoint = UpstreamEndpoint("127.0.0.1", _free_port(), timeout_ms=500)
        with pytest.raises(ConnectFailed):
            connect_upstream(endpoint)

    def test_exchange_round_trip_twice(self):
        def handler(conn):
            d = Deframer()
            served = 0
            while served < 2:
                data = conn.recv(65536)
                if not data:
                    return
                for payload in d.feed(data):
                    assert payload.startswith(b"MSH|")
                    conn.sendall(frame(b"MSH|^~\\&|HIS\rMSA|AA|Q1"))
                    served += 1

        port = _serve_once(handler)
        conn = connect_upstream(UpstreamEndpoint("127.0.0.1", port, timeout_ms=2000))
        try:
            for _ in range(2):
                response = conn.exchange(QUERY)
                assert response.field_value("MSA", 1) == "AA"
        finally:
            conn.close()

    def test_response_delivered_in_tiny_chunks(self):
        def handler(conn):
            conn.recv(65536)
            for byte in frame(b"MSH|^~\\&|HIS\rMSA|AA|Q1"):
                conn.sendall(bytes([byte]))

        port = _serve_once(handler)
        conn = connect_upstream(UpstreamEndpoint("127.0.0.1", port, timeout_ms=2000))
        try:
            assert conn.exchange(QUERY).field_value("MSA", 1) == "AA"
        finally:
            conn.close()

    def test_exchange_timeout_when_peer_is_silent(self):
        def handler(conn):
            conn.recv(65536)
            time.sleep(2.0)

        port = _serve_once(handler)
        conn = connect_upstream(UpstreamEndpoint("127.0.0.1", port, timeout_ms=300))
        start = time.monotonic()
        try:
            with pytest.raises(ExchangeTimeout):
                conn.exchange(QUERY)
        finally:
            conn.close()
        elapsed = time.monotonic() - start
        assert 0.25 <= elapsed < 1.5

    def test_late_reply_never_answers_the_next_query(self):
        def handler(conn):
            d = Deframer()
            served = 0
            while served < 2:
                data = conn.recv(65536)
                if not data:
                    return
                for _payload in d.feed(data):
                    served += 1
                    if served == 1:
                        time.sleep(0.4)  # answer Q1 only after its timeout
                    try:
                        conn.sendall(frame(b"MSH|^~\\&|HIS\rMSA|AA|Q%d" % served))
                    except OSError:
                        return

        port = _serve_once(handler)
        conn = connect_upstream(UpstreamEndpoint("127.0.0.1", port, timeout_ms=200))
        try:
            with pytest.raises(ExchangeTimeout):
                conn.exchange(QUERY)
            assert conn.closed
            time.sleep(0.4)  # Q1's reply is sent by now
            with pytest.raises(ConnectionLost):
                conn.exchange(QUERY)
        finally:
            conn.close()

    def test_connection_lost_when_peer_closes(self):
        def handler(conn):
            conn.recv(65536)

        port = _serve_once(handler)
        conn = connect_upstream(UpstreamEndpoint("127.0.0.1", port, timeout_ms=2000))
        with pytest.raises(ConnectionLost):
            conn.exchange(QUERY)
        assert conn.closed

    def test_control_ids_are_sequential(self):
        def handler(conn):
            conn.recv(65536)

        port = _serve_once(handler)
        conn = connect_upstream(UpstreamEndpoint("127.0.0.1", port, timeout_ms=500))
        try:
            assert conn.next_control_id() == "Q1"
            assert conn.next_control_id() == "Q2"
        finally:
            conn.close()

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            UpstreamEndpoint("h", 0)
        with pytest.raises(ValueError):
            UpstreamEndpoint("h", 80, timeout_ms=0)
