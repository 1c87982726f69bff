"""Portal server: session loops, isolation, event log, limits."""

import errno
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import PATIENT_CNP, PATIENT_PID, make_language
from hl7portal import lexicon, server
from hl7portal.client import LineReader
from hl7portal.interpreter import Interpreter, MappingError, packaged_languages_dir
from hl7portal.lexicon import RegistryMissing
from hl7portal.mockserver import MockHl7Server, PatientFixture
from hl7portal.server import BindFailed, EventLog, PortalServer, ServerConfig


class TestServerConfig:
    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.listen_port == 7575
        assert config.log_path.name == "simopacServerInterpretare.log"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"listen_port": -1},
            {"listen_port": 70000},
            {"max_clients": 0},
            {"upstream_timeout_ms": 0},
            {"idle_timeout_s": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)


RECORD = re.compile(
    r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z "
    r"(?P<sid>\S+) (?P<direction>CONNECT|RECV|SEND|DISCONNECT|DIAG)(?: (?P<text>.*))?$"
)


def read_records(path):
    records = []
    for line in path.read_text("utf-8").splitlines():
        match = RECORD.match(line)
        assert match, f"malformed log line: {line!r}"
        records.append((match["sid"], match["direction"], match["text"] or ""))
    return records


class TestEventLog:
    def test_record_shape(self, tmp_path):
        log = EventLog(tmp_path / "events.log")
        log.record("s1", "RECV", "nume();")
        log.record("s1", "SEND", "NOK")
        log.close()
        records = read_records(log.path)
        assert records == [("s1", "RECV", "nume();"), ("s1", "SEND", "NOK")]

    def test_line_terminators_escaped(self, tmp_path):
        log = EventLog(tmp_path / "events.log")
        log.record("s1", "DIAG", "two\r\nlines")
        log.close()
        assert read_records(log.path) == [("s1", "DIAG", "two\\r\\nlines")]

    def test_concurrent_records_never_tear(self, tmp_path):
        log = EventLog(tmp_path / "events.log")
        per_thread = 5000  # long enough for the writer to drain mid-stream

        def hammer(worker: int):
            for i in range(per_thread):
                log.record(f"w{worker}", "DIAG", f"event {i} " + "x" * 64)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        log.close()
        records = read_records(log.path)  # shape-asserts every line
        assert len(records) == 8 * per_thread
        for worker in range(8):
            texts = [text for sid, _, text in records if sid == f"w{worker}"]
            assert texts == [f"event {i} " + "x" * 64 for i in range(per_thread)]

    def test_unwritable_path_does_not_raise(self, tmp_path, capsys):
        log = EventLog(tmp_path)  # a directory: opening for append fails
        log.record("s1", "DIAG", "x")
        assert "event log unwritable" in capsys.readouterr().err

    def test_control_characters_are_escaped(self, tmp_path):
        log = EventLog(tmp_path / "events.log")
        # \x1c, \x0b and \x85 each end a line for str.splitlines(); \x1b
        # starts a terminal escape sequence; \t, \x7f and \x9b are C0, DEL, C1.
        log.record("s1", "RECV", "nume(\x1c\x0b\x85);\x1b[2J\t\x7f\x9bé")
        # A lone surrogate, as os.fsdecode() turns a non-UTF-8 path byte into.
        log.record("-", "DIAG", "no usable language in /srv/\udcff")
        log.close()
        assert read_records(log.path) == [
            ("s1", "RECV", "nume(\\x1c\\x0b\\x85);\\x1b[2J\\x09\\x7f\\x9bé"),
            ("-", "DIAG", "no usable language in /srv/\\udcff"),
        ]

    def test_timestamp_across_a_second_boundary(self, tmp_path, monkeypatch):
        clock = iter([1_700_000_000_999_999_999, 1_700_000_001_000_000_000])
        monkeypatch.setattr(server, "time_ns", lambda: next(clock))
        log = EventLog(tmp_path / "events.log")
        log.record("s1", "DIAG", "before")
        log.record("s1", "DIAG", "after")
        log.close()
        stamps = [line.split(" ", 1)[0] for line in log.path.read_text().splitlines()]
        assert stamps == ["2023-11-14T22:13:20.999Z", "2023-11-14T22:13:21.000Z"]

    def test_backslash_is_escaped(self, tmp_path):
        log = EventLog(tmp_path / "events.log")
        log.record("s1", "RECV", "a\\x1cb")  # a, backslash, x, 1, c, b
        log.record("s1", "RECV", "a\x1cb")  # a, 0x1C, b
        log.record("s1", "DIAG", "C:\\packs\\")
        log.close()
        assert read_records(log.path) == [
            ("s1", "RECV", "a\\\\x1cb"),
            ("s1", "RECV", "a\\x1cb"),
            ("s1", "DIAG", "C:\\\\packs\\\\"),
        ]

    def test_record_reaches_the_file_without_close(self, tmp_path):
        log = EventLog(tmp_path / "events.log")
        try:
            log.record("s1", "DIAG", "soon")
            assert wait_for(lambda: read_records(log.path) == [("s1", "DIAG", "soon")], 1.0)
        finally:
            log.close()

    def test_record_after_close_writes_nothing(self, tmp_path, capsys):
        log = EventLog(tmp_path / "events.log")
        log.record("s1", "DIAG", "open")
        log.close()
        log.record("s1", "DIAG", "closed")
        log.close()
        assert read_records(log.path) == [("s1", "DIAG", "open")]
        assert capsys.readouterr().err == ""


@pytest.fixture()
def mock():
    fixtures = [PatientFixture(PATIENT_CNP, PATIENT_PID)]
    with MockHl7Server(fixtures=fixtures) as server:
        yield server


@pytest.fixture()
def portal(tmp_path):
    config = ServerConfig(
        listen_port=0,
        host="127.0.0.1",
        log_path=tmp_path / "events.log",
        upstream_timeout_ms=2000,
    )
    with PortalServer(config) as server:
        yield server


class Client:
    """Minimal synchronous protocol client for tests."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.reader = LineReader(self.sock)

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def ask(self, command: str) -> bytes | None:
        self.sock.sendall(command.encode("ascii") + b"\n")
        return self.reader.readline()

    def close(self) -> None:
        self.reader.close()
        try:
            self.sock.close()
        except OSError:
            pass


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestSessions:
    def test_golden_flow_over_the_wire(self, portal, mock):
        client = Client(portal.port)
        try:
            assert client.ask(f"conectare(127.0.0.1, {mock.port}, d, d);") == b"OK"
            assert client.ask(f"utilizarePacient({PATIENT_CNP}, ro);") == b"OK"
            assert client.ask("nume();") == b"C. Marius"
            assert client.ask("serieCarteIdentitate();") == b"NOK"
            assert client.ask("ultimaEroare();") == b"Nu exista date."
        finally:
            client.close()

    def test_crlf_lines_accepted(self, portal):
        client = Client(portal.port)
        try:
            client.send(b"ultimaEroare();\r\n")
            assert client.reader.readline() == b"None"
        finally:
            client.close()

    def test_empty_line_gets_nok(self, portal):
        client = Client(portal.port)
        try:
            client.send(b"\n")
            assert client.reader.readline() == b"NOK"
        finally:
            client.close()

    def test_split_and_batched_lines(self, portal):
        client = Client(portal.port)
        try:
            client.send(b"ultima")
            time.sleep(0.05)
            client.send(b"Eroare();\ngetLastError();\n")
            assert client.reader.readline() == b"None"
            assert client.reader.readline() == b"None"
        finally:
            client.close()

    def test_disconnect_command_closes_connection(self, portal):
        client = Client(portal.port)
        try:
            assert client.ask("deconectare();") == b"OK"
            assert client.reader.readline() is None
        finally:
            client.close()

    def test_sessions_are_isolated(self, portal, mock):
        ro = Client(portal.port)
        en = Client(portal.port)
        try:
            assert ro.ask(f"conectare(127.0.0.1, {mock.port}, d, d);") == b"OK"
            assert en.ask(f"login(127.0.0.1, {mock.port}, d, d);") == b"OK"
            assert ro.ask(f"utilizarePacient({PATIENT_CNP}, ro);") == b"OK"
            assert en.ask(f"usePatient({PATIENT_CNP}, en);") == b"OK"
            # Interleave; each session must answer from its own state.
            assert ro.ask("serieCarteIdentitate();") == b"NOK"
            assert en.ask("getDriversLicenseNumber();") == b"NOK"
            assert ro.ask("ultimaEroare();") == b"Nu exista date."
            assert en.ask("getLastError();") == b"No data available."
            assert ro.ask("nume();") == b"C. Marius"
        finally:
            ro.close()
            en.close()

    def test_log_records_per_session(self, portal, mock):
        client = Client(portal.port)
        assert client.ask(f"conectare(127.0.0.1, {mock.port}, d, d);") == b"OK"
        assert client.ask("nume();") == b"NOK"
        assert client.ask("deconectare();") == b"OK"
        client.close()
        assert wait_for(
            lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
        )
        records = read_records(portal.log.path)
        by_direction = {}
        for sid, direction, text in records:
            by_direction.setdefault(direction, []).append((sid, text))
        assert len(by_direction["CONNECT"]) == 1
        assert len(by_direction["DISCONNECT"]) == 1
        assert len(by_direction["RECV"]) == len(by_direction["SEND"]) == 3
        assert ("s1", "nume();") in by_direction["RECV"]
        assert ("s1", "NOK") in by_direction["SEND"]

    @pytest.mark.parametrize(
        "line, answer",
        [
            ("conectare(127.0.0.1, {port}, d, SECRET);", b"OK"),
            ("login(127.0.0.1, {port}, d, SECRET, extra);", b"NOK"),
            ("  conectare(127.0.0.1, {port}, d, SECRET", b"NOK"),
        ],
    )
    def test_password_never_reaches_the_log(self, portal, mock, line, answer):
        client = Client(portal.port)
        try:
            assert client.ask(line.format(port=mock.port)) == answer
            client.ask("ultimaEroare();")
            assert client.ask("deconectare();") == b"OK"
        finally:
            client.close()
        assert wait_for(
            lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
        )
        log = portal.log.path.read_text("utf-8")
        assert "SECRET" not in log
        assert f"{mock.port}, d,***" in log

    def test_exception_in_handle_line_answers_nok_and_keeps_the_session(
        self, portal, monkeypatch
    ):
        handle_line = Interpreter.handle_line
        calls = []

        def fails_once(interpreter, session, line):
            calls.append(line)
            if len(calls) == 1:
                raise KeyError("login(h, 1, u, SECRET)")
            return handle_line(interpreter, session, line)

        monkeypatch.setattr(Interpreter, "handle_line", fails_once)
        client = Client(portal.port)
        try:
            assert client.ask("nume();") == b"NOK"
            assert client.ask("ultimaEroare();") == b"Internal error: KeyError"
            assert client.ask("deconectare();") == b"OK"
        finally:
            client.close()
        assert wait_for(
            lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
        )
        records = read_records(portal.log.path)
        diags = [text for _, direction, text in records if direction == "DIAG"]
        assert len(diags) == 1
        assert diags[0].startswith("internal error KeyError at test_server.py:")
        assert "SECRET" not in portal.log.path.read_text("utf-8")
        assert ("s1", "DISCONNECT", "client disconnect command") in records

    def test_framing_byte_in_argument_answers_nok(self, portal, mock):
        client = Client(portal.port)
        try:
            assert client.ask(f"conectare(127.0.0.1, {mock.port}, d, d);") == b"OK"
            client.send(b"usePatient(1\x0b2, ro);\n")
            assert client.reader.readline() == b"NOK"
            assert b"cnp" in client.ask("ultimaEroare();")
            assert client.ask(f"usePatient({PATIENT_CNP}, ro);") == b"OK"
            assert client.ask("nume();") == b"C. Marius"
        finally:
            client.close()

    def test_finished_sessions_release_their_threads(self, portal):
        def disconnects():
            return sum(r[1] == "DISCONNECT" for r in read_records(portal.log.path))

        for n in range(1, 6):
            client = Client(portal.port)
            assert client.ask("ultimaEroare();") == b"None"
            # Live: this session's thread and the accept thread.
            assert len(portal._threads) <= 2
            client.close()
            assert wait_for(lambda: disconnects() == n)
            assert len(portal._threads) <= 1

    def test_concurrent_sessions_release_their_threads(self, portal):
        workers, rounds = 8, 5
        errors = []

        def churn():
            try:
                for _ in range(rounds):
                    client = Client(portal.port)
                    try:
                        assert client.ask("ultimaEroare();") == b"None"
                    finally:
                        client.close()
            except Exception as e:  # reported below, not lost in the thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        total = workers * rounds
        assert wait_for(
            lambda: sum(r[1] == "DISCONNECT" for r in read_records(portal.log.path)) == total
        )
        assert len(portal._threads) <= 1

    def test_eof_teardown_logs_disconnect(self, portal):
        client = Client(portal.port)
        client.ask("ultimaEroare();")
        client.close()
        assert wait_for(
            lambda: any(
                r[1] == "DISCONNECT" and "peer closed" in r[2]
                for r in read_records(portal.log.path)
            )
        )

    @pytest.mark.parametrize("host", ["a..b", "x" * 64], ids=["empty-label", "long-label"])
    def test_host_that_idna_rejects_answers_nok(self, portal, host):
        client = Client(portal.port)
        try:
            assert client.ask(f"conectare({host}, 2575, u, p);") == b"NOK"
            assert client.ask("ultimaEroare();").startswith(b"Connection failed")
        finally:
            client.close()

    def test_line_without_lf_is_capped(self, portal):
        client = Client(portal.port)
        try:
            # A line of exactly 64 KiB is still a command.
            client.send(b"x" * (64 * 1024) + b"\n")
            assert client.reader.readline() == b"NOK"
            client.send(b"x" * (64 * 1024 + 1))
            assert client.reader.readline() == b"NOK"
            assert client.reader.readline() is None
        finally:
            client.close()
        assert wait_for(
            lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
        )
        records = read_records(portal.log.path)
        assert sum(r[1] == "DIAG" and "no LF" in r[2] for r in records) == 1

    def test_long_line_with_its_lf_is_refused(self, portal):
        # The bound holds however the bytes arrive: a line whose LF comes
        # after 100,000 bytes is never served as a command.
        client = Client(portal.port)
        try:
            client.send(b"x" * 100_000 + b"\n")
            assert client.reader.readline() == b"NOK"
            assert client.reader.readline() is None
        finally:
            client.close()
        assert wait_for(
            lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
        )
        records = read_records(portal.log.path)
        assert [r[1] for r in records] == ["CONNECT", "DIAG", "DISCONNECT"]
        assert records[1][2] == "no LF within 65536 bytes, answering NOK"
        assert records[2][2] == "line too long"

    def test_client_limit_refused_with_nok(self, tmp_path):
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            log_path=tmp_path / "events.log",
            max_clients=1,
        )
        with PortalServer(config) as portal:
            first = Client(portal.port)
            try:
                assert first.ask("ultimaEroare();") == b"None"
                second = Client(portal.port)
                assert second.reader.readline() == b"NOK"
                assert second.reader.readline() is None
                second.close()
                # The refused connection leaves only a DIAG trace.
                assert wait_for(
                    lambda: any(
                        r[1] == "DIAG" and "client limit" in r[2]
                        for r in read_records(portal.log.path)
                    )
                )
                records = read_records(portal.log.path)
                assert sum(r[1] == "CONNECT" for r in records) == 1
                assert any(
                    r[1] == "DIAG" and "client limit" in r[2] for r in records
                )
                # The first session keeps working.
                assert first.ask("getLastError();") == b"None"
            finally:
                first.close()

    def test_slot_freed_after_disconnect(self, tmp_path):
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            log_path=tmp_path / "events.log",
            max_clients=1,
        )
        with PortalServer(config) as portal:
            first = Client(portal.port)
            assert first.ask("deconectare();") == b"OK"
            assert first.reader.readline() is None
            first.close()
            assert wait_for(
                lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
            )
            second = Client(portal.port)
            try:
                assert second.ask("ultimaEroare();") == b"None"
            finally:
                second.close()

    def test_idle_session_is_disconnected(self, tmp_path):
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            log_path=tmp_path / "events.log",
            idle_timeout_s=0.3,
        )
        with PortalServer(config) as portal:
            client = Client(portal.port)
            try:
                assert client.ask("ultimaEroare();") == b"None"
                assert client.reader.readline() is None  # closed on idle
            finally:
                client.close()
            assert wait_for(
                lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
            )
            records = read_records(portal.log.path)
            assert any(r[1] == "DIAG" and "idle" in r[2] for r in records)

    def test_idle_timeout_after_a_partial_line(self, tmp_path):
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            log_path=tmp_path / "events.log",
            idle_timeout_s=0.3,
        )
        with PortalServer(config) as portal:
            client = Client(portal.port)
            try:
                client.send(b"nume(")  # no LF, then silence
                assert client.reader.readline() is None  # closed on idle
            finally:
                client.close()
            assert wait_for(
                lambda: any(r[1] == "DISCONNECT" for r in read_records(portal.log.path))
            )
            records = read_records(portal.log.path)
            assert [r[1:] for r in records[1:]] == [
                ("DIAG", "idle timeout, closing session"),
                ("DISCONNECT", "idle timeout"),
            ]

    def test_client_that_stops_reading_gets_the_idle_timeout(self, tmp_path):
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            log_path=tmp_path / "events.log",
            idle_timeout_s=0.5,
        )
        with PortalServer(config) as portal:
            sock = socket.socket()
            try:
                # A small receive window, and ~60 KB replies that are never
                # read: the portal's sends block until the timeout ends one.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect(("127.0.0.1", portal.port))
                sock.sendall(b"x" * 60_000 + b"();\n" + b"ultimaEroare();\n" * 200)
                assert wait_for(
                    lambda: any(
                        r[1] == "DISCONNECT" for r in read_records(portal.log.path)
                    ),
                    timeout=10,
                )
            finally:
                sock.close()
            records = read_records(portal.log.path)
            assert [r[1:] for r in records[-2:]] == [
                ("DIAG", "idle timeout, closing session"),
                ("DISCONNECT", "idle timeout"),
            ]


class TestTraceContract:
    """bench/traced_portal.py wraps these two callables the same way: it
    counts a command at each RECV record, by the positional direction."""

    def test_each_command_is_recv_then_handle_line_then_send(
        self, portal, mock, monkeypatch
    ):
        events = []
        record, handle_line = EventLog.record, Interpreter.handle_line

        def traced_record(*args, **kwargs):
            events.append(args[2])
            return record(*args, **kwargs)

        def traced_handle_line(*args, **kwargs):
            events.append("handle_line")
            return handle_line(*args, **kwargs)

        monkeypatch.setattr(EventLog, "record", traced_record)
        monkeypatch.setattr(Interpreter, "handle_line", traced_handle_line)
        commands = [
            f"login(127.0.0.1, {mock.port}, d, d);",
            f"usePatient({PATIENT_CNP}, en);",
            "getName();",
            "bogus();",
            "getLastError();",
            "logout();",
        ]
        client = Client(portal.port)
        try:
            for command in commands:
                assert client.ask(command) is not None
        finally:
            client.close()
        assert wait_for(lambda: "DISCONNECT" in events)
        assert events == [
            "CONNECT", *["RECV", "handle_line", "SEND"] * len(commands), "DISCONNECT"
        ]


    def test_traced_portal_summary_counts_one_session(self, tmp_path):
        """Runs bench/traced_portal.py, so a refactor that moves a name it
        wraps shows here and not first in a benchmark run."""
        root = Path(__file__).resolve().parents[1]
        summary = tmp_path / "summary.json"
        proc = subprocess.Popen(
            [
                sys.executable, str(root / "bench" / "traced_portal.py"),
                "--log-file", str(tmp_path / "events.log"), "--summary", str(summary),
            ],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        try:
            port = int(proc.stdout.readline().decode().rsplit(":", 1)[1])
            with socket.socket() as unused:
                unused.bind(("127.0.0.1", 0))
                closed_port = unused.getsockname()[1]
            client = Client(port)
            try:
                assert client.ask(f"login(127.0.0.1, {closed_port}, u, p);") == b"NOK"
                assert client.ask("nume();") == b"NOK"
                assert client.ask(f"usePatient({PATIENT_CNP}, xx);") == b"NOK"
                assert client.ask("logout();") == b"OK"
                assert client.reader.readline() is None
            finally:
                client.close()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        totals = json.loads(summary.read_text())
        assert totals["handle_line"]["count"] == 4
        assert totals["parse_command"]["count"] == 4
        directions = totals["event_log_record.directions"]
        assert (directions["RECV"], directions["SEND"]) == (4, 4)
        assert (directions["CONNECT"], directions["DISCONNECT"]) == (1, 1)
        assert totals["registry_get"]["count"] >= 1


class TestStop:
    def test_stop_with_an_idle_session_open(self, tmp_path):
        config = ServerConfig(
            listen_port=0, host="127.0.0.1", log_path=tmp_path / "events.log"
        )
        portal = PortalServer(config)
        portal.start()
        client = Client(portal.port)
        try:
            assert client.ask("ultimaEroare();") == b"None"
            start = time.monotonic()
            portal.stop()
            assert time.monotonic() - start < 1.0
            assert client.reader.readline() is None
        finally:
            client.close()
        records = [r for r in read_records(portal.log.path) if r[0] == "s1"]
        assert records[-1][1] == "DISCONNECT"

    def test_no_thread_is_left_and_every_record_is_written(self, tmp_path):
        before = set(threading.enumerate())
        config = ServerConfig(
            listen_port=0, host="127.0.0.1", log_path=tmp_path / "events.log"
        )
        portal = PortalServer(config)
        portal.start()
        client = Client(portal.port)
        try:
            for _ in range(50):
                assert client.ask("ultimaEroare();") == b"None"
            portal.stop()
            assert set(threading.enumerate()) == before
        finally:
            client.close()
        directions = [r[1] for r in read_records(portal.log.path)]
        assert directions == ["CONNECT", *["RECV", "SEND"] * 50, "DISCONNECT"]

    def test_stop_without_start_returns(self, tmp_path):
        portal = PortalServer(ServerConfig(listen_port=0, log_path=tmp_path / "l"))
        stopper = threading.Thread(target=portal.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()


class TestStartupFailures:
    def test_bind_failure_is_fatal(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            config = ServerConfig(
                listen_port=port, host="127.0.0.1", log_path=tmp_path / "l"
            )
            with pytest.raises(BindFailed):
                PortalServer(config).start()
        finally:
            blocker.close()

    def test_missing_registry_is_fatal(self, tmp_path):
        config = ServerConfig(
            listen_port=0, languages_dir=tmp_path, log_path=tmp_path / "l"
        )
        with pytest.raises(RegistryMissing):
            PortalServer(config)

    def test_registry_without_a_usable_language_is_fatal(self, tmp_path):
        make_language(tmp_path, "de")
        (tmp_path / "-none-.de").unlink()
        config = ServerConfig(
            listen_port=0, languages_dir=tmp_path, log_path=tmp_path / "l"
        )
        with pytest.raises(RegistryMissing):
            PortalServer(config)

    def test_bad_mapping_selector_is_fatal(self, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("NAME=OBX-1\n")
        config = ServerConfig(
            listen_port=0, mapping_selector=str(bad), log_path=tmp_path / "l"
        )
        with pytest.raises(MappingError):
            PortalServer(config)


EN_FILES_NOT_FOUND = b"HL7 files not found! Please choose another language!"


def unreadable(path):
    raise OSError(errno.EIO, "Input/output error", str(path))


def reload_diags(path):
    return [t for _, d, t in read_records(path) if d == "DIAG" and "registry reload" in t]


@pytest.fixture()
def own_packs(tmp_path):
    """A portal over its own copy of the packaged packs, and that copy."""
    languages = tmp_path / "languages"
    shutil.copytree(packaged_languages_dir(), languages)
    config = ServerConfig(
        listen_port=0,
        host="127.0.0.1",
        languages_dir=languages,
        log_path=tmp_path / "events.log",
    )
    with PortalServer(config) as server:
        yield server, languages


class TestReloadHook:
    def test_reload_languages_records_diag(self, portal):
        portal.reload_languages()
        assert wait_for(
            lambda: any(
                r[1] == "DIAG" and "reloaded" in r[2]
                for r in read_records(portal.log.path)
            )
        )

    def test_reload_to_no_language_keeps_the_packs_in_use(self, tmp_path, mock):
        languages = tmp_path / "languages"
        shutil.copytree(packaged_languages_dir(), languages)
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            languages_dir=languages,
            log_path=tmp_path / "events.log",
        )
        with PortalServer(config) as portal:
            (languages / "languages.txt").write_text("")
            portal.reload_languages()
            client = Client(portal.port)
            try:
                assert client.ask(f"login(127.0.0.1, {mock.port}, d, d);") == b"OK"
                assert client.ask(f"usePatient({PATIENT_CNP}, ro);") == b"OK"
            finally:
                client.close()
            assert wait_for(lambda: reload_diags(portal.log.path))
            diags = reload_diags(portal.log.path)
            assert any("reload refused" in t for t in diags)
            assert not any("reloaded" in t for t in diags)

    def test_new_pack_is_used_only_after_reload(self, own_packs, mock):
        portal, languages = own_packs
        make_language(languages, "fr", name="Francais")
        client = Client(portal.port)
        try:
            assert client.ask(f"login(127.0.0.1, {mock.port}, d, d);") == b"OK"
            assert client.ask(f"usePatient({PATIENT_CNP}, fr);") == b"NOK"
            assert client.ask("getLastError();") == EN_FILES_NOT_FOUND
            portal.reload_languages()
            assert client.ask(f"usePatient({PATIENT_CNP}, fr);") == b"OK"
        finally:
            client.close()

    def test_unknown_language_reads_no_pack_file(self, portal, mock, monkeypatch):
        monkeypatch.setattr(lexicon, "_read_text", unreadable)
        client = Client(portal.port)
        try:
            assert client.ask(f"login(127.0.0.1, {mock.port}, d, d);") == b"OK"
            assert client.ask(f"usePatient({PATIENT_CNP}, xx);") == b"NOK"
            assert client.ask("ultimaEroare();") == EN_FILES_NOT_FOUND
        finally:
            client.close()

    def test_unreadable_pack_file_refuses_the_reload(self, portal, mock, monkeypatch):
        monkeypatch.setattr(lexicon, "_read_text", unreadable)
        portal.reload_languages()
        assert wait_for(lambda: reload_diags(portal.log.path))
        diags = reload_diags(portal.log.path)
        assert len(diags) == 1
        assert diags[0].startswith("language registry reload refused: [Errno 5]")
        client = Client(portal.port)
        try:
            assert client.ask(f"login(127.0.0.1, {mock.port}, d, d);") == b"OK"
            assert client.ask(f"usePatient({PATIENT_CNP}, ro);") == b"OK"
        finally:
            client.close()

    @pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="no SIGHUP here")
    def test_sighup_with_a_bad_directory_keeps_serve_running(self, tmp_path):
        languages = tmp_path / "languages"
        shutil.copytree(packaged_languages_dir(), languages)
        log = tmp_path / "events.log"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "hl7portal", "serve", "--port", "0",
                "--host", "127.0.0.1", "--languages-dir", str(languages),
                "--log-file", str(log),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            banner = proc.stdout.readline().decode()
            assert banner.startswith("portal listening on")
            port = int(banner.rsplit(":", 1)[1])
            (languages / "languages.txt").write_text("")
            proc.send_signal(signal.SIGHUP)
            assert wait_for(lambda: log.exists() and reload_diags(log))
            assert "reload refused" in reload_diags(log)[0]
            client = Client(port)
            try:
                assert client.ask("ultimaEroare();") == b"None"
            finally:
                client.close()
            assert proc.poll() is None
        finally:
            proc.kill()
            proc.communicate()
