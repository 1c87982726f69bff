"""Client library and the command-line front end."""

import io
import socket
import subprocess
import sys
import threading

import pytest

from helpers import PATIENT_CNP, PATIENT_PID
from hl7portal.cli import build_parser, main
from hl7portal.client import (
    EXIT_CONNECT,
    EXIT_NOK,
    EXIT_OK,
    MAX_REPLY_BYTES,
    LineReader,
    ReplyTooLong,
    read_script,
    run_client,
)
from hl7portal.mockserver import MockHl7Server, PatientFixture
from hl7portal.server import PortalServer, ServerConfig


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestLineReader:
    def run_reader(self, payload: bytes) -> list[bytes | None]:
        server, client = socket.socketpair()
        lines: list[bytes | None] = []

        def pump():
            for i in range(0, len(payload), 3):  # force split chunks
                server.sendall(payload[i : i + 3])
            server.close()

        thread = threading.Thread(target=pump)
        thread.start()
        reader = LineReader(client)
        while True:
            line = reader.readline()
            lines.append(line)
            if line is None:
                break
        thread.join()
        reader.close()
        client.close()
        return lines

    def test_lf_and_crlf_lines(self):
        assert self.run_reader(b"one\ntwo\r\nthree\n") == [
            b"one",
            b"two",
            b"three",
            None,
        ]

    def test_eof_without_terminator_drops_partial(self):
        assert self.run_reader(b"complete\npartial") == [b"complete", None]

    def test_line_longer_than_a_frame_is_refused(self):
        server, client = socket.socketpair()
        longest = b"y" * MAX_REPLY_BYTES
        # Sent whole, then the peer stays open: the reader must stop at
        # the bound rather than buffer until EOF.
        payload = longest + b"\n" + b"x" * (MAX_REPLY_BYTES + 1)

        def send():
            try:
                server.sendall(payload)
            except OSError:
                pass  # the reader closed its end first

        pump = threading.Thread(target=send)
        pump.start()
        client.settimeout(5)
        reader = LineReader(client)
        try:
            assert reader.readline() == longest
            with pytest.raises(ReplyTooLong):
                reader.readline()
        finally:
            reader.close()
            client.close()
            pump.join()
            server.close()


class TestReadScript:
    def test_comments_and_blanks_skipped(self, tmp_path):
        script = tmp_path / "cmds.txt"
        script.write_text("# setup\n\nconectare(h, 1, u, p);\n  nume();  \n")
        assert read_script(script) == ["conectare(h, 1, u, p);", "nume();"]


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """A mock upstream plus a portal wired to it, shared by client tests."""
    tmp = tmp_path_factory.mktemp("client-stack")
    fixtures = [PatientFixture(PATIENT_CNP, PATIENT_PID)]
    with MockHl7Server(fixtures=fixtures, user="u", password="p") as mock:
        config = ServerConfig(
            listen_port=0,
            host="127.0.0.1",
            log_path=tmp / "events.log",
            upstream_timeout_ms=2000,
        )
        with PortalServer(config) as portal:
            yield mock, portal


class TestRunClient:
    def test_batch_pairs_commands_with_responses(self, stack):
        mock, portal = stack
        out = io.BytesIO()
        status = run_client(
            "127.0.0.1",
            portal.port,
            commands=[
                f"conectare(127.0.0.1, {mock.port}, u, p);",
                f"utilizarePacient({PATIENT_CNP}, ro);",
                "nume();",
            ],
            out=out,
        )
        assert status == EXIT_OK
        assert out.getvalue().split(b"\n")[:3] == [
            f"conectare(127.0.0.1, {mock.port}, u, p); -> OK".encode(),
            f"utilizarePacient({PATIENT_CNP}, ro); -> OK".encode(),
            b"nume(); -> C. Marius",
        ]

    def test_interactive_prints_bare_responses(self, stack):
        _, portal = stack
        out = io.BytesIO()
        stdin = io.StringIO("ultimaEroare();\n\nserieCarteIdentitate();\n")
        status = run_client(
            "127.0.0.1", portal.port, interactive=True, stdin=stdin, out=out
        )
        assert status == EXIT_OK
        assert out.getvalue() == b"None\nNOK\n"

    def test_strict_flags_nok(self, stack):
        _, portal = stack
        status = run_client(
            "127.0.0.1",
            portal.port,
            commands=["nume();"],
            strict=True,
            out=io.BytesIO(),
        )
        assert status == EXIT_NOK

    def test_refused_connection(self, capsys):
        status = run_client("127.0.0.1", free_port(), commands=["x"], out=io.BytesIO())
        assert status == EXIT_CONNECT
        assert "cannot connect" in capsys.readouterr().err

    def test_portal_closing_mid_session(self, stack, capsys):
        _, portal = stack
        status = run_client(
            "127.0.0.1",
            portal.port,
            commands=["deconectare();", "nume();"],
            out=io.BytesIO(),
        )
        assert status == EXIT_CONNECT
        assert "closed by portal" in capsys.readouterr().err


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7575
        assert args.mapping == "simopac"
        assert args.max_clients == 100
        assert args.log_file == "simopacServerInterpretare.log"

    def test_environment_is_not_read(self, monkeypatch):
        # Flags are the only configuration channel.
        monkeypatch.setenv("HL7PORTAL_PORT", "abc")
        args = build_parser().parse_args(["serve"])
        assert args.port == 7575

    def test_client_inline_commands_accumulate(self):
        args = build_parser().parse_args(["client", "-c", "a();", "-c", "b();"])
        assert args.commands == ["a();", "b();"]

    def test_mock_misbehave_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mock", "--misbehave", "bogus"])


class TestMainEntry:
    def test_client_subcommand_runs_batch(self, stack, capsysbinary):
        _, portal = stack
        status = main(
            [
                "client",
                "--port",
                str(portal.port),
                "-c",
                "ultimaEroare();",
            ]
        )
        assert status == EXIT_OK
        assert capsysbinary.readouterr().out == b"ultimaEroare(); -> None\n"

    def test_serve_rejects_busy_port(self, tmp_path, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            status = main(
                [
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(blocker.getsockname()[1]),
                    "--log-file",
                    str(tmp_path / "l"),
                ]
            )
        finally:
            blocker.close()
        assert status == 1
        assert "cannot start portal" in capsys.readouterr().err

    def test_mock_rejects_missing_fixture_file(self, tmp_path, capsys):
        status = main(["mock", "--fixtures", str(tmp_path / "absent.txt")])
        assert status == 1
        assert "cannot load fixtures" in capsys.readouterr().err

    def test_module_invocation_smoke(self, stack):
        _, portal = stack
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "hl7portal",
                "client",
                "--port",
                str(portal.port),
                "-c",
                "getLastError();",
            ],
            capture_output=True,
            timeout=30,
        )
        assert result.returncode == 0
        assert result.stdout == b"getLastError(); -> None\n"
