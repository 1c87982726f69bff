"""Generic portal client: send command lines, print paired responses.

Responses are written as raw bytes, untouched: what the portal sent is
what lands on stdout (minus the line terminator handling).
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

from .mllp import DEFAULT_MAX_FRAME

EXIT_OK = 0
EXIT_NOK = 1
EXIT_CONNECT = 2

# The longest reply: a getter's value comes from one upstream frame.
MAX_REPLY_BYTES = DEFAULT_MAX_FRAME


class ReplyTooLong(Exception):
    """A portal line without its LF within MAX_REPLY_BYTES: a protocol error."""


class LineReader:
    """LF-line reader over a socket's buffered file; readline() is
    terminator-free.  It holds the socket's descriptor open until closed."""

    def __init__(self, sock: socket.socket):
        self._lines = sock.makefile("rb")

    def readline(self) -> bytes | None:
        """Next line without its LF (a trailing CR is stripped), or None on
        EOF; raises ReplyTooLong rather than buffer a longer line."""
        line = self._lines.readline(MAX_REPLY_BYTES + 1)
        if not line.endswith(b"\n"):
            if len(line) > MAX_REPLY_BYTES:
                raise ReplyTooLong(f"no LF within {MAX_REPLY_BYTES} bytes of a reply")
            return None
        return line[:-1].removesuffix(b"\r")

    def close(self) -> None:
        self._lines.close()


def read_script(path: str | Path) -> list[str]:
    """One command per line; blanks and '#' comments skipped."""
    commands = []
    for line in Path(path).read_text("utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            commands.append(line)
    return commands


def run_client(
    host: str,
    port: int,
    commands: list[str] | None = None,
    interactive: bool = False,
    strict: bool = False,
    out=None,
    stdin=None,
    timeout: float = 60.0,
) -> int:
    """Send each command and print its response.

    Batch mode prints "<command> -> <response>" per exchange; interactive
    mode prints the bare response per typed line.  Exit status: 2 when the
    portal is unreachable, closes mid-session or sends a line longer than
    MAX_REPLY_BYTES, 1 when --strict and some response was "NOK", else 0.
    """
    out = out if out is not None else sys.stdout.buffer
    stdin = stdin if stdin is not None else sys.stdin
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        print(f"cannot connect to {host}:{port}: {e}", file=sys.stderr)
        return EXIT_CONNECT
    saw_nok = False
    reader = LineReader(sock)
    try:
        def exchange(command: str) -> bytes | None:
            sock.sendall(command.encode("latin-1", "replace") + b"\n")
            return reader.readline()

        if interactive:
            for typed in stdin:
                typed = typed.rstrip("\r\n")
                if not typed:
                    continue
                response = exchange(typed)
                if response is None:
                    print("connection closed by portal", file=sys.stderr)
                    return EXIT_CONNECT
                out.write(response + b"\n")
                out.flush()
                saw_nok = saw_nok or response == b"NOK"
        else:
            for command in commands or []:
                response = exchange(command)
                if response is None:
                    print("connection closed by portal", file=sys.stderr)
                    return EXIT_CONNECT
                out.write(command.encode("latin-1", "replace") + b" -> " + response + b"\n")
                out.flush()
                saw_nok = saw_nok or response == b"NOK"
    except (OSError, ReplyTooLong) as e:
        print(f"portal connection failed: {e}", file=sys.stderr)
        return EXIT_CONNECT
    finally:
        reader.close()
        try:
            sock.close()
        except OSError:
            pass
    if strict and saw_nok:
        return EXIT_NOK
    return EXIT_OK
