"""Command-line entry points: portal server, mock HL7 server, client."""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import time
from pathlib import Path

from .client import EXIT_CONNECT, read_script, run_client
from .interpreter import MappingError
from .lexicon import RegistryMissing
from .mockserver import GARBAGE, SILENT, MockHl7Server, load_fixtures
from .server import BindFailed, PortalServer, ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hl7portal",
        description="HL7 v2 clinical data portal: server, mock upstream, and client.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every portal default is ServerConfig's; flags are the only settings.
    defaults = ServerConfig()
    serve = sub.add_parser("serve", help="run the portal server")
    serve.add_argument("--port", type=int, default=defaults.listen_port)
    serve.add_argument("--host", default=defaults.host)
    serve.add_argument(
        "--languages-dir",
        type=Path,
        default=defaults.languages_dir,
        help="language pack directory (default: the packaged ro/en packs)",
    )
    serve.add_argument(
        "--mapping",
        default=defaults.mapping_selector,
        help='"standard", "simopac", or a mapping file path',
    )
    serve.add_argument("--log-file", default=str(defaults.log_path))
    serve.add_argument("--max-clients", type=int, default=defaults.max_clients)
    serve.add_argument(
        "--upstream-timeout-ms", type=int, default=defaults.upstream_timeout_ms
    )

    mock = sub.add_parser("mock", help="run a fixture-backed mock HL7 server")
    mock.add_argument("--port", type=int, default=2575)
    mock.add_argument("--host", default=defaults.host)
    mock.add_argument("--fixtures", help="fixture file: cnp=<id> line, then a PID line")
    mock.add_argument("--user")
    mock.add_argument("--password")
    mock.add_argument("--misbehave", choices=[SILENT, GARBAGE])

    client = sub.add_parser("client", help="send protocol commands to a portal")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=defaults.listen_port)
    client.add_argument("--script", help="file with one command per line")
    client.add_argument(
        "-c",
        dest="commands",
        action="append",
        metavar="COMMAND",
        help="inline command (repeatable)",
    )
    client.add_argument(
        "--strict",
        action="store_true",
        help='exit with status 1 when any response is "NOK"',
    )
    return parser


def _wait_forever() -> None:
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass


def _serve(args) -> int:
    config = ServerConfig(
        listen_port=args.port,
        host=args.host,
        languages_dir=args.languages_dir,
        mapping_selector=args.mapping,
        log_path=Path(args.log_file),
        max_clients=args.max_clients,
        upstream_timeout_ms=args.upstream_timeout_ms,
    )
    try:
        server = PortalServer(config)
        server.start()
    except (BindFailed, RegistryMissing, MappingError, OSError, ValueError) as e:
        print(f"cannot start portal: {e}", file=sys.stderr)
        return 1
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, lambda *_: server.reload_languages())
    print(f"portal listening on {config.host}:{server.port}", flush=True)
    try:
        _wait_forever()
    finally:
        server.stop()
    return 0


def _mock(args) -> int:
    try:
        fixtures = load_fixtures(args.fixtures) if args.fixtures else []
    except (OSError, ValueError) as e:
        print(f"cannot load fixtures: {e}", file=sys.stderr)
        return 1
    server = MockHl7Server(
        port=args.port,
        host=args.host,
        fixtures=fixtures,
        user=args.user,
        password=args.password,
        misbehave=args.misbehave,
    )
    try:
        server.start()
    except OSError as e:
        print(f"cannot start mock server: {e}", file=sys.stderr)
        return 1
    print(f"mock HL7 server listening on {args.host}:{server.port}", flush=True)
    try:
        _wait_forever()
    finally:
        server.stop()
    return 0


def _client(args) -> int:
    commands: list[str] = []
    if args.script:
        try:
            commands.extend(read_script(args.script))
        except OSError as e:
            print(f"cannot read script: {e}", file=sys.stderr)
            return EXIT_CONNECT
    if args.commands:
        commands.extend(args.commands)
    return run_client(
        args.host,
        args.port,
        commands=commands or None,
        interactive=not commands,
        strict=args.strict,
    )


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "mock":
        return _mock(args)
    return _client(args)
