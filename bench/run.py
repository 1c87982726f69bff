#!/usr/bin/env python3
"""End-to-end benchmark of the portal, with the mock HIS in its own process.

    python3 bench/run.py --workload getters|lookups|churn --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the portal is imported from
`src/`.  One run starts `hl7portal mock` on seeded fixtures, then starts
`hl7portal serve` several times to time its set-up, and drives the last
portal from one thread of this process with a closed loop on at most
`nproc` (and no more than 2) client connections.  Every response is checked
against the oracle in `workloads.py`.  Both servers are stopped cleanly and
their CPU time and peak RSS read from `os.wait4`.

With `--trace 1` the run has two phases on the same inputs: the plain
portal, then `traced_portal.py`, which records spans around each layer's
calls.  It reports per-layer figures and the tracing overhead; end-to-end
figures come only from `--trace 0`.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 0 only when
every response was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("getters", "lookups", "churn")
WARMUP_S = 0.5
# The measured window is cut into equal slices, and each figure is the
# median of its per-slice values.  Without --trace every slice runs on a
# portal started for it: a started portal tends to keep one speed for its
# whole life (on a 2-core VM about one start in five answered logins ~40%
# faster for ~25% less CPU per command), so the median follows the majority
# of independent starts, which a minority of fast or slow starts, or a
# burst of outside load, does not move.
SLICES = 5
ALL_CPUS = os.sched_getaffinity(0)
# The load generator and the mock HIS stand for machines outside the
# portal's host.  They share one CPU, so their scheduling varies less from
# run to run; the portal may use every CPU.
HELPER_CPUS = {max(ALL_CPUS)}
CONNECTIONS = min(2, len(ALL_CPUS))
READY_TIMEOUT_S = 30
STOP_TIMEOUT_S = 30
SOCKET_TIMEOUT_S = 30
SHOWN_MISMATCHES = 5


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------ processes


def pin(pid: int, cpus: set[int]) -> None:
    """Restrict a process to `cpus`; a process that cannot be pinned (or has
    exited already) runs unpinned."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


class Child:
    """One server subprocess: started, awaited, then stopped and accounted."""

    def __init__(self, name: str, argv: list[str], run_dir: Path, cpus: set[int]):
        env = {k: v for k, v in os.environ.items() if not k.startswith("HL7PORTAL_")}
        env["PYTHONPATH"] = str(SRC)
        self.name = name
        self.stderr_path = run_dir / f"{name}.stderr"
        with open(self.stderr_path, "ab") as stderr:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=run_dir
            )
        pin(self.proc.pid, cpus)
        self.ready_cpu_s = 0.0
        self.rusage = None

    def wait_ready(self) -> int:
        """Block until the server prints its listening line; return the port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                if not sel.select(max(0.0, deadline - time.monotonic())):
                    raise BenchError(f"{self.name} not listening after {READY_TIMEOUT_S}s{self._tail()}")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise BenchError(f"{self.name} exited before listening{self._tail()}")
                line += chunk
        self.ready_cpu_s = self._cpu_so_far()
        return int(line.decode().strip().rsplit(":", 1)[1])

    def _cpu_so_far(self) -> float:
        # utime and stime of the child so far, to leave start-up out of
        # its per-command cost; 0 where /proc cannot be read.
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return 0.0
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _tail(self) -> str:
        text = self.stderr_path.read_text("latin-1")[-2000:]
        return f"; its stderr ends:\n{text}" if text else ""

    def stop(self) -> int:
        """SIGINT, wait (SIGKILL after a timeout) and keep the rusage."""
        if self.rusage is not None:
            return self.proc.returncode
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rusage = usage
        return self.proc.returncode

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime - self.ready_cpu_s

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024


class Children:
    """Every process the run starts; on exit any still running is stopped."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self._all: list[Child] = []

    def start(self, name: str, argv: list[str], cpus: set[int]) -> Child:
        child = Child(name, argv, self.run_dir, cpus)
        self._all.append(child)
        return child

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        for child in self._all:
            child.stop()


def hl7portal(*args: str) -> list[str]:
    return [sys.executable, "-m", "hl7portal", *args]


# -------------------------------------------------------------- load


@dataclass
class Tally:
    """What the clients saw."""

    # latencies[kind][slice]: nanoseconds per measured command.
    latencies: list[list[list[int]]] = field(
        default_factory=lambda: [[[] for _ in range(SLICES)] for _ in wl.KIND_NAMES])
    attempted: int = 0
    failed: int = 0
    connect_errors: int = 0
    mismatches: list[str] = field(default_factory=list)
    lookups: list[wl.Lookup] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.mismatches) < SHOWN_MISMATCHES:
            self.mismatches.append(what)

    def samples(self, kind: int) -> list[int]:
        return [x for one in self.latencies[kind] for x in one]

    def slice_counts(self) -> list[int]:
        return [sum(len(kind[i]) for kind in self.latencies) for i in range(SLICES)]

    def merge(self, other: "Tally") -> None:
        for mine, theirs in zip(self.latencies, other.latencies):
            for mine_slice, their_slice in zip(mine, theirs):
                mine_slice.extend(their_slice)
        self.attempted += other.attempted
        self.failed += other.failed
        self.connect_errors += other.connect_errors
        self.mismatches.extend(other.mismatches[: SHOWN_MISMATCHES - len(self.mismatches)])
        self.lookups.extend(other.lookups)


@dataclass
class Client:
    """One client connection of the closed loop and the command it awaits."""

    sessions: Iterator[Iterator[wl.Command]]
    sock: socket.socket | None = None
    session: Iterator[wl.Command] | None = None
    command: wl.Command | None = None
    opened: int = 0
    start: int = 0
    buffer: bytes = b""


def drive(address, clients: list[Client], measure_from: int, until: int, tally: Tally,
          index: int) -> None:
    """Closed loop: each client sends its next command once the previous
    reply is in.  One thread drives every client, so no generator thread
    waits on another for the interpreter lock before it reads a reply.

    A session is abandoned at its first wrong reply, since the oracle's
    model of it no longer holds.  Times are perf_counter_ns; a command is
    measured in slice `index` when it starts after `measure_from` and ends
    by `until`.  A login is timed from the client's TCP connect.  Every
    session still open at `until` is closed.
    """
    clock = time.perf_counter_ns

    with selectors.DefaultSelector() as sel:

        def close(client: Client) -> None:
            if client.sock is not None:
                sel.unregister(client.sock)
                client.sock.close()
            client.sock, client.buffer = None, b""

        def fail(client: Client, what: str) -> None:
            tally.attempted += 1
            tally.fail(what)
            close(client)

        def advance(client: Client) -> None:
            """Send the client's next command, opening a new session where
            the last one ended; from `until` on, open none."""
            while True:
                command = next(client.session, None) if client.sock is not None else None
                if command is None:
                    close(client)
                    if clock() >= until:
                        return
                    client.session = next(client.sessions)
                    command = next(client.session)
                    client.opened = clock()
                    try:
                        client.sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT_S)
                    except OSError as e:
                        tally.connect_errors += 1
                        fail(client, f"connect failed: {e}")
                        continue
                    client.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    sel.register(client.sock, selectors.EVENT_READ, client)
                client.command = command
                client.start = client.opened if command.kind == wl.LOGIN else clock()
                try:
                    client.sock.sendall(command.line)
                    return
                except OSError as e:
                    fail(client, f"sent {command.line!r}: {e!r}")

        def on_reply(client: Client) -> None:
            command = client.command
            try:
                chunk = client.sock.recv(65536)
            except OSError as e:
                fail(client, f"sent {command.line!r}: {e!r}")
                return advance(client)
            done = clock()
            if not chunk:
                fail(client, f"sent {command.line!r}: connection closed after {client.buffer!r}")
                return advance(client)
            client.buffer += chunk
            if b"\n" not in client.buffer:
                return
            reply, _, client.buffer = client.buffer.partition(b"\n")
            tally.attempted += 1
            if reply + b"\n" != command.expected:
                tally.fail(f"sent {command.line!r}: expected {command.expected!r}, got {reply!r}")
                close(client)
                return advance(client)
            if command.lookup is not None:
                tally.lookups.append(command.lookup)
            if client.start >= measure_from and done <= until:
                tally.latencies[command.kind][index].append(done - client.start)
            if done >= until:
                close(client)
            else:
                advance(client)

        try:
            for client in clients:
                advance(client)
            while sel.get_map():
                events = sel.select(SOCKET_TIMEOUT_S)
                if not events:
                    for client in clients:
                        if client.sock is not None:
                            fail(client, f"sent {client.command.line!r}: "
                                         f"no reply in {SOCKET_TIMEOUT_S}s")
                    break
                for key, _ in events:
                    on_reply(key.data)
        finally:
            for client in clients:
                close(client)


@dataclass
class Phase:
    """Portals under load: what the clients and the servers reported."""

    tally: Tally
    slice_s: float
    driven_s: float
    loadgen_cpu_s: float
    portals: list[Child]
    portal_commands: list[int]
    mock: Child
    setup_s: list[float]

    @property
    def throughput(self) -> float:
        return statistics.median(self.tally.slice_counts()) / self.slice_s

    @property
    def portal_cpu_us_per_cmd(self) -> float:
        return statistics.median(
            portal.cpu_s / commands * 1e6
            for portal, commands in zip(self.portals, self.portal_commands))

    @property
    def portal_peak_rss_mb(self) -> float:
        return statistics.median(portal.peak_rss_mb for portal in self.portals)

    @property
    def queries(self) -> int:
        return sum(1 for lookup in self.tally.lookups if not lookup.unknown_language)


def login_probe(port: int, upstream: tuple[str, int]) -> None:
    """Log in and out once; the OK to the login is the portal's first reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S) as sock:
        reader = sock.makefile("rb")
        host, mock_port = upstream
        sock.sendall(wl.call("conectare", host, str(mock_port), wl.USER, wl.PASSWORD))
        first = reader.readline()
        sock.sendall(wl.call("deconectare"))
        last = reader.readline()
        reader.close()
    if (first, last) != (b"OK\n", b"OK\n"):
        raise BenchError(f"portal answered the login probe with {first!r}, {last!r}")


PROBE_COMMANDS = 2


def stop_cleanly(child: Child) -> None:
    if child.stop() != 0:
        raise BenchError(f"{child.name} exited with status {child.proc.returncode}{child._tail()}")


def run_phase(children: Children, portal_argv, seconds: float, args, make_streams, mock_argv,
              restart: bool) -> Phase:
    """Drive SLICES consecutive slices of `seconds / SLICES` against one
    mock.  With `restart`, each slice runs on a portal started, timed to its
    first reply and warmed up for it; otherwise one portal serves them all
    after a single warm-up."""
    mock = children.start("mock", mock_argv, HELPER_CPUS)
    upstream = ("127.0.0.1", mock.wait_ready())
    streams = make_streams(upstream)
    clients = [Client(streams.sessions(args.workload, args.seed, conn)) for conn in range(CONNECTIONS)]
    tally = Tally()
    portals: list[Child] = []
    commands: list[int] = []
    setup_s: list[float] = []
    slice_s = seconds / SLICES
    driven_s = loadgen_cpu_s = 0.0
    for index in range(SLICES):
        warmup_s = 0.0
        if restart or not portals:
            if portals:
                stop_cleanly(portals[-1])
            started = time.perf_counter()
            portal = children.start("portal", portal_argv(), ALL_CPUS)
            port = portal.wait_ready()
            login_probe(port, upstream)
            setup_s.append(time.perf_counter() - started)
            portals.append(portal)
            commands.append(PROBE_COMMANDS)
            warmup_s = WARMUP_S
        attempted = tally.attempted
        begin = time.perf_counter_ns()
        measure_from = begin + int(warmup_s * 1e9)
        until = measure_from + int(slice_s * 1e9)
        cpu_before = resource.getrusage(resource.RUSAGE_SELF)
        drive(("127.0.0.1", port), clients, measure_from, until, tally, index)
        cpu_after = resource.getrusage(resource.RUSAGE_SELF)
        driven_s += (time.perf_counter_ns() - begin) / 1e9
        loadgen_cpu_s += (cpu_after.ru_utime + cpu_after.ru_stime) - (
            cpu_before.ru_utime + cpu_before.ru_stime)
        commands[-1] += tally.attempted - attempted
    stop_cleanly(portals[-1])
    stop_cleanly(mock)
    return Phase(tally, slice_s, driven_s, loadgen_cpu_s, portals, commands, mock, setup_s)


# ------------------------------------------------------------- metrics


def latency_us(tally: Tally, kind: int, q: float) -> float:
    """Median over the slices of each slice's q-percentile, in µs."""
    values = []
    for samples in tally.latencies[kind]:
        value = wl.percentile(sorted(samples), q)
        if value is None:
            raise BenchError(
                f"a slice with {len(samples)} {wl.KIND_NAMES[kind]} samples cannot support "
                f"p{q * 100:g}; run longer"
            )
        values.append(value)
    return statistics.median(values) / 1000


# (kind, metric prefix).  The tail is p90: getters and lookups runs hold a
# few hundred usePatient calls and logins per slice, too few for a p99, and
# on a 2-core machine the p99 of every kind spread 15-45% between runs.
LATENCIES = ((wl.GETTER, "getter"), (wl.USE, "use_patient"), (wl.LOGIN, "login"))
TAIL = 0.90


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    t = phase.tally
    metrics = {"throughput_cmd_s": (phase.throughput, "cmd/s")}
    for kind, prefix in LATENCIES:
        metrics[f"{prefix}_p50_us"] = (latency_us(t, kind, 0.50), "us")
        metrics[f"{prefix}_p90_us"] = (latency_us(t, kind, TAIL), "us")
    metrics.update({
        "portal_cpu_us_per_cmd": (phase.portal_cpu_us_per_cmd, "us"),
        "portal_peak_rss_mb": (phase.portal_peak_rss_mb, "MB"),
        "setup_s": (statistics.median(phase.setup_s), "s"),
    })
    return metrics


def workload_properties(tally: Tally) -> dict[str, tuple[float, str]]:
    lookups = tally.lookups
    known = [lookup for lookup in lookups if not lookup.unknown_language]
    sizes = sorted(lookup.pid_bytes for lookup in lookups if lookup.hit)
    return {
        "workload.lookup_hit_share": (sum(l.hit for l in known) / len(known), "ratio"),
        "workload.unknown_language_share": (
            sum(l.unknown_language for l in lookups) / len(lookups), "ratio"),
        "workload.repeat_cnp_share": (sum(l.repeat for l in known) / len(known), "ratio"),
        "workload.pid_line_bytes_p50": (wl.percentile(sizes, 0.5) or 0, "bytes"),
        "workload.pid_line_bytes_p90": (wl.percentile(sizes, 0.9) or 0, "bytes"),
    }


def per_layer(plain: Phase, traced: Phase, summary: dict) -> dict[str, tuple[float, str]]:
    def mean_us(name: str, self_time: bool = False) -> float:
        s = summary[name]
        return (s["self_ns"] if self_time else s["total_ns"]) / s["count"] / 1000 if s["count"] else 0.0

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    handled = summary["handle_line"]["count"]
    getters = summary["handle_line.kinds"]["getter"]
    uses = summary["handle_line.kinds"]["use_patient"]
    getter_rtt = traced.tally.samples(wl.GETTER)
    residual = statistics.fmean(getter_rtt) / 1000 - per(
        getters["total_ns"] + getters["records_ns"], getters["count"]) / 1000
    loadgen_share = traced.loadgen_cpu_s / traced.driven_s
    return {
        "server.event_log_record_us": (mean_us("event_log_record"), "us"),
        "server.event_log_records_per_cmd": (per(summary["event_log_record"]["count"], handled), "count"),
        "server.residual_us_per_cmd": (residual, "us"),
        "server.sessions_accepted": (summary["event_log_record.directions"]["CONNECT"], "count"),
        "server.threads_retained": (summary["threads_retained"], "count"),
        "interpreter.parse_command_us": (mean_us("parse_command"), "us"),
        "interpreter.handle_line_getter_us": (per(getters["total_ns"], getters["count"]) / 1000, "us"),
        "interpreter.build_patient_query_us": (mean_us("build_patient_query"), "us"),
        "interpreter.use_patient_self_us": (per(uses["self_ns"], uses["count"]) / 1000, "us"),
        "interpreter.nok_ratio": (per(summary["handle_line.nok"], handled), "ratio"),
        "er7.serialize_message_us": (mean_us("serialize_message"), "us"),
        "er7.parse_message_us": (mean_us("parse_message"), "us"),
        "er7.reply_bytes": (per(summary["parse_message"]["extra"], summary["parse_message"]["count"]), "bytes"),
        "er7.field_value_us": (mean_us("field_value"), "us"),
        "mllp.frame_us": (mean_us("frame"), "us"),
        "mllp.deframer_feed_us": (mean_us("deframer_feed"), "us"),
        "mllp.feeds_per_reply": (per(summary["deframer_feed"]["count"], summary["exchange"]["count"]), "count"),
        "mllp.exchange_wait_us": (mean_us("exchange", self_time=True), "us"),
        "mllp.connect_upstream_us": (mean_us("connect_upstream"), "us"),
        "mllp.discarded_bytes": (summary["discarded_bytes"], "bytes"),
        "mllp.exchange_failures": (summary["exchange"]["extra"], "count"),
        "lexicon.registry_get_us": (mean_us("registry_get"), "us"),
        "lexicon.reloads": (summary["registry_reload"]["count"], "count"),
        "lexicon.reload_us": (mean_us("registry_reload"), "us"),
        "mockserver.cpu_us_per_query": (per(traced.mock.cpu_s * 1e6, traced.queries), "us"),
        "loadgen.cpu_share": (loadgen_share, "ratio"),
        "loadgen.connect_errors": (traced.tally.connect_errors, "count"),
        "trace.untraced_throughput_cmd_s": (plain.throughput, "cmd/s"),
        "trace.throughput_cmd_s": (traced.throughput, "cmd/s"),
        "trace.overhead_share": (1 - traced.throughput / plain.throughput, "ratio"),
        **workload_properties(traced.tally),
    }


# -------------------------------------------------------------- report


def report(title: str, metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:>14.6g} {unit}{note}")


def sample_notes(tally: Tally) -> dict[str, str]:
    """Sample counts per latency metric, and the whole-window p99 where the
    run supports it, for the reader (not a bounded metric)."""
    notes = {}
    for kind, prefix in LATENCIES:
        samples = sorted(tally.samples(kind))
        note = f"n={len(samples)} in {SLICES} slices"
        p99 = wl.percentile(samples, 0.99)
        if p99 is not None:
            note += f"; whole-window p99 {p99 / 1000:.1f} us"
        notes[f"{prefix}_p50_us"] = f"n={len(samples)} in {SLICES} slices"
        notes[f"{prefix}_p90_us"] = note
    return notes


def bench(args) -> int:
    if not (SRC / "hl7portal" / "__main__.py").is_file():
        raise BenchError(f"no portal source under {SRC}; run from the root of a checkout")
    pin(0, HELPER_CPUS)
    inputs = wl.Inputs.generate(args.seed)
    data = wl.PortalData.load(SRC / "hl7portal" / "data")
    make_streams = lambda upstream: wl.Streams(inputs, data, upstream)  # noqa: E731
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_run"))
    try:
        fixtures = run_dir / "fixtures.txt"
        fixtures.write_bytes(inputs.fixture_bytes())
        mock_argv = hl7portal(
            "mock", "--port", "0", "--host", "127.0.0.1", "--fixtures", str(fixtures),
            "--user", wl.USER, "--password", wl.PASSWORD,
        )
        log = str(run_dir / "portal.log")
        serve = lambda: hl7portal(  # noqa: E731
            "serve", "--port", "0", "--host", "127.0.0.1", "--log-file", log, "--mapping", "simopac")
        summary_path = run_dir / "spans.json"
        traced_argv = lambda: [  # noqa: E731
            sys.executable, str(ROOT / "bench" / "traced_portal.py"),
            "--log-file", log, "--summary", str(summary_path)]
        with Children(run_dir) as children:
            if args.trace:
                # Half the window each, so a traced run takes as long as a
                # plain one; one portal each, as the traced portal writes
                # its spans when it stops.
                half = args.seconds / 2
                plain = run_phase(children, serve, half, args, make_streams, mock_argv, False)
                traced = run_phase(children, traced_argv, half, args, make_streams, mock_argv, False)
                phases = (plain, traced)
            else:
                plain = run_phase(children, serve, args.seconds, args, make_streams, mock_argv, True)
                phases = (plain,)
        tally = Tally()
        for phase in phases:
            tally.merge(phase.tally)
        correct = tally.failed == 0
        portals = "one portal per phase" if args.trace else "a fresh portal per slice"
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds}s measured in {SLICES} "
              f"slices on {portals} after {WARMUP_S}s warm-up, closed loop on "
              f"{CONNECTIONS} connection(s)")
        if not args.trace:
            report("workload properties:", workload_properties(plain.tally), {})
        print(f"failed_ratio {tally.failed}/{tally.attempted} = "
              f"{tally.failed / max(tally.attempted, 1):.6g}")
        for mismatch in tally.mismatches:
            print(f"  MISMATCH {mismatch}")
        if not correct:
            metrics = {}
        elif args.trace:
            metrics = per_layer(plain, traced, json.loads(summary_path.read_text()))
            report("per-layer (traced run):", metrics, {})
        else:
            metrics = end_to_end(plain)
            report("end to end:", metrics, sample_notes(plain.tally))
        print(json.dumps({
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so every child is stopped and reaped.
    # SIGINT gets the same handler even when this run was started with it
    # ignored (as a shell does for a background job): the servers would
    # inherit the ignore and could not be stopped by the SIGINT they get.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return bench(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("benchmark interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
