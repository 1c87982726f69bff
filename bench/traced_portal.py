"""Run the portal with spans recorded around calls into each layer.

    PYTHONPATH=src python3 bench/traced_portal.py --log-file LOG --summary OUT.json

Starts `PortalServer` the way `hl7portal serve` does, but first replaces the
public callables of each layer, at the place their callers look them up,
with wrappers that record a span per call.  Nothing under `src/` changes.
A span is (name, start, end, parent, command id); the spans of one session
live in its thread's buffer.  On SIGINT the server stops, the spans are
reduced to per-layer figures and those are written to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from array import array
from pathlib import Path

from hl7portal import interpreter, mllp
from hl7portal.er7 import Hl7Message
from hl7portal.lexicon import RegistryHolder
from hl7portal.server import EventLog, PortalServer, ServerConfig
from workloads import LOGIN_NAMES, LOGOUT_NAMES, USE_PATIENT_NAMES

# Span record layout in a thread's int64 buffer.
NAME, PARENT, CMD, START, END, EXTRA = range(6)
WIDTH = 6

# handle_line kinds (EXTRA of a handle_line span is kind * 2 + nok).
OTHER, GETTER, USE = range(3)
KINDS = ("other", "getter", "use_patient")


class ThreadSpans:
    def __init__(self):
        self.buf = array("q")
        self.parent = -1
        self.cmd = 0


class Tracer:
    """Span buffers, one per thread, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.threads: list[ThreadSpans] = []
        self.deframers: set = set()
        self._local = threading.local()

    def _spans(self) -> ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = ThreadSpans()
            self.threads.append(spans)
        return spans

    def wrap(self, name: str, fn, before=None, after=None):
        """`before(spans, args)` runs ahead of the span; `after(args, result,
        error)` returns the span's EXTRA value once it has ended."""
        code = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self._spans()
            if before is not None:
                before(spans, args)
            buf = spans.buf
            index = len(buf) // WIDTH
            buf.extend((code, spans.parent, spans.cmd, 0, 0, 0))
            outer, spans.parent = spans.parent, index
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = clock()
                spans.parent = outer
                base = index * WIDTH
                buf[base + START] = start
                buf[base + END] = end
                if after is not None:
                    buf[base + EXTRA] = after(args, result, error)

        return traced


def _line_kind(line: str) -> int:
    name = line.partition("(")[0].strip()
    if name in USE_PATIENT_NAMES:
        return USE
    if name in LOGIN_NAMES or name in LOGOUT_NAMES:
        return OTHER
    return GETTER


def _count_command(spans: ThreadSpans, args) -> None:
    # A command starts with its RECV record; later spans carry its id.
    if args[2] == "RECV":
        spans.cmd += 1


_DIRECTIONS = ("CONNECT", "RECV", "SEND", "DISCONNECT", "DIAG")


def install(tracer: Tracer):
    """Wrap every traced callable; returns the `connect=` to hand the server."""
    t = tracer
    interpreter.parse_command = t.wrap("parse_command", interpreter.parse_command)
    interpreter.build_patient_query = t.wrap("build_patient_query", interpreter.build_patient_query)
    mllp.serialize_message = t.wrap("serialize_message", mllp.serialize_message)
    mllp.frame = t.wrap("frame", mllp.frame)
    mllp.parse_message = t.wrap(
        "parse_message", mllp.parse_message, after=lambda a, r, e: len(a[0])
    )
    interpreter.Interpreter.handle_line = t.wrap(
        "handle_line",
        interpreter.Interpreter.handle_line,
        after=lambda a, r, e: _line_kind(a[2]) * 2 + (r is not None and r.response == "NOK"),
    )
    mllp.UpstreamConnection.exchange = t.wrap(
        "exchange", mllp.UpstreamConnection.exchange, after=lambda a, r, e: e is not None
    )
    feed = mllp.Deframer.feed

    def remembered_feed(deframer, chunk):
        # Kept so their discarded-byte counters can be summed at the end.
        t.deframers.add(deframer)
        return feed(deframer, chunk)

    mllp.Deframer.feed = t.wrap("deframer_feed", remembered_feed)
    Hl7Message.field_value = t.wrap("field_value", Hl7Message.field_value)
    EventLog.record = t.wrap(
        "event_log_record",
        EventLog.record,
        before=_count_command,
        after=lambda a, r, e: _DIRECTIONS.index(a[2]) if a[2] in _DIRECTIONS else -1,
    )
    RegistryHolder.get = t.wrap("registry_get", RegistryHolder.get)
    RegistryHolder.reload = t.wrap("registry_reload", RegistryHolder.reload)
    return t.wrap("connect_upstream", mllp.connect_upstream)


class Totals:
    """Count, summed duration and summed self time of one span name."""

    def __init__(self):
        self.count = 0
        self.total = 0
        self.self_total = 0
        self.extra = 0

    def add(self, duration: int, self_time: int, extra: int) -> None:
        self.count += 1
        self.total += duration
        self.self_total += self_time
        self.extra += extra


def summarize(tracer: Tracer) -> dict:
    """Reduce all spans to per-layer totals (nanoseconds summed per name)."""
    names = tracer.names
    by_name = {name: Totals() for name in names}
    line_kinds = {kind: Totals() for kind in (OTHER, GETTER, USE)}
    noks = 0
    # RECV/SEND record time of each command kind, for the residual.
    records_by_kind = {kind: 0 for kind in (OTHER, GETTER, USE)}
    directions = [0] * len(_DIRECTIONS)
    handle_code = names.index("handle_line")
    record_code = names.index("event_log_record")
    for spans in tracer.threads:
        buf = spans.buf
        n = len(buf) // WIDTH
        child = [0] * n
        for i in range(n):
            base = i * WIDTH
            parent = buf[base + PARENT]
            if parent >= 0 and buf[base + END]:
                child[parent] += buf[base + END] - buf[base + START]
        cmd_kind: dict[int, int] = {}
        cmd_records: dict[int, int] = {}
        for i in range(n):
            base = i * WIDTH
            end = buf[base + END]
            if not end:
                continue  # still open when the server stopped
            code, extra = buf[base + NAME], buf[base + EXTRA]
            duration = end - buf[base + START]
            self_time = duration - child[i]
            by_name[names[code]].add(duration, self_time, extra)
            if code == handle_code:
                kind, nok = divmod(extra, 2)
                line_kinds[kind].add(duration, self_time, nok)
                noks += nok
                cmd_kind[buf[base + CMD]] = kind
            elif code == record_code and extra >= 0:
                directions[extra] += 1
                if _DIRECTIONS[extra] in ("RECV", "SEND"):
                    cmd = buf[base + CMD]
                    cmd_records[cmd] = cmd_records.get(cmd, 0) + duration
        for cmd, ns in cmd_records.items():
            records_by_kind[cmd_kind.get(cmd, OTHER)] += ns
    out = {
        name: {"count": t.count, "total_ns": t.total, "self_ns": t.self_total, "extra": t.extra}
        for name, t in by_name.items()
    }
    out["handle_line.kinds"] = {
        KINDS[kind]: {"count": t.count, "total_ns": t.total, "self_ns": t.self_total,
                    "records_ns": records_by_kind[kind]}
        for kind, t in line_kinds.items()
    }
    out["handle_line.nok"] = noks
    out["event_log_record.directions"] = dict(zip(_DIRECTIONS, directions))
    out["discarded_bytes"] = sum(d.discarded_bytes for d in tracer.deframers)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log-file", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    connect = install(tracer)
    config = ServerConfig(listen_port=0, host="127.0.0.1", log_path=Path(args.log_file))
    server = PortalServer(config, connect=connect)
    server.start()
    print(f"portal listening on {config.host}:{server.port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    threads_retained = len(server._threads)
    server.stop()
    summary = summarize(tracer)
    summary["threads_retained"] = threads_retained
    Path(args.summary).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
