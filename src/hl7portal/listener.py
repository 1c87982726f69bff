"""Thread-per-connection TCP listener shared by the portal and the mock HIS.

``serve_forever`` accepts on its own thread and starts one daemon thread
per connection, running the subclass's ``serve_connection``.  Live
connections and threads are tracked under one lock, so ``stop()`` can
shut every socket down (which wakes a thread blocked in ``recv``) and
join every thread.

The accept loop waits in ``select`` with no timeout.  ``stop()`` wakes it
by shutting the listening socket's read side down, which makes it
readable on Linux (the platform this was tried on); where that
``shutdown`` raises, the loop polls every FALLBACK_POLL_S instead.
"""

from __future__ import annotations

import functools
import socket
import socketserver
import threading

FALLBACK_POLL_S = 0.2  # how promptly stop() interrupts serve_forever there


@functools.cache
def _accept_poll_interval() -> float | None:
    """None where shutdown(SHUT_RD) of a listening socket succeeds, so the
    stop() wake-up works and serve_forever needs no poll; else the poll."""
    try:
        with socket.create_server(("127.0.0.1", 0)) as probe:
            probe.shutdown(socket.SHUT_RD)
    except OSError:
        return FALLBACK_POLL_S
    return None


class Listener(socketserver.TCPServer):
    """Binds in ``start()``, and starts and stops as a context manager."""

    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, host: str, port: int):
        super().__init__((host, port), None, bind_and_activate=False)
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        self.port: int | None = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        try:
            self.server_bind()
            self.server_activate()
        except OSError:
            self.server_close()
            raise
        self.port = self.server_address[1]
        thread = threading.Thread(
            target=self.serve_forever, args=(_accept_poll_interval(),), daemon=True
        )
        self._threads.append(thread)
        thread.start()

    def stop(self) -> None:
        # shutdown() waits for serve_forever, which runs only after start().
        if self.port is not None:
            try:
                self.socket.shutdown(socket.SHUT_RD)  # wakes its select
            except OSError:
                pass  # the loop polls: see _accept_poll_interval
            self.shutdown()
        self.server_close()
        with self._lock:
            connections = list(self._connections)
            threads = list(self._threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5)

    def process_request(self, conn: socket.socket, peer) -> None:
        thread = threading.Thread(
            target=self.serve_connection, args=(conn, peer), daemon=True
        )
        # Registered before it runs: the connection releases its own thread.
        with self._lock:
            self._connections.add(conn)
            self._threads.append(thread)
        thread.start()

    def serve_connection(self, conn: socket.socket, peer) -> None:
        """Serve one connection; must end with ``release(conn)``."""
        raise NotImplementedError

    def release(self, conn: socket.socket) -> None:
        """Forget the calling connection thread and close its socket."""
        with self._lock:
            self._connections.discard(conn)
            self._threads.remove(threading.current_thread())
        # FIN before close: a peer whose last line arrived unread then
        # reads EOF rather than a reset.
        self.shutdown_request(conn)
