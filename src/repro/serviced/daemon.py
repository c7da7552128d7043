"""The tuning daemon: a batching, hot-reloading socket front end.

:class:`TuningDaemon` promotes the in-process
:class:`~repro.service.server.TuningService` to a network service.
The moving parts, and the invariants each one keeps:

- **Acceptor + readers.**  One acceptor thread hands each connection
  to a reader thread that decodes frames (see
  :mod:`repro.serviced.protocol`) and pushes query requests onto a
  shared queue.  Control requests (``stats``/``ping``/``reload``/
  ``drain``) are answered inline by the reader — they must work even
  when the query queue is saturated.

- **Worker pool with micro-batching.**  Each worker blocks for one
  request, then drains up to ``batch_max - 1`` more without blocking.
  The whole batch is answered against a *single* report snapshot:
  identical queries inside the batch are grouped so one service lookup
  answers all of them (the coalesce counter tracks how many requests
  rode along), and responses are written back one ``sendall`` per
  connection.  Cross-worker duplicate suppression is delegated to the
  service's bounded per-key single-flight table, so a fresh key is
  computed once no matter how batches interleave.

- **Read-mostly snapshot, atomically swapped.**  The served report
  lives in an immutable ``_Snapshot`` (service + registry version +
  digest) reached through a single attribute read.  The registry
  watcher polls :meth:`~repro.service.registry.ReportRegistry.latest_version`
  — a stat-based probe that never deserializes payloads — and on a new
  version builds a complete replacement snapshot *before* publishing it
  with one reference assignment.  Readers therefore never block on a
  refresh and can never observe a torn answer: every response's
  ``(answer, version)`` pair comes from one snapshot.

- **Graceful drain.**  ``SIGTERM`` (wired up by the CLI), the
  ``drain`` control request, or :meth:`drain` stop the acceptor,
  refuse new queries with a ``draining`` error, flush every request
  already queued, then close connections and stop all threads.  The
  CLI exits 0 after a drain.

- **SLO accounting.**  Request counters, windowed latency histograms,
  batch-occupancy and coalesce metrics ride the shared
  :class:`~repro.obs.metrics.MetricsRegistry` and are exported through
  the ``stats`` control request.  ``instrument=False`` disables all
  daemon-side measurement — the load bench asserts the instrumented
  daemon stays within a few percent of that ceiling (the LIKWID
  lightweight-measurement discipline).
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time

from ..core.report import ServetReport
from ..errors import ReproError, ServicedError
from ..obs.metrics import MetricsRegistry
from ..service.registry import ReportRegistry
from ..service.server import ANSWER_CACHE_CAPACITY, TuningService
from .protocol import (
    decode_query,
    encode_frame,
    error_response,
    ok_response,
    pack_body,
    read_frame,
)

__all__ = ["TuningDaemon"]

#: Seconds ``drain(wait=True)`` waits for the daemon to stop.
DRAIN_TIMEOUT: float = 30.0


class _Snapshot:
    """One immutable serving state: the service plus its provenance."""

    __slots__ = ("service", "digest", "version")

    def __init__(self, service: TuningService, digest: str, version: int) -> None:
        self.service = service
        self.digest = digest
        self.version = version


class _Connection:
    """A client socket plus the write lock serializing its responses."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.wlock = threading.Lock()
        self.alive = True
        #: The thread reading this connection's requests.
        self.reader: threading.Thread | None = None
        #: Queries read from this connection and not yet answered.
        self.pending = 0
        self.idle = threading.Condition(threading.Lock())

    def queued(self) -> None:
        with self.idle:
            self.pending += 1

    def answered(self, n: int) -> None:
        with self.idle:
            self.pending -= n
            if self.pending == 0:
                self.idle.notify_all()

    def wait_idle(self) -> None:
        """Block until every query read from this connection is answered."""
        with self.idle:
            self.idle.wait_for(lambda: self.pending == 0)

    def send(self, payloads: list[dict]) -> None:
        """Encode and write response payloads (see :meth:`send_raw`)."""
        self.send_raw([encode_frame(p) for p in payloads])

    def send_raw(self, frames: list[bytes]) -> None:
        """Write pre-encoded frames with one ``sendall`` (best effort).

        A client that disappeared mid-conversation is not an error the
        daemon can do anything about: the connection is marked dead and
        later responses to it are dropped.
        """
        if not self.alive:
            return
        try:
            with self.wlock:
                self.sock.sendall(b"".join(frames))
        except OSError:
            self.alive = False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            # The reader file holds a reference on the socket: closing
            # only the socket would keep its descriptor open.
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass


class TuningDaemon:
    """Serve tuning queries over a socket (see the module docstring).

    Exactly one of ``report`` / ``registry`` must be given.  With a
    registry the daemon resolves ``spec`` once at startup and then
    *watches*: every ``poll_interval`` seconds it probes for a newer
    published version of the same fingerprint and hot-swaps the
    snapshot.  With a bare report there is nothing to watch and the
    served version is 0.
    """

    def __init__(
        self,
        report: ServetReport | None = None,
        registry: ReportRegistry | None = None,
        spec: str = "latest",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        batch_max: int = 64,
        poll_interval: float = 0.5,
        capacity: int = ANSWER_CACHE_CAPACITY,
        instrument: bool = True,
    ) -> None:
        if (report is None) == (registry is None):
            raise ServicedError("give exactly one of report= or registry=")
        if workers < 1:
            raise ServicedError("daemon needs workers >= 1")
        if batch_max < 1:
            raise ServicedError("daemon needs batch_max >= 1")
        self.host = host
        self.port = port
        self.workers = workers
        self.batch_max = batch_max
        self.poll_interval = poll_interval
        self._capacity = capacity
        self._instrument = instrument
        self.metrics = MetricsRegistry()
        self._registry = registry
        if registry is not None:
            digest = registry.resolve(spec)
            report, entry = registry.get_with_entry(digest)
            version = entry.version
        else:
            digest, version = "file", 0
        self._digest = digest
        self._snapshot = _Snapshot(self._make_service(report), digest, version)

        self._queue: queue.Queue = queue.Queue()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[_Connection] = []
        self._conns_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._draining = False
        self._started = False
        self._stop_watch = threading.Event()
        self._stopped = threading.Event()

        if instrument:
            m = self.metrics
            self._req_query = m.counter("serviced.requests", kind="query")
            self._req_control = {
                kind: m.counter("serviced.requests", kind=kind)
                for kind in ("stats", "ping", "reload", "drain")
            }
            self._resp_ok = m.counter("serviced.responses", status="ok")
            self._resp_error = m.counter("serviced.responses", status="error")
            self._latency = m.histogram("serviced.request_latency_seconds")
            self._batch_size = m.histogram("serviced.batch_size")
            self._coalesced = m.counter("serviced.coalesced_requests")
            self._reloads = m.counter("serviced.reloads")
            self._reload_errors = m.counter("serviced.reload_errors")
            self._accepted = m.counter("serviced.connections", event="accepted")

    def _make_service(self, report: ServetReport) -> TuningService:
        # The service metrics ride the daemon's registry so counters
        # accumulate across hot-reloads (get-or-create semantics); with
        # instrumentation off each service keeps a private registry.
        return TuningService(
            report,
            capacity=self._capacity,
            metrics=self.metrics if self._instrument else None,
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TuningDaemon":
        """Bind, spin up acceptor/workers/watcher, return immediately."""
        if self._started:
            raise ServicedError("daemon already started")
        self._started = True
        self._listener = socket.create_server(
            (self.host, self.port), backlog=128, reuse_port=False
        )
        self.host, self.port = self._listener.getsockname()[:2]
        self._spawn(self._acceptor_loop, "serviced-acceptor")
        for index in range(self.workers):
            self._spawn(self._worker_loop, f"serviced-worker-{index}")
        if self._registry is not None:
            self._spawn(self._watcher_loop, "serviced-watcher")
        return self

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def drain(self, wait: bool = True) -> None:
        """Stop accepting, flush in-flight work, shut everything down.

        Idempotent; with ``wait=True`` (default) blocks until the
        daemon has fully stopped, for at most :data:`DRAIN_TIMEOUT`.
        """
        with self._drain_lock:
            first = not self._draining
            self._draining = True
        if first:
            threading.Thread(
                target=self._shutdown, name="serviced-shutdown", daemon=True
            ).start()
        if wait:
            self.wait(DRAIN_TIMEOUT)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the daemon has stopped (True) or timeout (False)."""
        return self._stopped.wait(timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    def _shutdown(self) -> None:
        if self._listener is not None:
            # Closing alone does not wake a thread blocked in accept();
            # shutdown() does on Linux, and the no-op connect below
            # covers platforms where it raises instead.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                try:
                    with socket.create_connection(
                        (self.host, self.port), timeout=0.2
                    ):
                        pass
                except OSError:
                    pass
            try:
                self._listener.close()
            except OSError:
                pass
        # Everything already queued is answered before the workers stop:
        # join() returns only once each enqueued request was task_done'd
        # (which happens after its response bytes were written).
        self._queue.join()
        for _ in range(self.workers):
            self._queue.put(None)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        self._stop_watch.set()
        readers = [conn.reader for conn in conns if conn.reader is not None]
        for thread in [*self._threads, *readers]:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        self._stopped.set()

    def __enter__(self) -> "TuningDaemon":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.drain(wait=True)

    # -- serving state -------------------------------------------------------

    @property
    def report(self) -> ServetReport:
        """The currently served report (snapshot read, never blocks)."""
        return self._snapshot.service.report

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def digest(self) -> str:
        return self._snapshot.digest

    def check_reload(self) -> bool:
        """Hot-swap the snapshot if the registry published a newer version.

        The probe is stat-based (no payload read); only an actual new
        version pays for deserializing the report and building the
        replacement service.  Returns True when a swap happened.
        Readers are never blocked: they keep answering from the old
        snapshot until the single reference assignment below.
        """
        if self._registry is None:
            return False
        if self._registry.latest_version(self._digest) <= self._snapshot.version:
            return False
        with self._reload_lock:
            # One read yields the report and the entry it came from: a
            # put landing mid-load, or a quarantine fallback, cannot
            # label one version's report with another's number.
            report, entry = self._registry.get_with_entry(self._digest)
            if entry.version <= self._snapshot.version:
                return False
            snapshot = _Snapshot(self._make_service(report), self._digest, entry.version)
            self._snapshot = snapshot
        if self._instrument:
            self._reloads.inc()
        return True

    def stats(self) -> dict:
        """The ``stats`` control response body."""
        snap = self._snapshot
        body = {
            "digest": snap.digest,
            "version": snap.version,
            "draining": self._draining,
            "service": snap.service.metrics(),
        }
        if self._instrument:
            body["daemon"] = self.metrics.as_dict()
        return body

    # -- threads -------------------------------------------------------------

    def _acceptor_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed (drain)
            if self._draining:
                sock.close()
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            with self._conns_lock:
                self._conns.append(conn)
            if self._instrument:
                self._accepted.inc()
            self._spawn_reader(conn)

    def _spawn_reader(self, conn: _Connection) -> None:
        # Tracked on the connection, not in _threads: a reader leaves
        # with its connection, so a long-lived daemon keeps no record
        # of every client it ever served.
        conn.reader = threading.Thread(
            target=self._reader_loop, args=(conn,), name="serviced-reader", daemon=True
        )
        conn.reader.start()

    def _reader_loop(self, conn: _Connection) -> None:
        close_on_exit = True
        try:
            while conn.alive:
                try:
                    frame = read_frame(conn.rfile.read)
                except ServicedError as exc:
                    # Unknown protocol state: diagnose, stop reading, and
                    # hang up once every query read before the bad frame
                    # has its answer on the wire.
                    conn.send([error_response(None, str(exc))])
                    conn.wait_idle()
                    break
                except OSError:
                    break
                if frame is None:
                    break
                verdict = self._handle_frame(conn, frame)
                if verdict is None:
                    # Drain ack: stop reading but leave the socket open
                    # so responses to already-queued queries still get
                    # out; the shutdown sequence closes it after the
                    # queue is flushed.
                    close_on_exit = False
                    break
                if not verdict:
                    break
        finally:
            if close_on_exit:
                conn.close()
                with self._conns_lock:
                    if conn in self._conns:
                        self._conns.remove(conn)

    def _handle_frame(self, conn: _Connection, frame: dict) -> bool | None:
        """Dispatch one request.

        Returns True to keep reading, False to stop and close, None to
        stop reading but keep the connection open (drain ack).
        """
        kind = frame.get("kind")
        rid = frame.get("id")
        if kind == "query":
            if self._instrument:
                self._req_query.inc()
            if self._draining:
                self._respond_error(conn, rid, "daemon is draining")
                return True
            try:
                query = decode_query(frame.get("query"))
            except ServicedError as exc:
                self._respond_error(conn, rid, str(exc))
                return True
            arrival = time.perf_counter() if self._instrument else 0.0
            conn.queued()
            self._queue.put((conn, rid, query, arrival))
            return True
        if kind in ("stats", "ping", "reload", "drain"):
            if self._instrument:
                self._req_control[kind].inc()
            if kind == "stats":
                self._respond_ok(conn, rid, stats=self.stats())
                return True
            if kind == "ping":
                snap = self._snapshot
                self._respond_ok(
                    conn,
                    rid,
                    version=snap.version,
                    digest=snap.digest,
                    draining=self._draining,
                )
                return True
            if kind == "reload":
                try:
                    reloaded = self.check_reload()
                except ReproError as exc:
                    self._respond_error(conn, rid, str(exc))
                    return True
                self._respond_ok(conn, rid, reloaded=reloaded, version=self.version)
                return True
            # drain: acknowledge first, then stop reading this
            # connection; queued queries still get their answers before
            # the shutdown sequence closes the socket.
            self._respond_ok(conn, rid, draining=True)
            self.drain(wait=False)
            return None
        self._respond_error(conn, rid, f"unknown request kind {kind!r}")
        return True

    def _respond_ok(self, conn: _Connection, rid, **fields) -> None:
        conn.send([ok_response(rid, **fields)])
        if self._instrument:
            self._resp_ok.inc()

    def _respond_error(self, conn: _Connection, rid, message: str) -> None:
        conn.send([error_response(rid, message)])
        if self._instrument:
            self._resp_error.inc()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            batch = [item]
            while len(batch) < self.batch_max:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    # A shutdown sentinel grabbed early; hand it back
                    # for the blocking get of whichever worker it was
                    # meant to stop.
                    self._queue.task_done()
                    self._queue.put(None)
                    break
                batch.append(extra)
            self._process_batch(batch)

    def _process_batch(self, batch: list) -> None:
        # One snapshot answers the whole batch: every response's
        # (answer, version, digest) triple is internally consistent even
        # while the watcher swaps in a newer report mid-run.
        snap = self._snapshot
        groups: dict[object, list] = {}
        for item in batch:
            groups.setdefault(item[2], []).append(item)
        per_conn: dict[int, tuple[_Connection, list[bytes]]] = {}
        errors = 0
        for query, waiters in groups.items():
            try:
                answer = snap.service.query(query)
                failure = None
            except Exception as exc:  # keep the worker alive, always
                answer, failure = None, str(exc)
            if failure is None:
                # Serialize the group's answer once; only the id differs
                # between the coalesced waiters, so it is spliced into a
                # shared tail instead of re-encoding the whole payload.
                tail = json.dumps(
                    {
                        "answer": answer,
                        "digest": snap.digest[:12],
                        "ok": True,
                        "version": snap.version,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")[1:]
            for conn, rid, _query, _arrival in waiters:
                if failure is None:
                    frame = pack_body(
                        b'{"id":' + json.dumps(rid).encode("utf-8") + b"," + tail
                    )
                else:
                    frame = encode_frame(error_response(rid, failure))
                    errors += 1
                slot = per_conn.get(id(conn))
                if slot is None:
                    per_conn[id(conn)] = (conn, [frame])
                else:
                    slot[1].append(frame)
        for conn, frames in per_conn.values():
            conn.send_raw(frames)
            conn.answered(len(frames))
        if self._instrument:
            done = time.perf_counter()
            self._batch_size.observe(len(batch))
            self._coalesced.inc(len(batch) - len(groups))
            self._resp_ok.inc(len(batch) - errors)
            if errors:
                self._resp_error.inc(errors)
            self._latency.observe_many([done - item[3] for item in batch])
        for _ in batch:
            self._queue.task_done()

    def _watcher_loop(self) -> None:
        while not self._stop_watch.wait(self.poll_interval):
            try:
                self.check_reload()
            except ReproError:
                if self._instrument:
                    self._reload_errors.inc()
