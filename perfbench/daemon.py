"""The ``daemon-zipf`` workload: a ``servet serve --listen`` subprocess.

One iteration:

* set-up: the committed noise=0 dunnington golden report goes into a
  fresh registry, then ``servet serve --listen 127.0.0.1:0 --workers 2``
  starts and is ready once it prints ``listening on``;
* cold pass: ``QUERIES`` zipf (s=1.1) picks over ``default_query_pool()``
  on 2 persistent connections in a closed loop (each sends a window of
  ``WINDOW`` requests and waits for all its replies before sending the
  next), while connection 0 publishes ``RELOADS`` new registry versions
  of the same report at fixed query offsets and asks for each ``reload``;
* warm pass: the same load again on the now warm daemon, no reloads;
* before the cold pass and after each pass, the client times the
  ``hostref.roundtrip`` reference, which ``cold_rel``/``warm_rel`` use;
* ``stats``, peak RSS (``VmHWM``), ``drain``, and the process exit.

Every answer is compared with the uncached ``repro.service.server.answer``
for the report version it names; error responses, mismatches and
timeouts are failed operations.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from hostref import HostClock, roundtrip  # the script's directory is on sys.path

CONNECTIONS = 2
#: Requests in flight per connection.  The workload models autotuners,
#: and an autotuner needs each answer before it picks its next tile or
#: placement, so each client has one query outstanding.  The pipelined
#: throughput ceiling is what ``benchmarks/bench_serviced_load.py``
#: measures.
WINDOW = 1
#: Queries per pass, split evenly over the connections.  At one query in
#: flight the daemon answers about 7000 per second on a 2-core host, so a
#: pass takes about 3 s; passes of 10000 and 30000 queries spread alike
#: from iteration to iteration, and this length leaves room for four
#: daemon lifetimes (set-up, cold and warm pass) in a 30 s run.
QUERIES = 20_000
RELOADS = 3
ZIPF_S = 1.1
WORKERS = 2
TIMEOUT_S = 30.0

_HEADER = struct.Struct(">I")


def zipf_picks(n: int, count: int, rng: random.Random) -> list[int]:
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(n))
    )
    total = cumulative[-1]
    return [bisect.bisect_left(cumulative, rng.random() * total) for _ in range(count)]


def percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Connection:
    """One pipelined client connection with its own request ids."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.next_id = 0

    def read_body(self) -> bytes:
        """One raw frame body: the reply's arrival is timed before its
        JSON is decoded, so latency and client decode time stay apart."""
        header = self.rfile.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConnectionError("daemon closed the connection")
        (length,) = _HEADER.unpack(header)
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConnectionError("daemon closed the connection mid-frame")
        return body

    def control(self, kind: str) -> dict:
        from repro.serviced.protocol import control_request, encode_frame

        self.sock.sendall(encode_frame(control_request(kind, -1)))
        return json.loads(self.read_body())

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class PassResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.encode_s = 0.0
        self.decode_s = 0.0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why)

    def merge(self, other: "PassResult") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: 5 - len(self.errors)]
        self.encode_s += other.encode_s
        self.decode_s += other.decode_s


def drive(conn: Connection, pool, refs, picks, publish, reload_at, result) -> None:
    """Closed-loop, windowed load on one connection (thread body)."""
    from repro.serviced.protocol import control_request, encode_frame, query_request

    pending_reloads = list(reload_at)
    clock = time.perf_counter
    for offset in range(0, len(picks), WINDOW):
        chunk = picks[offset : offset + WINDOW]
        start = clock()
        frames = []
        asked: dict[int, int] = {}
        for index in chunk:
            asked[conn.next_id] = index
            frames.append(encode_frame(query_request(pool[index], conn.next_id)))
            conn.next_id += 1
        reloading = bool(pending_reloads) and offset >= pending_reloads[0]
        if reloading:
            pending_reloads.pop(0)
            publish()
            frames.append(encode_frame(control_request("reload", -1)))
        payload = b"".join(frames)
        result.encode_s += clock() - start
        result.attempted += len(frames)
        bodies = []
        try:
            conn.sock.sendall(payload)
            sent = clock()
            for _ in frames:
                body = conn.read_body()
                bodies.append((clock() - sent, body))
        except OSError as exc:  # timeouts and hangups included
            unsent = len(picks) - offset - len(chunk) + len(pending_reloads)
            result.attempted += unsent
            result.fail(len(frames) - len(bodies) + unsent, f"no reply: {exc!r}")
            return
        start = clock()
        replies = [(latency, json.loads(body)) for latency, body in bodies]
        result.decode_s += clock() - start
        for latency, reply in replies:
            rid = reply.get("id")
            if not reply.get("ok"):
                result.fail(1, f"error response: {reply.get('error')}")
            elif rid == -1:
                if not reply.get("reloaded"):
                    result.fail(1, f"reload did not swap: {reply}")
            elif rid not in asked:
                result.fail(1, f"reply to unknown id {rid}")
            elif reply.get("version") not in refs:
                result.fail(1, f"answer names unpublished version {reply.get('version')}")
            elif reply.get("answer") != refs[reply["version"]][asked[rid]]:
                result.fail(1, f"answer mismatch for {pool[asked[rid]]}")
            else:
                result.latencies.append(latency)


def guarded_drive(conn, pool, refs, picks, publish, reload_at, result) -> None:
    """Thread boundary: an unexpected client error is a failed pass, not a
    silently dead thread."""
    try:
        drive(conn, pool, refs, picks, publish, reload_at, result)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        result.attempted += 1
        result.fail(1, f"client error: {exc!r}")


def run_pass(conns, pool, refs, picks_per_conn, publish, reload_at) -> tuple[float, PassResult]:
    results = [PassResult() for _ in conns]
    threads = [
        threading.Thread(
            target=guarded_drive,
            args=(conn, pool, refs, picks, publish, reload_at if i == 0 else (), res),
        )
        for i, (conn, picks, res) in enumerate(zip(conns, picks_per_conn, results))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    total = PassResult()
    for res in results:
        total.merge(res)
    return wall, total


def iteration(root: Path, env: dict, seed: int, iteration_index: int) -> dict:
    """One daemon lifetime: set-up, cold pass, warm pass, drain.

    ``env`` must put the checkout's ``src`` on ``PYTHONPATH``.
    """
    from repro import SimulatedBackend, dunnington
    from repro.autotune import Advisor
    from repro.core.report import ServetReport
    from repro.service import ReportRegistry, fingerprint_of
    from repro.service.server import answer, default_query_pool

    golden = root / "tests" / "golden" / "dunnington.json"
    report = ServetReport.from_dict(json.loads(golden.read_text()))
    pool = default_query_pool(report)
    reference = [answer(Advisor(report), query) for query in pool]
    rng = random.Random(seed * 1000 + iteration_index)
    per_conn = QUERIES // CONNECTIONS
    passes = {
        label: [zipf_picks(len(pool), per_conn, rng) for _ in range(CONNECTIONS)]
        for label in ("cold", "warm")
    }
    reload_at = [per_conn * (k + 1) // (RELOADS + 1) for k in range(RELOADS)]

    work = Path(tempfile.mkdtemp(prefix="daemon-", dir=root / ".perfbench"))
    proc = None
    conns: list[Connection] = []
    checks: list[tuple[str, bool, str]] = []
    try:
        spawn = time.perf_counter()
        registry = ReportRegistry(work / "registry")
        fingerprint = fingerprint_of(SimulatedBackend(dunnington(), noise=0.0))
        versions = [registry.put(fingerprint, report).version]
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--workers", str(WORKERS),
                "--registry", str(work / "registry"),
                "--poll-interval", "3600",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=root,
            env=env,
        )
        host = port = None
        for line in proc.stdout:
            if line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                break
        if host is None:
            raise RuntimeError(f"daemon exited before listening: {proc.stderr.read()}")
        setup_s = time.perf_counter() - spawn
        conns = [Connection(host, int(port)) for _ in range(CONNECTIONS)]
        refs = {versions[0]: reference}

        def publish() -> None:
            version = registry.put(fingerprint, report).version
            versions.append(version)
            refs[version] = reference

        out = {"setup_s": setup_s}
        host = HostClock(roundtrip)
        host.mark()
        for label in ("cold", "warm"):
            wall, res = run_pass(
                conns, pool, refs, passes[label], publish,
                reload_at if label == "cold" else (),
            )
            stats = conns[0].control("stats")["stats"]
            host.mark()
            out[label] = {"wall": wall, "rel": host.rel(wall), "result": res, "stats": stats}
        out["ref_s"] = host.ref_s()
        final = out["warm"]["stats"]
        reloads = out["cold"]["stats"]["daemon"]["counters"].get("serviced.reloads", 0)
        checks.append((
            "daemon swapped to every published version",
            final["version"] == versions[-1] and reloads == RELOADS,
            f"serving v{final['version']} of {versions}, {reloads} reloads",
        ))
        out["peak_rss_mb"] = peak_rss_mb(proc.pid)
        ack = conns[0].control("drain")
        for conn in conns:
            conn.close()
        conns = []
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
        checks.append((
            "daemon drained and exited 0",
            ack.get("ok") and proc.returncode == 0 and "drained:" in stdout,
            f"exit {proc.returncode}: {stderr.strip()[-200:]}",
        ))
        out["checks"] = checks
        return out
    finally:
        for conn in conns:
            conn.close()
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

