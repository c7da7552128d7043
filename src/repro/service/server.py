"""In-process tuning service: cached answers to ``Advisor`` queries.

LIKWID-style always-available query layer over one stored report.
Applications ask typed, hashable :class:`Query` value objects, one
dataclass per kind in the :data:`QUERY_KINDS` table, and the service
answers through an LRU cache in front of the (comparatively
expensive) autotuning helpers.  Every answer is a plain dict of JSON
scalars, so results can be cached, compared, and shipped over any
transport without caring about the advisor's internal dataclasses.

Observability: per-query hit/miss/eviction counters and
latency percentiles (:meth:`TuningService.metrics`).

Correctness under load is proved, not assumed: :func:`run_harness`
drives thousands of queries from concurrent client threads, checks
every answer against an uncached reference advisor, and reports the
hit rate — the bench and the integration tests pin a warm hit rate
>= 90% with zero wrong answers.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
import typing
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from collections.abc import Callable

from ..autotune import Advisor
from ..autotune.advisor import COSCHEDULE_TOP
from ..core.report import ServetReport
from ..errors import ServiceError
from ..lru import LRUCache
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer

#: Union of the query value objects the service answers.
Query = object


@dataclass(frozen=True)
class TileQuery:
    """Elements per tile for ``n_arrays`` arrays in cache ``level``."""

    level: int = 1
    n_arrays: int = 1
    elem_size: int = 8


@dataclass(frozen=True)
class MatmulTileQuery:
    """Blocked-matmul tile side for one cache level."""

    level: int = 1
    elem_size: int = 8


@dataclass(frozen=True)
class StreamingCoresQuery:
    """How many cores of an overhead group are worth streaming from."""

    group_index: int = 0
    efficiency_floor: float = 0.5


@dataclass(frozen=True)
class AggregationQuery:
    """Aggregate-or-not for N messages between two cores."""

    core_a: int
    core_b: int
    n_messages: int = 16
    message_size: int = 4096


@dataclass(frozen=True)
class BcastQuery:
    """Flat vs hierarchical broadcast for a placement and size."""

    placement: tuple[int, ...]
    nbytes: int = 64 * 1024
    root: int = 0


@dataclass(frozen=True)
class CommLatencyQuery:
    """Estimated point-to-point latency for a pair and message size."""

    core_a: int
    core_b: int
    nbytes: int


@dataclass(frozen=True)
class CoScheduleQuery:
    """Ranked placements of workloads onto the detected sharing topology.

    ``workloads`` are canonical synthetic-workload specs (see
    :func:`repro.workload.parse_workload`); ``level``/``instances``
    default to the outermost shared level and every detected instance.
    """

    workloads: tuple[str, ...]
    seed: int = 0
    level: int | None = None
    instances: int | None = None
    top: int = COSCHEDULE_TOP


# -- the query-kind table ------------------------------------------------
#
# Strict converters for the field annotations the query dataclasses use.
# Wire and Python input alike pass through them: a bool or a fractional
# float is not an integer, and a string is not a sequence (iterating
# "0123" would invent a placement).


def _as_int(value) -> int:
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"expected an integer, got {value!r}")


def _as_float(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def _as_str(value) -> str:
    if isinstance(value, str):
        return value
    raise TypeError(f"expected a string, got {value!r}")


_SCALARS = {int: _as_int, float: _as_float, str: _as_str}


def _scalar_type(hint) -> type:
    """The scalar inside ``X``, ``X | None`` or ``tuple[X, ...]``."""
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


def _converter(hint) -> Callable[[object], object]:
    item = _SCALARS[_scalar_type(hint)]
    if typing.get_origin(hint) is tuple:

        def as_tuple(value) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"expected an array, got {value!r}")
            return tuple(item(v) for v in value)

        return as_tuple
    if type(None) in typing.get_args(hint):
        return lambda value: None if value is None else item(value)
    return item


class QueryOption(typing.NamedTuple):
    """One generated CLI flag of a query kind.

    A flag feeds one field, or every field sharing its spelling
    (``--pair 0,12`` feeds ``core_a`` and ``core_b``).  argparse applies
    ``type`` to a one-field scalar flag; a flag with a ``sep`` keeps its
    text for :meth:`QueryKind.from_options` to split, so a malformed
    value ends in a :class:`ServiceError`.  Sequences of strings split
    on ``;`` because workload specs contain commas.
    """

    flag: str
    dest: str
    fields: tuple[str, ...]
    type: type
    sep: str | None
    default: object
    required: bool
    metavar: str | None
    help: str


def _option(flag: str, group: list, hints: dict) -> QueryOption:
    fields = tuple(f.name for f in group)
    hint, default = hints[fields[0]], group[0].default
    item = _scalar_type(hint)
    if len(fields) > 1:
        sep, metavar = ",", ",".join(name.upper() for name in fields)
    elif typing.get_origin(hint) is tuple:
        sep = ";" if item is str else ","
        metavar = f"{fields[0].upper()}[{sep}...]"
    else:
        sep = metavar = None
    required = default is dataclasses.MISSING
    state = "required" if required else f"default: {default}"
    dest = flag.lstrip("-").replace("-", "_")
    default = None if required else default
    help = f"{', '.join(fields)} ({state})"
    return QueryOption(flag, dest, fields, item, sep, default, required, metavar, help)


class QueryKind:
    """One tuning query kind: its name, dataclass, answer and help.

    The wire codec, :func:`query_from_spec`, the ``servet query`` flags
    and :func:`answer` all derive from these and the dataclass fields,
    once, at import; defaults live only on the dataclass.  ``flags``
    gives a field a CLI spelling other than ``--field-name`` (fields
    sharing a spelling take one comma-separated value); ``None`` keeps
    a field off the CLI.
    """

    def __init__(self, name, cls, answer, help, flags=None) -> None:
        self.name, self.cls, self.answer, self.help = name, cls, answer, help
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        self.converters = tuple((f.name, _converter(hints[f.name])) for f in fields)
        self.required = {f.name for f in fields if f.default is dataclasses.MISSING}
        by_flag: dict[str, list] = {}
        for f in fields:
            flag = (flags or {}).get(f.name, "--" + f.name.replace("_", "-"))
            if flag is not None:
                by_flag.setdefault(flag, []).append(f)
        self.options = tuple(
            _option(flag, group, hints) for flag, group in by_flag.items()
        )

    def build(self, data, noun: str = "parameter") -> Query:
        """The query a field mapping describes, every value checked.

        Absent fields take the dataclass defaults; keys that name no
        field (the wire ``kind``) are ignored.
        """
        values = {}
        for name, convert in self.converters:
            if name in data:
                try:
                    values[name] = convert(data[name])
                except (TypeError, ValueError) as exc:
                    raise ServiceError(
                        f"query {self.name!r} has a bad {noun} {name!r}: {exc}"
                    ) from None
            elif name in self.required:
                raise ServiceError(f"query {self.name!r} needs {noun} {name!r}")
        return self.cls(**values)

    def from_options(self, values) -> Query:
        """The query parsed CLI flags describe (``values`` keyed by dest)."""
        data = {}
        for opt in self.options:
            text = values.get(opt.dest)
            if text is None:
                if opt.required:
                    raise ServiceError(f"query {self.name!r} needs {opt.flag}")
                continue
            if opt.sep is None:
                data[opt.fields[0]] = text
                continue
            try:
                items = [opt.type(p.strip()) for p in text.split(opt.sep) if p.strip()]
            except ValueError as exc:
                raise ServiceError(f"{opt.flag} {text!r}: {exc}") from None
            if not items or len(opt.fields) > 1 and len(items) != len(opt.fields):
                raise ServiceError(f"{opt.flag} takes {opt.metavar}, got {text!r}")
            data.update(zip(opt.fields, items if len(opt.fields) > 1 else [items]))
        return self.build(data)

    def to_dict(self, query: Query) -> dict:
        """The wire form: ``{"kind": ..., <fields>}``, tuples as lists."""
        fields = {
            name: (list(value) if isinstance(value, tuple) else value)
            for name, value in vars(query).items()
        }
        return {"kind": self.name, **fields}


def _answer_aggregate(advisor: Advisor, q: AggregationQuery) -> dict:
    advice = advisor.should_aggregate(q.core_a, q.core_b, q.n_messages, q.message_size)
    return {
        "aggregate": bool(advice.aggregate),
        "speedup": float(advice.speedup),
        "separate_time": float(advice.separate_time),
        "aggregated_time": float(advice.aggregated_time),
        "layer_index": int(advice.layer_index),
    }


def _answer_bcast(advisor: Advisor, q: BcastQuery) -> dict:
    choice = advisor.choose_bcast(list(q.placement), q.nbytes, root=q.root)
    return {
        "algorithm": str(choice.algorithm),
        "flat_time": float(choice.flat_time),
        "hierarchical_time": float(choice.hierarchical_time),
        "predicted_speedup": float(choice.predicted_speedup),
    }


def _answer_latency(advisor: Advisor, q: CommLatencyQuery) -> dict:
    layer = advisor.report.comm_layer_of(q.core_a, q.core_b)
    return {
        "latency": float(layer.estimate_latency(q.nbytes)),
        "layer_index": int(layer.index),
    }


_PAIR = {"core_a": "--pair", "core_b": "--pair"}

#: Every query kind the service answers, by name.  Adding a kind means
#: adding one entry here.
QUERY_KINDS: dict[str, QueryKind] = {
    kind.name: kind
    for kind in (
        QueryKind(
            "tile",
            TileQuery,
            lambda a, q: {
                "elements": int(a.tile_elements(q.level, q.n_arrays, q.elem_size))
            },
            "elements per tile for arrays sharing one cache level",
            {"n_arrays": "--arrays", "elem_size": "--elem"},
        ),
        QueryKind(
            "matmul-tile",
            MatmulTileQuery,
            lambda a, q: {"side": int(a.matmul_tile(q.level, q.elem_size))},
            "blocked-matmul tile side for one cache level",
            {"elem_size": "--elem"},
        ),
        QueryKind(
            "streaming-cores",
            StreamingCoresQuery,
            lambda a, q: {
                "cores": int(
                    a.max_useful_streaming_cores(q.group_index, q.efficiency_floor)
                )
            },
            "cores of a memory-overhead group worth streaming from",
            {"group_index": "--group", "efficiency_floor": None},
        ),
        QueryKind(
            "aggregate",
            AggregationQuery,
            _answer_aggregate,
            "whether to aggregate N messages between two cores",
            {**_PAIR, "n_messages": "--messages", "message_size": "--size"},
        ),
        QueryKind(
            "bcast",
            BcastQuery,
            _answer_bcast,
            "flat or hierarchical broadcast for a placement",
            {"nbytes": "--size"},
        ),
        QueryKind(
            "latency",
            CommLatencyQuery,
            _answer_latency,
            "point-to-point latency between two cores",
            {**_PAIR, "nbytes": "--size"},
        ),
        QueryKind(
            "co-schedule",
            CoScheduleQuery,
            lambda a, q: a.co_schedule(**vars(q)).to_dict(),
            "rank placements of workloads onto the shared caches",
            {"level": "--cache-level"},
        ),
    )
}

_KIND_OF_TYPE = {kind.cls: kind for kind in QUERY_KINDS.values()}


def query_kind(name: str) -> QueryKind:
    """The table entry for a kind name."""
    kind = QUERY_KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ServiceError(
            f"unknown query kind {name!r} (expected one of {', '.join(QUERY_KINDS)})"
        )
    return kind


def kind_of(query: Query) -> QueryKind:
    """The table entry for a query object."""
    kind = _KIND_OF_TYPE.get(type(query))
    if kind is None:
        raise ServiceError(f"unknown query type {type(query).__name__}")
    return kind


def answer(advisor: Advisor, query: Query) -> dict:
    """Compute one query's answer, uncached, as plain JSON scalars.

    This is the single source of truth the cache stores and the
    concurrent harness verifies against.
    """
    return kind_of(query).answer(advisor, query)


#: Keys in flight that a :class:`SingleFlightTable` gives their own lock.
SINGLE_FLIGHT_CAP: int = 128
#: Fixed stripe locks shared by the keys beyond the cap.
SINGLE_FLIGHT_STRIPES: int = 16


class SingleFlightTable:
    """Bounded per-key locks serializing concurrent misses on one key.

    The earlier implementation hashed every key onto a fixed stripe
    array, which meant (a) unrelated keys colliding on a stripe
    serialized each other's computations and (b) the natural fix —
    one lock per key — would grow without bound under a large keyset.
    This table gives each *in-flight* key its own lock and recycles
    the entry the moment its last holder releases, so memory is
    bounded by concurrent distinct misses, never by the total keys
    ever seen.  :data:`SINGLE_FLIGHT_CAP` is a hard ceiling against
    pathological concurrency: once that many keys are simultaneously in
    flight, new keys degrade to a small fixed stripe array (correct,
    merely coarser) instead of growing the table.

    ``live()``/``peak``/``fallbacks`` expose the bound for tests and
    metrics.
    """

    def __init__(self) -> None:
        self.cap = SINGLE_FLIGHT_CAP
        self._lock = threading.Lock()
        #: key -> [per-key lock, holder/waiter count]
        self._entries: dict[object, list] = {}
        self._stripes = tuple(threading.Lock() for _ in range(SINGLE_FLIGHT_STRIPES))
        self.peak = 0
        self.fallbacks = 0

    def live(self) -> int:
        """Entries currently in the table (== keys in flight)."""
        with self._lock:
            return len(self._entries)

    @contextmanager
    def flight(self, key):
        """Hold ``key``'s single-flight lock for the duration."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None and len(self._entries) < self.cap:
                entry = self._entries[key] = [threading.Lock(), 0]
                self.peak = max(self.peak, len(self._entries))
            if entry is None:
                self.fallbacks += 1
                lock = self._stripes[hash(key) % len(self._stripes)]
            else:
                entry[1] += 1
                lock = entry[0]
        try:
            with lock:
                yield
        finally:
            if entry is not None:
                with self._lock:
                    entry[1] -= 1
                    if entry[1] == 0:
                        del self._entries[key]


#: Default answer-cache capacity of a service (and of a daemon's
#: per-snapshot service).
ANSWER_CACHE_CAPACITY: int = 4096


class TuningService:
    """Concurrent query answering over one report, with an answer cache.

    Parameters
    ----------
    report:
        The report to answer from (see :meth:`from_registry`).
    capacity:
        Answer-cache bound (see :class:`~repro.lru.LRUCache`).  Answers
        never expire: a report is immutable, and a daemon reload builds
        a new service, cache included, for the new report.
    metrics:
        Registry holding the service's counters and latency histogram
        (``service.queries{result=...}``, ``service.query_latency``);
        a private registry is created when not given, so
        :meth:`metrics` always works.
    tracer:
        Optional span collector; when given, every :meth:`query` emits
        a ``service.query`` span tagged with the query type and
        hit/miss outcome.
    """

    def __init__(
        self,
        report: ServetReport,
        capacity: int = ANSWER_CACHE_CAPACITY,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.report = report
        self.advisor = Advisor(report)
        self.cache = LRUCache(capacity)
        self.metrics_registry = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._hit_counter = self.metrics_registry.counter(
            "service.queries", result="hit"
        )
        self._miss_counter = self.metrics_registry.counter(
            "service.queries", result="miss"
        )
        self._latency = self.metrics_registry.histogram(
            "service.query_latency_seconds"
        )
        # Single-flight: concurrent misses on the same key serialize on
        # a per-key lock and re-check the cache, so a fresh key is
        # computed (and counted as a miss) exactly once no matter how
        # clients interleave.  The table is bounded: entries recycle as
        # soon as their key has no holder (see SingleFlightTable).
        self.single_flight = SingleFlightTable()

    @classmethod
    def from_registry(cls, registry) -> "TuningService":
        """Serve the newest report a registry holds."""
        return cls(registry.get())

    def query(self, query: Query) -> dict:
        """Answer one query, cache-first."""
        start = time.perf_counter()
        span_ctx = (
            self.tracer.span("service.query", query=type(query).__name__)
            if self.tracer is not None
            else None
        )
        with span_ctx if span_ctx is not None else nullcontext():
            value = self.cache.get(query)
            hit = value is not None
            if not hit:
                # Compute outside the cache lock but under the key's
                # single-flight lock: a racing client blocks here,
                # then finds the value on the re-check, so duplicate
                # work is avoided and hit/miss counts depend only on
                # the distinct-key set, not on thread interleaving.
                with self.single_flight.flight(query):
                    value = self.cache.get(query)
                    hit = value is not None
                    if not hit:
                        value = answer(self.advisor, query)
                        self.cache.put(query, value)
            if span_ctx is not None:
                span_ctx.span.set(hit=bool(hit))
        elapsed = time.perf_counter() - start
        (self._hit_counter if hit else self._miss_counter).inc()
        self._latency.observe(elapsed)
        return value

    def metrics(self) -> dict:
        """Hit/miss counters, cache occupancy, latency percentiles."""
        hits = int(self._hit_counter.value)
        misses = int(self._miss_counter.value)
        total = hits + misses
        return {
            "queries": total,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "evictions": self.cache.evictions,
            "cache_entries": len(self.cache),
            "latency_p50": self._latency.percentile(0.50),
            "latency_p90": self._latency.percentile(0.90),
            "latency_p99": self._latency.percentile(0.99),
        }


# -- deterministic concurrent-client harness -----------------------------


@dataclass
class HarnessResult:
    """Outcome of one concurrent-client drive of a service."""

    clients: int
    queries: int
    wall_seconds: float
    mismatches: int
    hit_rate: float
    metrics: dict = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0


def default_query_pool(report: ServetReport) -> list[Query]:
    """A representative query mix derived from what a report contains."""
    pool: list[Query] = []
    for cache in report.caches:
        for n_arrays in (1, 2, 3):
            pool.append(TileQuery(cache.level, n_arrays, 8))
        pool.append(MatmulTileQuery(cache.level, 8))
        pool.append(MatmulTileQuery(cache.level, 4))
    for index in range(len(report.memory_levels)):
        pool.append(StreamingCoresQuery(index, 0.5))
    for layer in report.comm_layers:
        if not layer.pairs:
            continue
        a, b = layer.pairs[0]
        for n_messages in (4, 16):
            for size in (1024, 8192):
                pool.append(AggregationQuery(a, b, n_messages, size))
        pool.append(CommLatencyQuery(a, b, 512))
        pool.append(CommLatencyQuery(a, b, 64 * 1024))
    if report.comm_layers and report.n_cores >= 4:
        pool.append(BcastQuery(tuple(range(4)), 64 * 1024, 0))
    if not pool:
        raise ServiceError(
            f"report for {report.system} holds nothing the service can answer"
        )
    return pool


def run_harness(
    service: TuningService,
    clients: int = 8,
    queries_per_client: int = 500,
    seed: int = 1234,
) -> HarnessResult:
    """Drive a service from concurrent clients and verify every answer.

    The query schedule is deterministic: one seeded RNG deals each
    client its own sequence of pool picks, so a given (report, seed,
    shape) always exercises the same traffic.  Every response is
    compared against an *uncached* reference advisor; any disagreement
    counts as a mismatch (and the caller should treat >0 as a bug).
    """
    if clients < 1 or queries_per_client < 1:
        raise ServiceError("harness needs clients >= 1 and queries >= 1")
    queries = default_query_pool(service.report)
    reference_advisor = Advisor(service.report)
    reference = {q: answer(reference_advisor, q) for q in queries}
    rng = random.Random(seed)
    schedules = [
        [queries[rng.randrange(len(queries))] for _ in range(queries_per_client)]
        for _ in range(clients)
    ]
    mismatches = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait()
        bad = 0
        for query in schedules[index]:
            if service.query(query) != reference[query]:
                bad += 1
        mismatches[index] = bad

    threads = [
        threading.Thread(target=client, args=(i,), name=f"tuning-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    metrics = service.metrics()
    return HarnessResult(
        clients=clients,
        queries=clients * queries_per_client,
        wall_seconds=wall,
        mismatches=sum(mismatches),
        hit_rate=metrics["hit_rate"],
        metrics=metrics,
    )


def query_from_spec(kind: str, **params) -> Query:
    """Build a query from keyword parameters named after its fields."""
    return query_kind(kind).build(params)


__all__ = [
    "AggregationQuery",
    "BcastQuery",
    "CoScheduleQuery",
    "CommLatencyQuery",
    "HarnessResult",
    "MatmulTileQuery",
    "QUERY_KINDS",
    "Query",
    "QueryKind",
    "SingleFlightTable",
    "StreamingCoresQuery",
    "TileQuery",
    "TuningService",
    "answer",
    "default_query_pool",
    "kind_of",
    "query_from_spec",
    "query_kind",
    "run_harness",
]
