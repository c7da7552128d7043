"""Lightweight structured tracing: spans, a collector, JSONL export.

A :class:`Span` is one timed unit of work — a suite phase, a planner
probe, a backend call, a service query — with a name, a parent, wall
and virtual timestamps, and free-form attributes.  The
:class:`Tracer` hands out spans as context managers, tracks the
current span per thread (so nesting is implicit in straight-line code)
and collects finished spans thread-safely; ``save`` writes one JSON
object per line, the format ``servet trace summarize`` and the CI
artifact consume.

Two design points worth naming:

- **Virtual time.**  Simulated backends account measurement cost on a
  virtual clock (:attr:`repro.backends.base.Backend.virtual_time`).
  A tracer built with a ``virtual_clock`` callable samples it at span
  start/end, so a trace of a simulated run shows where the *modeled*
  seconds went, not just the simulator's wall overhead.  The clock is
  reset between phases by the suite, so virtual durations are clamped
  at zero rather than reported negative across a reset.
- **Threads.**  The current span lives in a ``contextvars`` variable,
  so each thread nests its own spans.  A tracer shared between
  threads (the tuning service answers queries on several) collects
  their finished spans under one lock.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable

from ..errors import ReproError
from ..ioutils import atomic_write_text

_current_span: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass
class Span:
    """One finished (or in-flight) unit of traced work."""

    span_id: str
    name: str
    parent_id: str | None
    start_wall: float
    attributes: dict = field(default_factory=dict)
    end_wall: float | None = None
    start_virtual: float | None = None
    end_virtual: float | None = None
    status: str = "ok"

    @property
    def wall_duration(self) -> float:
        if self.end_wall is None:
            return 0.0
        return max(0.0, self.end_wall - self.start_wall)

    @property
    def virtual_duration(self) -> float:
        if self.start_virtual is None or self.end_virtual is None:
            return 0.0
        # The suite resets the backend's virtual clock between phases;
        # a span straddling a reset clamps to zero instead of going
        # negative.
        return max(0.0, self.end_virtual - self.start_virtual)

    def set(self, **attributes) -> None:
        """Attach attributes to an open span (JSON scalars please)."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        data = {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "wall_duration": self.wall_duration,
            "virtual_duration": self.virtual_duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }
        if self.start_virtual is not None:
            data["start_virtual"] = self.start_virtual
            data["end_virtual"] = self.end_virtual
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        try:
            span = cls(
                span_id=str(data["span_id"]),
                name=str(data["name"]),
                parent_id=(
                    None if data.get("parent_id") is None else str(data["parent_id"])
                ),
                start_wall=float(data["start_wall"]),
                attributes=dict(data.get("attributes", {})),
                end_wall=(
                    None if data.get("end_wall") is None else float(data["end_wall"])
                ),
                status=str(data.get("status", "ok")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed span record: {exc}") from exc
        if data.get("start_virtual") is not None:
            span.start_virtual = float(data["start_virtual"])
            span.end_virtual = float(data.get("end_virtual") or data["start_virtual"])
        elif data.get("virtual_duration"):
            span.start_virtual = 0.0
            span.end_virtual = float(data["virtual_duration"])
        return span


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Span:
        self._token = _current_span.set(self.span.span_id)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _current_span.reset(self._token)
        if exc_type is not None:
            self.span.status = "error"
            self.span.set(error=f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Create spans and collect them, thread-safely, in finish order.

    Parameters
    ----------
    clock:
        Wall-clock source (injectable for deterministic tests).
    virtual_clock:
        Optional monotone-within-a-phase virtual-time source, usually
        ``lambda: backend.virtual_time``.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        virtual_clock: Callable[[], float] | None = None,
    ) -> None:
        self._clock = clock
        self._virtual_clock = virtual_clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 0

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attributes) -> _SpanContext:
        """Open a span as a context manager, under this thread's
        innermost open span."""
        with self._lock:
            self._next_id += 1
            span_id = f"s{self._next_id}"
        span = Span(
            span_id=span_id,
            name=name,
            parent_id=_current_span.get(),
            start_wall=self._clock(),
            attributes=dict(attributes),
        )
        if self._virtual_clock is not None:
            span.start_virtual = float(self._virtual_clock())
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end_wall = self._clock()
        if self._virtual_clock is not None:
            span.end_virtual = float(self._virtual_clock())
        with self._lock:
            self._spans.append(span)

    # -- access & export ----------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans, in finish order."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in self.spans()
        )

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON Lines, atomically."""
        atomic_write_text(path, self.to_jsonl())


def load_jsonl(path: str | Path) -> list[Span]:
    """Read a trace written by :meth:`Tracer.save`."""
    spans: list[Span] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read trace {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        spans.append(Span.from_dict(data))
    return spans


def summarize(spans: Iterable[Span]) -> str:
    """Per-phase time/probe breakdown of a trace (CLI ``trace summarize``).

    Groups spans by the suite phase they ran under (the ``phase``
    attribute propagated by the suite's instrumentation) and reports
    span counts, probe counts by kind, and wall/virtual totals.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}

    def phase_of(span: Span) -> str:
        node: Span | None = span
        while node is not None:
            if "phase" in node.attributes:
                return str(node.attributes["phase"])
            node = by_id.get(node.parent_id) if node.parent_id else None
        return "(no phase)"

    phases: dict[str, dict] = {}
    order: list[str] = []
    for span in spans:
        phase = phase_of(span)
        if phase not in phases:
            phases[phase] = {
                "spans": 0,
                "probes": {},
                "backend_calls": 0,
                "wall": 0.0,
                "virtual": 0.0,
            }
            order.append(phase)
        bucket = phases[phase]
        bucket["spans"] += 1
        if span.name == "probe":
            kind = str(span.attributes.get("kind", "?"))
            bucket["probes"][kind] = bucket["probes"].get(kind, 0) + 1
        if span.name.startswith("backend."):
            bucket["backend_calls"] += 1
        if span.name == "phase":
            bucket["wall"] += span.wall_duration
            virtual = span.attributes.get("virtual_seconds")
            bucket["virtual"] += (
                float(virtual) if virtual is not None else span.virtual_duration
            )

    lines = [f"trace: {len(spans)} span(s), {len(order)} phase group(s)"]
    for phase in order:
        bucket = phases[phase]
        probes = ", ".join(
            f"{kind}={count}" for kind, count in sorted(bucket["probes"].items())
        )
        lines.append(
            f"  {phase}: {bucket['spans']} span(s), "
            f"{bucket['backend_calls']} backend call(s)"
            + (f", probes [{probes}]" if probes else "")
            + (
                f", virtual {bucket['virtual']:.3f} s"
                if bucket["virtual"]
                else ""
            )
            + (f", wall {bucket['wall']:.3f} s" if bucket["wall"] else "")
        )
    return "\n".join(lines)
