"""Counters, gauges, and histograms with a thread-safe registry.

The suite, the measurement planner, and the tuning service all count
things — probes issued, cache hits, retries, query latencies.  Before
this module each component kept ad-hoc integer attributes; now they
share one :class:`MetricsRegistry` so a run can be exported as a single
metrics document (``servet run --metrics m.json``) whose numbers are
*the same objects* the components use internally — there is no second
bookkeeping path to drift out of sync.

Design constraints:

- **No dependencies** beyond the standard library.
- **Thread safety** — the tuning service's client threads and the
  daemon's workers update metrics concurrently; every mutation takes
  the instrument's lock.
- **Determinism** — export order is sorted by metric name and label,
  so two identical runs produce byte-identical JSON at noise=0 (wall
  clock values excluded by callers that need that).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Iterable, Sequence

from ..errors import ConfigurationError
from ..ioutils import atomic_write_text

#: Samples kept per histogram for the percentile estimates (newest
#: wins).  Matches the window the tuning service has always used.
HISTOGRAM_WINDOW: int = 8192

#: Percentiles included in histogram summaries.
SUMMARY_PERCENTILES: tuple[float, ...] = (0.50, 0.90, 0.99)


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Empirical percentile: the sorted sample at rank ``fraction``.

    ``fraction`` is in ``[0, 1]``; the index is ``int(fraction * n)``
    clamped to the last sample (the convention the tuning service has
    always reported, kept so historical latency numbers stay
    comparable).  Returns 0.0 for an empty sample set.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("percentile fraction must be in [0, 1]")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotone (well, resettable-for-merges) accumulating count."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only move forward; use a gauge")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Overwrite the count (checkpoint-merge support only)."""
        with self._lock:
            self._value = value

    def export(self) -> float:
        value = self.value
        return int(value) if value == int(value) else value


class Gauge:
    """A value that goes up and down (occupancy, last duration)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    def export(self) -> float:
        return self.value


class Histogram:
    """Windowed sample distribution with percentile summaries.

    Keeps the newest :data:`HISTOGRAM_WINDOW` observations for
    the percentile estimates while ``count``/``total`` accumulate over
    *all* observations ever made.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)
        self._count = 0
        self._total = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(float(value))
            self._count += 1
            self._total += value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch under one lock acquisition (hot-path helper)."""
        with self._lock:
            self._samples.extend(values)
            self._count += len(values)
            self._total += sum(values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    def percentile(self, fraction: float) -> float:
        return percentile(self.samples(), fraction)

    def export(self) -> dict:
        with self._lock:
            samples = list(self._samples)
            count, total = self._count, self._total
        summary = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
        }
        for frac in SUMMARY_PERCENTILES:
            summary[f"p{int(frac * 100)}"] = percentile(samples, frac)
        return summary


class MetricsRegistry:
    """Get-or-create home for every instrument of one run/service.

    Instruments are keyed by ``(name, sorted labels)``; asking twice
    returns the same object, so independent components (suite, planner,
    backend hook) can share counters without passing them around.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, factory, name: str, labels: dict[str, str]):
        key = (factory.kind, name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(name, _label_key(labels))
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        with self._lock:
            items = list(self._instruments.items())
        return [inst for _, inst in sorted(items, key=lambda kv: kv[0])]

    # -- export -------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready snapshot: ``{counters, gauges, histograms}``.

        Keys are ``name{label="value",...}`` strings sorted
        lexicographically, so identical runs export identical documents.
        """
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for inst in self.instruments():
            key = inst.name + _label_suffix(inst.labels)
            out[inst.kind + "s"][key] = inst.export()
        return out

    def render_text(self) -> str:
        """Flat ``name{labels} value`` lines (exposition-style dump)."""
        lines: list[str] = []
        for inst in self.instruments():
            key = inst.name + _label_suffix(inst.labels)
            if isinstance(inst, Histogram):
                for field, value in inst.export().items():
                    lines.append(f"{key}:{field} {value}")
            else:
                lines.append(f"{key} {inst.export()}")
        return "\n".join(lines) + ("\n" if lines else "")

    def save_json(self, path) -> None:
        """Write the snapshot atomically as indented JSON."""
        atomic_write_text(path, json.dumps(self.as_dict(), indent=2, sort_keys=True))

    def value(self, kind: str, name: str, /, **labels: str) -> float:
        """Convenience lookup for tests and assertions (0 when absent).

        ``kind`` and ``name`` are positional-only so that labels named
        ``kind`` or ``name`` (both common) never collide with them.
        """
        key = (kind, name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
        if inst is None:
            return 0.0
        exported = inst.export()
        return exported if not isinstance(exported, dict) else exported["count"]
