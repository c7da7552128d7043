"""Message aggregation on poorly scalable interconnects.

Section III-D: "Sending concurrently N messages of size S usually costs
more than sending one message of size N*S.  Thus, it is possible to
optimize the communication performance by gathering messages in poorly
scalable systems."

The decision an autotuned code actually faces: a rank holds N pieces of
data bound for the same destination (or the ranks of one node hold
pieces bound for another node).  It can issue N separate sends — each
paying the per-message latency, at the *measured* small-message
bandwidth of the layer — or pack them into one N*S-byte message that
amortizes the latency and rides the layer's larger-message bandwidth,
at the cost of a packing copy per piece.  Both sides of the comparison
come straight from the layer's Fig. 10c/d characterization curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.report import CommLayerReport, ServetReport
from ..errors import ReproError


@dataclass
class AggregationAdvice:
    """Outcome of the aggregate-or-not comparison for one layer."""

    layer_index: int
    n_messages: int
    message_size: int
    #: Estimated time for N separate sends (sequential from the source).
    separate_time: float
    #: Estimated time for one aggregated message of N * size bytes
    #: (plus a per-message packing overhead).
    aggregated_time: float

    @property
    def aggregate(self) -> bool:
        """True when gathering the messages is predicted to win."""
        return self.aggregated_time < self.separate_time

    @property
    def speedup(self) -> float:
        """Separate time over aggregated time (>1 favours gathering)."""
        if self.aggregated_time == 0.0:
            return float("inf")
        return self.separate_time / self.aggregated_time


#: Copy cost of gathering one piece into the aggregation buffer
#: (seconds per piece; a memcpy of a few KB).
PACKING_OVERHEAD: float = 2e-7


def aggregation_advice(
    layer: CommLayerReport, n_messages: int, message_size: int
) -> AggregationAdvice:
    """Compare N separate sends from one sender against one aggregated
    message that also pays :data:`PACKING_OVERHEAD` per piece."""
    if n_messages < 1 or message_size < 1:
        raise ReproError("n_messages and message_size must be positive")
    separate = n_messages * layer.estimate_latency(message_size)
    aggregated = (
        layer.estimate_latency(n_messages * message_size)
        + PACKING_OVERHEAD * n_messages
    )
    return AggregationAdvice(
        layer_index=layer.index,
        n_messages=n_messages,
        message_size=message_size,
        separate_time=separate,
        aggregated_time=aggregated,
    )


def advise_all_layers(
    report: ServetReport, n_messages: int, message_size: int
) -> list[AggregationAdvice]:
    """Aggregation advice for every measured layer of a report."""
    return [
        aggregation_advice(layer, n_messages, message_size)
        for layer in report.comm_layers
    ]
