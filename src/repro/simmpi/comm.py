"""Processes, matching and transfer semantics of the simulated MPI.

A process is a Python generator that yields *requests* created through
its :class:`Rank` handle::

    def worker(rank: Rank):
        yield rank.compute(1e-6)
        yield rank.send(dest=1, nbytes=4096)
        src, nbytes = yield rank.recv(source=ANY_SOURCE)

Semantics (modelled on real MPI middleware, as the paper assumes):

- **Eager protocol** (``nbytes <= layer.eager_threshold``): the sender
  deposits the message and continues immediately; the receiver observes
  the full transfer latency.
- **Rendezvous protocol** (larger messages): sender and receiver both
  block until the transfer completes.
- **Contention**: a transfer starting while ``N-1`` transfers are
  already active in the same layer takes ``layer.latency(nbytes, N)``.
  Already-running transfers are not re-priced (a documented
  approximation of fluid sharing).

Matching is FIFO per (source, tag) with MPI-style wildcards.

The runtime does per message only the work that changes per message.
Each process's resume callback is built once, when it is added; the
layer serving a rank pair is looked up once per world, and each
(size, concurrency) it carries is priced once; a rank's blocker is
kept as the request it yielded and formatted lazily, only when a
watchdog or deadlock diagnostic names it (``rank 3 blocked on
recv(source=1, tag=0)``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Generator, Sequence
from functools import partial

from ..errors import ConfigurationError, SimulationError, WatchdogError
from ..netsim.model import CommConfig
from ..topology.machine import Cluster
from .events import Engine

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Handle",
    "Rank",
    "World",
    "WorldResult",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: Default watchdog budget: events per rank a run may execute before
#: the runtime declares the model runaway.  Generously above any real
#: benchmark (a message costs a handful of events) while still bounding
#: a faulty model that would otherwise spin forever.
DEFAULT_EVENT_BUDGET_PER_RANK = 250_000

ProcessFn = Callable[["Rank"], Generator]


class _SendReq:
    __slots__ = ("dest", "nbytes", "tag")

    def __init__(self, dest: int, nbytes: int, tag: int) -> None:
        self.dest = dest
        self.nbytes = nbytes
        self.tag = tag

    def __str__(self) -> str:
        return f"send(dest={self.dest}, tag={self.tag})"


class _RecvReq:
    __slots__ = ("source", "tag")

    def __init__(self, source: int, tag: int) -> None:
        self.source = source
        self.tag = tag

    def __str__(self) -> str:
        return f"recv(source={self.source}, tag={self.tag})"


class _ComputeReq:
    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __str__(self) -> str:
        return f"compute({self.seconds:g}s)"


class _IsendReq(_SendReq):
    __slots__ = ()


class _IrecvReq(_RecvReq):
    __slots__ = ()


class _WaitReq:
    __slots__ = ("handle",)

    def __init__(self, handle: "Handle") -> None:
        self.handle = handle

    def __str__(self) -> str:
        return "wait(handle)"


class Handle:
    """Completion handle of a nonblocking operation.

    ``wait`` on it (``value = yield rank.wait(handle)``) to block until
    the operation finishes; a completed receive resolves to
    ``(source, nbytes)``, a completed send to ``None``.
    """

    __slots__ = ("done", "value", "_waiter")

    def __init__(self) -> None:
        self.done = False
        self.value: object = None
        self._waiter: _Proc | None = None


class Rank:
    """A process's handle: identity plus request constructors."""

    def __init__(self, world: "World", rank: int) -> None:
        self._world = world
        self.id = rank

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self._world.size

    @property
    def core(self) -> int:
        """Global core id this rank is placed on."""
        return self._world.placement[self.id]

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._world.engine.now

    def send(self, dest: int, nbytes: int, tag: int = 0) -> _SendReq:
        """Request: send ``nbytes`` to rank ``dest``."""
        if not (0 <= dest < len(self._world.placement)):
            raise SimulationError(f"send to invalid rank {dest}")
        if dest == self.id:
            raise SimulationError("send to self is not supported")
        if nbytes < 0 or tag < 0:
            raise SimulationError("invalid send arguments")
        return _SendReq(dest, nbytes, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _RecvReq:
        """Request: receive a message; resumes with ``(source, nbytes)``."""
        if source != ANY_SOURCE and not (0 <= source < len(self._world.placement)):
            raise SimulationError(f"recv from invalid rank {source}")
        if source == self.id:
            raise SimulationError("recv from self is not supported")
        return _RecvReq(source, tag)

    def compute(self, seconds: float) -> _ComputeReq:
        """Request: model local computation for ``seconds``."""
        if seconds < 0:
            raise SimulationError("compute time must be >= 0")
        return _ComputeReq(seconds)

    def isend(self, dest: int, nbytes: int, tag: int = 0) -> _IsendReq:
        """Request: nonblocking send; resumes immediately with a
        :class:`Handle` (complete when the buffer is reusable — at
        injection for eager messages, at transfer end for rendezvous)."""
        self.send(dest, nbytes, tag)  # argument validation only
        return _IsendReq(dest, nbytes, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _IrecvReq:
        """Request: nonblocking receive; resumes immediately with a
        :class:`Handle` that resolves to ``(source, nbytes)``."""
        self.recv(source, tag)  # argument validation only
        return _IrecvReq(source, tag)

    def wait(self, handle: Handle) -> _WaitReq:
        """Request: block until ``handle`` completes; resumes with its
        value."""
        if not isinstance(handle, Handle):
            raise SimulationError("wait() needs a Handle from isend/irecv")
        return _WaitReq(handle)

    # Collectives (generator helpers; use with ``yield from``).

    def barrier(self, tag: int = 900_000):
        """Dissemination barrier across all ranks."""
        from .collectives import barrier

        return barrier(self, tag=tag)

    def bcast(self, root: int, nbytes: int, tag: int = 910_000):
        """Binomial-tree broadcast of ``nbytes`` from ``root``."""
        from .collectives import bcast

        return bcast(self, root, nbytes, tag=tag)

    def gather(self, root: int, nbytes: int, tag: int = 920_000):
        """Flat gather of ``nbytes`` from every rank to ``root``."""
        from .collectives import gather

        return gather(self, root, nbytes, tag=tag)

    def allgather(self, nbytes: int, tag: int = 930_000):
        """Ring allgather of ``nbytes`` per rank."""
        from .collectives import allgather

        return allgather(self, nbytes, tag=tag)


class _Proc:
    __slots__ = ("rank", "gen", "finished", "finish_time", "blocked_on", "resume")

    def __init__(self, rank: int, gen: Generator) -> None:
        self.rank = rank
        self.gen = gen
        self.finished = False
        self.finish_time = 0.0
        #: The request the process waits on; ``None`` before its first.
        self.blocked_on: object = None
        #: ``resume(value=None)`` sends ``value`` into the generator;
        #: built once by :meth:`World.add_process`, dropped at finish.
        self.resume: Callable[..., None] | None = None


class _PendingSend:
    __slots__ = ("src", "nbytes", "tag", "eager_arrival", "sender_done")

    def __init__(self, src, nbytes, tag, eager_arrival, sender_done) -> None:
        self.src = src
        self.nbytes = nbytes
        self.tag = tag
        #: Absolute arrival time of an already-in-flight eager payload;
        #: ``None`` for a rendezvous send still waiting for its receiver.
        self.eager_arrival = eager_arrival
        #: Called when the sender's buffer becomes reusable (rendezvous
        #: sends only — eager sends complete before being queued).
        self.sender_done = sender_done


class _PendingRecv:
    __slots__ = ("source", "tag", "receiver_done")

    def __init__(self, source, tag, receiver_done) -> None:
        self.source = source
        self.tag = tag
        #: Called with ``(source, nbytes)`` when the message lands.
        self.receiver_done = receiver_done


class _Wire:
    """Transfers in flight in one layer of a world."""

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active = 0

    def release(self) -> None:
        self.active -= 1


@dataclass
class WorldResult:
    """Outcome of :meth:`World.run`."""

    finish_times: dict[int, float]
    makespan: float
    messages: int
    bytes_sent: int
    per_layer_messages: dict[str, int] = field(default_factory=dict)


class World:
    """A set of ranks placed on cluster cores, plus the event runtime."""

    def __init__(
        self,
        cluster: Cluster,
        config: CommConfig,
        placement: Sequence[int],
    ) -> None:
        if len(set(placement)) != len(placement):
            raise ConfigurationError("placement maps two ranks to one core")
        for core in placement:
            if not (0 <= core < cluster.n_cores):
                raise ConfigurationError(f"placement core {core} out of range")
        self.cluster = cluster
        self.config = config
        self.placement = list(placement)
        self.engine = Engine()
        self._procs: dict[int, _Proc] = {}
        self._pending_sends = [deque() for _ in self.placement]
        self._pending_recvs = [deque() for _ in self.placement]
        #: (src rank, dest rank) -> (layer params, its wire, and the
        #: durations it has priced, keyed by (nbytes, concurrency)).
        self._routes: dict[tuple[int, int], tuple] = {}
        self._wires: dict[str, _Wire] = {}
        self._messages = 0
        self._bytes = 0
        self._per_layer: dict[str, int] = {}

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.placement)

    def add_process(self, fn: ProcessFn, rank: int) -> None:
        """Install the program of ``rank`` (one per rank)."""
        if not (0 <= rank < self.size):
            raise ConfigurationError(f"rank {rank} out of range")
        if rank in self._procs:
            raise ConfigurationError(f"rank {rank} already has a process")
        gen = fn(Rank(self, rank))
        if not isinstance(gen, Generator):
            raise ConfigurationError("process function must be a generator function")
        proc = _Proc(rank, gen)
        proc.resume = partial(self._advance, proc)
        self._procs[rank] = proc

    def spawn_all(self, fn: ProcessFn) -> None:
        """Run the same program on every rank (SPMD)."""
        for rank in range(self.size):
            self.add_process(fn, rank)

    # -- runtime ----------------------------------------------------------

    def run(
        self,
        max_time: float | None = None,
        max_events: int | None = None,
    ) -> WorldResult:
        """Execute until every process finishes; detect deadlock.

        A watchdog bounds the run to ``max_events`` executed callbacks
        (default: :data:`DEFAULT_EVENT_BUDGET_PER_RANK` per rank) so a
        faulty communication model raises
        :class:`~repro.errors.WatchdogError` naming the stuck ranks
        instead of spinning forever.
        """
        if len(self._procs) != self.size:
            raise ConfigurationError(
                f"world has {self.size} ranks but {len(self._procs)} processes"
            )
        if max_events is None:
            max_events = DEFAULT_EVENT_BUDGET_PER_RANK * max(self.size, 1)
        for proc in self._procs.values():
            # Not ``proc.resume``: a finished process has none, and
            # re-running its world must still be refused by _advance.
            self.engine.schedule(0.0, partial(self._advance, proc))
        try:
            self.engine.run(max_time=max_time, max_events=max_events)
        except WatchdogError as exc:
            raise WatchdogError(f"{exc}; {self._stuck_ranks()}") from None
        unfinished = [p.rank for p in self._procs.values() if not p.finished]
        if unfinished and max_time is None:
            raise SimulationError(
                f"deadlock at virtual time {self.engine.now:g}s: "
                f"{self._stuck_ranks()}"
            )
        finish = {p.rank: p.finish_time for p in self._procs.values() if p.finished}
        return WorldResult(
            finish_times=finish,
            makespan=max(finish.values()) if finish else 0.0,
            messages=self._messages,
            bytes_sent=self._bytes,
            per_layer_messages=dict(self._per_layer),
        )

    def _stuck_ranks(self) -> str:
        """Diagnostics naming every unfinished rank and its blocker."""
        unfinished = [p for p in self._procs.values() if not p.finished]
        if not unfinished:
            return "no unfinished ranks"
        return ", ".join(
            f"rank {p.rank} blocked on {p.blocked_on or '??'}" for p in unfinished
        )

    def _advance(self, proc: _Proc, value: object = None) -> None:
        if proc.finished:
            raise SimulationError(f"rank {proc.rank} resumed after finishing")
        try:
            request = proc.gen.send(value)
        except StopIteration:
            proc.finished = True
            proc.finish_time = self.engine.now
            # The callback refers back to this world; dropping it lets a
            # finished world be freed by reference counting instead of
            # waiting for the cycle collector.
            proc.resume = None
            return
        kind = type(request)
        if kind is _SendReq:
            proc.blocked_on = request
            self._post_send(proc.rank, request, proc.resume, True)
        elif kind is _RecvReq:
            proc.blocked_on = request
            self._post_recv(proc.rank, request.source, request.tag, proc.resume)
        elif kind is _ComputeReq:
            proc.blocked_on = request
            self.engine.schedule(request.seconds, proc.resume)
        elif kind is _IsendReq:
            handle = Handle()
            self.engine.schedule(0.0, partial(proc.resume, handle))
            self._post_send(proc.rank, request, partial(self._complete, handle), False)
        elif kind is _IrecvReq:
            handle = Handle()
            self._post_recv(
                proc.rank, request.source, request.tag, partial(self._complete, handle)
            )
            self.engine.schedule(0.0, partial(proc.resume, handle))
        elif kind is _WaitReq:
            handle = request.handle
            if handle.done:
                self.engine.schedule(0.0, partial(proc.resume, handle.value))
            else:
                if handle._waiter is not None:
                    raise SimulationError("two processes waiting on one handle")
                proc.blocked_on = request
                handle._waiter = proc
        else:
            raise SimulationError(
                f"rank {proc.rank} yielded unknown request {request!r}"
            )

    def _complete(self, handle: Handle, value: object = None) -> None:
        """Mark a handle done and release anyone waiting on it."""
        handle.done = True
        handle.value = value
        if handle._waiter is not None:
            waiter, handle._waiter = handle._waiter, None
            self._advance(waiter, value)

    def _new_route(self, src: int, dest: int) -> tuple:
        """Look up the layer serving ``src`` -> ``dest`` (once per world)."""
        params = self.config.params_for_pair(
            self.cluster, self.placement[src], self.placement[dest]
        )
        wire = self._wires.get(params.name)
        if wire is None:
            wire = self._wires[params.name] = _Wire()
        route = self._routes[src, dest] = (params, wire, {})
        return route

    def _post_send(self, src: int, req: _SendReq, sender_done, blocking: bool) -> None:
        """Match a send against the posted receives, else queue it.

        ``sender_done`` runs when the sender's buffer is reusable.  An
        unmatched eager message goes on the wire now; its blocking
        sender resumes in a zero-delay event, a nonblocking one's
        handle completes at once.
        """
        dest, nbytes, tag = req.dest, req.nbytes, req.tag
        queue = self._pending_recvs[dest]
        for i, pending in enumerate(queue):
            if (pending.source == src or pending.source == ANY_SOURCE) and (
                pending.tag == tag or pending.tag == ANY_TAG
            ):
                del queue[i]
                self._start_transfer(
                    src, dest, nbytes, sender_done, pending.receiver_done
                )
                return
        route = self._routes.get((src, dest)) or self._new_route(src, dest)
        if route[0].is_eager(nbytes):
            # Unmatched eager send: the payload goes on the wire now and
            # the sender continues; the receiver will pick it up from
            # the unexpected-message queue whenever it posts its recv.
            arrival = self.engine.now + self._begin_wire_transfer(route, nbytes)
            self._pending_sends[dest].append(
                _PendingSend(src, nbytes, tag, arrival, None)
            )
            if blocking:
                self.engine.schedule(0.0, sender_done)
            else:
                sender_done()  # eager buffer handed off immediately
        else:
            self._pending_sends[dest].append(
                _PendingSend(src, nbytes, tag, None, sender_done)
            )

    def _post_recv(self, rank: int, source: int, tag: int, receiver_done) -> None:
        """Match a receive against the queued sends, else post it."""
        queue = self._pending_sends[rank]
        for i, pending in enumerate(queue):
            if (source == pending.src or source == ANY_SOURCE) and (
                tag == pending.tag or tag == ANY_TAG
            ):
                del queue[i]
                if pending.eager_arrival is not None:
                    # Payload is already in flight (or has landed).
                    delay = max(0.0, pending.eager_arrival - self.engine.now)
                    self.engine.schedule(
                        delay, partial(receiver_done, (pending.src, pending.nbytes))
                    )
                else:
                    self._start_transfer(
                        pending.src,
                        rank,
                        pending.nbytes,
                        pending.sender_done,
                        receiver_done,
                    )
                return
        self._pending_recvs[rank].append(_PendingRecv(source, tag, receiver_done))

    def _begin_wire_transfer(self, route: tuple, nbytes: int) -> float:
        """Account for one message entering the layer; returns duration.

        A route prices each (size, concurrency) once: the layer model is
        a pure function of both.
        """
        params, wire, durations = route
        active = wire.active + 1
        duration = durations.get((nbytes, active))
        if duration is None:
            duration = durations[nbytes, active] = params.latency(nbytes, active)
        wire.active = active
        self._messages += 1
        self._bytes += nbytes
        self._per_layer[params.name] = self._per_layer.get(params.name, 0) + 1
        self.engine.schedule(duration, wire.release)
        return duration

    def _start_transfer(
        self, src: int, dest: int, nbytes: int, sender_done, receiver_done
    ) -> None:
        route = self._routes.get((src, dest)) or self._new_route(src, dest)
        duration = self._begin_wire_transfer(route, nbytes)
        schedule = self.engine.schedule
        # Eager: the sender continues at once and the receiver pays the
        # latency.  Rendezvous: both wait for the whole transfer.
        schedule(0.0 if route[0].is_eager(nbytes) else duration, sender_done)
        schedule(duration, partial(receiver_done, (src, nbytes)))
