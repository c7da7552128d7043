"""Fleet descriptions: hardware classes, machines, and generators.

A *fleet* is the population a site installs Servet on: hundreds of
machines, but typically only a handful of distinct hardware
generations.  The spec separates the two explicitly — a
:class:`HardwareClass` is one purchasable configuration (cores, cache
hierarchy, clock, memory), a :class:`MachineSpec` is one named box of
that class, and a :class:`FleetSpec` is the full inventory.  The
coordinator exploits the separation: identical hardware yields an
identical Servet report (at noise=0), so one representative per class
is measured and the result broadcast to the rest of the class.

:func:`generate_fleet` draws heterogeneous-but-plausible fleets from
quantized parameter palettes with a seeded RNG, so benchmarks and the
200-machine acceptance drill are reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import FleetError
from ..ioutils import atomic_write_text, canonical_json, sha256_hex
from ..service.fingerprint import normalize_options
from ..topology.builders import generic_smp
from ..topology.machine import Machine
from ..units import KiB, MiB

__all__ = [
    "FleetSpec",
    "HardwareClass",
    "MachineSpec",
    "generate_fleet",
    "stable_seed",
]


def stable_seed(*parts) -> int:
    """A deterministic 64-bit seed from arbitrary string-able parts.

    Process-stable (unlike ``hash``), so a retried or speculated job
    re-derives exactly the RNG stream of its first attempt.
    """
    return int(sha256_hex("|".join(str(p) for p in parts))[:16], 16)


@dataclass(frozen=True)
class HardwareClass:
    """One hardware configuration, shared by every machine of the class.

    ``levels`` follows the :func:`repro.topology.builders.generic_smp`
    convention: ``(size_bytes, ways, shared_by, latency_cycles)`` per
    cache level, L1 first.
    """

    name: str
    n_cores: int
    levels: tuple[tuple[int, int, int, float], ...]
    clock_hz: float
    mem_latency: float
    core_stream_bw: float

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise FleetError(f"hardware class {self.name!r} needs >= 1 core")
        if not self.levels:
            raise FleetError(f"hardware class {self.name!r} needs >= 1 cache level")

    def build(self) -> Machine:
        """The topology model every member of this class shares."""
        return generic_smp(
            name=self.name,
            n_cores=self.n_cores,
            levels=self.levels,
            clock_hz=self.clock_hz,
            mem_latency=self.mem_latency,
            core_stream_bw=self.core_stream_bw,
        )

    def key(self) -> str:
        """Digest of the hardware parameters (the dedup key).

        Deliberately excludes :attr:`name`: two classes with the same
        silicon are the same class whatever they are called.
        """
        data = self.to_dict()
        data.pop("name")
        return sha256_hex(canonical_json(data))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_cores": self.n_cores,
            "levels": [list(level) for level in self.levels],
            "clock_hz": self.clock_hz,
            "mem_latency": self.mem_latency,
            "core_stream_bw": self.core_stream_bw,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareClass":
        try:
            return cls(
                name=str(data["name"]),
                n_cores=int(data["n_cores"]),
                levels=tuple(
                    (int(s), int(w), int(sh), float(lat))
                    for s, w, sh, lat in data["levels"]
                ),
                clock_hz=float(data["clock_hz"]),
                mem_latency=float(data["mem_latency"]),
                core_stream_bw=float(data["core_stream_bw"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed hardware class: {exc}") from exc


@dataclass(frozen=True)
class MachineSpec:
    """One named machine of the fleet."""

    machine_id: str
    hardware: HardwareClass

    def to_dict(self) -> dict:
        return {"machine_id": self.machine_id, "hardware": self.hardware.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        try:
            return cls(
                machine_id=str(data["machine_id"]),
                hardware=HardwareClass.from_dict(data["hardware"]),
            )
        except (KeyError, TypeError) as exc:
            raise FleetError(f"malformed machine spec: {exc}") from exc


@dataclass(frozen=True)
class FleetSpec:
    """The inventory one survey characterizes.

    ``seed`` feeds every derived RNG stream (per-machine backend seeds,
    worker fault draws) through :func:`stable_seed`; ``noise`` and
    ``options`` are survey-wide so every class is measured under the
    same conditions and reports stay comparable.
    """

    name: str
    machines: tuple[MachineSpec, ...]
    seed: int = 0
    noise: float = 0.0
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.machines:
            raise FleetError(f"fleet {self.name!r} has no machines")
        ids = [m.machine_id for m in self.machines]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FleetError(
                f"fleet {self.name!r} has duplicate machine id(s): "
                + ", ".join(dupes)
            )
        if self.noise < 0:
            raise FleetError("fleet noise must be >= 0")
        # Normalize (and validate) suite options exactly once, here, so
        # every job payload and fingerprint sees the same dict.
        object.__setattr__(self, "options", normalize_options(self.options))

    def machine(self, machine_id: str) -> MachineSpec:
        for machine in self.machines:
            if machine.machine_id == machine_id:
                return machine
        raise FleetError(f"fleet {self.name!r} has no machine {machine_id!r}")

    def classes(self) -> dict[str, list[MachineSpec]]:
        """Members grouped by hardware-class key, ids sorted.

        Iteration order is sorted by key, so every traversal of the
        fleet (job queue construction, report assembly) is
        deterministic.
        """
        grouped: dict[str, list[MachineSpec]] = {}
        for machine in self.machines:
            grouped.setdefault(machine.hardware.key(), []).append(machine)
        return {
            key: sorted(grouped[key], key=lambda m: m.machine_id)
            for key in sorted(grouped)
        }

    def fingerprint(self) -> str:
        """Digest identifying this exact fleet + survey configuration.

        Fleet checkpoints embed it, so a checkpoint can never be
        resumed against a different fleet.
        """
        return sha256_hex(canonical_json(self.to_dict()))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "machines": [m.to_dict() for m in self.machines],
            "seed": self.seed,
            "noise": self.noise,
            "options": self.options,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        try:
            return cls(
                name=str(data["name"]),
                machines=tuple(
                    MachineSpec.from_dict(m) for m in data["machines"]
                ),
                seed=int(data["seed"]),
                noise=float(data["noise"]),
                options=dict(data.get("options", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed fleet spec: {exc}") from exc

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "FleetSpec":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetError(f"cannot load fleet spec {path}: {exc}") from exc
        return cls.from_dict(data)


# -- fleet generation ------------------------------------------------------

#: Quantized parameter palettes.  Drawing from small discrete sets (a)
#: mirrors reality — machines come in SKUs, not from a continuum — and
#: (b) keeps every generated topology inside the regime the simulated
#: backend detects reliably.
_CORE_COUNTS = (2, 4)
_L1_SIZES = (16 * KiB, 32 * KiB, 64 * KiB)
_L1_WAYS = (4, 8)
_L1_LATENCIES = (2.0, 3.0, 4.0)
_L2_SIZES = (256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB)
_L2_WAYS = (8, 16)
_L2_LATENCIES = (12.0, 15.0, 20.0)
_MEM_LATENCIES = (180.0, 220.0, 250.0, 300.0)
_CLOCKS_HZ = (1.8e9, 2.0e9, 2.4e9, 2.8e9)
_STREAM_BWS = (2.0e9, 3.0e9, 4.0e9)


def _draw_class(rng: random.Random) -> HardwareClass:
    n_cores = rng.choice(_CORE_COUNTS)
    l2_shared_by = rng.choice([d for d in (2, 4) if n_cores % d == 0 and d <= n_cores])
    params = HardwareClass(
        name="pending",
        n_cores=n_cores,
        levels=(
            (rng.choice(_L1_SIZES), rng.choice(_L1_WAYS), 1, rng.choice(_L1_LATENCIES)),
            (
                rng.choice(_L2_SIZES),
                rng.choice(_L2_WAYS),
                l2_shared_by,
                rng.choice(_L2_LATENCIES),
            ),
        ),
        clock_hz=rng.choice(_CLOCKS_HZ),
        mem_latency=rng.choice(_MEM_LATENCIES),
        core_stream_bw=rng.choice(_STREAM_BWS),
    )
    # Re-create with the digest-derived name so equal silicon always
    # gets an equal (and human-recognizable) class name.
    return HardwareClass(
        name=f"hw-{params.key()[:8]}",
        n_cores=params.n_cores,
        levels=params.levels,
        clock_hz=params.clock_hz,
        mem_latency=params.mem_latency,
        core_stream_bw=params.core_stream_bw,
    )


def generate_fleet(
    n_machines: int,
    n_classes: int,
    seed: int = 0,
    name: str = "fleet",
    noise: float = 0.0,
) -> FleetSpec:
    """A reproducible heterogeneous fleet for surveys and benchmarks.

    Draws ``n_classes`` *distinct* hardware classes from the quantized
    palettes and deals machines onto them round-robin, so every class
    has at least one member and the dedup ratio is exactly
    ``n_machines / n_classes``.  TLB probing is off — fleet surveys
    optimize for breadth over per-machine depth.
    """
    if n_machines < 1:
        raise FleetError("a fleet needs >= 1 machine")
    if not 1 <= n_classes <= n_machines:
        raise FleetError(
            f"need 1 <= n_classes <= n_machines, got {n_classes} classes "
            f"for {n_machines} machines"
        )
    rng = random.Random(stable_seed(seed, "generate_fleet", name))
    classes: list[HardwareClass] = []
    seen: set[str] = set()
    attempts = 0
    while len(classes) < n_classes:
        attempts += 1
        if attempts > 1000 * n_classes:
            raise FleetError(
                f"could not draw {n_classes} distinct hardware classes "
                f"from the parameter palettes"
            )
        candidate = _draw_class(rng)
        if candidate.key() in seen:
            continue
        seen.add(candidate.key())
        classes.append(candidate)
    width = max(4, len(str(n_machines - 1)))
    machines = tuple(
        MachineSpec(machine_id=f"m{i:0{width}d}", hardware=classes[i % n_classes])
        for i in range(n_machines)
    )
    return FleetSpec(
        name=name,
        machines=machines,
        seed=seed,
        noise=noise,
        options={"probe_tlb": False},
    )
