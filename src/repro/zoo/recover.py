"""Ground-truth recovery: run the suite blind, score every parameter.

The harness runs the full :class:`~repro.core.suite.ServetSuite` against
a :class:`~repro.backends.simulated.SimulatedBackend` built from a zoo
machine (``noise=0`` by default — the generator families are designed so
that a correct detector recovers their observables *exactly*), then
compares the report against the machine's frozen
:class:`~repro.zoo.families.GroundTruth`.

Each parameter gets one of four verdicts:

``match``
    The detector reported the observable value exactly.
``tolerated``
    Within the parameter's declared tolerance (or the parameter is
    marked ``soft`` and the method is known to approximate it).
``undetectable``
    The parameter is declared unobservable by these probes and the
    detector stayed honest: it reported nothing — with an explicit
    provenance reason where the report has a field for the parameter.
``WRONG``
    The detector reported a value that contradicts the truth, or
    claimed to detect something declared undetectable.  Any WRONG fails
    the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..backends.simulated import SimulatedBackend
from ..core.report import ServetReport
from ..core.suite import ServetSuite
from ..fleet.spec import stable_seed
from .families import GeneratedMachine, GroundTruth, ParamTruth

MATCH = "match"
TOLERATED = "tolerated"
UNDETECTABLE = "undetectable"
WRONG = "WRONG"


@dataclass(frozen=True)
class ParamVerdict:
    """Scored outcome for one ground-truth parameter."""

    parameter: str
    verdict: str
    expected: object
    detected: object
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "verdict": self.verdict,
            "expected": self.expected,
            "detected": self.detected,
            "reason": self.reason,
        }


@dataclass
class MachineRecovery:
    """Recovery outcome for one generated machine."""

    family: str
    seed: int
    machine_name: str
    verdicts: list[ParamVerdict]
    wall_seconds: float

    @property
    def wrong(self) -> list[ParamVerdict]:
        return [v for v in self.verdicts if v.verdict == WRONG]

    @property
    def ok(self) -> bool:
        return not self.wrong

    def counts(self) -> dict[str, int]:
        out = {MATCH: 0, TOLERATED: 0, UNDETECTABLE: 0, WRONG: 0}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "machine_name": self.machine_name,
            "wall_seconds": self.wall_seconds,
            "counts": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


@dataclass
class ZooRecoveryReport:
    """Aggregate of a recovery sweep."""

    results: list[MachineRecovery] = field(default_factory=list)

    @property
    def machines(self) -> int:
        return len(self.results)

    @property
    def families(self) -> list[str]:
        return sorted({r.family for r in self.results})

    @property
    def wrong_total(self) -> int:
        return sum(len(r.wrong) for r in self.results)

    @property
    def ok(self) -> bool:
        return self.wrong_total == 0

    def per_family(self) -> dict[str, dict[str, float]]:
        """Per-family verdict counts plus machine count and wall time."""
        out: dict[str, dict[str, float]] = {}
        for r in self.results:
            agg = out.setdefault(
                r.family,
                {
                    "machines": 0,
                    "wall_seconds": 0.0,
                    MATCH: 0,
                    TOLERATED: 0,
                    UNDETECTABLE: 0,
                    WRONG: 0,
                },
            )
            agg["machines"] += 1
            agg["wall_seconds"] += r.wall_seconds
            for verdict, n in r.counts().items():
                agg[verdict] += n
        return out

    def to_dict(self) -> dict:
        return {
            "machines": self.machines,
            "families": self.families,
            "wrong_total": self.wrong_total,
            "per_family": self.per_family(),
            "results": [r.to_dict() for r in self.results],
        }

    def summary(self) -> str:
        lines = [
            f"zoo recovery: {self.machines} machines, "
            f"{len(self.families)} families, {self.wrong_total} WRONG"
        ]
        for family, agg in sorted(self.per_family().items()):
            lines.append(
                f"  {family}: {agg['machines']} machines, "
                f"{agg[MATCH]} match / {agg[TOLERATED]} tolerated / "
                f"{agg[UNDETECTABLE]} undetectable / {agg[WRONG]} WRONG "
                f"({agg['wall_seconds']:.2f}s)"
            )
        for r in self.results:
            for v in r.wrong:
                lines.append(
                    f"  WRONG {r.machine_name} {v.parameter}: "
                    f"expected {v.expected!r}, detected {v.detected!r}"
                )
        return "\n".join(lines)


# -- scoring --------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    if a == b:
        return True
    if rel <= 0.0:
        return False
    scale = max(abs(a), abs(b))
    return scale > 0 and abs(a - b) <= rel * scale


def _numeric_verdict(truth: ParamTruth, detected: float) -> ParamVerdict:
    expected = truth.observable
    if detected == expected:
        return ParamVerdict(truth.parameter, MATCH, expected, detected)
    if _close(float(detected), float(expected), truth.tolerance):
        return ParamVerdict(
            truth.parameter,
            TOLERATED,
            expected,
            detected,
            reason=f"within tolerance {truth.tolerance}",
        )
    if truth.soft:
        return ParamVerdict(
            truth.parameter,
            TOLERATED,
            expected,
            detected,
            reason="soft parameter: method is a declared approximation",
        )
    return ParamVerdict(truth.parameter, WRONG, expected, detected)


def _norm_groups(groups) -> list[list[int]]:
    return sorted(sorted(int(c) for c in g) for g in groups if len(g) > 1)


def _score_cache_level(
    truth: ParamTruth, report: ServetReport, level: int, kind: str
) -> ParamVerdict:
    if level > len(report.caches):
        return ParamVerdict(
            truth.parameter,
            WRONG,
            truth.observable,
            None,
            reason=f"report has only {len(report.caches)} cache levels",
        )
    cache = report.caches[level - 1]
    if kind == "size":
        return _numeric_verdict(truth, cache.size)
    if kind == "sharing":
        detected = _norm_groups(cache.sharing_groups)
        expected = _norm_groups(truth.observable)
        verdict = MATCH if detected == expected else WRONG
        return ParamVerdict(truth.parameter, verdict, expected, detected)
    # kind == "ways": declared undetectable on every zoo level (the
    # sharp virtually-indexed cliffs are read positionally, which
    # carries no associativity estimate).  An emitted number that
    # happens to equal the truth still counts as a match.
    detected = cache.ways
    if detected is None:
        return ParamVerdict(
            truth.parameter,
            UNDETECTABLE,
            None,
            None,
            reason=truth.note,
        )
    if detected == truth.true_value:
        return ParamVerdict(truth.parameter, MATCH, truth.true_value, detected)
    if truth.soft:
        return ParamVerdict(
            truth.parameter,
            TOLERATED,
            truth.true_value,
            detected,
            reason="soft parameter",
        )
    return ParamVerdict(
        truth.parameter,
        WRONG,
        None,
        detected,
        reason="claimed an associativity for an undetectable level",
    )


def _score_memory(truth: ParamTruth, report: ServetReport) -> ParamVerdict:
    expected = truth.observable
    detected = [
        {
            "bandwidth": float(lvl.bandwidth),
            "groups": _norm_groups(lvl.groups),
        }
        for lvl in report.memory_levels
    ]
    detected.sort(key=lambda e: e["bandwidth"])
    exp = [
        {"bandwidth": float(e["bandwidth"]), "groups": _norm_groups(e["groups"])}
        for e in expected
    ]
    exp.sort(key=lambda e: e["bandwidth"])
    if len(detected) != len(exp):
        return ParamVerdict(
            truth.parameter,
            WRONG,
            exp,
            detected,
            reason=f"expected {len(exp)} memory levels, detected {len(detected)}",
        )
    exact = True
    for d, e in zip(detected, exp):
        if d["groups"] != e["groups"]:
            return ParamVerdict(
                truth.parameter, WRONG, exp, detected, reason="group mismatch"
            )
        if d["bandwidth"] != e["bandwidth"]:
            exact = False
            if not _close(d["bandwidth"], e["bandwidth"], truth.tolerance):
                return ParamVerdict(
                    truth.parameter,
                    WRONG,
                    exp,
                    detected,
                    reason="bandwidth outside tolerance",
                )
    verdict = MATCH if exact else TOLERATED
    return ParamVerdict(truth.parameter, verdict, exp, detected)


def _score_comm(truth: ParamTruth, report: ServetReport) -> ParamVerdict:
    expected = truth.observable
    detected = [
        {
            "pairs": sorted([sorted(int(c) for c in p) for p in layer.pairs]),
            "latency": float(layer.latency),
        }
        for layer in report.comm_layers
    ]
    detected.sort(key=lambda e: (e["latency"], e["pairs"]))
    exp = [
        {
            "pairs": sorted([sorted(int(c) for c in p) for p in e["pairs"]]),
            "latency": float(e["latency"]),
        }
        for e in expected
    ]
    exp.sort(key=lambda e: (e["latency"], e["pairs"]))
    if len(detected) != len(exp):
        return ParamVerdict(
            truth.parameter,
            WRONG,
            exp,
            detected,
            reason=f"expected {len(exp)} comm layers, detected {len(detected)}",
        )
    exact = True
    for d, e in zip(detected, exp):
        if d["pairs"] != e["pairs"]:
            return ParamVerdict(
                truth.parameter, WRONG, exp, detected, reason="pair partition mismatch"
            )
        if d["latency"] != e["latency"]:
            exact = False
            if not _close(d["latency"], e["latency"], truth.tolerance):
                return ParamVerdict(
                    truth.parameter,
                    WRONG,
                    exp,
                    detected,
                    reason="layer latency outside tolerance",
                )
    verdict = MATCH if exact else TOLERATED
    return ParamVerdict(truth.parameter, verdict, exp, detected)


def _score_tlb(truth: ParamTruth, report: ServetReport) -> ParamVerdict:
    detected = report.tlb_entries
    if truth.observable is None:
        if detected is not None:
            return ParamVerdict(
                truth.parameter,
                WRONG,
                None,
                detected,
                reason="claimed TLB entries on a machine without a bounded TLB",
            )
        record = report.provenance.get("tlb.entries")
        method = record.get("method") if isinstance(record, dict) else None
        if method != "undetectable":
            return ParamVerdict(
                truth.parameter,
                WRONG,
                None,
                detected,
                reason=(
                    "give-up not recorded: expected an 'undetectable' "
                    "provenance entry explaining why no TLB was found"
                ),
            )
        return ParamVerdict(
            truth.parameter,
            UNDETECTABLE,
            None,
            None,
            reason=str(record.get("note", "")),
        )
    return _numeric_verdict(truth, detected)


def score_report(report: ServetReport, truth: GroundTruth) -> list[ParamVerdict]:
    """Compare a suite report against a machine's ground truth."""
    verdicts: list[ParamVerdict] = []
    for param in truth.params:
        name = param.parameter
        if name == "cache.levels":
            verdicts.append(_numeric_verdict(param, len(report.caches)))
        elif name.startswith("cache.L"):
            level = int(name.split(".")[1][1:])
            kind = name.split(".")[2]
            verdicts.append(_score_cache_level(param, report, level, kind))
        elif name == "memory.levels":
            verdicts.append(_score_memory(param, report))
        elif name == "comm.layers":
            verdicts.append(_score_comm(param, report))
        elif name == "tlb.entries":
            verdicts.append(_score_tlb(param, report))
        elif param.observable is None:
            # Parameters outside the suite's detection surface (victim
            # entries, sector tags, NIC rails...): the report has no
            # field that could even state them, so honesty is structural
            # and the family's note records why.
            verdicts.append(
                ParamVerdict(name, UNDETECTABLE, None, None, reason=param.note)
            )
        else:
            verdicts.append(
                ParamVerdict(
                    name,
                    WRONG,
                    param.observable,
                    None,
                    reason="ground truth names a parameter the harness cannot score",
                )
            )
    return verdicts


def recover_machine(gm: GeneratedMachine, noise: float = 0.0) -> MachineRecovery:
    """Run the blind suite on one zoo machine and score the report.

    The backend seed derives from the machine's family and seed, so a
    recovery is reproducible.
    """
    backend = SimulatedBackend(
        gm.cluster,
        comm_config=gm.comm,
        noise=noise,
        seed=stable_seed("zoo.recover", gm.family, gm.seed),
    )
    suite = ServetSuite(backend)
    start = time.perf_counter()
    report = suite.run()
    wall = time.perf_counter() - start
    return MachineRecovery(
        family=gm.family,
        seed=gm.seed,
        machine_name=gm.truth.machine_name,
        verdicts=score_report(report, gm.truth),
        wall_seconds=wall,
    )


def recover_all(
    machines: list[GeneratedMachine], noise: float = 0.0
) -> ZooRecoveryReport:
    """Recover every machine, in order."""
    out = ZooRecoveryReport()
    for gm in machines:
        out.results.append(recover_machine(gm, noise=noise))
    return out
