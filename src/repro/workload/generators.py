"""Canonical synthetic workloads with seeded, cacheable profiles.

Four archetypes cover the locality spectrum the co-scheduling advisor
cares about:

- ``streaming`` — a cyclic sequential sweep: every reuse needs the whole
  footprint resident (worst cache citizen, immune to nothing).
- ``blocked`` — a tiled sweep (each block revisited ``repeats`` times
  before moving on): short distances dominate, the classic cache-friendly
  transform Servet's tiling advice produces.
- ``zipf`` — a pointer-chase over Zipf-popular lines: a hot head with a
  heavy tail, the shape of key-value and graph workloads.
- ``stencil`` — a halo sweep (each step touches ``2*halo + 1``
  neighbouring lines): tight short-range reuse plus a full-footprint
  distance once per sweep.

A workload is named by a canonical spec string
(``"zipf:accesses=16384,lines=4096,s=1.2"``); parsing is strict, the
canonical form is what profiles, service answers, and golden tests key
on.  The access stream is a pure function of ``(spec, seed)`` — the RNG
is derived from a SHA-256 of both, never from global state — so every
profile is reproducible bit-for-bit anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from ..errors import WorkloadError
from ..ioutils import sha256_hex
from ..lru import LRUCache
from .profile import ReuseProfile
from .recorder import ReuseDistanceRecorder


@dataclass(frozen=True)
class Workload:
    """One synthetic workload: a canonical spec and its stream builder."""

    spec: str
    generator: str
    params: tuple[tuple[str, int | float], ...]
    _build: Callable[[dict, np.random.Generator], np.ndarray]

    def lines(self, seed: int = 0) -> np.ndarray:
        """The line-id access stream for this workload under ``seed``."""
        return self._build(dict(self.params), _workload_rng(self.spec, seed))


def _workload_rng(spec: str, seed: int) -> np.random.Generator:
    """Deterministic RNG derived from (spec, seed) — platform-stable."""
    digest = int(sha256_hex(f"repro.workload|{spec}|{seed}")[:16], 16)
    return np.random.default_rng(digest)


# -- stream builders ---------------------------------------------------------


def _streaming(params: dict, rng: np.random.Generator) -> np.ndarray:
    lines, rounds = params["lines"], params["rounds"]
    return np.tile(np.arange(lines, dtype=np.int64), rounds)


def _blocked(params: dict, rng: np.random.Generator) -> np.ndarray:
    lines, block, repeats = params["lines"], params["block"], params["repeats"]
    chunks = [
        np.tile(np.arange(lo, min(lo + block, lines), dtype=np.int64), repeats)
        for lo in range(0, lines, block)
    ]
    return np.concatenate(chunks * params["rounds"])


def _zipf(params: dict, rng: np.random.Generator) -> np.ndarray:
    lines, accesses, s = params["lines"], params["accesses"], params["s"]
    weights = 1.0 / np.arange(1, lines + 1, dtype=np.float64) ** s
    ranks = rng.choice(lines, size=accesses, p=weights / weights.sum())
    # Popularity is assigned to *scattered* lines, not a contiguous
    # prefix, so set-index spreading assumptions hold.
    return rng.permutation(lines)[ranks].astype(np.int64)


def _stencil(params: dict, rng: np.random.Generator) -> np.ndarray:
    lines, halo, sweeps = params["lines"], params["halo"], params["sweeps"]
    centers = np.arange(lines, dtype=np.int64)
    offsets = np.arange(-halo, halo + 1, dtype=np.int64)
    sweep = np.clip(
        (centers[:, None] + offsets[None, :]).reshape(-1), 0, lines - 1
    )
    return np.tile(sweep, sweeps)


#: generator name -> (default params, stream builder).  Parameter order
#: here is the canonical spec order.
GENERATORS: dict[str, tuple[dict, Callable]] = {
    "streaming": ({"lines": 4096, "rounds": 4}, _streaming),
    "blocked": (
        {"lines": 4096, "block": 256, "repeats": 4, "rounds": 1},
        _blocked,
    ),
    "zipf": ({"accesses": 16384, "lines": 4096, "s": 1.2}, _zipf),
    "stencil": ({"lines": 2048, "halo": 1, "sweeps": 3}, _stencil),
}

_FLOAT_PARAMS = {"s"}


def generator_names() -> list[str]:
    """The available workload generator names."""
    return sorted(GENERATORS)


def parse_workload(spec: str) -> Workload:
    """Parse ``name`` or ``name:key=value,...`` into a :class:`Workload`.

    Unknown generators, unknown keys, and non-numeric / non-positive
    values are rejected with the offending token in the message.  The
    returned workload carries the *canonical* spec (every parameter,
    fixed order), so two spellings of the same workload profile and
    cache identically.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    entry = GENERATORS.get(name)
    if entry is None:
        raise WorkloadError(
            f"unknown workload generator {name!r} "
            f"(expected one of {', '.join(generator_names())})"
        )
    defaults, build = entry
    params = dict(defaults)
    if rest.strip():
        for token in rest.split(","):
            key, sep, value = token.partition("=")
            key = key.strip()
            if not sep or key not in params:
                raise WorkloadError(
                    f"workload {name!r} does not take {token.strip()!r} "
                    f"(parameters: {', '.join(defaults)})"
                )
            try:
                parsed = float(value) if key in _FLOAT_PARAMS else int(value)
            except ValueError as exc:
                raise WorkloadError(
                    f"workload parameter {key}={value.strip()!r} is not numeric"
                ) from exc
            if parsed <= 0:
                raise WorkloadError(
                    f"workload parameter {key} must be positive, got {parsed}"
                )
            params[key] = parsed
    canonical = name + ":" + ",".join(f"{k}={params[k]}" for k in defaults)
    return Workload(
        spec=canonical,
        generator=name,
        params=tuple((k, params[k]) for k in defaults),
        _build=build,
    )


# -- profiling ---------------------------------------------------------------

#: Memoized profiles, keyed by ``(canonical spec, seed)``.
PROFILE_CACHE = LRUCache(256)


def profile_workload(workload: Workload | str, seed: int = 0) -> ReuseProfile:
    """Profile one workload's reuse-distance histogram (memoized).

    Profiles are immutable pure functions of ``(canonical spec, seed)``,
    so repeats are served from a process-wide cache — a service answering
    many ``co_schedule`` queries over the same workload mix profiles each
    one exactly once.  ``PROFILE_CACHE.stats()`` counts the requests
    (``hits + misses``) and the memo hits.
    """
    if isinstance(workload, str):
        workload = parse_workload(workload)
    key = (workload.spec, int(seed))
    cached = PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    recorder = ReuseDistanceRecorder()
    recorder.observe(workload.lines(seed))
    profile = ReuseProfile.from_recorder(recorder, workload.spec, int(seed))
    PROFILE_CACHE.put(key, profile)
    return profile
