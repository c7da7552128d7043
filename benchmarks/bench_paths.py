"""Where the benches write their results.

A full run rewrites the tracked baselines: the ``BENCH_*.json`` files
at the repository root and the rendered figures in
``benchmarks/results/``.  A quick run (``REPRO_BENCH_QUICK=1``, as in
CI) writes the same files under the gitignored ``bench-quick/``
directory instead, so it never replaces a full-mode baseline with
quick-mode numbers or host-dependent timings.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Root of every file a quick run writes.
QUICK_DIR = ROOT / "bench-quick"

#: Rendered figures (``figure`` fixture of ``conftest.py``).
RESULTS_DIR = QUICK_DIR / "results" if QUICK else ROOT / "benchmarks" / "results"


def bench_path(name: str) -> Path:
    """Where the results file ``name`` (``BENCH_<bench>.json``) goes."""
    directory = QUICK_DIR if QUICK else ROOT
    directory.mkdir(exist_ok=True)
    return directory / name
