"""Benchmark-harness plumbing.

Each bench regenerates one table/figure of the paper and registers its
rendered form through the ``figure`` fixture; everything is printed in
the terminal summary (so ``pytest benchmarks/ --benchmark-only`` shows
the paper-comparable output) and archived under
``benchmarks/results/`` for EXPERIMENTS.md (under ``bench-quick/results/``
in quick mode; see ``bench_paths.py``).
"""

from __future__ import annotations

import re

import pytest

from bench_paths import RESULTS_DIR

_collected: list[tuple[str, str, str]] = []


@pytest.fixture
def figure(request):
    """Call ``figure(title, text)`` to register a rendered figure."""

    def emit(title: str, text: str) -> None:
        _collected.append((request.node.nodeid, title, text))
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        slug = re.sub(r"[^a-zA-Z0-9._-]+", "_", title.lower()).strip("_")
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")

    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _collected:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line("REPRODUCED TABLES AND FIGURES")
    terminalreporter.write_line("=" * 78)
    for nodeid, title, text in _collected:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title}  [{nodeid}] ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
