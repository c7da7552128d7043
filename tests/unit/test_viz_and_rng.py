"""Unit tests for the ASCII renderers and RNG helpers."""

import numpy as np

from repro.rng import DEFAULT_SEED, ensure_rng, spawn
from repro.viz import ascii_chart, ascii_table


class TestAsciiTable:
    def test_alignment_and_header(self):
        text = ascii_table(["name", "value"], [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "long-name" in lines[3]

    def test_title(self):
        text = ascii_table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_extra_columns_tolerated(self):
        text = ascii_table(["a"], [("x", "surprise")])
        assert "surprise" in text


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        xs = [1, 2, 4, 8]
        text = ascii_chart(xs, {"cycles": [1, 2, 3, 4]}, width=20, height=5)
        assert "*" in text
        assert "*=cycles" in text

    def test_log_axes(self):
        xs = [1024, 2048, 1 << 20]
        text = ascii_chart(
            xs, {"a": [1.0, 10.0, 100.0]}, logx=True, logy=True, width=20, height=5
        )
        assert "(no data)" not in text

    def test_handles_empty(self):
        assert ascii_chart([], {"a": []}) == "(no data)"

    def test_two_series_distinct_markers(self):
        xs = [1, 2, 3]
        text = ascii_chart(xs, {"a": [1, 2, 3], "b": [3, 2, 1]}, width=10, height=4)
        assert "*=a" in text and "o=b" in text

    def test_none_values_skipped(self):
        text = ascii_chart([1, 2], {"a": [None, 2.0]}, width=10, height=4)
        assert "(no data)" not in text


class TestRng:
    def test_none_uses_default_seed(self):
        a = ensure_rng(None)
        b = np.random.default_rng(DEFAULT_SEED)
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_int_seed(self):
        assert ensure_rng(7).integers(0, 100) == ensure_rng(7).integers(0, 100)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_spawn_independent_streams(self):
        children = spawn(ensure_rng(3), 4)
        draws = [c.integers(0, 1 << 30) for c in children]
        assert len(set(draws)) == 4

    def test_spawn_deterministic(self):
        a = [g.integers(0, 1 << 30) for g in spawn(ensure_rng(3), 3)]
        b = [g.integers(0, 1 << 30) for g in spawn(ensure_rng(3), 3)]
        assert a == b
