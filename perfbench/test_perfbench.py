"""Tests for the benchmark's own parts: the span recorder, the summary
statistics, the metric names, and ``BENCHMARK.json``.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from perfbench.catalog import (
    ANALYSES,
    END_TO_END,
    PER_LAYER,
    check_emitted,
    invalid_names,
)
from perfbench.spans import SpanRecorder, covered, percentile, tail_percentile
from perfbench.workloads import WORKLOADS, is_empty

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TestSelfTime:
    def test_overlapping_children_are_counted_once(self):
        rec = SpanRecorder()
        parent = rec.add("parent", 0.0, 10.0)
        for start, end in ((1.0, 4.0), (3.0, 6.0), (8.0, 9.0)):
            rec.add("child", start, end, parent=parent.index)
        assert rec.self_time(parent) == pytest.approx(10.0 - 6.0)

    def test_children_are_clipped_to_the_parent(self):
        rec = SpanRecorder()
        parent = rec.add("parent", 2.0, 6.0)
        rec.add("child", 0.0, 3.0, parent=parent.index)
        rec.add("child", 5.0, 9.0, parent=parent.index)
        assert rec.self_time(parent) == pytest.approx(2.0)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        rec = SpanRecorder()
        top = rec.add("top", 0.0, 10.0)
        mid = rec.add("mid", 1.0, 5.0, parent=top.index)
        rec.add("leaf", 2.0, 4.0, parent=mid.index)
        assert rec.self_time(top) == pytest.approx(6.0)
        assert rec.self_time(mid) == pytest.approx(2.0)

    def test_nested_context_managers(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                time.sleep(0.02)
        outer, inner = rec.spans
        assert inner.parent == outer.index
        assert rec.self_time(outer) == pytest.approx(
            outer.duration - inner.duration)
        assert rec.self_times("inner") == [inner.duration]

    def test_covered_union(self):
        assert covered([], 0.0, 1.0) == 0.0
        assert covered([(0.0, 2.0), (0.5, 1.0)], 0.0, 2.0) == 2.0
        assert covered([(3.0, 4.0), (0.0, 1.0)], 0.0, 5.0) == 2.0


class TestPercentiles:
    @pytest.mark.parametrize("n, expected", [
        (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
        (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([5.0], 99) == 5.0


class TestMetricNames:
    def test_catalog_names_are_valid(self):
        assert invalid_names(END_TO_END + PER_LAYER) == []

    @pytest.mark.parametrize("entry", [
        ("_leading", "s", "lower"), ("has space", "s", "lower"),
        ("x" * 65, "s", "lower"), ("ok", "bad unit", "lower"),
        ("ok", "u" * 17, "lower"), ("ok", "s", "sideways")])
    def test_invalid_names_are_caught(self, entry):
        assert invalid_names([entry]) == [entry]

    def test_duplicates_are_caught(self):
        entry = ("op_s", "s", "lower")
        assert invalid_names([entry, entry]) == [entry]

    def test_every_analysis_has_a_per_layer_timing(self):
        names = {name for name, _, _ in PER_LAYER}
        assert len(ANALYSES) == 16
        assert {f"core.analysis.{a}_s" for a in ANALYSES} <= names

    def test_check_emitted_refuses_missing_and_extra(self):
        values = {name: 1.0 for name, _, _ in END_TO_END}
        assert set(check_emitted(values, trace=False)) == set(values)
        with pytest.raises(RuntimeError):
            check_emitted({**values, "extra_s": 1.0}, trace=False)
        values.pop("op_s")
        with pytest.raises(RuntimeError):
            check_emitted(values, trace=False)


class TestBenchmarkJson:
    def test_lists_exactly_the_printed_metrics(self):
        for key, catalog in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in BENCHMARK[key]]
            assert declared == list(catalog)

    def test_keys_and_bounds(self):
        assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"}
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())
        assert all(set(m) == {"name", "unit", "better", "bound"}
                   for m in BENCHMARK["end_to_end"])
        assert all(set(m) == {"name", "unit", "better"}
                   for m in BENCHMARK["per_layer"])

    def test_workloads_match_the_runner(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] \
            == list(WORKLOADS)
        assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
                   for w in BENCHMARK["workloads"])

    def test_command_stays_inside_paths(self):
        assert BENCHMARK["command"][0] == "python3"
        assert BENCHMARK["command"][1].startswith(BENCHMARK["paths"][0] + "/")
        assert 1 <= BENCHMARK["run_seconds"] <= 60


@dataclass
class _Records:
    records: list = field(default_factory=list)
    label: str = ""


class TestIsEmpty:
    @pytest.mark.parametrize("value", [
        None, [], {}, np.array([]), _Records(), {1: [], 2: np.array([])},
        ([], np.zeros(0))])
    def test_empty(self, value):
        assert is_empty(value)

    @pytest.mark.parametrize("value", [
        0.0, 3, [1], {4: 0.0}, np.zeros(3), _Records(records=[1]),
        _Records(label="x"), (np.zeros(0), np.ones(2))])
    def test_not_empty(self, value):
        assert not is_empty(value)
