"""Tests of the benchmark's own helpers: percentiles, self time, oracle, schedule."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.loadgen import PacedClock, make_schedule
from perfbench.measure import percentile, quartile_spread, summarize, supported_percentile
from perfbench.oracle import above_theta_mismatches, top_k_mismatches
from perfbench.spans import (
    Leaf, Span, Tracer, covered_seconds, instrument, self_seconds, unattributed,
)
from repro.core.results import AboveThetaResult, TopKResult


@pytest.mark.parametrize("count, expected", [
    (2000, 99.0), (1000, 99.0), (999, 98.0), (500, 98.0), (100, 90.0), (20, 50.0), (3, 50.0),
])
def test_supported_percentile_leaves_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected
    if expected > 50.0:
        assert count * (100 - expected) / 100 >= 10


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))
    summary = summarize(values)
    assert summary == {"p50": 50.5, "tail_pct": 90.0, "tail": percentile(values, 90.0), "n": 100}
    assert percentile(values, 90.0) == pytest.approx(np.percentile(values, 90.0))


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


def test_covered_seconds_unions_overlaps_and_clips():
    assert covered_seconds([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7.0)
    assert covered_seconds([], 0, 10) == 0.0


def test_self_seconds_subtracts_child_spans_and_leaves():
    spans = [
        Span(1, None, "engine.facade", 1, start=0.0, end=10.0),
        Span(2, 1, "core.lemp.call", 1, start=1.0, end=6.0),
        Span(3, 1, "engine.planner", 1, start=0.5, end=1.5),
        Span(4, 2, "core.solver", 1, start=2.0, end=5.0),
    ]
    leaves = {(4, "core.kernels"): Leaf(calls=3, seconds=1.0, items=30),
              (4, "core.retrievers"): Leaf(calls=3, seconds=0.5, items=9)}
    own = self_seconds(spans, leaves)
    assert own[1] == pytest.approx(10.0 - 5.5)   # planner and call overlap by 0.5
    assert own[2] == pytest.approx(5.0 - 3.0)
    assert own[4] == pytest.approx(3.0 - 1.5)
    assert unattributed(spans, leaves, {"engine.facade"}) == pytest.approx((4.5, 10.0))


def test_tracer_nests_spans_and_shares_request_ids():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("second"):
        pass
    inner, outer, second = tracer.spans
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert inner.request_id == outer.request_id != second.request_id


def _above(query_ids, probe_ids, scores, theta=1.0):
    return AboveThetaResult(np.array(query_ids), np.array(probe_ids), np.array(scores), theta)


def test_above_theta_oracle_allows_only_threshold_ties_on_one_side():
    reference = _above([0, 0, 1], [3, 4, 5], [2.0, 1.0, 3.0])
    assert above_theta_mismatches(_above([1, 0, 0], [5, 4, 3], [3.0, 1.0, 2.0]), reference) == 0
    # (0, 4) scores exactly theta: either side may drop it.
    assert above_theta_mismatches(_above([0, 1], [3, 5], [2.0, 3.0]), reference) == 0
    assert above_theta_mismatches(_above([0, 0], [3, 4], [2.0, 1.0]), reference) == 1
    assert above_theta_mismatches(_above([0, 0, 1], [3, 4, 5], [2.0, 1.0, 3.1]), reference) == 1


def test_top_k_oracle_accepts_either_probe_tied_at_the_kth_score():
    queries = np.array([[1.0, 0.0]])
    probes = np.array([[3.0, 0.0], [2.0, 1.0], [2.0, -1.0], [1.0, 0.0]])
    reference = TopKResult(np.array([[0, 1]]), np.array([[3.0, 2.0]]), 2)
    tied = TopKResult(np.array([[0, 2]]), np.array([[3.0, 2.0]]), 2)
    wrong = TopKResult(np.array([[0, 3]]), np.array([[3.0, 2.0]]), 2)
    duplicate = TopKResult(np.array([[0, 0]]), np.array([[3.0, 2.0]]), 2)
    assert top_k_mismatches(tied, reference, queries, probes) == 0
    assert top_k_mismatches(wrong, reference, queries, probes) == 1
    assert top_k_mismatches(duplicate, reference, queries, probes) == 1
    shifted = TopKResult(np.array([[0, 1]]), np.array([[3.0, 1.5]]), 2)
    assert top_k_mismatches(shifted, reference, queries, probes) == 1


def test_schedule_is_a_function_of_the_seed():
    first = make_schedule(7, rate=50.0, seconds=4.0, num_classes=3, pool_size=100)
    again = make_schedule(7, rate=50.0, seconds=4.0, num_classes=3, pool_size=100)
    other = make_schedule(8, rate=50.0, seconds=4.0, num_classes=3, pool_size=100)
    for name in ("due", "classes", "rows", "mutations"):
        assert np.array_equal(getattr(first, name), getattr(again, name))
    assert not np.array_equal(first.due, other.due)
    assert first.due.size == 200
    assert np.all(np.diff(first.due) >= 0) and 0.0 <= first.due[0] and first.due[-1] < 4.0
    assert np.allclose(first.mutations, [0.5, 1.5, 2.5, 3.5])


def test_paced_clock_stretches_schedule_seconds_from_each_pace_change():
    clock = PacedClock(slowdown=2.0)
    clock.begin(100.0)
    assert clock.real(1.5) == pytest.approx(103.0)
    clock.pace(1.0, now=104.0)
    assert clock.virtual(104.0) == pytest.approx(2.0)
    assert clock.real(3.0) == pytest.approx(105.0)
    assert clock.virtual(106.0) == pytest.approx(4.0)


def test_instrument_records_layers_and_restores_entry_points():
    from repro import RetrievalEngine
    from repro.engine.facade import RetrievalEngine as Facade

    original = Facade.__dict__["row_top_k"]
    rng = np.random.default_rng(0)
    probes, queries = rng.standard_normal((300, 8)), rng.standard_normal((20, 8))
    tracer, waits = Tracer(), []
    with instrument(tracer, waits):
        engine = RetrievalEngine("lemp:LI").fit(probes)
        engine.row_top_k(queries, 3)
    assert Facade.__dict__["row_top_k"] is original
    names = {span.name for span in tracer.spans}
    assert {"core.lemp.fit", "engine.facade", "engine.planner", "core.lemp.call",
            "core.tuner", "core.solver"} <= names
    assert {name for _, name in tracer.leaves} == {"core.retrievers", "core.kernels"}
