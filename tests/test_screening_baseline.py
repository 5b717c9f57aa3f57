"""Regression pin: screening selectivity against the committed baseline.

``tools/measure_screening.py`` measures, per screen dtype, the recall and
survivor rate of the screening tier on the shared synthetic regression
dataset and commits them to ``tests/data/screening_baseline.json``.  This
module re-runs the measurement and fails when

* any dtype's recall drops below 1.0 — screening is advertised as lossless,
  so even one lost pair is a contract violation, not a quality regression;
* the int8 tier (the loosest error bound) admits more than 1.25x the f32
  tier's survivors — a blow-up there means the bound derivation got weaker;
* the within-run counter split (``survivors + dropped == unscreened inner
  products``) breaks, which would mean the screen is seeing different
  candidates than the exact path;
* compressed generation (``gen_dtype``) loses recall — widened feasible
  regions may only over-produce, never drop — or int8's widened candidate
  set inflates past 1.5x the exact scan's (the widening got too loose to be
  worth the bandwidth it saves).

Survivor *rates* are compared to the committed numbers only loosely, so that
a deliberate change to the tuner's cost constants or the bucketing does not
have to re-baseline this file; the cross-dtype ratios within one warm engine
are pinned tightly.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_BASELINE = Path(__file__).parent / "data" / "screening_baseline.json"

#: Headroom for tuned candidate populations that move with the tuner's constants.
SURVIVOR_RATE_HEADROOM = 3.0

#: The issue-level gate: int8 may not admit more than this multiple of the
#: f32 survivor count in the same warm run.
INT8_OVER_F32_LIMIT = 1.25

#: Cap on the int8 generation tier's widened candidate count over the exact
#: scan's — the loosest bound must still generate essentially the same set.
INT8_GEN_INFLATION_LIMIT = 1.5


def _load_measure_tool():
    """Import ``tools/measure_screening.py`` by path (tools is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "measure_screening", _ROOT / "tools" / "measure_screening.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("measure_screening", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    return json.loads(_BASELINE.read_text())


@pytest.fixture(scope="module")
def report(baseline):
    tool = _load_measure_tool()
    return tool.screening_report(baseline["config"])


def test_theta_matches_committed_workload(baseline, report):
    assert report["theta"] == pytest.approx(baseline["theta"], abs=1e-12)


def test_every_dtype_has_perfect_recall(report):
    for dtype_name, tier in report["tiers"].items():
        assert tier["recall"] == 1.0, (
            f"{dtype_name} screening dropped true results: recall {tier['recall']}"
        )
        assert tier["counter_split_exact"], dtype_name


def test_int8_survivors_bounded_by_f32(report):
    tiers = report["tiers"]
    # Same warm engine for all dtypes, so the screened populations match and
    # survivor counts are directly comparable.
    assert tiers["int8"]["screen_products"] == tiers["f32"]["screen_products"]
    assert tiers["int8"]["survivors"] <= INT8_OVER_F32_LIMIT * tiers["f32"]["survivors"]


def test_survivor_rates_do_not_blow_up(baseline, report):
    for dtype_name, tier in report["tiers"].items():
        pinned = baseline["tiers"][dtype_name]["survivor_rate"]
        assert tier["survivor_rate"] <= pinned * SURVIVOR_RATE_HEADROOM, (
            f"{dtype_name} survivor rate {tier['survivor_rate']} regressed "
            f"past {SURVIVOR_RATE_HEADROOM}x the committed {pinned}"
        )
        # Screening must actually prune on this workload, not just pass through.
        assert tier["survivor_rate"] < 0.5


def test_generation_has_perfect_recall(report):
    for dtype_name, tier in report["generation"].items():
        assert tier["recall"] == 1.0, (
            f"{dtype_name} compressed generation dropped true results: "
            f"recall {tier['recall']}"
        )


def test_generation_candidate_inflation_bounded(report):
    for dtype_name, tier in report["generation"].items():
        # Widening may only over-produce — never generate fewer candidates.
        assert tier["candidates"] >= report["exact_candidates"], dtype_name
        assert tier["candidate_inflation"] >= 1.0, dtype_name
    assert report["generation"]["int8"]["candidate_inflation"] <= INT8_GEN_INFLATION_LIMIT, (
        "int8 generation widened the candidate set past "
        f"{INT8_GEN_INFLATION_LIMIT}x the exact scan"
    )


def test_generation_inflation_pinned_loosely(baseline, report):
    # Absolute candidate counts move with the tuner's decisions; the
    # inflation *ratio* within one warm engine is stable — pin it loosely.
    for dtype_name, tier in report["generation"].items():
        pinned = baseline["generation"][dtype_name]["candidate_inflation"]
        assert tier["candidate_inflation"] <= max(pinned * 1.1, 1.01), dtype_name


def test_compressed_tiers_scan_fewer_bytes(report):
    ratios = {name: tier["bytes_scanned_ratio"] for name, tier in report["tiers"].items()}
    for dtype_name, ratio in ratios.items():
        assert ratio < 1.0, f"{dtype_name} scans more bytes than the unscreened run"
    # Narrower storage must translate into a strictly better bandwidth model.
    assert ratios["int8"] < ratios["f16"] < ratios["f32"]
