"""Measure screening-tier and generation-tier behaviour on the regression dataset.

Extends ``tools/measure_blsh_recall.py`` to the quantized tiers: for every
screen dtype the script runs the same Above-θ / Row-Top-k workload on a
*warm* engine twice — unscreened, then with ``screen_dtype`` toggled — and
records

* ``recall`` — fraction of the unscreened run's result pairs the screened
  run returns (the contract demands exactly 1.0: screening must be lossless);
* ``survivor_rate`` — verified candidates divided by screened candidates,
  the tier's selectivity (lower = more pruning);
* ``bytes_scanned_ratio`` — modelled verification bytes of the screened run
  (compressed reads for every screened candidate + f64 reads for survivors)
  over the unscreened run's f64 reads — the bandwidth the tier saves.

A second section does the same for the compressed *generation* tier
(``gen_dtype``) on a pure-INCR engine, whose every pair scans the sorted
lists: per dtype it records recall (again exactly 1.0 — widened feasible
regions may only over-produce) and ``candidate_inflation``, the widened
candidate count over the exact-scan candidate count on the same warm engine
(the cost of the widening; the regression test caps int8 at 1.5x).

The measurements go to ``tests/data/screening_baseline.json`` — but only
with the explicit ``--commit`` flag.  Without it the script *diffs* its
report against the committed baseline and leaves the file untouched, so an
accidental run can no longer silently re-baseline the regression pin.  The
test in ``tests/test_screening_baseline.py`` compares the committed numbers
against a fresh measurement.

Run with::

    PYTHONPATH=src python tools/measure_screening.py            # diff only
    PYTHONPATH=src python tools/measure_screening.py --commit   # re-baseline
"""

from __future__ import annotations

import argparse
import difflib
import json
from pathlib import Path

from repro.core.lemp import Lemp
from repro.core.screening import SCREEN_DTYPES
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count

#: Dataset / workload configuration shared with tests/test_screening_baseline.py.
CONFIG = {
    "num_probes": 3000,
    "num_queries": 400,
    "rank": 32,
    "length_cov": 0.8,
    "probe_seed": 7,
    "query_seed": 8,
    "result_count": 2000,
    "k": 10,
    "algorithm": "LI",
    "generation_algorithm": "I",
    "lemp_seed": 0,
}

#: Bytes one verification candidate reads per screen dtype (per coordinate).
_SCREEN_ITEM_BYTES = {"f32": 4, "f16": 2, "int8": 1}


def _run_workload(retriever, queries, theta, k):
    """Run the fixed Above-θ + Row-Top-k workload; return the result pairs."""
    retriever.stats.reset()
    above = retriever.above_theta(queries, theta).to_set()
    top = retriever.row_top_k(queries, k)
    top_pairs = {
        (row, int(index))
        for row in range(top.indices.shape[0])
        for index in top.indices[row]
        if index >= 0
    }
    return above, top_pairs


def screening_report(config: dict = CONFIG) -> dict:
    """Selectivity and recall of every screen dtype on one warm engine."""
    probes = synthetic_factors(
        config["num_probes"], rank=config["rank"],
        length_cov=config["length_cov"], seed=config["probe_seed"],
    )
    queries = synthetic_factors(
        config["num_queries"], rank=config["rank"],
        length_cov=config["length_cov"], seed=config["query_seed"],
    )
    theta = theta_for_result_count(queries, probes, config["result_count"])
    rank = config["rank"]

    retriever = Lemp(algorithm=config["algorithm"], seed=config["lemp_seed"]).fit(probes)
    # Warm the tuning cache so every measured run shares tuning outcomes.
    _run_workload(retriever, queries, theta, config["k"])
    base_above, base_top = _run_workload(retriever, queries, theta, config["k"])
    base_inner = retriever.stats.inner_products
    base_candidates = retriever.stats.candidates
    base_bytes = base_inner * rank * 8

    tiers = {}
    for dtype_name in SCREEN_DTYPES:
        retriever.screen_dtype = dtype_name
        above, top = _run_workload(retriever, queries, theta, config["k"])
        stats = retriever.stats
        survivors = stats.inner_products
        screened_bytes = (
            stats.screen_products * rank * _SCREEN_ITEM_BYTES[dtype_name]
            + survivors * rank * 8
        )
        recall = (
            len(above & base_above) + len(top & base_top)
        ) / max(len(base_above) + len(base_top), 1)
        tiers[dtype_name] = {
            "recall": round(recall, 6),
            "screen_products": int(stats.screen_products),
            "survivors": int(survivors),
            "screen_dropped": int(stats.screen_dropped),
            "survivor_rate": round(survivors / max(stats.screen_products, 1), 6),
            "bytes_scanned_ratio": round(screened_bytes / max(base_bytes, 1), 6),
            "counter_split_exact": bool(
                survivors + stats.screen_dropped == base_inner
            ),
        }
    retriever.screen_dtype = None

    # Compressed generation on a pure-INCR engine, whose every pair scans the
    # sorted lists (the LI tuner sends this workload's cache-sized buckets to
    # LENGTH, which reads none): per-dtype widened index scans vs the
    # exact-scan candidate population, screening off.
    retriever = Lemp(algorithm=config["generation_algorithm"],
                     seed=config["lemp_seed"]).fit(probes)
    base_above, base_top = _run_workload(retriever, queries, theta, config["k"])
    base_candidates = retriever.stats.candidates
    generation = {}
    for dtype_name in SCREEN_DTYPES:
        retriever.gen_dtype = dtype_name
        above, top = _run_workload(retriever, queries, theta, config["k"])
        stats = retriever.stats
        recall = (
            len(above & base_above) + len(top & base_top)
        ) / max(len(base_above) + len(base_top), 1)
        generation[dtype_name] = {
            "recall": round(recall, 6),
            "candidates": int(stats.candidates),
            "candidate_inflation": round(stats.candidates / max(base_candidates, 1), 6),
        }
    retriever.gen_dtype = None

    return {
        "config": config,
        "theta": theta,
        "unscreened_inner_products": int(base_inner),
        "exact_candidates": int(base_candidates),
        "tiers": tiers,
        "generation": generation,
    }


def write_or_diff(report: dict, path: Path, commit: bool) -> int:
    """Commit ``report`` to ``path``, or diff against the committed copy.

    Guards the regression pins: without ``--commit`` the committed baseline
    is never touched — the report is unified-diffed against it and a
    non-zero status signals a mismatch.
    """
    rendered = json.dumps(report, indent=2) + "\n"
    if commit:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        print(rendered, end="")
        print(f"re-baselined {path}")
        return 0
    if not path.exists():
        print(rendered, end="")
        print(f"no committed baseline at {path}; rerun with --commit to create it")
        return 1
    committed = path.read_text()
    if committed == rendered:
        print(f"measurement matches the committed baseline {path}")
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True), rendered.splitlines(keepends=True),
        fromfile=f"committed {path.name}", tofile="measured (not written)",
    )
    print("".join(diff), end="")
    print(f"committed baseline left untouched; rerun with --commit to re-baseline {path}")
    return 1


def main(argv=None) -> int:
    """Measure screening selectivity; diff or (with ``--commit``) re-baseline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", action="store_true",
                        help="overwrite the committed baseline (default: diff only)")
    args = parser.parse_args(argv)
    report = screening_report()
    path = Path(__file__).resolve().parents[1] / "tests" / "data" / "screening_baseline.json"
    return write_or_diff(report, path, args.commit)


if __name__ == "__main__":
    raise SystemExit(main())
