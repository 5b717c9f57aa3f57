"""Measure LEMP-BLSH recall on the synthetic regression dataset.

Targets ``tests/data/blsh_recall_baseline.json``.  The committed baseline was
produced by the *pre-order-free* ratcheting implementation; the regression
test in ``tests/test_retrievers.py`` pins the current order-independent
base to that reference within ``BLSH_RECALL_TOLERANCE``.  The pinned file is
only written with the explicit ``--commit`` flag; without it the script
diffs its measurement against the committed copy and leaves it untouched, so
an accidental run can no longer silently re-baseline the pin.

Run with::

    PYTHONPATH=src python tools/measure_blsh_recall.py            # diff only
    PYTHONPATH=src python tools/measure_blsh_recall.py --commit   # re-baseline
"""

from __future__ import annotations

import argparse
import difflib
import json
from pathlib import Path

import numpy as np

from repro.core.lemp import Lemp
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count

#: Dataset / workload configuration shared with tests/test_retrievers.py.
CONFIG = {
    "num_probes": 3000,
    "num_queries": 400,
    "rank": 32,
    "length_cov": 0.8,
    "probe_seed": 7,
    "query_seed": 8,
    "result_count": 2000,
    "k": 10,
    "lemp_seed": 0,
}


def blsh_recall(config: dict = CONFIG) -> dict:
    """Above-θ and Row-Top-k recall of LEMP-BLSH against the exact solution."""
    probes = synthetic_factors(
        config["num_probes"], rank=config["rank"],
        length_cov=config["length_cov"], seed=config["probe_seed"],
    )
    queries = synthetic_factors(
        config["num_queries"], rank=config["rank"],
        length_cov=config["length_cov"], seed=config["query_seed"],
    )
    theta = theta_for_result_count(queries, probes, config["result_count"])
    product = queries @ probes.T

    exact_above = set(zip(*(arr.tolist() for arr in np.nonzero(product >= theta))))
    blsh = Lemp(algorithm="BLSH", seed=config["lemp_seed"]).fit(probes)
    got_above = blsh.above_theta(queries, theta).to_set()
    above_recall = len(got_above & exact_above) / len(exact_above)

    k = config["k"]
    top = blsh.row_top_k(queries, k)
    exact_rows = np.argsort(-product, axis=1, kind="stable")[:, :k]
    overlaps = [
        len(set(top.indices[row].tolist()) & set(exact_rows[row].tolist()))
        for row in range(queries.shape[0])
    ]
    topk_recall = float(np.mean(overlaps)) / k

    return {
        "config": config,
        "theta": theta,
        "above_theta_recall": round(above_recall, 6),
        "row_top_k_recall": round(topk_recall, 6),
    }


def write_or_diff(report: dict, path: Path, commit: bool) -> int:
    """Commit ``report`` to ``path``, or diff against the committed copy.

    The committed baseline is only overwritten on an explicit ``--commit``.
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
    """Measure recall; diff or (with ``--commit``) re-baseline the JSON pin."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", action="store_true",
                        help="overwrite the committed baseline (default: diff only)")
    args = parser.parse_args(argv)
    report = blsh_recall()
    path = Path(__file__).resolve().parents[1] / "tests" / "data" / "blsh_recall_baseline.json"
    return write_or_diff(report, path, args.commit)


if __name__ == "__main__":
    raise SystemExit(main())
