"""Compare LEMP's answers with the naive full product.

Scores from LEMP and from naive are computed by different BLAS calls, so
they agree to rounding, not bit for bit.  A pair whose score sits within the
tolerance of θ may therefore appear on one side only, and at the k-th score
of a Row-Top-k row any of the tied probes is a correct answer.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance between two computations of the same inner product.
RTOL = 1e-9


def _tolerance(value: float) -> float:
    return RTOL * max(1.0, abs(value))


def above_theta_mismatches(result, reference) -> int:
    """Pairs of ``result`` and ``reference`` (Above-θ) that disagree.

    A pair present on one side only disagrees unless its score is within
    the tolerance of θ; a pair on both sides disagrees if the scores differ
    by more than the tolerance.
    """
    theta = float(reference.theta)
    ours = {(int(q), int(p)): float(s)
            for q, p, s in zip(result.query_ids, result.probe_ids, result.scores)}
    theirs = {(int(q), int(p)): float(s)
              for q, p, s in zip(reference.query_ids, reference.probe_ids, reference.scores)}
    bad = 0
    for pair in ours.keys() | theirs.keys():
        if pair in ours and pair in theirs:
            bad += abs(ours[pair] - theirs[pair]) > _tolerance(theirs[pair])
        else:
            score = ours.get(pair, theirs.get(pair))
            bad += abs(score - theta) > _tolerance(theta)
    return bad


def top_k_mismatches(result, reference, queries, probes) -> int:
    """Rows of ``result`` and ``reference`` (Row-Top-k) that disagree.

    Both must list the same scores in descending order (to the tolerance)
    and the same probes above the k-th score.  A probe listed at the k-th
    score need only score the k-th value, recomputed from ``queries`` and
    ``probes``, so ties there may be broken either way.
    """
    if result.indices.shape != reference.indices.shape:
        return int(reference.indices.shape[0])
    bad = 0
    for row in range(reference.indices.shape[0]):
        ref_ids, ref_scores = reference.indices[row], reference.scores[row]
        ids, scores = result.indices[row], result.scores[row]
        valid = ref_ids >= 0
        if not np.array_equal(ids >= 0, valid):
            bad += 1
            continue
        count = int(valid.sum())
        if count == 0:
            continue
        if not np.allclose(scores[:count], ref_scores[:count], rtol=RTOL, atol=0.0):
            bad += 1
            continue
        kth = float(ref_scores[count - 1])
        tol = _tolerance(kth)
        above = set(ref_ids[:count][ref_scores[:count] > kth + tol].tolist())
        ours_above = set(ids[:count][scores[:count] > kth + tol].tolist())
        boundary = ids[:count][scores[:count] <= kth + tol]
        true_scores = probes[boundary] @ queries[row]
        if (above != ours_above or len(set(ids[:count].tolist())) != count
                or np.any(np.abs(true_scores - kth) > tol)):
            bad += 1
    return bad
