"""TA as a bucket retrieval algorithm (LEMP-TA, paper Sections 5 and 6.3).

The bucket's sorted lists double as a TA index over the *normalised* probe
directions.  The traversal advances the lists in small blocks, always picking
the currently most promising list (largest ``q̄_f`` times list frontier), and
stops once the TA bound ``Σ_f q̄_f · frontier_f`` falls below the local
threshold ``θ_b(q)``.  Every probe encountered becomes a candidate; unlike
standalone TA, verification is deferred to the solver, which is one of the
ways LEMP improves TA's memory access pattern.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.bucket import Bucket
from repro.core.retrievers.base import BucketRetriever


class TABucketRetriever(BucketRetriever):
    """Threshold-algorithm candidate generation inside one bucket."""

    name = "TA"

    def __init__(self, block_size: int = 16) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size

    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int = 0,
    ) -> np.ndarray:
        if not np.isfinite(theta_b) or theta_b <= 0.0:
            return self.all_candidates(bucket)
        index = bucket.sorted_lists()
        size = bucket.size
        active = np.nonzero(query_direction)[0]
        if active.size == 0:
            return np.empty(0, dtype=np.intp)

        # positions[f] counts how many entries of list f have been consumed
        # from the query's preferred end (top for positive q̄_f, bottom for
        # negative q̄_f, as required for inner products).
        positions = np.zeros(active.size, dtype=np.intp)
        seen = np.zeros(size, dtype=bool)

        def frontier_value(list_position: int, consumed: int) -> float:
            coordinate = active[list_position]
            if query_direction[coordinate] > 0.0:
                return float(index.values[coordinate, size - 1 - consumed])
            return float(index.values[coordinate, consumed])

        contributions = np.array(
            [query_direction[active[i]] * frontier_value(i, 0) for i in range(active.size)]
        )
        bound = float(contributions.sum())
        heap = [(-contributions[i], i) for i in range(active.size)]
        heapq.heapify(heap)

        while heap and bound >= theta_b:
            _, list_position = heapq.heappop(heap)
            consumed = positions[list_position]
            if consumed >= size:
                continue
            coordinate = active[list_position]
            take = min(self.block_size, size - consumed)
            if query_direction[coordinate] > 0.0:
                chunk = index.lids[coordinate, size - consumed - take: size - consumed]
            else:
                chunk = index.lids[coordinate, consumed: consumed + take]
            seen[chunk] = True
            consumed += take
            positions[list_position] = consumed
            old = contributions[list_position]
            if consumed < size:
                new = query_direction[coordinate] * frontier_value(list_position, consumed)
                contributions[list_position] = new
                bound += float(new - old)
                heapq.heappush(heap, (-new, list_position))
            else:
                contributions[list_position] = 0.0
                bound -= float(old)
        return np.nonzero(seen)[0].astype(np.intp)
