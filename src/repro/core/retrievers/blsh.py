"""BayesLSH-Lite as a bucket retrieval algorithm (LEMP-BLSH, paper Section 6.3).

Candidates are first generated with the LENGTH prefix rule and then filtered
by the BayesLSH-Lite minimum-match signature test.  The minimum number of
matching bits is derived *per (query, bucket) pair* from that pair's own local
threshold ``theta_b`` — a pure function of the call's inputs, computed up
front and never mutated mid-probe.  This is the retriever's **determinism
contract**: the candidate set for a (query, bucket) pair depends only on
``(query, bucket contents, theta_b, seed)``, so LEMP-BLSH returns the same
results for any query processing order.  (An earlier implementation baked
the smallest ``theta_b`` seen so far into the bucket and *ratcheted* it down
across queries and calls, which made the filter's false negatives depend on
processing order.)

The filter admits false negatives with probability up to
``false_negative_rate`` (0.03) per pair, making LEMP-BLSH the only
approximate method in the family.  The signatures themselves do not depend on
any threshold, so they are built once per bucket (seeded by the bucket
ordinal) and reused across calls and worker views — a racing double-build
produces bit-identical content.
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.retrievers.base import BucketRetriever
from repro.core.retrievers.length import LengthRetriever
from repro.similarity.bayes_lsh import BayesLshFilter

#: Key under which the per-bucket signature filter is stored on the bucket.
INDEX_KEY = "blsh"


class BlshBucketRetriever(BucketRetriever):
    """LENGTH candidate generation followed by LSH signature filtering."""

    name = "BLSH"

    def __init__(self, num_bits: int = 32, false_negative_rate: float = 0.03, seed: int = 0,
                 cache=None) -> None:
        self.num_bits = num_bits
        self.false_negative_rate = false_negative_rate
        self.seed = seed
        self._length = LengthRetriever()
        #: Optional :class:`~repro.core.tuning_cache.TuningCache` receiving
        #: build/reuse counters (the filter itself lives on the bucket).
        self.cache = cache

    def _filter(self, bucket: Bucket) -> BayesLshFilter:
        """The bucket's signature filter, built on first use.

        The filter holds only threshold-free signatures (the minimum-match
        base is recomputed per call from ``theta_b``), so it is valid for
        every query and reused unconditionally.
        """
        entry = bucket.peek_index(INDEX_KEY)
        if entry is None:
            entry = bucket.set_index(
                INDEX_KEY,
                BayesLshFilter(
                    bucket.directions,
                    num_bits=self.num_bits,
                    false_negative_rate=self.false_negative_rate,
                    seed=self.seed + bucket.index,
                ),
            )
            if self.cache is not None:
                self.cache.record_index_build()
        elif self.cache is not None:
            self.cache.record_index_reuse()
        return entry

    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int = 0,
    ) -> np.ndarray:
        candidates = self._length.retrieve(bucket, query_direction, query_norm, theta, theta_b, phi)
        if candidates.size == 0 or not np.isfinite(theta_b) or theta_b <= 0.0:
            return candidates
        return self._filter(bucket).prune(query_direction, candidates, theta_b)
