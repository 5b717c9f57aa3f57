"""Per-bucket retrieval-algorithm selection (paper Section 4.4).

The Above-θ and Row-Top-k solvers ask a selector which bucket retriever (and
which focus-set size φ) to run for a given bucket and local threshold.  Pure
LEMP variants use a :class:`FixedSelector`; the mixed LEMP-LC / LEMP-LI
variants use a :class:`PerBucketSelector` whose per-bucket switch point
``t_b`` and focus-set size ``φ_b`` are chosen by the sample-based tuner.

Selectors are cheap, per-call objects; the tuner decisions they carry may
come from a fresh tuner run, from the retriever's
:class:`~repro.core.tuning_cache.TuningCache`, or from a mix of both (see
:func:`repro.core.tuner.combine_tuning`).  Either way the decisions only
steer candidate generation — every candidate is verified exactly, so the
retrieved results do not depend on where the decisions came from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left

import numpy as np

from repro.core.bucket import Bucket
from repro.core.retrievers.base import BucketRetriever
from repro.core.retrievers.length import LengthRetriever

#: Focus-set size used when nothing better is known.
DEFAULT_PHI = 3


class RetrieverSelector(ABC):
    """Strategy object deciding which retriever processes a bucket for a query."""

    @abstractmethod
    def select(self, bucket: Bucket, theta_b: float) -> tuple[BucketRetriever, int]:
        """Return the retriever and focus-set size for this (bucket, θ_b) pair."""

    def length_only(self, bucket: Bucket, theta_b: float) -> bool:
        """Whether every pair of ``bucket`` with local threshold at most ``theta_b`` runs
        plain :class:`LengthRetriever`.

        Above-θ screens a run of such buckets as one span.  This default
        answers ``False``, which keeps custom selectors on the per-bucket
        route.
        """
        return False

    def split(self, bucket: Bucket, theta_bs: np.ndarray) -> tuple[np.ndarray, list]:
        """:meth:`select` for many queries of one bucket at once.

        Returns ``(to_length, routes)``: a boolean mask of the pairs that run
        plain :class:`LengthRetriever` — the solvers score those with one
        block product per bucket — and the ``(retriever, phi)`` choice of
        every other pair, in pair order.  This default loops over
        :meth:`select`, so custom selectors keep working unchanged.
        """
        to_length = np.zeros(len(theta_bs), dtype=bool)
        routes = []
        for pair, theta_b in enumerate(theta_bs):
            retriever, phi = self.select(bucket, float(theta_b))
            if type(retriever) is LengthRetriever:
                to_length[pair] = True
            else:
                routes.append((retriever, phi))
        return to_length, routes


class FixedSelector(RetrieverSelector):
    """Always run the same retriever, optionally with per-bucket focus sizes."""

    def __init__(self, retriever: BucketRetriever, phi: int = DEFAULT_PHI, per_bucket_phi: dict | None = None) -> None:
        self.retriever = retriever
        self.phi = phi
        self.per_bucket_phi = per_bucket_phi or {}

    def select(self, bucket: Bucket, theta_b: float) -> tuple[BucketRetriever, int]:
        return self.retriever, int(self.per_bucket_phi.get(bucket.index, self.phi))

    def length_only(self, bucket: Bucket, theta_b: float) -> bool:
        return type(self.retriever) is LengthRetriever

    def split(self, bucket: Bucket, theta_bs: np.ndarray) -> tuple[np.ndarray, list]:
        if type(self.retriever) is LengthRetriever:
            return np.ones(len(theta_bs), dtype=bool), []
        routes = [self.select(bucket, 0.0)] * len(theta_bs)
        return np.zeros(len(theta_bs), dtype=bool), routes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FixedSelector({self.retriever.name}, phi={self.phi}, "
            f"tuned_buckets={len(self.per_bucket_phi)})"
        )


class PerBucketSelector(RetrieverSelector):
    """LENGTH below a per-bucket threshold ``t_b``, a coordinate method above it.

    ``θ_b(q) < t_b`` means the local threshold is too low for coordinate
    pruning to pay off, so the cheap LENGTH scan is used; otherwise the
    coordinate-based retriever runs with the bucket's tuned focus size.

    The tuner decides ``t_b`` only for buckets that one of its sampled
    queries reaches.  A bucket without a decision takes the ``t_b`` of the
    nearest longer bucket that has one (bucket indices grow as the maximum
    length falls), and ``default_threshold`` only when no longer bucket was
    tuned either.  Deep buckets are reached by few, long queries, so how
    many pairs they hold varies with the data; following the neighbouring
    decision keeps those pairs on the route the tuner measured as cheaper
    instead of one fixed default.
    """

    def __init__(
        self,
        length_retriever: BucketRetriever,
        coord_retriever: BucketRetriever,
        switch_thresholds: dict,
        per_bucket_phi: dict,
        default_threshold: float = 0.0,
        default_phi: int = DEFAULT_PHI,
    ) -> None:
        self.length_retriever = length_retriever
        self.coord_retriever = coord_retriever
        self.switch_thresholds = switch_thresholds
        self.per_bucket_phi = per_bucket_phi
        self.default_threshold = default_threshold
        self.default_phi = default_phi
        #: Sorted indices of the tuned buckets, built on the first miss.
        self._tuned: list | None = None

    def switch(self, bucket: Bucket) -> float:
        """``t_b`` of ``bucket``: its own, the nearest longer tuned bucket's, or the default."""
        switch = self.switch_thresholds.get(bucket.index)
        if switch is not None:
            return switch
        if self._tuned is None:
            self._tuned = sorted(self.switch_thresholds)
        position = bisect_left(self._tuned, bucket.index)
        if position == 0:
            return self.default_threshold
        return self.switch_thresholds[self._tuned[position - 1]]

    def select(self, bucket: Bucket, theta_b: float) -> tuple[BucketRetriever, int]:
        phi = int(self.per_bucket_phi.get(bucket.index, self.default_phi))
        if theta_b < self.switch(bucket):
            return self.length_retriever, phi
        return self.coord_retriever, phi

    def length_only(self, bucket: Bucket, theta_b: float) -> bool:
        # θ_b < t_b routes a pair to LENGTH, as in select and split.
        return type(self.length_retriever) is LengthRetriever and theta_b < self.switch(bucket)

    def split(self, bucket: Bucket, theta_bs: np.ndarray) -> tuple[np.ndarray, list]:
        if type(self.length_retriever) is not LengthRetriever:
            return super().split(bucket, theta_bs)
        phi = int(self.per_bucket_phi.get(bucket.index, self.default_phi))
        to_length = np.asarray(theta_bs) < self.switch(bucket)
        coordinate_pairs = int(to_length.size - np.count_nonzero(to_length))
        return to_length, [(self.coord_retriever, phi)] * coordinate_pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PerBucketSelector({self.length_retriever.name}/"
            f"{self.coord_retriever.name}, tuned_buckets={len(self.per_bucket_phi)})"
        )
