"""Runtime statistics collected by every retriever.

The paper's evaluation reports, besides wall-clock time, the average number of
*candidates per query* (the pruning power of each method) and the split
between preprocessing/tuning and retrieval time.  :class:`RunStats` captures
exactly these quantities so the benchmark harness can print paper-style rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _summable(value) -> bool:
    """Whether an ``extra`` value accumulates under merge (plain numbers only).

    ``bool`` is an ``int`` subclass but summing flags (``True + True == 2``)
    is never what a merged run report means, so booleans follow the
    keep-first rule instead.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunStats:
    """Counters and timings accumulated during one retrieval run."""

    num_queries: int = 0
    candidates: int = 0
    results: int = 0
    inner_products: int = 0
    buckets_examined: int = 0
    buckets_pruned: int = 0
    #: Buckets that ``partial_fit`` / ``remove`` created: changed buckets
    #: and their split pieces (all of them after a fresh re-cut).
    buckets_rebuilt: int = 0
    #: Whole-store re-packs the index mutations ran (see ``VectorStore.repack``).
    store_repacks: int = 0
    preprocessing_seconds: float = 0.0
    tuning_seconds: float = 0.0
    retrieval_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def candidates_per_query(self) -> float:
        """Average size of the verified candidate set per query (paper ``|C|/q``)."""
        if self.num_queries == 0:
            return 0.0
        return self.candidates / self.num_queries

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time: preprocessing + tuning + retrieval."""
        return self.preprocessing_seconds + self.tuning_seconds + self.retrieval_seconds

    def merge(self, other: "RunStats") -> "RunStats":
        """Accumulate another run's counters into this one and return ``self``.

        This is also the worker-view roll-up: engine workers record into
        private ``RunStats`` objects and are merged back *in plan order*
        (batch order).  The count fields are integers, so the merged totals equal
        a serial run's exactly; the ``seconds`` fields are float sums whose
        reproducibility — not wall-clock equality — is what the fixed merge
        order buys.

        ``extra`` entries follow a deterministic rule: a key whose value is
        numeric (``int``/``float``, excluding ``bool``) *on both sides* is
        summed like the counter fields; every other key keeps the value from
        the first run that set it — the merge target's value wins over the
        merged-in one, and under the fixed plan-order roll-up "first" is the
        earliest shard/batch, reproducibly.  Nothing is dropped silently: a
        key present only in ``other`` is always adopted, whatever its type.
        """
        self.num_queries += other.num_queries
        self.candidates += other.candidates
        self.results += other.results
        self.inner_products += other.inner_products
        self.buckets_examined += other.buckets_examined
        self.buckets_pruned += other.buckets_pruned
        self.buckets_rebuilt += other.buckets_rebuilt
        self.store_repacks += other.store_repacks
        self.preprocessing_seconds += other.preprocessing_seconds
        self.tuning_seconds += other.tuning_seconds
        self.retrieval_seconds += other.retrieval_seconds
        for key, value in other.extra.items():
            if key not in self.extra:
                self.extra[key] = value
            elif _summable(value) and _summable(self.extra[key]):
                self.extra[key] += value
            # else: keep-first — the existing (earlier in merge order) value
            # stays, so repeated merges are order-deterministic for any type.
        return self

    def reset(self) -> None:
        """Zero all counters and timings."""
        self.num_queries = 0
        self.candidates = 0
        self.results = 0
        self.inner_products = 0
        self.buckets_examined = 0
        self.buckets_pruned = 0
        self.buckets_rebuilt = 0
        self.store_repacks = 0
        self.preprocessing_seconds = 0.0
        self.tuning_seconds = 0.0
        self.retrieval_seconds = 0.0
        self.extra = {}
