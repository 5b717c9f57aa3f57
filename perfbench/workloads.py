"""The three workloads: two Table-1 batch shapes and one served open loop.

Every workload runs the default ``lemp:LI`` engine (one worker, no
compressed tiers) and checks its answers against the naive full product.
Inputs are drawn by :func:`repro.datasets.synthetic.synthetic_factors` at
rank 50 with the length skew (CoV) Table 1 reports for each dataset; the
seed decides everything drawn.
"""

from __future__ import annotations

import asyncio
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import RetrievalEngine
from repro.datasets.openie import IE_SVD_PROBE_COV, IE_SVD_QUERY_COV
from repro.datasets.recommender import NETFLIX_PROBE_COV, NETFLIX_QUERY_COV
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count
from repro.serve import ServingEngine

from perfbench.calibrate import HostClock
from perfbench.loadgen import PacedClock, make_schedule, run_open_loop
from perfbench.measure import percentile, summarize
from perfbench.oracle import above_theta_mismatches, top_k_mismatches

RANK = 50
NUM_PROBES = 50_000
NUM_QUERIES = 1000
K = 10
SPEC = "lemp:LI"
#: Row block of the naive product; 64 x 50k doubles keeps it near 25 MB.
NAIVE_BLOCK = 64
#: Results per query the Above-θ thresholds are set for.
RESULTS_PER_QUERY = 10
LOW_THETA_RESULTS_PER_QUERY = 100
#: Fresh engines set up per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Interleaved LEMP/naive call pairs a batch run makes at least.
MIN_PAIRS = 3
#: Rows each ``partial_fit`` adds and each ``remove`` deletes.
MUTATION_ROWS = 32
#: partial_fit + remove rounds a batch run makes after its timed calls.
BATCH_MUTATION_ROUNDS = 5

#: Offered rate of the served workload, per second at the reference host
#: speed (see :class:`~perfbench.loadgen.PacedClock`); about half the
#: capacity measured there.
SERVED_RATE = 50.0
#: Latency limit of ``goodput_rps`` on the served workload.
SERVED_LIMIT_S = 0.05
SERVED_TIMEOUT_S = 2.0
SERVED_GRACE_S = 2.0
#: Share of served requests replayed against the oracle.
SERVED_SAMPLE = 0.2
#: Timed passes over the oracle sample per saved index, for ``speedup_vs_naive``.
REPLAY_ROUNDS = 3
#: Rows of each request class the served warm-up call tunes on.
WARM_ROWS = 256
#: More requests than this (or 1 %) outstanding at the end marks a backlog.
BACKLOG_ALLOWANCE = 5
#: The served loop samples a short calibration loop on the event loop every
#: HEARTBEAT_S (about 5 ms of work), and scales each request by the samples
#: within HEARTBEAT_WINDOW_S of it.
HEARTBEAT_S = 0.25
HEARTBEAT_WINDOW_S = 2.0
#: Heartbeat samples whose median paces the arrival schedule.
HEARTBEAT_PACE_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its shape and why it exists."""

    name: str
    why: str
    query_cov: float
    probe_cov: float


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            "ie-svd-above-theta",
            "High length skew: bucket pruning and the per-(bucket, query) solver loop "
            "carry the cost, so LEMP should beat naive here.",
            IE_SVD_QUERY_COV, IE_SVD_PROBE_COV,
        ),
        Workload(
            "netflix-row-top-k",
            "Low length skew: candidate generation, verification and the wall-clock "
            "tuner carry the cost, and LEMP loses to naive today.",
            NETFLIX_QUERY_COV, NETFLIX_PROBE_COV,
        ),
        Workload(
            "served-mixed-churn",
            "Single-row requests through ServingEngine with writes beside reads: "
            "per-call costs, batching, queueing and re-tuning after mutations.",
            IE_SVD_QUERY_COV, IE_SVD_PROBE_COV,
        ),
    )
}


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Answers that disagreed with the oracle (each also counts as failed).
    mismatches: int = 0
    #: LEMP call wall times of the pass, to compare traced and untraced passes.
    call_seconds: list = field(default_factory=list)


def make_data(workload: Workload, seed: int):
    """Queries and probes of ``workload`` for ``seed``."""
    rng = np.random.default_rng(seed)
    queries = synthetic_factors(NUM_QUERIES, RANK, length_cov=workload.query_cov, seed=rng)
    probes = synthetic_factors(NUM_PROBES, RANK, length_cov=workload.probe_cov, seed=rng)
    return queries, probes


def mutation_plan(workload: Workload, seed: int, rounds: int):
    """Seeded ``(kind, argument)`` operations: per round a partial_fit, then a remove."""
    rng = np.random.default_rng([seed, 0xC4A7])
    plan = []
    for _ in range(rounds):
        plan.append(("partial_fit",
                     synthetic_factors(MUTATION_ROWS, RANK, length_cov=workload.probe_cov,
                                       seed=rng)))
        plan.append(("remove", rng.choice(NUM_PROBES + MUTATION_ROWS, MUTATION_ROWS,
                                          replace=False)))
    return plan


def apply_mutation(probes: np.ndarray, kind: str, argument) -> np.ndarray:
    """The probe matrix after one mutation, with the engines' id semantics."""
    if kind == "partial_fit":
        return np.vstack([probes, argument])
    return np.delete(probes, argument, axis=0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stats_delta(engine, before):
    stats = engine.stats
    return {name: getattr(stats, name) - before[name] for name in before}


def _stats_snapshot(engine):
    stats = engine.stats
    return {name: getattr(stats, name)
            for name in ("num_queries", "candidates", "buckets_pruned", "buckets_examined")}


def _engine_layers(delta, cache, cache_before) -> dict:
    hits = cache.hits - cache_before[0]
    misses = cache.misses - cache_before[1]
    visited = delta["buckets_pruned"] + delta["buckets_examined"]
    return {
        "core.candidates_per_query": delta["candidates"] / max(1, delta["num_queries"]),
        "core.solver.bucket_prune_frac": delta["buckets_pruned"] / max(1, visited),
        "engine.tuning_cache.hit_ratio": hits / max(1, hits + misses),
    }


# --------------------------------------------------------------------- batch


def run_batch(workload: Workload, seed: int, seconds: float, setup_repeats: int,
              traced=nullcontext, min_pairs: int = MIN_PAIRS,
              max_pairs: int | None = None) -> Outcome:
    """Set up fresh engines, then time interleaved LEMP and naive calls.

    Every LEMP answer, warm-up calls included, is checked against the naive
    answer.  The run makes at least ``min_pairs`` call pairs and keeps going
    until ``seconds`` have passed (or ``max_pairs`` pairs are done).  Set-up,
    timed calls and mutations run inside ``traced()``; making the inputs and
    the oracle's reference answer do not.
    """
    outcome = Outcome()
    queries, probes = make_data(workload, seed)
    naive = RetrievalEngine("naive", block_size=NAIVE_BLOCK).fit(probes)
    if workload.name.endswith("above-theta"):
        theta = theta_for_result_count(queries, probes, RESULTS_PER_QUERY * NUM_QUERIES,
                                       block_size=NAIVE_BLOCK)

        def call(engine):
            return engine.above_theta(queries, theta)

        def mismatches(result, reference):
            return above_theta_mismatches(result, reference)
    else:
        def call(engine):
            return engine.row_top_k(queries, K)

        def mismatches(result, reference):
            return top_k_mismatches(result, reference, queries, probes)

    reference = call(naive)

    def check(result) -> None:
        outcome.attempted += 1
        bad = bool(mismatches(result, reference))
        outcome.failed += bad
        outcome.mismatches += bad

    with traced():
        outcome.metrics, lemp_seconds = _timed_batch(
            workload, seed, seconds, setup_repeats, probes, naive, call, check,
            outcome, min_pairs, max_pairs)
    outcome.call_seconds = lemp_seconds
    return outcome


def _scaled_timer(clock: HostClock):
    """``timed(operation, blas=False)`` -> (result, raw seconds, seconds at reference speed).

    A calibration loop runs after every operation, the BLAS loop after a
    naive call and the solver loop after anything else; the operation is
    scaled by the mean of that loop's samples just before and just after it.
    """
    def timed(operation, blas: bool = False):
        samples, sample = ((clock.blas_samples, clock.sample_blas) if blas
                           else (clock.samples, clock.sample))
        before = samples[-1] if samples else sample()
        started = time.perf_counter()
        result = operation()
        raw = time.perf_counter() - started
        calibration = (before + sample()) / 2
        return result, raw, (clock.scale_blas if blas else clock.scale)(raw, calibration)
    return timed


def _timed_batch(workload, seed, seconds, setup_repeats, probes, naive, call, check,
                 outcome, min_pairs, max_pairs):
    clock = HostClock()
    timed = _scaled_timer(clock)
    setups = []
    for _ in range(setup_repeats):
        (engine, warm), _, scaled = timed(lambda: _fit_and_warm(probes, call))
        setups.append(scaled)
        check(warm)

    before = _stats_snapshot(engine)
    cache = engine.tuning_cache
    cache_before = (cache.hits, cache.misses)
    lemp_seconds, naive_seconds, lemp_raw, naive_raw = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(lemp_seconds) < min_pairs or (
            time.perf_counter() < deadline
            and (max_pairs is None or len(lemp_seconds) < max_pairs)):
        order = (engine, naive) if len(lemp_seconds) % 2 == 0 else (naive, engine)
        for target in order:
            result, raw, scaled = timed(lambda target=target: call(target),
                                        blas=target is naive)
            if target is engine:
                check(result)
                lemp_seconds.append(scaled)
                lemp_raw.append(raw)
            else:
                naive_seconds.append(scaled)
                naive_raw.append(raw)
    outcome.layers.update(_engine_layers(_stats_delta(engine, before), cache, cache_before))

    mutation_seconds = []
    for kind, argument in mutation_plan(workload, seed, BATCH_MUTATION_ROUNDS):
        outcome.attempted += 1
        mutation_seconds.append(timed(lambda: getattr(engine, kind)(argument))[2])

    latency = summarize(lemp_seconds)
    outcome.details = {
        "calls": len(lemp_seconds),
        f"latency_p{latency['tail_pct']:g}_ms": 1e3 * latency["tail"],
        "lemp_call_s_raw_p50": float(np.median(lemp_raw)),
        "naive_call_s_raw_p50": float(np.median(naive_raw)),
        "host_slowdown": clock.slowdown(),
    }
    rows_per_s = NUM_QUERIES / latency["p50"]
    return {
        "setup_s": float(np.median(setups)),
        "rows_per_s": rows_per_s,
        # Each side's median call, scaled by its own calibration loop: LEMP
        # and the BLAS-bound naive product slow down by different factors
        # when the host does (the raw ratio moved by a third with the host).
        "speedup_vs_naive": float(np.median(naive_seconds) / np.median(lemp_seconds)),
        # The served metrics' batch counterparts carry no signal of their
        # own: the median call restated, and rows_per_s (no latency limit).
        "latency_p50_ms": 1e3 * latency["p50"],
        "goodput_rps": rows_per_s,
        "mutation_p50_ms": 1e3 * float(np.median(mutation_seconds)),
        "peak_rss_mb": peak_rss_mb(),
    }, lemp_seconds


def _fit_and_warm(probes, call):
    engine = RetrievalEngine(SPEC).fit(probes)
    return engine, call(engine)


# -------------------------------------------------------------------- served


def run_served(workload: Workload, seed: int, seconds: float, setup_repeats: int,
               workdir: Path, traced=nullcontext) -> Outcome:
    """Serve an open-loop request stream, with mutations, from an mmap-loaded index.

    Set-up and serving run inside ``traced()``; the oracle replay afterwards
    does not.
    """
    outcome = Outcome()
    queries, probes = make_data(workload, seed)
    classes = (
        ("above_theta", theta_for_result_count(
            queries, probes, RESULTS_PER_QUERY * NUM_QUERIES, block_size=NAIVE_BLOCK)),
        ("above_theta", theta_for_result_count(
            queries, probes, LOW_THETA_RESULTS_PER_QUERY * NUM_QUERIES, block_size=NAIVE_BLOCK)),
        ("row_top_k", K),
    )

    schedule = make_schedule(seed, SERVED_RATE, seconds, len(classes), NUM_QUERIES)
    plan = mutation_plan(workload, seed, len(schedule.mutations))
    sampled = set(np.flatnonzero(
        np.random.default_rng([seed, 0x0AC1]).random(schedule.due.size) < SERVED_SAMPLE
    ).tolist())
    clock = HostClock()
    timed = _scaled_timer(clock)
    beats = HostClock(heartbeat=True)
    with traced():
        setups, index_dirs = [], []
        for repeat in range(setup_repeats):
            index_dir = workdir / f"index-{repeat}"
            index_dirs.append(index_dir)
            served, _, scaled = timed(
                lambda index_dir=index_dir: _set_up_served(queries, probes, classes, index_dir))
            setups.append(scaled)
        before = _stats_snapshot(served)
        cache = served.tuning_cache
        cache_before = (cache.hits, cache.misses)
        requests, outstanding, played, serving, log, beat_times = asyncio.run(
            _serve(served, schedule, plan, classes, queries, sampled, seconds, beats))
    # Before the oracle replay, whose engines would dominate the peak.
    peak_rss = peak_rss_mb()
    # The schedule holds `seconds` schedule seconds; a host faster than the
    # reference plays more than that, idle once the schedule has run out.
    offered_seconds = min(played, seconds)
    outcome.failed += log.failed
    outcome.layers.update(_engine_layers(_stats_delta(served, before), cache, cache_before))
    outcome.attempted += len(requests) + len(log.finished)

    answered = [request for request in requests if request.error is None]
    outcome.failed += len(requests) - len(answered)
    # Each request is scaled by the median heartbeat sample of the seconds
    # around its due time.
    beat_times = np.asarray(beat_times)
    beat_samples = np.asarray(beats.samples)

    def host_near(moment: float) -> float:
        near = np.abs(beat_times - moment) <= HEARTBEAT_WINDOW_S
        return float(np.median(beat_samples[near] if near.any() else beat_samples))

    latencies = [beats.scale(request.done - request.due, host_near(request.due))
                 for request in answered]
    lags = [request.sent - request.due for request in requests
            if request.sent == request.sent]
    mismatched, timings = _replay(requests, sampled, schedule, classes, queries, probes,
                                 plan[:len(log.finished)], log.submitted, log.finished,
                                 index_dirs)
    outcome.failed += mismatched
    outcome.mismatches += mismatched

    latency = summarize(latencies) if latencies else {"p50": float("nan"), "tail": float("nan"),
                                                      "tail_pct": 50.0, "n": 0}
    outcome.call_seconds = latencies
    outcome.metrics = {
        "setup_s": float(np.median(setups)),
        "rows_per_s": len(answered) / offered_seconds,
        # Per request class, each side's fastest pass over the sample: the
        # single-row naive call is memory bound, LEMP's interpreter bound, a
        # host that slows down slows them apart, and scaling by the
        # calibration loops made the ratio less steady, not more.  Then the
        # geometric mean over the classes, so the class mix of the sample
        # does not move it.
        "speedup_vs_naive": float(np.exp(np.mean([np.log(
            min(sum(naive for naive, _ in passed[kind]) for passed in timings)
            / min(sum(lemp for _, lemp in passed[kind]) for passed in timings))
            for kind in timings[0]]))),
        "latency_p50_ms": 1e3 * latency["p50"],
        "goodput_rps": sum(value <= SERVED_LIMIT_S for value in latencies) / offered_seconds,
        "mutation_p50_ms": 1e3 * float(np.median([
            beats.scale(value, host_near(moment))
            for value, moment in zip(log.seconds, log.finished)])),
        "peak_rss_mb": peak_rss,
    }
    flush_rows = [flush.num_rows for flush in serving.flushes]
    outcome.layers.update({
        "serve.rows_per_flush": float(np.mean(flush_rows)) if flush_rows else 0.0,
        "serve.shed": serving.requests_shed,
        "serve.timed_out": serving.requests_timed_out,
        "serve.mutate_ms_p50": 1e3 * float(np.median(log.solver_seconds)),
        "loadgen.lag_ms_p99": 1e3 * percentile(lags, 99.0),
        "loadgen.outstanding_at_end": outstanding,
    })
    outcome.details = {
        "offered_rps": SERVED_RATE,
        "requests": len(requests),
        f"latency_p{latency['tail_pct']:g}_ms": 1e3 * latency["tail"],
        "over_capacity": outstanding > max(BACKLOG_ALLOWANCE, 0.01 * len(requests)),
        "outstanding_at_end": outstanding,
        "oracle_checked": sum(len(pairs) for pairs in timings[0].values()),
        "mutations": len(log.finished),
        "flushes": len(flush_rows),
        "host_slowdown": beats.slowdown(),
    }
    return outcome


def _set_up_served(queries, probes, classes, index_dir: Path):
    """Fit, warm each request class, save to ``index_dir``, and mmap-load."""
    engine = RetrievalEngine(SPEC).fit(probes)
    for problem, parameter in classes:
        getattr(engine, problem)(queries[:WARM_ROWS], parameter)
    engine.save(index_dir)
    return RetrievalEngine.load(index_dir, mmap_mode="r")


@dataclass
class MutationLog:
    """Per mutation operation: hand-over to the solver, return, and timings."""

    submitted: list = field(default_factory=list)
    finished: list = field(default_factory=list)
    #: From the round's due time (first operation) or the previous return.
    seconds: list = field(default_factory=list)
    #: The mutation itself on the solver thread, without queueing.
    solver_seconds: list = field(default_factory=list)
    failed: int = 0


async def _serve(served, schedule, plan, classes, queries, sampled, seconds: float,
                 beats: HostClock):
    """Run the open loop against a :class:`ServingEngine` over ``served``.

    Beside it, ``beats`` is sampled every :data:`HEARTBEAT_S`, and the
    schedule is paced by the median of the last few samples: on a host
    running slower than the reference, requests arrive as much slower, so
    the server's load stays the same.  The sample times are returned last.
    """
    log = MutationLog()
    beat_times = []
    for _ in range(HEARTBEAT_PACE_SAMPLES):
        beat_times.append(time.perf_counter())
        beats.sample()
    clock = PacedClock(float(np.median(beats.samples)) / beats.reference)

    async def heartbeat():
        while True:
            beat_times.append(time.perf_counter())
            beats.sample()
            recent = beats.samples[-HEARTBEAT_PACE_SAMPLES:]
            clock.pace(float(np.median(recent)) / beats.reference)
            await asyncio.sleep(HEARTBEAT_S)

    def timed_mutation(kind, argument):
        started = time.perf_counter()
        getattr(served, kind)(argument)
        log.solver_seconds.append(time.perf_counter() - started)

    async with ServingEngine(served, flush_log_limit=None,
                             default_timeout=SERVED_TIMEOUT_S) as serving:
        def send(index):
            problem, parameter = classes[schedule.classes[index]]
            row = queries[schedule.rows[index]][None, :]
            return getattr(serving, problem)(row, parameter)

        async def mutate(round_index, due):
            issued = due
            for kind, argument in plan[2 * round_index: 2 * round_index + 2]:
                log.submitted.append(time.perf_counter())
                try:
                    await serving.mutate(timed_mutation, kind, argument)
                except Exception:  # noqa: BLE001 - counted as a failed operation
                    log.failed += 1
                log.finished.append(time.perf_counter())
                log.seconds.append(log.finished[-1] - issued)
                issued = log.finished[-1]

        beating = asyncio.ensure_future(heartbeat())
        try:
            requests, outstanding, played = await run_open_loop(
                schedule, send, mutate, sampled.__contains__, seconds, SERVED_GRACE_S, clock)
        finally:
            beating.cancel()
            await asyncio.gather(beating, return_exceptions=True)
    return requests, outstanding, played, serving, log, beat_times


def _replay(requests, sampled, schedule, classes, queries, probes, plan,
            submitted, finished, index_dirs):
    """Check sampled served answers against a naive engine replayed to their state.

    A request could have seen any mutation state between the mutations
    finished before it was sent and those handed to the solver before it
    returned; its answer must equal the naive answer in one of them.  First,
    the sampled requests are timed in passes, each request on a LEMP engine
    loaded from a saved index interleaved with its naive call, for
    ``speedup_vs_naive``.  The passes go round the indexes, each tuned apart
    by wall clock, :data:`REPLAY_ROUNDS` times, and come before any mutation:
    a mutated engine re-tunes its rebuilt buckets on whichever single row
    comes next, and those choices would move the ratio more than any change
    to the code.  Returns the mismatch count and, per pass and by request
    class, the (naive, LEMP) seconds of those calls.
    """
    naive = RetrievalEngine("naive", block_size=NAIVE_BLOCK).fit(probes)
    windows = {}
    for index in sorted(sampled):
        if index >= len(requests):
            break
        request = requests[index]
        if request.error is None:
            low = sum(done <= request.sent for done in finished)
            high = sum(start < request.done for start in submitted)
            windows[index] = (low, high)
    bad_replays, timings = 0, []
    engines = [RetrievalEngine.load(index_dir, mmap_mode="r") for index_dir in index_dirs]
    for lemp in engines * REPLAY_ROUNDS:
        timings.append({})
        for index in windows:
            problem, parameter = classes[schedule.classes[index]]
            row = queries[schedule.rows[index]][None, :]
            timed = {}
            for target in (lemp, naive) if index % 2 else (naive, lemp):
                started = time.perf_counter()
                result = getattr(target, problem)(row, parameter)
                timed[target is lemp] = result, time.perf_counter() - started
            bad_replays += bool(_mismatches(problem, timed[True][0], timed[False][0], row,
                                            probes))
            timings[-1].setdefault(schedule.classes[index], []).append(
                (timed[False][1], timed[True][1]))
    matched = set()
    current = probes
    for state in range(len(plan) + 1):
        for index, (low, high) in windows.items():
            if index in matched or not low <= state <= high:
                continue
            problem, parameter = classes[schedule.classes[index]]
            row = queries[schedule.rows[index]][None, :]
            reference = getattr(naive, problem)(row, parameter)
            if not _mismatches(problem, requests[index].result, reference, row, current):
                matched.add(index)
        if state < len(plan):
            kind, argument = plan[state]
            getattr(naive, kind)(argument)
            current = apply_mutation(current, kind, argument)
    return len(windows) - len(matched) + bad_replays, timings


def _mismatches(problem, result, reference, queries, probes) -> int:
    if problem == "above_theta":
        return above_theta_mismatches(result, reference)
    return top_k_mismatches(result, reference, queries, probes)


def run_workload(name: str, seed: int, seconds: float, setup_repeats: int,
                 workdir: Path, traced=nullcontext, **options) -> Outcome:
    """Run one pass of the named workload."""
    workload = WORKLOADS[name]
    if name == "served-mixed-churn":
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            return run_served(workload, seed, seconds, setup_repeats, workdir, traced)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return run_batch(workload, seed, seconds, setup_repeats, traced, **options)
