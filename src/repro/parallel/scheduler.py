"""The analysis executor: one scheduler behind every ``run_all``.

``AnalysisPipeline.run_all`` always delegates here.  One dispatch loop
drives each analysis to a terminal outcome in one of three settings:

* **in-process** — no supervision policy, ``jobs=1``: attempts run in
  the calling process in study order, exactly the serial reference path
  the golden-equivalence suite compares against.  Typed failures are
  captured (or re-raised under ``strict``), untyped exceptions
  propagate, and shared intermediates are computed lazily;
* **one forked slot** — a :class:`SupervisorPolicy` with ``jobs=1``
  (``analyze --supervised/--timeout/--resume``);
* **N forked slots** — ``jobs=N``, dispatched heaviest first.

Forked attempts run under supervision.  Per analysis::

    pending ──► running ──► ok / degraded          (result received)
                   │
                   ├──► timeout ──► running (retry) … ──► failed
                   ├──► killed  ──► running (retry) … ──► failed
                   └──► failed                      (typed / bug: no retry)

A hung worker is killed at its wall-clock timeout, a signal-killed one
is detected by exit code, and both are retried with exponential backoff
and jitter seeded per analysis name (so schedules never depend on
completion order).  Typed failures and untyped bugs are terminal.

Execution model of a forked run::

    parent: ingest corpora once ──► warm shared intermediates ──► fork
                                                                   │
        ┌────────────┬─────────────┬────────────┐                  ▼
     worker 1     worker 2      worker 3     worker 4       (≤ jobs children)
     fig7 …       table4 …      fig2 …       fig5 …
        └────────────┴──────┬──────┴────────────┘
                            ▼
            deterministic merge into study order

* **Shared intermediates** (Δ-merged events, pre-RTBH classification,
  host study) are warmed in the parent right before the first fork, so
  workers inherit them copy-on-write instead of recomputing them.  A
  run with nothing to dispatch never warms.  Analyses whose results
  others recompute internally are dispatched no later than their
  dependents.
* **Journal and cache.**  The parent is the only writer: every terminal
  outcome is committed to the checkpoint journal the moment it exists,
  so ``--resume`` re-runs only unfinished analyses, and fresh ok/degraded
  outcomes are stored in the :class:`~repro.parallel.cache.ResultCache`.
* **Determinism.**  Workers fingerprint their values before the pickle
  pipe and outcomes merge into study order, so every setting yields the
  same canonical report (:mod:`repro.parallel.golden`).
* **No orphans.**  Workers are started by
  :func:`~repro.runtime.fork.fork_worker` and die with their parent.

Without ``fork`` the supervised settings run their attempts in-process:
retries still apply, but timeouts and crash isolation do not.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro import telemetry
from repro.core.study import (
    AnalysisOutcome,
    AnalysisStatus,
    StudyReport,
    run_analysis,
)
from repro.errors import AnalysisError, SupervisorError
from repro.parallel.cache import ResultCache
from repro.runtime import chaos
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.fork import fork_available, fork_worker
from repro.runtime.retry import RetryPolicy, is_retryable_exception

#: journal key prefix for per-analysis terminal outcomes
ANALYSIS_KEY = "analysis:"

#: relative cost estimates (longest-processing-time-first dispatch), in
#: units of ~40 ms of worker time: the median per-analysis seconds of
#: three cold ``analyze --jobs 2 --host-min-days 2`` runs on a 2-CPU box
#: (scale 0.02, 10 days, seed 7); anything absent weighs 1 — exact
#: values only shape the schedule, never the results
ANALYSIS_WEIGHTS = {
    "fig2_time_offset": 21,
    "fig4_targeted_visibility": 11,
    "sec54_protocol_mix": 3,
    "table3_amplification": 3,  # recomputes sec54's protocol mix
    "fig15_participation": 3,
    "fig14_filterable": 2,
}

#: analyses another analysis recomputes internally: the provider is
#: dispatched no later than its dependents so a shared intermediate is
#: never the last thing keeping a worker busy
ANALYSIS_PROVIDES = {
    "fig7_top_sources": ("fig8_org_types",),
    "sec54_protocol_mix": ("table3_amplification",),
}


@dataclass
class SupervisorPolicy:
    """How supervised attempts are babysat.

    ``timeout`` is the per-attempt wall-clock limit in seconds (None =
    unlimited); ``retry`` bounds and paces re-executions of transient
    failures; ``seed`` makes the backoff jitter deterministic; ``sleep``
    is injectable so tests assert the schedule without waiting it out.
    """

    timeout: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise SupervisorError(f"jobs must be >= 0: {jobs}")
    return jobs


def schedule_order(names: Sequence[str]) -> List[str]:
    """The dispatch order: heavy first, providers before dependents,
    study order as the deterministic tie-break."""
    index = {name: i for i, name in enumerate(names)}
    weight = {}
    for name in names:
        w = ANALYSIS_WEIGHTS.get(name, 1)
        for dependent in ANALYSIS_PROVIDES.get(name, ()):
            if dependent in index:
                w = max(w, ANALYSIS_WEIGHTS.get(dependent, 1) + 1)
        weight[name] = w
    return sorted(names, key=lambda n: (-weight[n], index[n]))


def ingest_warnings(pipeline) -> list:
    """The per-corpus ingest-loss warnings a study report carries."""
    warnings = []
    for corpus_name in ("control", "data"):
        ingest = getattr(getattr(pipeline, corpus_name, None),
                         "ingest_report", None)
        if ingest is not None and not ingest.ok:
            warnings.append(
                f"{corpus_name} ingest dropped {ingest.skipped} of "
                f"{ingest.total} records")
    return warnings


def journal_outcome(journal: CheckpointJournal,
                    outcome: AnalysisOutcome) -> None:
    """Commit one terminal outcome under its analysis key."""
    journal.commit(ANALYSIS_KEY + outcome.name, name=outcome.name,
                   status=outcome.status.value, error=outcome.error,
                   error_type=outcome.error_type, seconds=outcome.seconds,
                   attempts=outcome.attempts, timeouts=outcome.timeouts,
                   value_digest=outcome.value_digest)


def _outcome_from_entry(entry: dict) -> AnalysisOutcome:
    """Reconstruct a journaled terminal outcome (values are not persisted)."""
    return AnalysisOutcome(
        name=entry["name"], status=AnalysisStatus(entry["status"]),
        value=None, error=entry.get("error"),
        error_type=entry.get("error_type"),
        seconds=float(entry.get("seconds", 0.0)),
        attempts=int(entry.get("attempts", 1)),
        timeouts=int(entry.get("timeouts", 0)),
        value_digest=entry.get("value_digest"),
    )


@dataclass
class _Task:
    """One analysis working its way to a terminal outcome."""

    name: str
    fn: object
    rng: random.Random
    attempts: int = 0
    timeouts: int = 0
    retry_at: float = 0.0
    proc: Optional[object] = None
    conn: Optional[object] = None
    started: float = 0.0
    deadline: Optional[float] = None


@dataclass
class _Pool:
    """Mutable scheduler state shared by the dispatch helpers."""

    policy: SupervisorPolicy
    supervised: bool
    forked: bool
    degraded: bool
    strict: bool
    journal: Optional[CheckpointJournal]
    cache: Optional[ResultCache]
    corpus_digest: Optional[str]
    config_hash: Optional[str]
    telem: object
    #: the pipeline's cache warmer until the first fork has called it
    warm: Optional[Callable[[], None]] = None
    queue: List[_Task] = field(default_factory=list)
    waiting: List[_Task] = field(default_factory=list)
    running: Dict[object, _Task] = field(default_factory=dict)
    outcomes: Dict[str, AnalysisOutcome] = field(default_factory=dict)
    stop_dispatch: bool = False


def run_parallel(
    pipeline,
    *,
    analyses: Optional[Sequence[str]] = None,
    policy: Optional[SupervisorPolicy] = None,
    jobs: Optional[int] = None,
    strict: bool = False,
    journal: Optional[CheckpointJournal] = None,
    cache: Optional[ResultCache] = None,
    corpus_digest: Optional[str] = None,
    config_hash: Optional[str] = None,
) -> StudyReport:
    """Run the study's analyses; see the module docstring.

    ``pipeline`` exposes ``analysis_fn(name)``, ``warm_shared_caches()``,
    ``degraded_inputs`` and (optionally) the ``control``/``data``
    corpora.  ``jobs`` is the worker count (``None``/``0`` = all CPUs);
    a ``policy`` or more than one job makes the run supervised and
    forked.  ``cache`` skips analyses whose ``(corpus_digest,
    config_hash, name)`` key holds a finished entry and stores fresh
    ok/degraded outcomes back.  Under supervision, ``strict=True`` stops
    new dispatches at the first failed terminal outcome, lets in-flight
    workers finish (and be journaled), then raises
    :class:`~repro.errors.AnalysisError` for the failed analysis earliest
    in study order; in-process, the typed error itself propagates.
    """
    from repro.core.pipeline import ANALYSIS_NAMES

    jobs = resolve_jobs(jobs)
    names = list(analyses if analyses is not None else ANALYSIS_NAMES)
    supervised = policy is not None or jobs > 1
    policy = policy or SupervisorPolicy()
    telem = telemetry.current()
    report = StudyReport()
    report.warnings.extend(ingest_warnings(pipeline))

    use_cache = cache is not None and corpus_digest is not None
    pool = _Pool(policy=policy, supervised=supervised,
                 forked=supervised and fork_available(),
                 degraded=pipeline.degraded_inputs, strict=strict,
                 journal=journal, cache=cache if use_cache else None,
                 corpus_digest=corpus_digest, config_hash=config_hash,
                 telem=telem, warm=pipeline.warm_shared_caches)
    for name in (schedule_order(names) if jobs > 1 else names):
        outcome = _resolved_outcome(pool, name)
        if outcome is not None:
            pool.outcomes[name] = outcome
            continue
        pool.queue.append(_Task(
            name=name, fn=pipeline.analysis_fn(name),
            rng=random.Random(f"{policy.seed}:{name}")))

    if pool.forked:
        with telem.span("analyze.parallel", jobs=jobs,
                        queued=len(pool.queue)) as sp:
            _drive(pool, jobs)
            sp.attrs["completed"] = len(pool.outcomes)
    else:
        _drive(pool, jobs)

    for name in names:
        outcome = pool.outcomes.get(name)
        if outcome is None:
            continue  # strict stop dropped it before it ran
        report.outcomes.append(outcome)
    if telem.enabled:
        report.telemetry = telem.metrics_snapshot()
    if strict:
        for outcome in report.outcomes:
            if outcome.status is AnalysisStatus.FAILED:
                raise AnalysisError(
                    f"{outcome.name} failed under supervision after "
                    f"{outcome.attempts} attempt(s): "
                    f"{outcome.error_type}: {outcome.error}")
    return report


def _resolved_outcome(pool: _Pool, name: str) -> Optional[AnalysisOutcome]:
    """A terminal outcome available without running anything: the journal
    first (authoritative for this run), then the content-addressed cache."""
    if pool.journal is not None:
        entry = pool.journal.committed(ANALYSIS_KEY + name)
        if entry is not None:
            pool.telem.counter("supervisor.resumed").inc()
            return _outcome_from_entry(entry)
    if pool.cache is not None:
        return pool.cache.get(pool.corpus_digest, pool.config_hash, name)
    return None


def _drive(pool: _Pool, jobs: int) -> None:
    """The dispatch loop: fill slots, wait for events, classify attempts."""
    while pool.queue or pool.waiting or pool.running:
        if pool.stop_dispatch:
            # strict stop: drop everything not yet terminal.  Dropped
            # analyses are never journaled, so ``--resume`` re-runs them.
            pool.queue.clear()
            pool.waiting.clear()
            if not pool.running:
                break
        now = monotonic()
        due = [t for t in pool.waiting if t.retry_at <= now]
        for task in due:
            pool.waiting.remove(task)
            pool.queue.insert(0, task)  # retries go to the head
        while pool.queue and len(pool.running) < jobs \
                and not pool.stop_dispatch:
            task = pool.queue.pop(0)
            if pool.forked:
                _start(pool, task)
            else:
                _attempt_done(pool, task, _run_inline(pool, task))
        if pool.running:
            _await_events(pool)
        elif pool.waiting:
            # nothing in flight: sleep out the earliest backoff (the
            # injectable policy.sleep keeps tests instantaneous), then
            # force the task due — the wait has been served either way
            task = min(pool.waiting, key=lambda t: t.retry_at)
            pool.policy.sleep(max(0.0, task.retry_at - monotonic()))
            task.retry_at = 0.0


def _attempt(name: str, fn, degraded: bool) -> dict:
    """One supervised attempt: every failure becomes a message."""
    try:
        outcome = run_analysis(name, fn, strict=False,
                               degraded_inputs=degraded, fingerprint=True)
    except BaseException as exc:  # untyped: a bug or an OS-level failure
        return {"event": "raised", "error": str(exc),
                "error_type": type(exc).__name__,
                "retryable": is_retryable_exception(exc)}
    return {"event": "outcome", "outcome": outcome}


def _run_inline(pool: _Pool, task: _Task) -> dict:
    """Run one attempt in this process."""
    start = perf_counter()
    with pool.telem.span(f"analyze.{task.name}") as sp:
        if pool.supervised:
            attempt = _attempt(task.name, task.fn, pool.degraded)
        else:
            attempt = {"event": "outcome", "outcome": run_analysis(
                task.name, task.fn, strict=pool.strict,
                degraded_inputs=pool.degraded, fingerprint=True)}
        outcome = attempt.get("outcome")
        sp.attrs["status"] = outcome.status.value if outcome else "failed"
    attempt["seconds"] = perf_counter() - start
    return attempt


def _child_main(conn, name: str, fn, degraded: bool) -> None:
    hang = chaos.injected_hang(name)
    if hang:
        time.sleep(hang)
    attempt = _attempt(name, fn, degraded)
    try:
        conn.send(attempt)
    except Exception:
        # the analysis value would not pickle across the pipe; keep the
        # status/timing (and the fingerprint, computed before the send)
        # and drop the value rather than failing the run
        outcome = attempt["outcome"]
        conn.send({"event": "outcome", "outcome": AnalysisOutcome(
            name=outcome.name, status=outcome.status, value=None,
            error=outcome.error, error_type=outcome.error_type,
            seconds=outcome.seconds, value_digest=outcome.value_digest)})


def _start(pool: _Pool, task: _Task) -> None:
    if pool.warm is not None:
        with pool.telem.span("analyze.warm_caches"):
            pool.warm()
        pool.warm = None
    task.started = perf_counter()
    task.proc, task.conn = fork_worker(_child_main, task.name, task.fn,
                                       pool.degraded)
    task.deadline = (None if pool.policy.timeout is None
                     else monotonic() + pool.policy.timeout)
    pool.running[task.conn] = task
    pool.telem.counter("parallel.dispatched", name=task.name).inc()
    pool.telem.gauge("parallel.workers").set(len(pool.running))


def _await_events(pool: _Pool) -> None:
    """Block until a worker reports, dies, or a deadline/backoff expires.

    Reading before joining matters: a large result blocks the worker's
    send until the parent drains the pipe, so join-then-recv would
    deadlock.  The wait also wakes on EOF when a worker dies silently.
    """
    now = monotonic()
    horizons = [t.deadline - now for t in pool.running.values()
                if t.deadline is not None]
    horizons += [t.retry_at - now for t in pool.waiting]
    timeout = max(0.0, min(horizons)) if horizons else None
    for conn in _wait_connections(list(pool.running), timeout):
        task = pool.running.pop(conn)
        pool.telem.gauge("parallel.workers").set(len(pool.running))
        _attempt_done(pool, task, _read_attempt(task))
    now = monotonic()
    expired = [t for t in pool.running.values()
               if t.deadline is not None and now >= t.deadline]
    for task in expired:
        pool.running.pop(task.conn)
        pool.telem.gauge("parallel.workers").set(len(pool.running))
        _attempt_done(pool, task, _kill_timed_out(pool, task))


def _read_attempt(task: _Task) -> dict:
    """Classify a readable (or EOF'd) worker."""
    try:
        attempt = task.conn.recv()
    except (EOFError, OSError):
        attempt = None  # died mid-send or silently; classify by exitcode
    task.proc.join()
    task.conn.close()
    seconds = perf_counter() - task.started
    if attempt is None:
        exitcode = task.proc.exitcode or 0
        if exitcode < 0:
            attempt = {"event": "killed", "retryable": True,
                       "error": f"child killed by signal {-exitcode}",
                       "error_type": "ChildKilled"}
        else:
            attempt = {"event": "crashed", "retryable": False,
                       "error": f"child exited with code {exitcode} "
                                "without reporting a result",
                       "error_type": "ChildCrashed"}
    attempt["seconds"] = seconds
    return attempt


def _kill_timed_out(pool: _Pool, task: _Task) -> dict:
    if task.proc.is_alive():
        task.proc.kill()
    task.proc.join()
    task.conn.close()
    return {"event": "timeout", "retryable": True,
            "error": f"timed out after {pool.policy.timeout:g}s "
                     "and was killed",
            "error_type": "AnalysisTimeout",
            "seconds": perf_counter() - task.started}


def _attempt_done(pool: _Pool, task: _Task, attempt: dict) -> None:
    """Advance one analysis's state machine after an attempt."""
    telem = pool.telem
    task.proc = task.conn = task.deadline = None
    task.attempts += 1
    if attempt["event"] == "outcome":
        outcome = attempt["outcome"]
        outcome.attempts = task.attempts
        outcome.timeouts = task.timeouts
        _terminal(pool, outcome)
        return
    if attempt["event"] == "timeout":
        task.timeouts += 1
        telem.counter("supervisor.timeouts", name=task.name).inc()
    elif attempt["event"] == "killed":
        telem.counter("supervisor.kills", name=task.name).inc()
    if not attempt["retryable"] \
            or task.attempts > pool.policy.retry.max_retries:
        _terminal(pool, AnalysisOutcome(
            name=task.name, status=AnalysisStatus.FAILED,
            error=attempt["error"], error_type=attempt["error_type"],
            seconds=attempt["seconds"], attempts=task.attempts,
            timeouts=task.timeouts))
        return
    delay = pool.policy.retry.delay(task.attempts - 1, task.rng)
    telem.counter("supervisor.retries", name=task.name).inc()
    task.retry_at = monotonic() + delay
    pool.waiting.append(task)


def _terminal(pool: _Pool, outcome: AnalysisOutcome) -> None:
    """Record a terminal outcome the moment it exists.

    Journal commits and cache stores happen here — not after the pool
    drains — so a run killed mid-flight resumes with every finished
    analysis already committed.  The parent is the only journal/cache
    writer.
    """
    pool.outcomes[outcome.name] = outcome
    pool.telem.histogram("pipeline.analysis_seconds",
                         name=outcome.name).observe(outcome.seconds)
    pool.telem.counter("pipeline.analyses",
                       status=outcome.status.value).inc()
    if pool.journal is not None:
        journal_outcome(pool.journal, outcome)
    if pool.cache is not None:
        pool.cache.put(pool.corpus_digest, pool.config_hash, outcome)
    if pool.strict and outcome.status is AnalysisStatus.FAILED:
        # stop dispatching new work; in-flight workers drain and are
        # journaled, then run_parallel raises for the earliest failure
        pool.stop_dispatch = True
