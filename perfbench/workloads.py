"""The benchmark's workloads, their correctness gates, and the traced pass.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns.  Analyses run with
``host_min_days=2`` (the paper's 20-of-104-day ratio on a 10-day corpus,
so that every analysis does work) and no step runs more than ``JOBS``
processes at once.

* ``analyze-cold`` runs ``repro analyze DIR --jobs 2 --host-min-days 2
  --json`` in-process against an emptied result cache, so ingest,
  sidecar open, shared intermediates, all sixteen analyses in forked
  workers and the cache writes all do real work.
* ``analyze-warm`` runs the same command with the cache filled during
  set-up, so every lookup hits: it shows what a fully cached run still
  pays.
* ``grow-watch`` catches a watcher up to a 5-day kept-segments corpus;
  each operation then appends one day (``advance_corpus``, ``tick``, the
  full stream report ``watch --once`` prints, a read-only deep doctor
  scrub).  History grows with every operation, so costs that scale with
  it show here and not on the analyze workloads.

The traced pass decomposes each operation into calls to the public
functions of the layers it crosses and records a span around each.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench.catalog import ANALYSES, INTERMEDIATES, PER_LAYER
from perfbench.spans import SpanRecorder, median
from perfbench.speed import SpeedClock

SCALE = 0.02
ANALYZE_DAYS = 10
GROW_DAYS = 5
HOST_MIN_DAYS = 2
JOBS = 2
#: An end-to-end run sets up several corpora, from seeds
#: ``seed + SEED_STRIDE * k``, and cycles its operations over them: corpus
#: size varies by a quarter between seeds.  ``setup_s`` is the median of
#: their set-ups.
CORPORA = 2
SEED_STRIDE = 1000
#: ``--seconds`` per ``grow-watch`` round, which appends one day to every
#: corpus; a run's round count depends on ``--seconds`` alone, so every
#: run appends the same days and history-dependent costs compare
GROW_ROUND_SECONDS = 20.0

CORPUS_FILES = ("control.jsonl", "data.npz", "platform.json",
                "manifest.json")
SEGMENT_DIR = ".segments"
SIDECAR_DIR = ".columnar"
CACHE_DIR = ".cache"
STREAM_CHECKPOINT = ".stream.checkpoint.json"


class OpError(Exception):
    """An operation's output failed its correctness check."""


# -- measurement helpers ------------------------------------------------------

def rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmRSS missing from /proc/self/status")


def path_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_in_child(fn: Callable[[], dict]) -> tuple:
    """Run ``fn`` in a forked child; return its result and the peak RSS
    in MB of the child and every process it started.

    ``wait4`` reports the larger of the child's own peak and that of its
    waited-for descendants, so forked analysis workers count; of the
    set-up before the fork, only what stays resident counts.
    """
    gc.collect()
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = {"result": fn()}
            except Exception:  # reported by the parent, then re-raised
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:
        text = inp.read()
    _, status, usage = os.wait4(pid, 0)
    payload = json.loads(text) if text else {}
    if "result" not in payload:
        raise RuntimeError("timed phase died (wait status "
                           f"{status}): {payload.get('error', '')}")
    return payload["result"], usage.ru_maxrss / 1024.0


# -- correctness --------------------------------------------------------------

def is_empty(value) -> bool:
    """Whether an analysis result holds nothing: ``None``, an empty
    container or array, or a record whose every field is empty."""
    if value is None:
        return True
    if isinstance(value, (bool, int, float)):
        return False
    if hasattr(value, "size") and hasattr(value, "dtype"):
        return value.size == 0
    if isinstance(value, dict):
        return all(is_empty(v) for v in value.values())
    if isinstance(value, (str, bytes)):
        return not value
    if hasattr(value, "__len__"):
        return len(value) == 0 or (isinstance(value, (list, tuple))
                                   and all(is_empty(v) for v in value))
    if hasattr(value, "__dict__"):
        return all(is_empty(v) for v in vars(value).values())
    return False


def check_outcomes(outcomes: List[dict], reference: Dict[str, str],
                   cached: Optional[bool] = None) -> None:
    """An analyze report's per-analysis entries against the reference."""
    names = [o["name"] for o in outcomes]
    if sorted(names) != sorted(ANALYSES):
        raise OpError(f"analyses {names} != the sixteen of the study")
    for o in outcomes:
        if o["status"] != "ok":
            raise OpError(f"{o['name']}: status {o['status']}: "
                          f"{o.get('error')}")
        if o["value_digest"] != reference[o["name"]]:
            raise OpError(f"{o['name']}: value digest differs from the "
                          "serial reference")
        if cached is not None and o["cached"] != cached:
            raise OpError(f"{o['name']}: cached={o['cached']}, "
                          f"expected {cached}")


def reference_digests(corpus: Path, rec: SpanRecorder) -> Dict[str, str]:
    """Digests of one serial ``Study.analyze()``; every value non-empty."""
    from repro import Study
    from repro.api import AnalyzeOptions

    with rec.span("parallel.serial_reference"):
        report = Study.open(corpus).analyze(
            options=AnalyzeOptions(host_min_days=HOST_MIN_DAYS))
    outcomes = report.to_json()["analyses"]
    check_outcomes(outcomes, {o["name"]: o["value_digest"]
                              for o in outcomes})
    empty = [o.name for o in report.outcomes if is_empty(o.value)]
    if empty:
        raise OpError(f"empty results: {empty}")
    return {o["name"]: o["value_digest"] for o in outcomes}


# -- layer calls --------------------------------------------------------------

def analyze_cli(corpus: Path) -> List[dict]:
    """The README's ``repro analyze`` run in-process; its outcomes."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["analyze", str(corpus), "--jobs", str(JOBS),
                   "--host-min-days", str(HOST_MIN_DAYS), "--json"])
    if rc != 0:
        raise OpError(f"repro analyze exited {rc}")
    return json.loads(out.getvalue())["analyses"]


def load_pipeline(corpus: Path, rec: SpanRecorder):
    """Ingest both corpus planes and build the pipeline analyze uses."""
    from repro.columnar import build_pipeline
    from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
    from repro.corpus.platform import load_platform

    with rec.span("corpus.load_control"):
        control = ControlPlaneCorpus.load_jsonl(corpus / "control.jsonl",
                                                on_error="skip")
    with rec.span("corpus.load_data"):
        data = DataPlaneCorpus.load_npz(corpus / "data.npz",
                                        on_error="skip")
    rec.count("corpus.control_records", len(control))
    rec.count("corpus.data_packets", len(data))
    peers, rs_asn, peeringdb = load_platform(corpus)
    with rec.span("columnar.open"):
        return build_pipeline(control, data, peers, corpus_dir=corpus,
                              peeringdb=peeringdb, route_server_asn=rs_asn,
                              host_min_days=HOST_MIN_DAYS)


def traced_analyze(corpus: Path, rec: SpanRecorder,
                   reference: Dict[str, str], cached: Optional[bool]):
    """``repro analyze --jobs 2`` decomposed into its layer calls."""
    from repro import telemetry
    from repro.parallel.cache import ResultCache, corpus_digest

    with rec.span("op"):
        pipeline = load_pipeline(corpus, rec)
        with rec.span("parallel.digest"):
            digest = corpus_digest(corpus)
        with rec.span("parallel.run_all"):
            report = pipeline.run_all(
                strict=False, jobs=JOBS, cache=ResultCache.for_corpus(corpus),
                corpus_digest=digest,
                config_hash=telemetry.config_hash(
                    {"policy": "skip", "host_min_days": HOST_MIN_DAYS}))
    outcomes = report.to_json()["analyses"]
    rec.count("parallel.cache_hit_ratio",
              sum(o["cached"] for o in outcomes) / len(outcomes))
    rec.count("parallel.worker_busy_s",
              sum(o["seconds"] for o in outcomes if not o["cached"]))
    rec.count("parallel.cache_bytes", path_bytes(corpus / CACHE_DIR))
    check_outcomes(outcomes, reference, cached)


def core_probe(corpus: Path, rec: SpanRecorder) -> None:
    """Each shared intermediate, then each analysis with the
    intermediates warm, on a fresh pipeline."""
    pipeline = load_pipeline(corpus, rec)
    for attr in INTERMEDIATES:
        with rec.span(f"core.{attr}"):
            getattr(pipeline, attr)
    rec.count("core.rtbh_events", len(pipeline.events))
    for name in ANALYSES:
        with rec.span(f"core.analysis.{name}"):
            value = pipeline.run(name)
        if is_empty(value):
            raise OpError(f"{name}: empty result")


def record_sizes(corpus: Path, rec: SpanRecorder) -> None:
    rec.count("runtime.corpus_bytes",
              sum(path_bytes(corpus / name) for name in CORPUS_FILES))
    rec.count("runtime.segment_bytes", path_bytes(corpus / SEGMENT_DIR))
    rec.count("columnar.sidecar_bytes", path_bytes(corpus / SIDECAR_DIR))


def generate(corpus: Path, seed: int, days: int, rec: SpanRecorder):
    from repro import GenerateOptions, Study

    with rec.span("runtime.generate"):
        return Study.generate(corpus, options=GenerateOptions(
            scale=SCALE, duration_days=days, seed=seed, keep_segments=True))


def open_watch(study, rec: SpanRecorder):
    """A watcher over ``study`` caught up to every committed day."""
    from repro import StreamOptions

    engine = study.watch(options=StreamOptions(host_min_days=HOST_MIN_DAYS))
    with rec.span("streaming.catch_up"):
        engine.tick()
    return engine


# -- workloads ----------------------------------------------------------------

@dataclass
class State:
    """One set-up's corpus, and what the operations carry between them."""

    corpus: Path
    seed: int
    days: int
    study: object = None
    engine: object = None
    reference: Dict[str, str] = field(default_factory=dict)
    #: the latest stream report's fingerprints
    fingerprints: Dict[str, str] = field(default_factory=dict)


class Analyze:
    """``analyze-cold`` (``warm=False``) and ``analyze-warm``."""

    def __init__(self, warm: bool):
        self.warm = warm
        #: per-step timing samples, for the diagnostics
        self.steps: Dict[str, List[float]] = {}

    def setup(self, corpus: Path, seed: int, rec: SpanRecorder) -> State:
        study = generate(corpus, seed, ANALYZE_DAYS, rec)
        if self.warm:
            with rec.span("parallel.fill"):
                analyze_cli(corpus)
        return State(corpus, seed, ANALYZE_DAYS, study)

    def prepare(self, state: State, rec: SpanRecorder) -> None:
        state.reference = reference_digests(state.corpus, rec)

    def op(self, state: State) -> float:
        if not self.warm:
            shutil.rmtree(state.corpus / CACHE_DIR, ignore_errors=True)
        start = time.perf_counter()
        outcomes = analyze_cli(state.corpus)
        elapsed = time.perf_counter() - start
        check_outcomes(outcomes, state.reference, self.warm)
        return elapsed

    def traced_op(self, state: State, rec: SpanRecorder) -> None:
        if not self.warm:
            shutil.rmtree(state.corpus / CACHE_DIR, ignore_errors=True)
        traced_analyze(state.corpus, rec, state.reference, self.warm)

    def sweep(self, state: State, rec: SpanRecorder) -> None:
        """The layers an analyze operation does not cross, measured on one
        ``grow-watch`` operation (its set-up is not recorded)."""
        grow = Grow()
        grown = grow.setup(state.corpus.with_name("grow-probe"), state.seed,
                           SpanRecorder())
        grow.traced_op(grown, rec)


class Grow:
    """``grow-watch``: one appended day per operation."""

    def __init__(self):
        self.steps: Dict[str, List[float]] = {}

    def setup(self, corpus: Path, seed: int, rec: SpanRecorder) -> State:
        study = generate(corpus, seed, GROW_DAYS, rec)
        return State(corpus, seed, GROW_DAYS, study,
                     open_watch(study, rec))

    def prepare(self, state: State, rec: SpanRecorder) -> None:
        pass

    def op(self, state: State) -> float:
        from repro.streaming import advance_corpus

        t0 = time.perf_counter()
        report = advance_corpus(state.corpus, 1)
        t1 = time.perf_counter()
        consumed = state.engine.tick()
        t2 = time.perf_counter()
        stream = state.engine.report()
        t3 = time.perf_counter()
        damage = state.study.doctor()
        t4 = time.perf_counter()
        state.days += 1
        state.fingerprints = stream.fingerprints()
        self._check(state, report.day_count, consumed,
                    stream.study.to_json()["analyses"],
                    stream.watermark_days, damage)
        for name, value in (("advance_wall_s", t1 - t0),
                            ("tick_wall_s", t2 - t1),
                            ("stream_report_wall_s", t3 - t2),
                            ("doctor_wall_s", t4 - t3)):
            self.steps.setdefault(name, []).append(value)
        return t4 - t0

    def traced_op(self, state: State, rec: SpanRecorder) -> None:
        from repro.core.registry import incremental_names
        from repro.streaming import advance_corpus

        incremental = [n for n in ANALYSES if n in incremental_names()]
        batch = [n for n in ANALYSES if n not in incremental]
        with rec.span("op"):
            with rec.span("streaming.advance"):
                report = advance_corpus(state.corpus, 1)
            with rec.span("streaming.tick"):
                consumed = state.engine.tick()
            with rec.span("streaming.report_incremental"):
                inc = state.engine.report(incremental)
            with rec.span("streaming.report_batch"):
                bat = state.engine.report(batch)
            with rec.span("doctor.scrub"):
                damage = state.study.doctor()
        state.days += 1
        state.fingerprints = {**inc.fingerprints(), **bat.fingerprints()}
        modes = list(inc.modes.values()) + list(bat.modes.values())
        for mode in ("incremental", "cached", "batch"):
            rec.count(f"streaming.mode_{mode}", modes.count(mode))
        rec.count("streaming.checkpoint_bytes",
                  path_bytes(state.corpus / STREAM_CHECKPOINT))
        rec.count("doctor.damages", len(damage.damages))
        self._check(state, report.day_count, consumed,
                    inc.study.to_json()["analyses"]
                    + bat.study.to_json()["analyses"],
                    bat.watermark_days, damage)

    @staticmethod
    def _check(state: State, day_count: int, consumed: int,
               outcomes: List[dict], watermark: int, damage) -> None:
        if day_count != state.days or watermark != state.days \
                or consumed != 1:
            raise OpError(f"advanced to {day_count} days, consumed "
                          f"{consumed}, watermark {watermark}; expected "
                          f"{state.days} days, one consumed")
        check_outcomes(outcomes, {o["name"]: o["value_digest"]
                                  for o in outcomes})
        if not damage.clean:
            raise OpError(f"doctor found damage: {damage.format()}")

    def sweep(self, state: State, rec: SpanRecorder) -> None:
        """The batch analyze layers over the grown corpus."""
        reference = reference_digests(state.corpus, rec)
        self._gate(state, reference)
        traced_analyze(state.corpus, rec, reference, None)

    def finish(self, state: State) -> None:
        """The end-of-run gate: the stream's fingerprints equal those of
        ``repro analyze`` over the grown corpus."""
        outcomes = analyze_cli(state.corpus)
        self._gate(state, {o["name"]: o["value_digest"] for o in outcomes})

    @staticmethod
    def _gate(state: State, batch: Dict[str, str]) -> None:
        if state.fingerprints != batch:
            differ = sorted(n for n in batch
                            if state.fingerprints.get(n) != batch[n])
            raise OpError(f"stream fingerprints differ from batch: {differ}")


WORKLOADS = {
    "analyze-cold": lambda: Analyze(warm=False),
    "analyze-warm": lambda: Analyze(warm=True),
    "grow-watch": Grow,
}


# -- the two passes -----------------------------------------------------------

@dataclass
class Outcome:
    """What one run measured, and how many operations it attempted."""

    values: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str]
    #: timing samples behind the printed medians, for the diagnostics
    samples: Dict[str, List[float]]


def _attempt(fn, errors: List[str]) -> bool:
    try:
        fn()
        return True
    except Exception:  # an operation failed: count it, keep measuring
        errors.append(traceback.format_exc())
        return False


def grow_rounds(seconds: float) -> int:
    return max(1, int(seconds // GROW_ROUND_SECONDS))


def _timed_loop(workload, states: List[State], seconds: float) -> dict:
    """The measured closed loop, cycling over the corpora in whole
    rounds; runs in the forked child."""
    samples: Dict[str, List[float]] = {"op_s": [], "op_wall_s": []}
    errors: List[str] = []
    attempted = failed = 0
    clock = SpeedClock()

    def one(state: State) -> None:
        try:
            wall = workload.op(state)
        finally:
            factor = clock.factor()
        samples["op_s"].append(wall * factor)
        samples["op_wall_s"].append(wall)

    rss_start = rss_mb()
    if isinstance(workload, Grow):
        for _ in range(grow_rounds(seconds)):
            for state in states:
                attempted += 1
                failed += not _attempt(lambda: one(state), errors)
        samples["rss_growth_mb"] = [rss_mb() - rss_start]
        for state in states:  # each corpus's gate counts as an operation
            attempted += 1
            failed += not _attempt(lambda: workload.finish(state), errors)
    else:
        deadline = time.monotonic() + seconds
        while (attempted == 0 or attempted % len(states)
               or time.monotonic() < deadline):
            state = states[attempted % len(states)]
            attempted += 1
            failed += not _attempt(lambda: one(state), errors)
    return {"samples": {**samples, **workload.steps,
                        "kernel_s": clock.kernels},
            "attempted": attempted, "failed": failed, "errors": errors}


def _setup(workload, root: Path, seed: int, corpora: int,
           rec: SpanRecorder) -> tuple:
    """Set up ``corpora`` corpora from seeds derived from ``seed``;
    return their states and each set-up's wall and nominal seconds."""
    states, walls, nominal = [], [], []
    clock = SpeedClock()
    for k in range(corpora):
        start = time.perf_counter()
        states.append(workload.setup(root / f"corpus-{k}",
                                     seed + SEED_STRIDE * k, rec))
        walls.append(time.perf_counter() - start)
        nominal.append(walls[-1] * clock.factor())
    for state in states:
        workload.prepare(state, rec)
    return states, {"setup_s": nominal, "setup_wall_s": walls}


def measure(name: str, root: Path, seed: int, seconds: float) -> Outcome:
    """The end-to-end pass: tracing off, times in nominal seconds."""
    workload = WORKLOADS[name]()
    states, setups = _setup(workload, root, seed, CORPORA, SpanRecorder())
    timed, peak = run_in_child(lambda: _timed_loop(workload, states,
                                                   seconds))
    samples = {**setups, **timed["samples"]}
    return Outcome(
        values={"setup_s": median(setups["setup_s"]),
                "op_s": median(samples["op_s"] or [0.0]),
                "peak_rss_mb": peak},
        attempted=timed["attempted"], failed=timed["failed"],
        errors=timed["errors"], samples=samples)


def trace(name: str, root: Path, seed: int, seconds: float) -> Outcome:
    """The traced pass: per-layer spans and counts.

    Operations run in blocks of untraced, traced, traced, untraced so
    that ``tracing.overhead_s`` (traced minus untraced operation time)
    cancels a linear drift such as growing history.
    """
    workload = WORKLOADS[name]()
    rec = SpanRecorder()
    errors: List[str] = []
    (state,), _ = _setup(workload, root, seed, 1, rec)
    rss_start = rss_mb()
    untraced: List[float] = []
    failed = attempted = 0
    deadline = time.monotonic() + seconds
    while True:
        for traced in (False, True, True, False):
            if traced:
                ok = _attempt(lambda: workload.traced_op(state, rec),
                              errors)
                record_sizes(state.corpus, rec)
            else:
                ok = _attempt(lambda: untraced.append(workload.op(state)),
                              errors)
            attempted += 1
            failed += not ok
        if isinstance(workload, Grow) or time.monotonic() >= deadline:
            break
    rec.count("client.rss_growth_mb", rss_mb() - rss_start)
    traced_ops = [s.duration for s in rec.spans if s.name == "op"]
    if untraced and traced_ops:
        rec.count("tracing.overhead_s", median(traced_ops) - median(untraced))
    for probe in (lambda: core_probe(state.corpus, rec),
                  lambda: _scenario_probe(state, rec),
                  lambda: workload.sweep(state, rec)):
        attempted += 1
        failed += not _attempt(probe, errors)
    values = {}
    for metric, _, _ in PER_LAYER:
        found = rec.self_times(metric[:-2]) if metric.endswith("_s") else []
        found = found or rec.counts.get(metric, [])
        if not found:
            errors.append(f"{metric}: nothing recorded")
        values[metric] = median(found or [0.0])
    return Outcome(values=values, attempted=attempted, failed=failed,
                   errors=errors, samples={"op_wall_s": untraced})


def _scenario_probe(state: State, rec: SpanRecorder) -> None:
    """The scenario run an ``advance`` to this length would repeat."""
    from repro.scenario import ScenarioConfig, run_scenario

    with rec.span("scenario.run"):
        run_scenario(ScenarioConfig.paper(scale=SCALE,
                                          duration_days=state.days,
                                          seed=state.seed))
