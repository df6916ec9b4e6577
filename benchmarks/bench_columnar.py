"""Columnar engine — record path vs vectorized path wall-clock.

The headline numbers for the columnar engine: one 10-day corpus is
generated, analysed serially on the record reference path
(``AnalysisPipeline``), then on the production pipeline from
``build_pipeline`` (vectorized kernels over in-memory columns), then
through ``build_pipeline`` at 1/2/4/8 jobs with forked workers sharing
the columns copy-on-write. Fingerprint equivalence is asserted inline —
the canonical reports must be byte-identical, otherwise the timing is
meaningless.

The measurements land as a paper-vs-measured block in
``benchmarks/latest_results.txt`` and as machine-readable JSON in
``benchmarks/BENCH_columnar.json`` (committed, with each re-run pushed
onto a dated ``history``). Target: the columnar serial pass is >= 5x
faster than the record serial pass; job scaling is only meaningful on a
multi-core host and the file records ``cpu_count`` so a flat curve on a
single-CPU box reads as what it is.

Scale knobs (same defaults as the parallel bench corpus)::

    REPRO_BENCH_COL_SCALE  default 0.02
    REPRO_BENCH_COL_DAYS   default 10
    REPRO_BENCH_COL_SEED   default 7
    REPRO_BENCH_COL_MIN_SPEEDUP  default 5.0 (assertion threshold)
"""

import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import record_bench_json, report
from repro import ControlPlaneCorpus, DataPlaneCorpus
from repro.cli import _load_platform
from repro.columnar import build_pipeline
from repro.core.pipeline import AnalysisPipeline
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE
from repro.runtime.generate import checkpointed_generate
from repro.scenario.config import ScenarioConfig

COL_SCALE = float(os.environ.get("REPRO_BENCH_COL_SCALE", "0.02"))
COL_DAYS = float(os.environ.get("REPRO_BENCH_COL_DAYS", "10"))
COL_SEED = int(os.environ.get("REPRO_BENCH_COL_SEED", "7"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_COL_MIN_SPEEDUP", "5.0"))

RESULTS_JSON = Path(__file__).with_name("BENCH_columnar.json")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _pipeline_for(corpus_dir: Path, build):
    control = ControlPlaneCorpus.load_jsonl(corpus_dir / CONTROL_FILE)
    data = DataPlaneCorpus.load_npz(corpus_dir / DATA_FILE)
    peers, rs_asn, peeringdb = _load_platform(corpus_dir)
    return build(control, data, peers, peeringdb=peeringdb,
                 route_server_asn=rs_asn)


@pytest.fixture(scope="module")
def col_config() -> ScenarioConfig:
    return ScenarioConfig.paper(scale=COL_SCALE, duration_days=COL_DAYS,
                                seed=COL_SEED)


def test_bench_columnar_engine(col_config, tmp_path_factory):
    corpus = tmp_path_factory.mktemp("bench-columnar") / "corpus"
    checkpointed_generate(col_config, corpus)

    # --- serial: record reference vs columnar -------------------------
    record_report, t_records = _timed(
        lambda: _pipeline_for(corpus, AnalysisPipeline).run_all(
            strict=False))
    columnar_report, t_columnar = _timed(
        lambda: _pipeline_for(corpus, build_pipeline).run_all(strict=False))
    # fingerprint equivalence, or the comparison is meaningless
    assert record_report.canonical_json() == columnar_report.canonical_json()
    speedup = t_records / t_columnar

    # --- job scaling over the copy-on-write columns --------------------
    scaling = {}
    for jobs in (1, 2, 4, 8):
        jobs_report, seconds = _timed(
            lambda j=jobs: _pipeline_for(corpus, build_pipeline).run_all(
                strict=False, jobs=j))
        assert jobs_report.canonical_json() == record_report.canonical_json()
        scaling[jobs] = round(seconds, 3)

    results = {
        "config": {"scale": COL_SCALE, "duration_days": COL_DAYS,
                   "seed": COL_SEED},
        "cpu_count": os.cpu_count(),
        "analyze": {"records_serial_seconds": round(t_records, 3),
                    "columnar_serial_seconds": round(t_columnar, 3),
                    "speedup": round(speedup, 2)},
        "columnar_jobs_seconds": {str(j): s for j, s in scaling.items()},
        "fingerprint_equivalent": True,
    }
    record_bench_json(RESULTS_JSON, results)

    note = ("" if (os.cpu_count() or 1) > 1 else
            "  [single-CPU host: job curve is fork overhead, flat by "
            "construction]")
    report(
        f"Columnar engine (scale={COL_SCALE}, {COL_DAYS:g} days, "
        f"cpus={os.cpu_count()})",
        f"analyze: records {t_records:.2f}s  columnar {t_columnar:.2f}s  "
        f"({speedup:.2f}x serial)",
        "jobs:    " + "  ".join(f"{j}={s:.2f}s"
                                for j, s in scaling.items()) + note,
        "fingerprint equivalence: canonical reports byte-identical",
    )

    assert record_report.ok and columnar_report.ok
    assert speedup >= MIN_SPEEDUP, (
        f"columnar serial speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x target")
