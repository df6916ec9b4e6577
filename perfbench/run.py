"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload analyze-cold --seed 7 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced pass that prints the per-layer
metrics.  Diagnostic lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Corpora are written under ``.perfbench_work/`` in the
repository root and removed when the run ends.  The program under test
is imported from ``src/``; without it the run fails before printing a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"


def _stamp(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    from perfbench import workloads
    from repro.telemetry import git_revision

    corpora = 1 if trace else workloads.CORPORA
    return {"workload": workload, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scale": workloads.SCALE,
            "days": (workloads.GROW_DAYS if workload == "grow-watch"
                     else workloads.ANALYZE_DAYS),
            "seed": seed,
            "corpus_seeds": [seed + workloads.SEED_STRIDE * k
                             for k in range(corpora)],
            "git_commit": git_revision()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} missing: nothing to "
              "benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads
    from perfbench.catalog import END_TO_END, PER_LAYER, check_emitted
    from perfbench.spans import describe

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    print("stamp: " + json.dumps(_stamp(args.workload, args.seed,
                                        bool(args.trace))))

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        run = workloads.trace if args.trace else workloads.measure
        outcome = run(args.workload, WORK_DIR, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    for name, values in outcome.samples.items():
        unit = units.get(name) or ("MB" if name.endswith("_mb") else "s")
        print(describe(name, values, unit))
    for name, value in sorted(outcome.values.items()):
        if name not in outcome.samples:
            print(f"{name}: {value:.6g} {units[name]}")
    for error in outcome.errors:
        print("failed: " + error.rstrip(), file=sys.stderr)
    metrics = check_emitted(outcome.values, trace=bool(args.trace))
    print(json.dumps({"correct": not outcome.errors and not outcome.failed,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
