"""Deterministic fault-injection entry points.

The per-plane APIs are strict — asking for a fault the plane cannot express
(e.g. ``stuck_session`` on packets) raises
:class:`~repro.errors.FaultInjectionError`.  The directory API is the
operational one: it degrades a saved corpus in place of a collector's
failure, applying each spec to every plane it is meaningful for.

Determinism contract: identical ``(input, specs, seed)`` produce identical
output, byte for byte.  Each spec draws from its own
``np.random.default_rng`` stream keyed by ``(seed, position, kind)`` so
inserting a new spec never reshuffles the faults after it.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from repro.bgp.message import BGPUpdate
from repro import telemetry
from repro.faults import control as control_faults
from repro.faults import data as data_faults
from repro.faults.spec import (
    CONTROL_KINDS,
    DATA_KINDS,
    FaultApplication,
    FaultReport,
    FaultSpec,
    spec_rng_seed,
)


#: quarantine files (``<plane>.quarantine.jsonl``) are not corpora
QUARANTINE_MARKER = ".quarantine."


def _is_quarantine(path: Path) -> bool:
    return QUARANTINE_MARKER in path.name


def _rng(seed: int, index: int, spec: FaultSpec) -> np.random.Generator:
    return np.random.default_rng(spec_rng_seed(seed, index, spec))


def inject_control_messages(
    messages: Sequence[BGPUpdate],
    specs: Sequence[FaultSpec],
    seed: int = 0,
) -> Tuple[List[BGPUpdate], FaultReport]:
    """Apply every spec, in order, to a control-plane message sequence."""
    report = FaultReport(seed=seed, target="control-plane")
    out: List[BGPUpdate] = list(messages)
    for i, spec in enumerate(specs):
        out, affected, detail = control_faults.apply_control_fault(
            out, _rng(seed, i, spec), spec)
        report.applications.append(
            FaultApplication(spec=spec, affected=affected, detail=detail))
        telemetry.current().counter("faults.records_affected",
                                    kind=spec.kind, plane="control").inc(affected)
    return out, report


def inject_packets(
    packets: np.ndarray,
    specs: Sequence[FaultSpec],
    seed: int = 0,
) -> Tuple[np.ndarray, FaultReport]:
    """Apply every spec, in order, to a data-plane packet array."""
    report = FaultReport(seed=seed, target="data-plane")
    out = packets
    for i, spec in enumerate(specs):
        out, affected, detail = data_faults.apply_data_fault(
            out, _rng(seed, i, spec), spec)
        report.applications.append(
            FaultApplication(spec=spec, affected=affected, detail=detail))
        telemetry.current().counter("faults.records_affected",
                                    kind=spec.kind, plane="data").inc(affected)
    return out, report


def degrade_corpus_dir(
    src: str | Path,
    dst: str | Path,
    specs: Sequence[FaultSpec],
    seed: int = 0,
) -> FaultReport:
    """Copy a saved corpus from ``src`` to ``dst`` with faults applied.

    Each spec is applied to every plane it is meaningful for (so a single
    ``drop:0.1`` degrades both feeds); the perturbed control log is written
    in its *post-fault order*, preserving reordering on disk.  Side
    files (``platform.json`` etc.) are copied verbatim; any stale manifest
    is intentionally left behind so `repro validate` can flag the mismatch.
    """
    from repro.corpus.control import read_updates_jsonl, write_updates_jsonl
    from repro.corpus.data import read_packets_npz, write_packets_npz

    src, dst = Path(src), Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    report = FaultReport(seed=seed, target=str(src))

    for side in src.iterdir():
        if side.name.startswith("."):
            continue  # runtime internals (checkpoint journal, scratch)
        if side.is_file() and (_is_quarantine(side)
                               or side.suffix not in (".jsonl", ".npz")):
            # side files — including quarantine stores, which hold malformed
            # records by definition — are copied verbatim, never degraded
            shutil.copyfile(side, dst / side.name)

    telem = telemetry.current()
    for jsonl in sorted(src.glob("*.jsonl")):
        if jsonl.name.startswith(".") or _is_quarantine(jsonl):
            continue
        with telem.span("inject.control", source=jsonl.name):
            messages = [m for _, m in read_updates_jsonl(jsonl)]
            for i, spec in enumerate(specs):
                if spec.kind not in CONTROL_KINDS:
                    continue
                messages, affected, detail = control_faults.apply_control_fault(
                    messages, _rng(seed, i, spec), spec)
                report.applications.append(FaultApplication(
                    spec=spec, affected=affected,
                    detail=f"{jsonl.name}: {detail}"))
                telem.counter("faults.records_affected", kind=spec.kind,
                              plane="control").inc(affected)
            write_updates_jsonl(messages, dst / jsonl.name)

    for npz in sorted(src.glob("*.npz")):
        if npz.name.startswith("."):
            continue
        with telem.span("inject.data", source=npz.name):
            packets, rate = read_packets_npz(npz)
            for i, spec in enumerate(specs):
                if spec.kind not in DATA_KINDS:
                    continue
                packets, affected, detail = data_faults.apply_data_fault(
                    packets, _rng(seed, i, spec), spec)
                report.applications.append(FaultApplication(
                    spec=spec, affected=affected,
                    detail=f"{npz.name}: {detail}"))
                telem.counter("faults.records_affected", kind=spec.kind,
                              plane="data").inc(affected)
            write_packets_npz(packets, rate, dst / npz.name)

    return report
