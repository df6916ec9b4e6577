"""The metrics the benchmark prints, by name, with unit and direction.

``BENCHMARK.json`` at the repository root must list exactly these; the
benchmark's own tests hold the two equal, and :func:`check_emitted`
refuses to print a result that is missing one or carries an extra one.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Tuple

#: the sixteen analyses of the study, in study order; every analyze
#: report the benchmark checks must hold exactly these
ANALYSES = (
    "fig2_time_offset", "fig3_load", "fig4_targeted_visibility",
    "fig5_drop_by_length", "fig6_drop_cdfs", "fig7_top_sources",
    "fig8_org_types", "fig10_merge_sweep", "table2_pre_classes",
    "sec54_protocol_mix", "table3_amplification", "fig14_filterable",
    "fig15_participation", "table4_host_types", "fig18_collateral",
    "fig19_use_cases",
)

#: printed with ``--trace 0``: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: shared intermediates of the analysis pipeline, in dependency order
INTERMEDIATES = ("events", "pre_classification", "event_traffic",
                 "host_study")

#: printed with ``--trace 1``: (name, unit, better)
PER_LAYER = (
    ("corpus.load_control_s", "s", "lower"),
    ("corpus.load_data_s", "s", "lower"),
    ("corpus.control_records", "count", "higher"),
    ("corpus.data_packets", "count", "higher"),
    ("columnar.open_s", "s", "lower"),
    ("columnar.sidecar_bytes", "bytes", "lower"),
    ("runtime.generate_s", "s", "lower"),
    ("runtime.segment_bytes", "bytes", "lower"),
    ("runtime.corpus_bytes", "bytes", "lower"),
    ("scenario.run_s", "s", "lower"),
    ("parallel.digest_s", "s", "lower"),
    ("parallel.cache_hit_ratio", "ratio", "higher"),
    ("parallel.run_all_s", "s", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.cache_bytes", "bytes", "lower"),
    ("parallel.serial_reference_s", "s", "lower"),
    *((f"core.{name}_s", "s", "lower") for name in INTERMEDIATES),
    *((f"core.analysis.{name}_s", "s", "lower") for name in ANALYSES),
    ("core.rtbh_events", "count", "higher"),
    ("streaming.advance_s", "s", "lower"),
    ("streaming.tick_s", "s", "lower"),
    ("streaming.report_incremental_s", "s", "lower"),
    ("streaming.report_batch_s", "s", "lower"),
    ("streaming.mode_incremental", "count", "higher"),
    ("streaming.mode_cached", "count", "higher"),
    ("streaming.mode_batch", "count", "lower"),
    ("streaming.checkpoint_bytes", "bytes", "lower"),
    ("doctor.scrub_s", "s", "lower"),
    ("doctor.damages", "count", "lower"),
    ("client.rss_growth_mb", "MB", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def invalid_names(metrics: Iterable[Tuple[str, str, str]]) -> list:
    """Every (name, unit, better) entry that breaks the naming rules."""
    seen = set()
    bad = []
    for name, unit, better in metrics:
        if (not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit)
                or better not in ("lower", "higher") or name in seen):
            bad.append((name, unit, better))
        seen.add(name)
    return bad


def check_emitted(values: Dict[str, float], trace: bool) -> dict:
    """The result line's ``metrics`` object; raises on a missing or extra
    metric, since printing it would break the declared contract."""
    catalog = PER_LAYER if trace else END_TO_END
    names = {name for name, _, _ in catalog}
    if set(values) != names:
        raise RuntimeError(
            f"metrics missing {sorted(names - set(values))}, "
            f"unexpected {sorted(set(values) - names)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in catalog}
