"""The columnar analysis pipeline.

:class:`ColumnarPipeline` is an :class:`~repro.core.pipeline
.AnalysisPipeline` whose per-event traffic and hottest analyses are
computed by the vectorized kernels of :mod:`repro.columnar.kernels` over
contiguous in-memory copies of the five packet fields they read, instead
of per-event record scans.  Events come from the inherited
:attr:`~repro.core.pipeline.AnalysisPipeline.events`: the control
corpus' own RTBH window automaton; the pre-RTBH classification is the
inherited batched pass of :mod:`repro.core.pre_rtbh`.

Dispatch is by capability flag: registry specs with ``columnar=True``
resolve to a ``_columnar_*`` twin, every other analysis falls through to
the inherited record implementation.  Because the subclass only
overrides ``analysis_fn`` and the cached properties, the scheduler
(which duck-types both) picks the columnar twins up unchanged, and
forked workers share the columns copy-on-write.

Equality with the record path is *by construction*: the kernels emit the
same intermediate objects (``EventTraffic`` streams, per-event packet
arrays) and the record path's own aggregation functions run on top, so
``value_fingerprint`` digests match bit for bit — the contract the
differential suite in ``tests/columnar`` enforces.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

import numpy as np

from repro.columnar import kernels
from repro.core import droprate as droprate_mod
from repro.core import filtering as filtering_mod
from repro.core import protocols as protocols_mod
from repro.core.events import RTBHEvent
from repro.core.pipeline import AnalysisPipeline
from repro.core.registry import get_analysis

#: the packet fields the kernels read; ``searchsorted`` over a strided
#: structured-array field copies it on every call, so each is copied out
#: contiguous once
DATA_COLUMNS = ("time", "dst_ip", "size", "dropped", "ingress_asn")


def build_pipeline(control, data, peer_asns, *, corpus_dir=None,
                   **pipeline_kwargs) -> "ColumnarPipeline":
    """The pipeline ``analyze``, ``Study.analyze`` and the streaming
    engine run.

    ``pipeline_kwargs`` are the usual :class:`AnalysisPipeline` keyword
    arguments (``peeringdb``, ``route_server_asn``, ``delta``,
    ``host_min_days``).  ``corpus_dir`` is accepted and ignored: the
    columns are built in memory from ``control`` and ``data``, and the
    keyword stays only because ``perfbench/workloads.py`` passes it.
    """
    return ColumnarPipeline(control, data, peer_asns, **pipeline_kwargs)


class ColumnarPipeline(AnalysisPipeline):
    """Vectorized pipeline over in-memory struct-of-arrays columns."""

    # -- column views --------------------------------------------------

    @cached_property
    def data_columns(self) -> Dict[str, np.ndarray]:
        """Contiguous copies of the packet fields in :data:`DATA_COLUMNS`
        (``time`` is the corpus' own contiguous column)."""
        packets = self.data.packets
        return {name: (self.data.times if name == "time"
                       else np.ascontiguousarray(packets[name]))
                for name in DATA_COLUMNS}

    # -- data-plane kernel state ---------------------------------------

    @cached_property
    def _event_rows(self) -> Dict[int, np.ndarray]:
        """Per event: sorted packet-row indices of its windows."""
        return kernels.event_row_index(self.data_columns["time"],
                                       self.data_columns["dst_ip"],
                                       self.events)

    def _window_packets(self, event: RTBHEvent) -> np.ndarray:
        """The ``window_packets`` hook: gather instead of slice+mask."""
        return self.data.packets[self._event_rows[event.event_id]]

    @cached_property
    def event_traffic(self) -> List[droprate_mod.EventTraffic]:
        """Per-event during-blackhole totals — vectorized twin."""
        return kernels.event_traffic_from_rows(
            self.data_columns, self.events, self._event_rows)

    # -- dispatch ------------------------------------------------------

    def analysis_fn(self, name: str):
        spec = get_analysis(name)
        if not spec.columnar:
            return super().analysis_fn(name)
        return getattr(self, "_columnar_" + spec.name)

    # -- vectorized analyses -------------------------------------------

    def _columnar_fig5_drop_by_length(self):
        # the record impl recomputes event_traffic; reuse the cached one
        return droprate_mod.aggregate_drop_rates(self.event_traffic)

    def _columnar_fig6_drop_cdfs(self, lengths=(24, 32)):
        return droprate_mod.drop_cdfs_from_traffic(self.event_traffic,
                                                   lengths=lengths)

    def _columnar_fig7_top_sources(self, top_n: int = 100):
        return kernels.top_source_reactions_from_rows(
            self.data_columns, self.events, self._event_rows, top_n=top_n)

    def _columnar_fig8_org_types(self, top_n: int = 100):
        return droprate_mod.top_source_org_types(
            self._columnar_fig7_top_sources(top_n=top_n), self.peeringdb)

    def _columnar_table2_pre_classes(self):
        return self.pre_classification.class_shares()

    def _columnar_sec54_protocol_mix(self):
        return protocols_mod.event_protocol_mix(
            self.data, self.events, self.pre_classification,
            window_packets=self._window_packets)

    def _columnar_table3_amplification(self):
        return protocols_mod.amplification_protocol_table(
            self._columnar_sec54_protocol_mix())

    def _columnar_fig14_filterable(self):
        return filtering_mod.filterable_share_cdf(
            self.data, self.events, self.pre_classification,
            window_packets=self._window_packets)

    def _columnar_fig15_participation(self):
        return filtering_mod.as_participation(
            self.data, self.events, self.pre_classification,
            window_packets=self._window_packets)
