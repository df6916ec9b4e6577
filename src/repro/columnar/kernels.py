"""Vectorized analysis kernels over columnar corpus views.

Every kernel here is a *twin* of a record-path function and must produce
bit-identical results — the differential-equivalence suite
(``tests/columnar``) holds them to ``value_fingerprint`` equality on
seeded and hypothesis-generated corpora.  The strategy everywhere is to
vectorize the per-record scan (the part that cost ~21 of 27 serial
seconds on the bench corpus, almost all of it ``searchsorted`` copying
the strided ``time`` field view) and then *reuse the record path's own
aggregation code* on identical intermediate values, so equality is by
construction rather than by parallel reimplementation.

* :func:`event_row_index` — for every event, the sorted row indices of
  its during-blackhole packets, from two batched ``searchsorted`` calls
  over the contiguous time column plus per-window prefix masks.
  Gathering those rows from the packed record array yields exactly the
  array the record path builds by slice+mask+concat, which is what the
  ``window_packets`` hooks in :mod:`repro.core.protocols` and
  :mod:`repro.core.filtering` consume.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.droprate import EventTraffic, SourceReaction
from repro.core.events import RTBHEvent
from repro.errors import AnalysisError

_MAX32 = 0xFFFFFFFF


def _prefix_bits(length: int) -> np.uint32:
    return np.uint32((_MAX32 << (32 - length)) & _MAX32 if length else 0)


def event_row_index(time_col: np.ndarray, dst_col: np.ndarray,
                    events: Sequence[RTBHEvent],
                    ) -> Dict[int, np.ndarray]:
    """Per event: sorted row indices of its during-blackhole packets.

    All windows of all events go through two batched ``searchsorted``
    calls; the per-window prefix masks then touch only the (small) row
    ranges inside each window.  Event windows are disjoint and sorted,
    so the concatenated indices are strictly increasing — gathering them
    reproduces the record path's slice+mask+concat array exactly.
    """
    out: Dict[int, np.ndarray] = {}
    counts = [len(ev.windows) for ev in events]
    total = sum(counts)
    if total == 0 or len(time_col) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return {ev.event_id: empty for ev in events}
    starts = np.empty(total, dtype=np.float64)
    ends = np.empty(total, dtype=np.float64)
    pos = 0
    for ev in events:
        for s, e in ev.windows:
            starts[pos] = s
            ends[pos] = e
            pos += 1
    lo = np.searchsorted(time_col, starts, side="left").tolist()
    hi = np.searchsorted(time_col, ends, side="left").tolist()
    pos = 0
    for ev, k in zip(events, counts):
        bits = _prefix_bits(ev.prefix.length)
        target = np.uint32(ev.prefix.network_int)
        parts = []
        for w in range(k):
            l, h = lo[pos], hi[pos]
            pos += 1
            if h <= l:
                continue
            rows = np.flatnonzero((dst_col[l:h] & bits) == target)
            if rows.size:
                parts.append(rows.astype(np.int64) + l)
        out[ev.event_id] = (np.concatenate(parts) if parts
                            else np.zeros(0, dtype=np.int64))
    return out


def event_traffic_from_rows(
    data: Dict[str, np.ndarray],
    events: Sequence[RTBHEvent],
    rows_by_event: Dict[int, np.ndarray],
) -> List[EventTraffic]:
    """Twin of :func:`repro.core.droprate.event_traffic` over row
    indices: identical integer totals, identical object stream."""
    size_col = data["size"]
    dropped_col = data["dropped"]
    out: List[EventTraffic] = []
    for event in events:
        rows = rows_by_event[event.event_id]
        if rows.size == 0:
            out.append(EventTraffic(event.event_id, event.prefix.length,
                                    0, 0, 0, 0))
            continue
        sizes = size_col[rows].astype(np.int64)
        dropped = dropped_col[rows]
        out.append(EventTraffic(
            event_id=event.event_id,
            prefix_length=event.prefix.length,
            packets=int(rows.size),
            dropped_packets=int(dropped.sum()),
            bytes=int(sizes.sum()),
            dropped_bytes=int(sizes[dropped].sum()),
        ))
    return out


def top_source_reactions_from_rows(
    data: Dict[str, np.ndarray],
    events: Sequence[RTBHEvent],
    rows_by_event: Dict[int, np.ndarray],
    top_n: int = 100,
    prefix_length: int = 32,
) -> List[SourceReaction]:
    """Twin of :func:`repro.core.droprate.top_source_reactions`."""
    parts = [rows_by_event[ev.event_id] for ev in events
             if ev.prefix.length == prefix_length
             and rows_by_event[ev.event_id].size]
    if not parts:
        raise AnalysisError("no traffic towards blackholes of that length")
    rows = np.concatenate(parts)
    ingress = data["ingress_asn"][rows]
    drop_col = data["dropped"][rows]
    asns, inverse = np.unique(ingress, return_inverse=True)
    totals = np.bincount(inverse, minlength=len(asns))
    dropped = np.bincount(inverse, weights=drop_col.astype(np.float64),
                          minlength=len(asns)).astype(np.int64)
    order = np.argsort(totals)[::-1][:top_n]
    reactions = [SourceReaction(int(asns[i]), int(totals[i]),
                                int(dropped[i])) for i in order]
    reactions.sort(key=lambda r: r.drop_share, reverse=True)
    return reactions
