"""§5.2–5.3: traffic before RTBH events (Figs 11–13, Table 2).

For every RTBH event the 72 hours before the first announcement (the
*pre-RTBH event*) are aggregated into 5-minute slots with five features —
packets, flows, unique source IPs, unique destination ports, non-TCP
flows — and scanned with the EWMA anomaly detector (24 h span, 2.5 SD).
Events are classified into: no sampled data at all / data but no anomaly /
data with an anomaly within 10 minutes of the first announcement.

Classification is one batch feature pass per chunk of
:data:`CHUNK_EVENTS` events: the chunk's pre-window rows are gathered
field by field, every (event, slot) cell is counted at once, and the
detector runs once over a ``(slots, events × features)`` matrix.  The
chunk bound keeps the pass's memory independent of the event count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError
from repro.stats.anomaly import AnomalyConfig, EWMAAnomalyDetector

SLOT = 300.0                 # 5-minute slots
PRE_WINDOW = 72 * 3_600.0    # 72 hours
N_SLOTS = int(PRE_WINDOW / SLOT)
FEATURE_NAMES = ("packets", "flows", "src_ips", "dst_ports", "non_tcp_flows")

#: events classified per batch: bounds the chunk's row gathers and its
#: ``(N_SLOTS, CHUNK_EVENTS × 5)`` detector matrix
CHUNK_EVENTS = 64

#: the packet fields the slot features read
_FIELDS = ("time", "src_ip", "dst_ip", "src_port", "dst_port", "protocol")

_MAX32 = 0xFFFFFFFF


def _distinct_per_cell(cell: np.ndarray, ids: np.ndarray,
                       n_cells: int) -> np.ndarray:
    """Number of distinct ``ids`` (< 2**32) per cell, from one sort."""
    pairs = np.sort((cell.astype(np.uint64) << np.uint64(32))
                    | ids.astype(np.uint64))
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return np.bincount((pairs[first] >> np.uint64(32)).astype(np.int64),
                       minlength=n_cells)


def _window_features(columns: Dict[str, np.ndarray], owner: np.ndarray,
                    window_starts: np.ndarray, n_slots: int = N_SLOTS,
                    slot: float = SLOT) -> np.ndarray:
    """The §5.3 feature matrices of many windows, ``(windows, n_slots, 5)``.

    ``columns`` holds the packet fields of :data:`_FIELDS` row by row,
    ``owner`` each row's window index, ``window_starts`` each window's
    start.  Rows outside their window's slots are ignored; uniques
    (flows, sources, ports) are counted per slot.
    """
    n_cells = len(window_starts) * n_slots
    features = np.zeros((n_cells, len(FEATURE_NAMES)), dtype=np.float64)
    slots = ((columns["time"] - window_starts[owner]) // slot).astype(np.int64)
    valid = (slots >= 0) & (slots < n_slots)
    cell = owner[valid] * n_slots + slots[valid]
    if len(cell):
        src, dst, sport, dport, proto = (
            columns[name][valid] for name in _FIELDS[1:])
        flow_key = (
            src.astype(np.uint64) * np.uint64(2654435761)
            ^ (dst.astype(np.uint64) << np.uint64(16))
            ^ (sport.astype(np.uint64) << np.uint64(32))
            ^ (dport.astype(np.uint64) << np.uint64(48))
            ^ proto.astype(np.uint64)
        )
        _, flow = np.unique(flow_key, return_inverse=True)
        non_tcp = proto != 6
        features[:, 0] = np.bincount(cell, minlength=n_cells)
        features[:, 1] = _distinct_per_cell(cell, flow, n_cells)
        features[:, 2] = _distinct_per_cell(cell, src, n_cells)
        features[:, 3] = _distinct_per_cell(cell, dport, n_cells)
        features[:, 4] = _distinct_per_cell(cell[non_tcp], flow[non_tcp],
                                            n_cells)
    return features.reshape(len(window_starts), n_slots, len(FEATURE_NAMES))


def slot_features(packets: np.ndarray, window_start: float,
                  n_slots: int = N_SLOTS, slot: float = SLOT) -> np.ndarray:
    """The §5.3 feature matrix of one window, ``(n_slots, 5)``.

    ``packets`` must already be restricted to the traffic of interest.
    """
    columns = {name: packets[name] for name in _FIELDS}
    return _window_features(columns, np.zeros(len(packets), dtype=np.int64),
                           np.array([window_start], dtype=np.float64),
                           n_slots, slot)[0]


class PreRTBHClass(str, Enum):
    NO_DATA = "no-data"
    DATA_NO_ANOMALY = "data-no-anomaly"
    DATA_ANOMALY = "data-anomaly"


@dataclass(frozen=True)
class PreRTBHEvent:
    """Per-event pre-window summary."""

    event_id: int
    classification: PreRTBHClass
    slots_with_data: int
    total_packets: int
    #: (minutes before the event start, anomaly level) per anomalous slot
    anomalies: Tuple[Tuple[float, int], ...] = ()
    #: per-feature last-slot / window-mean ratios (NaN when undefined)
    amplification_factors: Tuple[float, ...] = ()
    last_slot_is_max: bool = False

    @property
    def has_anomaly_within(self) -> Dict[str, bool]:
        return {
            "10min": any(off <= 10.0 for off, _ in self.anomalies),
            "1h": any(off <= 60.0 for off, _ in self.anomalies),
        }


@dataclass
class PreRTBHClassification:
    """Corpus-wide results: Table 2 plus the Fig. 11–13 inputs."""

    events: List[PreRTBHEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def class_shares(self) -> Dict[PreRTBHClass, float]:
        """Table 2: the three-class split (anomaly = within 10 min)."""
        n = len(self.events)
        if n == 0:
            raise AnalysisError("no events classified")
        counts = {c: 0 for c in PreRTBHClass}
        for event in self.events:
            counts[event.classification] += 1
        return {c: counts[c] / n for c in PreRTBHClass}

    def anomaly_share_within(self, minutes: float) -> float:
        """Share of all events with an anomaly at most ``minutes`` before."""
        n = len(self.events)
        hits = sum(any(off <= minutes for off, _ in e.anomalies)
                   for e in self.events)
        return hits / n if n else 0.0

    def slots_with_data_histogram(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 11: cumulative #events with ≤ k data slots (k on x)."""
        slots = np.array([e.slots_with_data for e in self.events
                          if e.classification is not PreRTBHClass.NO_DATA])
        if len(slots) == 0:
            return np.array([0]), np.array([0])
        ks = np.arange(0, slots.max() + 1)
        cumulative = np.array([(slots <= k).sum() for k in ks])
        return ks, cumulative

    def anomaly_offsets_levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 12: (minutes-before, level) pairs over all events."""
        offsets, levels = [], []
        for event in self.events:
            for off, level in event.anomalies:
                offsets.append(off)
                levels.append(level)
        return np.array(offsets), np.array(levels)

    def amplification_factor_summary(self) -> Dict[str, float]:
        """Fig. 13: last-slot amplification factors."""
        factors = []
        max_hits = 0
        considered = 0
        for event in self.events:
            if not event.amplification_factors:
                continue
            finite = [f for f in event.amplification_factors if np.isfinite(f)]
            if not finite:
                continue
            considered += 1
            factors.append(max(finite))
            max_hits += event.last_slot_is_max
        if not factors:
            raise AnalysisError("no events with a populated last slot")
        arr = np.array(factors)
        return {
            "events_with_last_slot_data": considered,
            "median_factor": float(np.median(arr)),
            "p90_factor": float(np.quantile(arr, 0.90)),
            "max_factor": float(arr.max()),
            "share_last_slot_is_max": max_hits / considered,
        }


def classify_pre_rtbh_events(
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    detector: EWMAAnomalyDetector | None = None,
    anomaly_horizon_min: float = 10.0,
) -> PreRTBHClassification:
    """Run the full §5.2–5.3 pipeline over all events.

    An event's result depends only on data *before* ``event.start`` (and
    the fixed corpus start), so the streaming engine classifies each
    event once — at the watermark where it first appears — and the
    outcome never changes as the corpus grows.
    """
    detector = detector or EWMAAnomalyDetector(AnomalyConfig())
    corpus_start = data.start_time if len(data) else 0.0
    result = PreRTBHClassification()
    for lo in range(0, len(events), CHUNK_EVENTS):
        result.events.extend(_classify_chunk(
            data, events[lo:lo + CHUNK_EVENTS], detector, corpus_start,
            anomaly_horizon_min))
    return result


def _pre_window_rows(data: DataPlaneCorpus, events: Sequence[RTBHEvent],
                     window_starts: np.ndarray) -> List[np.ndarray]:
    """Per event: the rows of its 72 h pre-window prefix traffic."""
    starts = np.array([event.start for event in events], dtype=np.float64)
    lo = np.searchsorted(data.times, window_starts, side="left")
    hi = np.searchsorted(data.times, starts, side="left")
    # one contiguous copy of the chunk's destination span (events come
    # sorted by start): masking the strided record field directly costs
    # several times more
    base = int(lo.min())
    dst = np.ascontiguousarray(data.packets["dst_ip"][base:int(hi.max())])
    rows = []
    for event, l, h in zip(events, (lo - base).tolist(), (hi - base).tolist()):
        prefix = event.prefix
        bits = (_MAX32 << (32 - prefix.length)) & _MAX32 if prefix.length else 0
        hit = (dst[l:h] & np.uint32(bits)) == np.uint32(prefix.network_int)
        rows.append(np.flatnonzero(hit) + (l + base))
    return rows


def _classify_chunk(data: DataPlaneCorpus, events: Sequence[RTBHEvent],
                    detector: EWMAAnomalyDetector, corpus_start: float,
                    anomaly_horizon_min: float) -> List[PreRTBHEvent]:
    """One batch feature pass and one detector run over ``events``."""
    window_starts = np.array([event.start - PRE_WINDOW for event in events],
                             dtype=np.float64)
    rows = _pre_window_rows(data, events, window_starts)
    totals = [len(r) for r in rows]
    has_data = [i for i, total in enumerate(totals) if total]
    picked = np.concatenate(rows)
    owner = np.repeat(np.arange(len(has_data)),
                      [totals[i] for i in has_data])
    columns = {name: (data.times if name == "time"
                      else data.packets[name])[picked] for name in _FIELDS}
    features = _window_features(columns, owner, window_starts[has_data])
    # the row gathers go before the detector allocates its matrices
    del rows, columns, picked, owner
    matrix = features.transpose(1, 0, 2).reshape(N_SLOTS, -1)
    flags = detector.detect(matrix).reshape(N_SLOTS, len(has_data),
                                            len(FEATURE_NAMES))
    column_of = {i: j for j, i in enumerate(has_data)}
    out = []
    for i, event in enumerate(events):
        if not totals[i]:
            out.append(PreRTBHEvent(
                event_id=event.event_id,
                classification=PreRTBHClass.NO_DATA,
                slots_with_data=0, total_packets=0,
            ))
            continue
        j = column_of[i]
        out.append(_summarize(event, totals[i], features[j], flags[:, j],
                              float(window_starts[i]), corpus_start,
                              detector.config.min_window,
                              anomaly_horizon_min))
    return out


def _summarize(event: RTBHEvent, total: int, features: np.ndarray,
               flags: np.ndarray, window_start: float, corpus_start: float,
               min_window: int, anomaly_horizon_min: float) -> PreRTBHEvent:
    """One event's classification from its features and detector flags."""
    # Slots before the corpus began are *artificially* zero; they must
    # not serve as detection history. Re-apply the full-window rule
    # relative to the first real slot.
    first_real = int(max(0.0, np.ceil((corpus_start - window_start) / SLOT)))
    if first_real > 0:
        cutoff = min(first_real + min_window, N_SLOTS)
        flags[:cutoff] = False
    levels = flags.sum(axis=1)
    anomalous = np.flatnonzero(levels > 0)
    anomalies = tuple(
        (float((N_SLOTS - s) * SLOT / 60.0), int(levels[s])) for s in anomalous
    )
    slots_with_data = int((features[:, 0] > 0).sum())
    # Fig. 13: relative rise of the final 5-minute slot
    means = features.mean(axis=0)
    last = features[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(means > 0, last / means, np.nan)
    has_recent = any(off <= anomaly_horizon_min for off, _ in anomalies)
    return PreRTBHEvent(
        event_id=event.event_id,
        classification=(PreRTBHClass.DATA_ANOMALY if has_recent
                        else PreRTBHClass.DATA_NO_ANOMALY),
        slots_with_data=slots_with_data,
        total_packets=total,
        anomalies=anomalies,
        amplification_factors=tuple(float(f) for f in factors),
        last_slot_is_max=bool(last[0] > 0 and last[0] >= features[:, 0].max()),
    )
