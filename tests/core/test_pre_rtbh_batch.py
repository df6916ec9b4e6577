"""The batched §5.3 pass against a per-event oracle.

``oracle_classify`` is the event-at-a-time classification the batch pass
replaced — slice and mask one pre-window, build its ``(slots, 5)``
feature matrix slot by slot, run the detector one feature column at a
time — kept here verbatim as the reference.  Results are compared with
``value_fingerprint``, so any drift in a single float fails.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pre_rtbh as pre_mod
from repro.core.events import RTBHEvent
from repro.core.pre_rtbh import (
    N_SLOTS,
    PRE_WINDOW,
    SLOT,
    PreRTBHClass,
    PreRTBHClassification,
    PreRTBHEvent,
    classify_pre_rtbh_events,
)
from repro.corpus import DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.net import IPv4Prefix
from repro.parallel.golden import value_fingerprint
from repro.stats.anomaly import AnomalyConfig, EWMAAnomalyDetector
from repro.streaming import PreRTBHReducer

HOUR = 3_600.0
#: victims with traffic (two hosts, one covering /24) and one without
PREFIXES = [IPv4Prefix("203.0.113.7/32"), IPv4Prefix("203.0.113.9/32"),
            IPv4Prefix("203.0.113.0/24"), IPv4Prefix("192.0.2.0/28")]
HOSTS = [int(IPv4Prefix("203.0.113.7/32").network_int),
         int(IPv4Prefix("203.0.113.9/32").network_int),
         int(IPv4Prefix("203.0.113.200/32").network_int)]


# -- the per-event oracle -----------------------------------------------------

def oracle_slot_features(packets, window_start):
    features = np.zeros((N_SLOTS, 5), dtype=np.float64)
    if len(packets) == 0:
        return features
    slots = ((packets["time"] - window_start) // SLOT).astype(np.int64)
    valid = (slots >= 0) & (slots < N_SLOTS)
    packets = packets[valid]
    slots = slots[valid]
    if len(packets) == 0:
        return features
    order = np.argsort(slots, kind="stable")
    packets, slots = packets[order], slots[order]
    bounds = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
    bounds = np.r_[bounds, len(slots)]
    flow_key = (
        packets["src_ip"].astype(np.uint64) * np.uint64(2654435761)
        ^ (packets["dst_ip"].astype(np.uint64) << np.uint64(16))
        ^ (packets["src_port"].astype(np.uint64) << np.uint64(32))
        ^ (packets["dst_port"].astype(np.uint64) << np.uint64(48))
        ^ packets["protocol"].astype(np.uint64)
    )
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        s = slots[lo]
        chunk = packets[lo:hi]
        keys = flow_key[lo:hi]
        features[s, 0] = hi - lo
        features[s, 1] = len(np.unique(keys))
        features[s, 2] = len(np.unique(chunk["src_ip"]))
        features[s, 3] = len(np.unique(chunk["dst_port"]))
        non_tcp = chunk["protocol"] != 6
        features[s, 4] = len(np.unique(keys[non_tcp])) if non_tcp.any() else 0
    return features


def oracle_detect_multi(detector, features):
    out = np.zeros(features.shape, dtype=bool)
    for j in range(features.shape[1]):
        out[:, j] = detector.detect(features[:, j])
    return out


def oracle_event(data, event, detector, corpus_start, horizon=10.0):
    window_start = event.start - PRE_WINDOW
    packets = data.packets
    bits = (0xFFFFFFFF << (32 - event.prefix.length)) & 0xFFFFFFFF
    window = packets[(packets["time"] >= window_start)
                     & (packets["time"] < event.start)
                     & ((packets["dst_ip"] & np.uint32(bits))
                        == np.uint32(event.prefix.network_int))]
    total = len(window)
    if total == 0:
        return PreRTBHEvent(event_id=event.event_id,
                            classification=PreRTBHClass.NO_DATA,
                            slots_with_data=0, total_packets=0)
    features = oracle_slot_features(window, window_start)
    flags = oracle_detect_multi(detector, features)
    first_real = int(max(0.0, np.ceil((corpus_start - window_start) / SLOT)))
    if first_real > 0:
        flags[:min(first_real + detector.config.min_window, N_SLOTS)] = False
    levels = flags.sum(axis=1)
    anomalies = tuple((float((N_SLOTS - s) * SLOT / 60.0), int(levels[s]))
                      for s in np.flatnonzero(levels > 0))
    means = features.mean(axis=0)
    last = features[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(means > 0, last / means, np.nan)
    recent = any(off <= horizon for off, _ in anomalies)
    return PreRTBHEvent(
        event_id=event.event_id,
        classification=(PreRTBHClass.DATA_ANOMALY if recent
                        else PreRTBHClass.DATA_NO_ANOMALY),
        slots_with_data=int((features[:, 0] > 0).sum()),
        total_packets=total,
        anomalies=anomalies,
        amplification_factors=tuple(float(f) for f in factors),
        last_slot_is_max=bool(last[0] > 0 and last[0] >= features[:, 0].max()),
    )


def oracle_classify(data, events):
    detector = EWMAAnomalyDetector(AnomalyConfig())
    corpus_start = data.start_time if len(data) else 0.0
    result = PreRTBHClassification()
    result.events = [oracle_event(data, event, detector, corpus_start)
                     for event in events]
    return result


# -- corpora ------------------------------------------------------------------

def make_corpus(seed, corpus_start, days, bursts, udp_only_host):
    """Steady TCP background to the victims plus short bursts, some of
    them non-TCP only; ``udp_only_host`` gets nothing but UDP."""
    rng = np.random.default_rng(seed)
    span = days * 24 * HOUR
    n = int(rng.integers(200, 1_500))
    cols = {
        "time": corpus_start + rng.uniform(0.0, span, n),
        "dst_ip": rng.choice(HOSTS, n).astype(np.uint32),
        "src_ip": rng.integers(1, 400, n).astype(np.uint32),
        "src_port": rng.integers(1024, 1100, n).astype(np.uint16),
        "dst_port": rng.choice([80, 443, 22], n).astype(np.uint16),
        "protocol": np.full(n, 6, dtype=np.uint8),
    }
    cols["protocol"][cols["dst_ip"] == HOSTS[udp_only_host]] = 17
    parts = [cols]
    for at, size, proto in bursts:
        t = corpus_start + at * span
        parts.append({
            "time": t + rng.uniform(0.0, SLOT, size),
            "dst_ip": np.full(size, HOSTS[0], dtype=np.uint32),
            "src_ip": rng.integers(10_000, 10_000 + size, size).astype(np.uint32),
            "src_port": np.full(size, 123, dtype=np.uint16),
            "dst_port": rng.integers(1024, 65536, size).astype(np.uint16),
            "protocol": np.full(size, proto, dtype=np.uint8),
        })
    merged = {k: np.concatenate([p[k] for p in parts]) for k in cols}
    # the corpus' first packet sits exactly at its start
    merged["time"][0] = corpus_start
    return DataPlaneCorpus(packets_from_arrays(merged))


def make_events(starts_and_prefixes):
    return [RTBHEvent(event_id=i, prefix=prefix,
                      windows=((start, start + 1_800.0),),
                      announcer_asns=(100,), origin_asn=65_000)
            for i, (start, prefix) in enumerate(starts_and_prefixes)]


@st.composite
def scenarios(draw):
    corpus_start = draw(st.sampled_from([0.0, 7_200.0, 50_000.0]))
    days = draw(st.integers(2, 6))
    bursts = draw(st.lists(st.tuples(st.floats(0.0, 1.0),
                                     st.integers(5, 300),
                                     st.sampled_from([6, 17, 1])),
                           max_size=4))
    data = make_corpus(draw(st.integers(0, 2**31)), corpus_start, days,
                       bursts, draw(st.integers(0, 2)))
    # starts from before the corpus (empty windows) to past its end;
    # most pre-windows begin before the corpus does
    events = make_events(draw(st.lists(
        st.tuples(st.floats(-0.2, 1.1).map(
                      lambda f: corpus_start + f * days * 24 * HOUR),
                  st.sampled_from(PREFIXES)),
        min_size=1, max_size=11)))
    return data, events


class TestBatchedClassification:
    @settings(max_examples=30, deadline=None)
    @given(scenarios(), st.integers(1, 4))
    def test_equals_per_event_oracle(self, scenario, chunk):
        data, events = scenario
        with mock.patch.object(pre_mod, "CHUNK_EVENTS", chunk):
            got = classify_pre_rtbh_events(data, events)
        assert value_fingerprint(got) == \
            value_fingerprint(oracle_classify(data, events))

    def test_more_events_than_one_chunk(self):
        data = make_corpus(5, 3_600.0, 6, [(0.5, 200, 17), (0.8, 300, 6),
                                           (0.95, 80, 1)], 1)
        rng = np.random.default_rng(5)
        n = pre_mod.CHUNK_EVENTS + 7
        events = make_events(
            (3_600.0 + float(t), PREFIXES[int(k)])
            for t, k in zip(rng.uniform(0.0, 6 * 24 * HOUR, n),
                            rng.integers(0, len(PREFIXES), n)))
        got = classify_pre_rtbh_events(data, events)
        classes = {e.classification for e in got.events}
        assert PreRTBHClass.NO_DATA in classes
        assert PreRTBHClass.DATA_NO_ANOMALY in classes
        assert value_fingerprint(got) == \
            value_fingerprint(oracle_classify(data, events))

    def test_empty_corpus_is_all_no_data(self):
        data = DataPlaneCorpus(packets_from_arrays({}))
        events = make_events([(PRE_WINDOW, PREFIXES[0])])
        got = classify_pre_rtbh_events(data, events)
        assert value_fingerprint(got) == \
            value_fingerprint(oracle_classify(data, events))
        assert got.events[0].classification is PreRTBHClass.NO_DATA


class TestReducerChunking:
    @settings(max_examples=15, deadline=None)
    @given(scenarios(), st.floats(0.0, 1.0))
    def test_two_chunks_equal_the_batch(self, scenario, split):
        data, events = scenario
        events = sorted(events, key=lambda e: e.start)
        cut = int(split * len(events))
        reducer = PreRTBHReducer()
        # the first chunk sees only the data before its last event start
        # (the corpus start is the same), the second the whole corpus
        horizon = max((e.start for e in events[:cut]), default=0.0)
        prefix = data.packets[data.packets["time"] < max(
            horizon, data.start_time + 1.0)]
        reducer.advance(DataPlaneCorpus(prefix), events[:cut])
        reducer.advance(data, events)
        assert value_fingerprint(reducer.classification(events)) == \
            value_fingerprint(classify_pre_rtbh_events(data, events))
