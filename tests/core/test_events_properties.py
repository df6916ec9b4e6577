"""Property-based tests of the RTBH window automaton and the Δ-merge
machinery: the corpus and the streaming reducer must agree with an
independent per-(peer, prefix) replay on adversarial UPDATE streams, and
the fast gap-counting sweep must agree with actually extracting events,
for any corpus."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.events import extract_events, merge_threshold_sweep
from repro.corpus import ControlPlaneCorpus
from repro.net import IPv4Address, IPv4Prefix
from repro.streaming import ControlReducer

NH = IPv4Address("192.0.2.66")
PREFIXES = [IPv4Prefix("203.0.113.7/32"), IPv4Prefix("203.0.113.9/32"),
            IPv4Prefix("198.51.100.0/24")]


@st.composite
def corpora(draw):
    """A random corpus of non-overlapping windows per prefix."""
    messages = []
    for prefix in PREFIXES:
        n_windows = draw(st.integers(0, 6))
        t = 0.0
        for _ in range(n_windows):
            t += draw(st.floats(1.0, 5_000.0))
            start = t
            t += draw(st.floats(1.0, 5_000.0))
            end = t
            messages.append(announce(start, 100, prefix, NH,
                                     communities=frozenset({BLACKHOLE})))
            messages.append(withdraw(end, 100, prefix))
    return ControlPlaneCorpus(messages)


@st.composite
def adversarial_streams(draw):
    """UPDATE streams with duplicate blackhole announces, orphan
    withdraws, plain announces replacing a blackhole, two peers on one
    prefix, and windows left open at the end."""
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["bh", "plain", "withdraw"]),
                  st.sampled_from([100, 200]),
                  st.sampled_from(PREFIXES[:2]),
                  st.integers(0, 900),
                  st.sampled_from([64_501, 64_502])),
        min_size=1, max_size=40))
    messages, t = [], 0.0
    for op, peer, prefix, step, origin in ops:
        t += float(step)
        if op == "withdraw":
            messages.append(withdraw(t, peer, prefix))
        else:
            communities = frozenset({BLACKHOLE}) if op == "bh" else frozenset()
            messages.append(announce(t, peer, prefix, NH,
                                     as_path=(peer, origin),
                                     communities=communities))
    return messages


def replay_oracle(messages):
    """Replay each (peer, prefix) key on its own: a blackhole announce
    opens the key's window (or keeps it open), any other update of an
    open key is RTBH-related and closes it, and windows still open close
    at the last update of the whole stream."""
    by_key = {}
    for index, msg in enumerate(messages):
        by_key.setdefault((msg.peer_asn, msg.prefix), []).append(index)
    flags = [False] * len(messages)
    windows, origins, announcements = {}, {}, 0
    for (peer, prefix), indices in by_key.items():
        start = None
        for index in indices:
            msg = messages[index]
            if msg.is_announce and msg.is_blackhole:
                flags[index] = True
                announcements += 1
                origins.setdefault((prefix, peer), msg.origin_asn)
                start = msg.time if start is None else start
            elif start is not None:
                flags[index] = True
                windows.setdefault(prefix, []).append((start, msg.time, peer))
                start = None
        if start is not None:
            windows.setdefault(prefix, []).append(
                (start, messages[-1].time, peer))
    for ws in windows.values():
        ws.sort()
    return flags, windows, origins, announcements


class TestWindowAutomaton:
    @settings(max_examples=150, deadline=None)
    @given(adversarial_streams())
    def test_corpus_matches_replay_oracle(self, messages):
        corpus = ControlPlaneCorpus(messages)
        ordered = list(corpus)
        flags, windows, origins, announcements = replay_oracle(ordered)
        assert corpus.rtbh_updates() == [
            m for m, flag in zip(ordered, flags) if flag]
        assert corpus.rtbh_windows_by_prefix() == windows
        automaton = corpus.rtbh_automaton
        assert automaton.origin_of == origins
        assert corpus.rtbh_announcement_count() == announcements
        assert automaton.rtbh_times == [
            m.time for m, flag in zip(ordered, flags) if flag]

    @settings(max_examples=150, deadline=None)
    @given(adversarial_streams(), st.integers(0, 40))
    def test_chunked_reducer_matches_corpus(self, messages, split):
        corpus = ControlPlaneCorpus(messages)
        ordered = list(corpus)
        split = min(split, len(ordered))
        first = ControlReducer()
        fed = [first.feed(m) for m in ordered[:split]]
        resumed = ControlReducer.from_state(
            json.loads(json.dumps(first.to_state())))
        fed += [resumed.feed(m) for m in ordered[split:]]
        assert [m for m, flag in zip(ordered, fed) if flag] \
            == corpus.rtbh_updates()
        automaton = corpus.rtbh_automaton
        assert resumed.windows_snapshot() == corpus.rtbh_windows_by_prefix()
        assert resumed.origin_of == automaton.origin_of
        assert resumed.rtbh_times == automaton.rtbh_times
        assert resumed.active == automaton.active
        assert resumed.open_at == automaton.open_at
        assert (resumed.message_count, resumed.start_time,
                resumed.end_time) == (len(corpus), corpus.start_time,
                                      corpus.end_time)
        assert resumed.events() == extract_events(corpus)


class TestSweepConsistency:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), st.floats(0.0, 10_000.0))
    def test_sweep_matches_extraction(self, corpus, delta):
        if len(corpus) == 0:
            return
        events = extract_events(corpus, delta=delta)
        _, fraction = merge_threshold_sweep(corpus, deltas=[delta])
        announcements = sum(1 for m in corpus.rtbh_updates() if m.is_announce)
        assert round(fraction[0] * announcements) == len(events)

    @settings(max_examples=40, deadline=None)
    @given(corpora())
    def test_events_partition_the_windows(self, corpus):
        if len(corpus) == 0:
            return
        events = extract_events(corpus, delta=600.0)
        windows_by_prefix = corpus.rtbh_windows_by_prefix()
        total_windows = sum(len(w) for w in windows_by_prefix.values())
        assert sum(e.num_windows for e in events) == total_windows
        # events of one prefix are disjoint and ordered
        by_prefix = {}
        for event in events:
            by_prefix.setdefault(event.prefix, []).append(event)
        for prefix_events in by_prefix.values():
            for a, b in zip(prefix_events, prefix_events[1:]):
                assert a.end < b.start

    @settings(max_examples=40, deadline=None)
    @given(corpora(), st.floats(0.0, 5_000.0), st.floats(0.0, 5_000.0))
    def test_monotone_in_delta(self, corpus, d1, d2):
        if len(corpus) == 0:
            return
        lo, hi = sorted([d1, d2])
        assert len(extract_events(corpus, delta=hi)) <= len(
            extract_events(corpus, delta=lo))

    @settings(max_examples=40, deadline=None)
    @given(corpora())
    def test_active_time_never_exceeds_duration(self, corpus):
        if len(corpus) == 0:
            return
        for event in extract_events(corpus, delta=600.0):
            assert event.active_time <= event.duration + 1e-9


class TestDeltaInvariants:
    """The Δ-merge contract the parallel golden fixtures rely on."""

    @settings(max_examples=60, deadline=None)
    @given(corpora(), st.floats(0.0, 10_000.0))
    def test_events_disjoint_by_more_than_delta(self, corpus, delta):
        """Consecutive events of one prefix are separated by > Δ — a gap
        of at most Δ would have been merged into one event."""
        if len(corpus) == 0:
            return
        by_prefix = {}
        for event in extract_events(corpus, delta=delta):
            by_prefix.setdefault(event.prefix, []).append(event)
        for events in by_prefix.values():
            for a, b in zip(events, events[1:]):
                assert b.start - a.end > delta

    @settings(max_examples=40, deadline=None)
    @given(corpora(), st.randoms(use_true_random=False),
           st.floats(0.0, 5_000.0))
    def test_extraction_is_message_order_independent(self, corpus, rng,
                                                     delta):
        """Shuffling the ingest order cannot change the events: the
        corpus sorts by time, and same-prefix messages never share a
        timestamp (each window draw advances the clock)."""
        if len(corpus) == 0:
            return
        shuffled = list(corpus)
        rng.shuffle(shuffled)
        reordered = ControlPlaneCorpus(shuffled)

        def signature(events):
            return sorted((str(e.prefix), e.start, e.end, e.num_windows)
                          for e in events)

        assert signature(extract_events(reordered, delta=delta)) \
            == signature(extract_events(corpus, delta=delta))

    @settings(max_examples=40, deadline=None)
    @given(corpora(), st.floats(0.0, 5_000.0))
    def test_sweep_fraction_monotone_in_delta(self, corpus, delta):
        """The full sweep curve never increases with Δ (merging only
        ever reduces the event count)."""
        if len(corpus) == 0:
            return
        deltas, fraction = merge_threshold_sweep(
            corpus, deltas=[0.0, delta, delta + 1.0, 2 * delta + 2.0])
        assert all(a >= b - 1e-12 for a, b in zip(fraction, fraction[1:]))
