"""Reducer units: each one must mirror its batch computation exactly,
under any chunking of the input and across a state round trip."""

import pytest

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.events import DEFAULT_DELTA
from repro.errors import AnalysisError, StreamCheckpointError, StreamError
from repro.net import IPv4Address, IPv4Prefix
from repro.parallel.golden import value_fingerprint
from repro.streaming import ControlReducer, PreRTBHReducer, TrafficReducer


def _fed(messages):
    reducer = ControlReducer()
    for msg in messages:
        reducer.feed(msg)
    return reducer


@pytest.fixture(scope="module")
def fed_control(tiny_result):
    return _fed(tiny_result.control)


def test_windows_snapshot_equals_batch(tiny_result, fed_control):
    assert fed_control.windows_snapshot() == \
        tiny_result.control.rtbh_windows_by_prefix()


def test_events_equal_batch(tiny_pipeline, fed_control):
    assert value_fingerprint(fed_control.events(DEFAULT_DELTA)) == \
        value_fingerprint(tiny_pipeline.events)


def test_load_series_equals_batch(tiny_pipeline, fed_control):
    assert value_fingerprint(fed_control.load_series()) == \
        value_fingerprint(tiny_pipeline.run("fig3_load"))


def test_empty_reducer_raises_like_batch():
    with pytest.raises(AnalysisError, match="empty control corpus"):
        ControlReducer().load_series()
    assert ControlReducer().windows_snapshot() == {}
    assert ControlReducer().events() == []


def test_chunked_feed_and_state_roundtrip(tiny_result, fed_control):
    messages = list(tiny_result.control)
    half = len(messages) // 2
    first = _fed(messages[:half])
    resumed = ControlReducer.from_state(first.to_state())
    for msg in messages[half:]:
        resumed.feed(msg)
    assert value_fingerprint(resumed.events()) == \
        value_fingerprint(fed_control.events())
    assert resumed.rtbh_times == fed_control.rtbh_times


def test_replacing_announce_closes_the_window():
    host, nh = IPv4Prefix("203.0.113.7/32"), IPv4Address("192.0.2.66")
    reducer = _fed([
        announce(100.0, 100, host, nh, communities=frozenset({BLACKHOLE})),
        announce(200.0, 100, host, nh),
        withdraw(300.0, 100, host),
        announce(10_000.0, 200, IPv4Prefix("198.51.100.0/24"), nh),
    ])
    assert reducer.windows_snapshot() == {host: [(100.0, 200.0, 100)]}
    assert reducer.rtbh_times == [100.0, 200.0]
    assert [ev.windows for ev in reducer.events()] == [((100.0, 200.0),)]


def test_corrupt_control_state_raises():
    with pytest.raises(StreamError, match="corrupt control reducer"):
        ControlReducer.from_state({"active": [["x"]]})


def test_state_with_window_left_open_after_replacement_is_rejected():
    # what an older reducer checkpointed after a blackhole announce@100
    # and a replacing plain announce@200: the key left ``active`` but its
    # window stayed in ``open_at``
    state = {
        "active": [],
        "open_at": [[100, "203.0.113.7/32", 100.0]],
        "windows": {},
        "origin_of": [["203.0.113.7/32", 100, 100]],
        "rtbh_times": [100.0, 200.0],
        "message_count": 2,
        "start_time": 100.0,
        "end_time": 200.0,
    }
    with pytest.raises(StreamCheckpointError,
                       match="corrupt control reducer state"):
        ControlReducer.from_state(state)
    state["active"] = [[100, "203.0.113.7/32"]]
    assert ControlReducer.from_state(state).open_at == {
        (100, IPv4Prefix("203.0.113.7/32")): 100.0}


def test_traffic_fragments_tile_windows(tiny_result, tiny_pipeline,
                                        fed_control):
    """Accumulating between intermediate frontiers must equal one pass."""
    data = tiny_result.data
    events = fed_control.events()
    final = fed_control.end_time

    single = TrafficReducer()
    single.advance(data, events, final)

    stepped = TrafficReducer()
    for frontier in (final / 4, final / 2, final):
        # events visible at an earlier frontier are a subset with the
        # same ids for already-closed windows; feeding the final event
        # list at every step is the engine's actual call pattern
        stepped.advance(data, events, frontier)
    stepped = TrafficReducer.from_state(stepped.to_state())

    assert stepped.totals == single.totals
    assert value_fingerprint(stepped.traffic(events)) == \
        value_fingerprint(tiny_pipeline.event_traffic)


def test_pre_rtbh_classifies_each_event_once(tiny_result, tiny_pipeline,
                                             fed_control):
    reducer = PreRTBHReducer()
    events = fed_control.events()
    assert reducer.advance(tiny_result.data, events) == len(events)
    assert reducer.advance(tiny_result.data, events) == 0

    roundtripped = PreRTBHReducer.from_state(reducer.to_state())
    assert value_fingerprint(roundtripped.classification(events)) == \
        value_fingerprint(tiny_pipeline.pre_classification)
