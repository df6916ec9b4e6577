"""The differential-equivalence suite: every analysis must produce a
bit-identical ``value_fingerprint`` under the columnar engine and the
record engine — on the seeded tiny scenario AND on adversarial
hypothesis-generated corpora (empty streams, single-record days, /8 and
/32 prefix edges, duplicate timestamps, unterminated windows).

Intermediate objects with NaN payloads (pre-RTBH amplification factors)
are compared by fingerprint, never by ``==`` — ``nan != nan`` makes
dataclass equality False for identical values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.columnar.pipeline import ColumnarPipeline
from repro.core.pipeline import AnalysisPipeline
from repro.core.registry import ANALYSES, columnar_names
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.dataplane.packet import PACKET_DTYPE
from repro.net import IPv4Address, IPv4Prefix
from repro.parallel.golden import value_fingerprint

from tests.columnar.conftest import assert_twin_outcomes

ALL_NAMES = tuple(spec.name for spec in ANALYSES)
NH = IPv4Address("192.0.2.66")

#: prefix edge cases the kernels' mask arithmetic must survive — /32
#: (mask all ones), /24, /16, and /8 (high-bit masks, huge address span)
PREFIX_POOL = (
    IPv4Prefix("203.0.113.7/32"),
    IPv4Prefix("203.0.113.0/24"),
    IPv4Prefix("198.51.0.0/16"),
    IPv4Prefix("10.0.0.0/8"),
)


class TestTinyScenario:
    """All 16 analyses on the session scenario, both engines."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fingerprints_equal(self, name, tiny_pipeline, col_pipeline):
        assert_twin_outcomes(tiny_pipeline, col_pipeline, name)

    def test_columnar_flag_covers_the_hot_analyses(self):
        assert set(columnar_names()) == {
            "fig5_drop_by_length", "fig6_drop_cdfs", "fig7_top_sources",
            "fig8_org_types", "table2_pre_classes",
            "sec54_protocol_mix", "table3_amplification",
            "fig14_filterable", "fig15_participation"}

    def test_events_identical(self, tiny_pipeline, col_pipeline):
        assert col_pipeline.events == tiny_pipeline.events

    def test_event_traffic_identical(self, tiny_pipeline, col_pipeline):
        assert col_pipeline.event_traffic == tiny_pipeline.event_traffic

    def test_pre_classification_fingerprint(self, tiny_pipeline,
                                            col_pipeline):
        # fingerprint, not ==: amplification factors carry NaN
        assert value_fingerprint(col_pipeline.pre_classification) \
            == value_fingerprint(tiny_pipeline.pre_classification)


# -- adversarial corpora -----------------------------------------------------


@st.composite
def adversarial_corpora(draw):
    """A (control, data) pair exercising the kernel edge cases.

    Windows may be unterminated (announce with no withdraw), duplicated
    in time (several messages at the identical timestamp), or empty;
    packets may be absent entirely, land exactly on window boundaries,
    or repeat one timestamp many times.
    """
    messages = []
    times_used = []
    for prefix in draw(st.lists(st.sampled_from(PREFIX_POOL), min_size=0,
                                max_size=3, unique=True)):
        peer = draw(st.sampled_from([100, 200]))
        t = float(draw(st.integers(0, 5)))
        for _ in range(draw(st.integers(1, 3))):
            # duplicate timestamps on purpose: integer grid, small range
            start = t + float(draw(st.integers(0, 4)))
            messages.append(announce(
                start, peer, prefix, NH, as_path=(peer, 65_001),
                communities=frozenset({BLACKHOLE})))
            times_used.append(start)
            if draw(st.booleans()):
                end = start + float(draw(st.integers(0, 6)))
                messages.append(withdraw(end, peer, prefix))
                times_used.append(end)
                t = end
            else:
                t = start + 1.0  # unterminated window; next may overlap
    n_packets = draw(st.integers(0, 40))
    packets = np.zeros(n_packets, dtype=PACKET_DTYPE)
    if n_packets:
        base = times_used or [0.0]
        packets["time"] = [
            float(draw(st.sampled_from(base))
                  + draw(st.integers(-2, 8)) * 0.5)
            for _ in range(n_packets)]
        packets["time"] = np.maximum(packets["time"], 0.0)
        in_prefix = [draw(st.booleans()) for _ in range(n_packets)]
        for i in range(n_packets):
            prefix = draw(st.sampled_from(PREFIX_POOL))
            host = draw(st.integers(0, 2 ** (32 - prefix.length) - 1))
            packets["dst_ip"][i] = (prefix.network_int + host
                                    if in_prefix[i]
                                    else draw(st.integers(0, 2**32 - 1)))
        packets["src_ip"] = [draw(st.integers(0, 2**32 - 1))
                             for _ in range(n_packets)]
        packets["protocol"] = [draw(st.sampled_from([6, 17, 1]))
                               for _ in range(n_packets)]
        packets["src_port"] = [draw(st.sampled_from([0, 53, 123, 11211,
                                                     40000]))
                               for _ in range(n_packets)]
        packets["dst_port"] = [draw(st.integers(0, 65535))
                               for _ in range(n_packets)]
        packets["size"] = [draw(st.integers(40, 1500))
                           for _ in range(n_packets)]
        packets["ingress_asn"] = [draw(st.sampled_from([100, 200, 300]))
                                  for _ in range(n_packets)]
        packets["origin_asn"] = packets["ingress_asn"]
        packets["dropped"] = [draw(st.booleans()) for _ in range(n_packets)]
    control = ControlPlaneCorpus(messages)
    data = DataPlaneCorpus(packets, sampling_rate=10)
    return control, data


def _twin_pipelines(control, data):
    kwargs = dict(peer_asns=[100, 200], host_min_days=1)
    return (AnalysisPipeline(control, data, **kwargs),
            ColumnarPipeline(control, data, **kwargs))


class TestAdversarialStreams:
    @settings(max_examples=25, deadline=None)
    @given(adversarial_corpora())
    def test_columnar_analyses_fingerprint_equal(self, corpora):
        control, data = corpora
        record, columnar = _twin_pipelines(control, data)
        for name in columnar_names():
            assert_twin_outcomes(record, columnar, name)

    @settings(max_examples=25, deadline=None)
    @given(adversarial_corpora())
    def test_events_and_traffic_identical(self, corpora):
        control, data = corpora
        record, columnar = _twin_pipelines(control, data)
        assert columnar.events == record.events
        assert columnar.event_traffic == record.event_traffic
        assert value_fingerprint(columnar.pre_classification) \
            == value_fingerprint(record.pre_classification)

    def test_empty_streams(self):
        control = ControlPlaneCorpus([])
        data = DataPlaneCorpus(np.zeros(0, dtype=PACKET_DTYPE),
                               sampling_rate=10)
        record, columnar = _twin_pipelines(control, data)
        for name in columnar_names():
            assert_twin_outcomes(record, columnar, name)

    def test_single_record_day(self):
        prefix = IPv4Prefix("203.0.113.7/32")
        control = ControlPlaneCorpus([announce(
            10.0, 100, prefix, NH,
            communities=frozenset({BLACKHOLE}))])
        packets = np.zeros(1, dtype=PACKET_DTYPE)
        packets["time"] = 10.0
        packets["dst_ip"] = prefix.network_int
        packets["size"] = 100
        packets["protocol"] = 17
        packets["ingress_asn"] = 200
        packets["dropped"] = True
        data = DataPlaneCorpus(packets, sampling_rate=10)
        record, columnar = _twin_pipelines(control, data)
        assert columnar.events == record.events
        for name in columnar_names():
            assert_twin_outcomes(record, columnar, name)
