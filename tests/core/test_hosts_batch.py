"""The sort-grouped host study against the host-at-a-time oracle.

``oracle_classify_hosts`` is the §6.1 loop the grouped pass replaced —
a radix-tree origin map fed every announcement, two full-corpus scans
per host, a ``ip in prefix`` test against every blackholed prefix —
kept here as the reference.  Corpora include nested blackholed
prefixes with different origins, re-announcements that change the
origin, hosts seen only as a source, and days whose top port is a tie.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BLACKHOLE
from repro.bgp.message import announce, withdraw
from repro.core.events import extract_events
from repro.core.hosts import (
    DAY,
    REACTION_MARGIN,
    HostClass,
    HostProfile,
    HostStudy,
    classify_hosts,
)
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.dataplane.packet import packets_from_arrays
from repro.net import IPv4Address, IPv4Prefix
from repro.net.radix import RadixTree
from repro.parallel.golden import value_fingerprint

NH = IPv4Address("192.0.2.66")
NET = int(IPv4Address("203.0.113.0"))
#: blackholed prefixes, nested: the /24 holds the /30 holds the /32s
PREFIXES = [IPv4Prefix("203.0.113.0/24"), IPv4Prefix("203.0.113.4/30"),
            IPv4Prefix("203.0.113.5/32"), IPv4Prefix("203.0.113.9/32")]
#: hosts inside and outside the blackholed space
HOSTS = [NET + 5, NET + 6, NET + 9, NET + 77, int(IPv4Address("198.51.100.1"))]
PEERS = [int(IPv4Address("192.0.2.10")), int(IPv4Address("192.0.2.11"))]


# -- the host-at-a-time oracle -------------------------------------------------

def oracle_classify_hosts(control, data, events, min_days,
                          server_variation=0.3, client_variation=0.6):
    tree = RadixTree()
    for msg in control.rtbh_updates():
        if msg.is_announce:
            tree.insert(msg.prefix, msg.origin_asn)
    exclusions = {}
    for event in events:
        exclusions.setdefault(event.prefix, []).append(
            (event.start - REACTION_MARGIN, event.end))
    packets = data.packets
    candidates = np.union1d(np.unique(packets["dst_ip"]),
                            np.unique(packets["src_ip"]))
    covered = [ip for ip in candidates if tree.lookup(int(ip)) is not None]
    hosts = []
    for ip in covered:
        ip = int(ip)
        incoming = outside(packets[packets["dst_ip"] == np.uint32(ip)], ip,
                           exclusions)
        outgoing = outside(packets[packets["src_ip"] == np.uint32(ip)], ip,
                           exclusions)
        if len(incoming) == 0 and len(outgoing) == 0:
            continue
        in_days = set((incoming["time"] // DAY).astype(int).tolist())
        out_days = set((outgoing["time"] // DAY).astype(int).tolist())
        active_days = len(in_days & out_days)
        top_ports = daily_top_ports(incoming)
        variation = len(top_ports) / len(in_days) if in_days else 1.0
        cls = HostClass.UNCLASSIFIED
        if active_days >= min_days:
            if variation <= server_variation:
                cls = HostClass.SERVER
            elif variation >= client_variation:
                cls = HostClass.CLIENT
        features = (
            len(np.unique(incoming["src_port"])) if len(incoming) else 0,
            len(np.unique(outgoing["src_port"])) if len(outgoing) else 0,
            len(np.unique(incoming["dst_port"])) if len(incoming) else 0,
            len(np.unique(outgoing["dst_port"])) if len(outgoing) else 0,
        )
        hosts.append(HostProfile(
            ip=ip, active_days=active_days, port_features=features,
            top_ports=tuple(sorted(top_ports)), port_variation=variation,
            classification=cls, origin_asn=int(tree.lookup(ip)[1])))
    return HostStudy(hosts=hosts, min_days=min_days)


def outside(packets, ip, exclusions):
    if len(packets) == 0:
        return packets
    keep = np.ones(len(packets), dtype=bool)
    times = packets["time"]
    for prefix, intervals in exclusions.items():
        if ip not in prefix:
            continue
        for start, end in intervals:
            keep &= ~((times >= start) & (times < end))
    return packets[keep]


def daily_top_ports(incoming):
    tops = set()
    if len(incoming) == 0:
        return tops
    days = (incoming["time"] // DAY).astype(np.int64)
    order = np.argsort(days, kind="stable")
    days = days[order]
    incoming = incoming[order]
    bounds = np.r_[np.flatnonzero(np.r_[True, days[1:] != days[:-1]]),
                   len(days)]
    for b in range(len(bounds) - 1):
        chunk = incoming[bounds[b]:bounds[b + 1]]
        key = chunk["protocol"].astype(np.int64) << np.int64(16)
        key |= chunk["dst_port"].astype(np.int64)
        values, counts = np.unique(key, return_counts=True)
        top = int(values[np.argmax(counts)])
        tops.add((top >> 16, top & 0xFFFF))
    return tops


# -- corpora ------------------------------------------------------------------

@st.composite
def studies(draw):
    days = draw(st.integers(2, 6))
    span = days * DAY
    messages = []
    for prefix in PREFIXES:
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.floats(0.0, span))
            origin = draw(st.sampled_from([64_501, 64_502, 64_503]))
            messages.append(announce(start, 100, prefix, NH,
                                     as_path=(100, origin),
                                     communities=frozenset({BLACKHOLE})))
            if draw(st.booleans()):
                messages.append(withdraw(
                    start + draw(st.floats(60.0, DAY)), 100, prefix))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = int(rng.integers(50, 600))
    # a host is a destination, a source, or both; small port sets make
    # daily top-port ties common
    hosts = rng.choice(HOSTS, n)
    peers = rng.choice(PEERS, n)
    inbound = rng.random(n) < draw(st.floats(0.0, 1.0))
    only_out = rng.choice(HOSTS)  # never a destination
    inbound[hosts == only_out] = False
    cols = {
        "time": rng.uniform(0.0, span, n),
        "dst_ip": np.where(inbound, hosts, peers).astype(np.uint32),
        "src_ip": np.where(inbound, peers, hosts).astype(np.uint32),
        "src_port": rng.choice([53, 443, 50_000, 50_001], n).astype(np.uint16),
        "dst_port": rng.choice([80, 443, 50_002], n).astype(np.uint16),
        "protocol": rng.choice([6, 17], n).astype(np.uint8),
    }
    return (ControlPlaneCorpus(messages),
            DataPlaneCorpus(packets_from_arrays(cols)),
            draw(st.integers(1, 3)))


class TestGroupedHostStudy:
    @settings(max_examples=60, deadline=None)
    @given(studies())
    def test_equals_host_at_a_time_oracle(self, study):
        control, data, min_days = study
        events = extract_events(control)
        got = classify_hosts(control, data, events, min_days=min_days)
        want = oracle_classify_hosts(control, data, events, min_days)
        assert got.hosts == want.hosts
        assert value_fingerprint(got) == value_fingerprint(want)

    def test_nested_prefixes_and_outgoing_only_hosts(self):
        # the /24 is announced by 64501, the /32 inside it by 64502 and
        # then re-announced by 64503: the most specific prefix and its
        # last announcement name the origin
        inner = IPv4Prefix("203.0.113.5/32")
        control = ControlPlaneCorpus([
            announce(10.0, 100, PREFIXES[0], NH, as_path=(100, 64_501),
                     communities=frozenset({BLACKHOLE})),
            announce(20.0, 100, inner, NH, as_path=(100, 64_502),
                     communities=frozenset({BLACKHOLE})),
            announce(30.0, 100, inner, NH, as_path=(100, 64_503),
                     communities=frozenset({BLACKHOLE})),
        ])
        n = 40
        times = DAY + np.arange(n) * 3_600.0
        cols = {
            "time": times,
            # NET + 5 receives and sends; NET + 6 only sends
            "dst_ip": np.where(np.arange(n) % 2 == 0, NET + 5,
                               PEERS[0]).astype(np.uint32),
            "src_ip": np.where(np.arange(n) % 2 == 0, PEERS[0],
                               np.where(np.arange(n) % 4 == 1, NET + 5,
                                        NET + 6)).astype(np.uint32),
            "dst_port": np.full(n, 443, dtype=np.uint16),
        }
        data = DataPlaneCorpus(packets_from_arrays(cols))
        events = extract_events(control)
        got = classify_hosts(control, data, events, min_days=1)
        by_ip = {h.ip: h for h in got.hosts}
        assert by_ip[NET + 5].origin_asn == 64_503
        assert by_ip[NET + 6].origin_asn == 64_501
        assert by_ip[NET + 6].port_features[0] == 0  # no incoming traffic
        assert got.hosts == oracle_classify_hosts(control, data, events,
                                                  1).hosts
