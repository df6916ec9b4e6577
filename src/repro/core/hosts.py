"""§6.1–6.2: which blackholed hosts are servers, which are clients?
(Figs 16–17, Table 4.)

Host behaviour is profiled on traffic *outside* RTBH events (each event,
plus a 10-minute reaction margin before it, is excluded). A host with
stable daily top ports in its incoming traffic behaves like a server; a
host whose incoming top port changes almost daily — because it talks from
fresh ephemeral ports — behaves like a client.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.events import RTBHEvent
from repro.corpus.control import ControlPlaneCorpus
from repro.corpus.data import DataPlaneCorpus
from repro.errors import AnalysisError
from repro.ixp.peeringdb import OrgType, PeeringDB
from repro.net.ip import IPv4Prefix

DAY = 86_400.0
REACTION_MARGIN = 600.0

#: normalisation for the RadViz features (the maximum port number)
PORT_NORMALIZER = 65_535.0

FEATURES = ("in_src_ports", "out_src_ports", "in_dst_ports", "out_dst_ports")


class HostClass(str, Enum):
    SERVER = "server"
    CLIENT = "client"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class HostProfile:
    """Per-host behaviour outside of RTBH activity."""

    ip: int
    active_days: int
    port_features: Tuple[int, int, int, int]   # unique-port counts, FEATURES order
    top_ports: Tuple[Tuple[int, int], ...]     # distinct daily top (proto, port)
    port_variation: float                      # unique top ports / active days
    classification: HostClass
    origin_asn: Optional[int] = None


@dataclass
class HostStudy:
    """All profiled hosts plus corpus-level accessors."""

    hosts: List[HostProfile]
    min_days: int

    def classified(self, cls: HostClass) -> List[HostProfile]:
        return [h for h in self.hosts if h.classification is cls]

    def counts(self) -> Dict[HostClass, int]:
        return {cls: len(self.classified(cls)) for cls in HostClass}

    def radviz_matrix(self) -> np.ndarray:
        """Fig. 16 input: (n_hosts, 4) normalised port-diversity features."""
        if not self.hosts:
            raise AnalysisError("no hosts profiled")
        return np.array([h.port_features for h in self.hosts],
                        dtype=np.float64) / PORT_NORMALIZER

    def org_type_table(self, peeringdb: PeeringDB) -> Dict[HostClass, Dict[OrgType, float]]:
        """Table 4: AS-type shares for detected clients and servers."""
        out: Dict[HostClass, Dict[OrgType, float]] = {}
        for cls in (HostClass.CLIENT, HostClass.SERVER):
            hosts = self.classified(cls)
            if not hosts:
                out[cls] = {}
                continue
            histogram: Dict[OrgType, int] = {}
            for host in hosts:
                org = (peeringdb.org_type(host.origin_asn)
                       if host.origin_asn is not None else OrgType.UNKNOWN)
                histogram[org] = histogram.get(org, 0) + 1
            out[cls] = {org: c / len(hosts) for org, c in histogram.items()}
        return out


def _origin_map(control: ControlPlaneCorpus) -> Dict[IPv4Prefix, int]:
    """Each RTBH prefix → origin AS of its last announcement."""
    origins: Dict[IPv4Prefix, int] = {}
    for msg in control.rtbh_updates():
        if msg.is_announce:
            origins[msg.prefix] = msg.origin_asn
    return origins


def _prefix_span(ips: np.ndarray, prefix: IPv4Prefix) -> Tuple[int, int]:
    """The index range of ``prefix``'s addresses in the sorted ``ips``."""
    first = prefix.network_int
    last = first + (1 << (32 - prefix.length))
    lo, hi = np.searchsorted(ips, (first, last), side="left")
    return int(lo), int(hi)


def _exclusion_intervals(events: Sequence[RTBHEvent]) -> Dict[IPv4Prefix, List[Tuple[float, float]]]:
    out: Dict[IPv4Prefix, List[Tuple[float, float]]] = {}
    for event in events:
        out.setdefault(event.prefix, []).append(
            (event.start - REACTION_MARGIN, event.end)
        )
    return out


def _host_sides(data: DataPlaneCorpus, field: str, fields: Sequence[str],
                host_ips: np.ndarray,
                exclusions: Sequence[Sequence[Tuple[float, float]]],
                ) -> Iterator[Dict[str, np.ndarray]]:
    """Per host of the sorted ``host_ips``: the packets whose ``field``
    is that host and that fall outside its exclusion intervals, as
    ``time`` plus ``fields``.

    One stable sort by address groups the rows, so each host's rows are
    one ``searchsorted`` range, still in time order; only the fields the
    study reads are gathered, host by host.
    """
    order = np.argsort(data.packets[field], kind="stable")
    addresses = data.packets[field][order]
    ips = host_ips.astype(addresses.dtype)
    lo = np.searchsorted(addresses, ips, side="left").tolist()
    hi = np.searchsorted(addresses, ips, side="right").tolist()
    del addresses
    for l, h, intervals in zip(lo, hi, exclusions):
        rows = order[l:h]
        times = data.times[rows]
        keep = np.ones(len(rows), dtype=bool)
        for start, end in intervals:
            keep &= ~((times >= start) & (times < end))
        rows = rows[keep]
        side = {"time": times[keep]}
        for name in fields:
            side[name] = data.packets[name][rows]
        yield side


def _side_summary(packets: Dict[str, np.ndarray]) -> dict:
    """What the study keeps of one direction of a host's traffic: the
    ports only as distinct values, all :func:`host_port_features` counts."""
    return {
        "packets": len(packets["time"]),
        "days": set((packets["time"] // DAY).astype(int).tolist()),
        "src_port": np.unique(packets["src_port"]),
        "dst_port": np.unique(packets["dst_port"]),
    }


def host_port_features(incoming, outgoing) -> Tuple[int, int, int, int]:
    """The four port-diversity features of Fig. 16 for one host: its
    incoming and outgoing packets, as arrays or field mappings."""
    return (
        len(np.unique(incoming["src_port"])),
        len(np.unique(outgoing["src_port"])),
        len(np.unique(incoming["dst_port"])),
        len(np.unique(outgoing["dst_port"])),
    )


def classify_hosts(
    control: ControlPlaneCorpus,
    data: DataPlaneCorpus,
    events: Sequence[RTBHEvent],
    min_days: int = 20,
    server_variation: float = 0.3,
    client_variation: float = 0.6,
) -> HostStudy:
    """Profile every blackholed host with enough activity (§6.1's
    conservative ≥ ``min_days``-day criterion) and classify it."""
    origins = _origin_map(control)
    packets = data.packets

    # candidate hosts: addresses covered by any RTBH prefix, as traffic
    # destinations or sources; the most specific prefix names the origin
    ips = np.union1d(np.unique(packets["dst_ip"]),
                     np.unique(packets["src_ip"])).astype(np.int64)
    covered = np.zeros(len(ips), dtype=bool)
    origin_of = np.zeros(len(ips), dtype=np.int64)
    for prefix, origin in sorted(origins.items(),
                                 key=lambda item: item[0].length):
        lo, hi = _prefix_span(ips, prefix)
        covered[lo:hi] = True
        origin_of[lo:hi] = origin
    host_ips = ips[covered]

    # each event prefix is tested once, against the sorted covered hosts
    exclusions: List[List[Tuple[float, float]]] = [[] for _ in host_ips]
    for prefix, spans in _exclusion_intervals(events).items():
        lo, hi = _prefix_span(host_ips, prefix)
        for k in range(lo, hi):
            exclusions[k].extend(spans)

    # one direction at a time, so only one row order is alive
    incoming = [dict(_side_summary(side), top_ports=_daily_top_ports(side))
                for side in _host_sides(data, "dst_ip",
                                        ("src_port", "dst_port", "protocol"),
                                        host_ips, exclusions)]
    outgoing = [_side_summary(side)
                for side in _host_sides(data, "src_ip",
                                        ("src_port", "dst_port"),
                                        host_ips, exclusions)]

    hosts: List[HostProfile] = []
    for ip, origin, inc, out in zip(host_ips.tolist(),
                                    origin_of[covered].tolist(),
                                    incoming, outgoing):
        if inc["packets"] == 0 and out["packets"] == 0:
            continue
        active_days = len(inc["days"] & out["days"])
        top_ports = inc["top_ports"]
        variation = len(top_ports) / len(inc["days"]) if inc["days"] else 1.0
        if active_days >= min_days:
            if variation <= server_variation:
                cls = HostClass.SERVER
            elif variation >= client_variation:
                cls = HostClass.CLIENT
            else:
                cls = HostClass.UNCLASSIFIED
        else:
            cls = HostClass.UNCLASSIFIED
        hosts.append(HostProfile(
            ip=ip,
            active_days=active_days,
            port_features=host_port_features(inc, out),
            top_ports=tuple(sorted(top_ports)),
            port_variation=variation,
            classification=cls,
            origin_asn=origin,
        ))
    return HostStudy(hosts=hosts, min_days=min_days)


def _daily_top_ports(incoming: Dict[str, np.ndarray]) -> set[Tuple[int, int]]:
    """Distinct daily top (protocol, destination port) pairs; a tie goes
    to the smallest pair."""
    if len(incoming["time"]) == 0:
        return set()
    days = (incoming["time"] // DAY).astype(np.int64)
    key = incoming["protocol"].astype(np.int64) << np.int64(16)
    key |= incoming["dst_port"].astype(np.int64)
    pairs = np.sort((days << np.int64(24)) | key)
    starts = np.flatnonzero(np.r_[True, pairs[1:] != pairs[:-1]])
    counts = np.diff(np.r_[starts, len(pairs)])
    values = pairs[starts]
    day_of = values >> np.int64(24)
    # per day: the highest count, then (stable) the smallest pair
    best = np.lexsort((-counts, day_of))
    best = best[np.r_[True, day_of[best][1:] != day_of[best][:-1]]]
    top = (values[best] & np.int64(0xFFFFFF)).tolist()
    return {(t >> 16, t & 0xFFFF) for t in top}
