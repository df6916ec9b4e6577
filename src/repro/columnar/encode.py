"""Record ⇄ column codec for the control plane.

Each :class:`~repro.bgp.message.BGPUpdate` encodes into fixed-width
columns plus two offset-pooled variable-length columns (AS paths and
communities), built in memory from the loaded corpus.  The codec
round-trips exactly: ``decode_updates(encode_updates(msgs)) == msgs``
field for field, which the hypothesis property suite asserts.  Row
order is the corpus's canonical order (time-sorted, stable), i.e.
exactly ``ControlPlaneCorpus._messages``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.bgp.community import BLACKHOLE, Community
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.net.ip import IPv4Address, IPv4Prefix

#: action codes (stored u1)
ACTION_WITHDRAW = 0
ACTION_ANNOUNCE = 1

#: fixed-width control columns
CONTROL_FIXED = (
    ("time", np.float64),
    ("peer_asn", np.uint32),
    ("action", np.uint8),
    ("prefix_net", np.uint32),
    ("prefix_len", np.uint8),
    ("has_next_hop", np.bool_),
    ("next_hop", np.uint32),
    # derived, not needed for decode, but the kernels read them without
    # touching the variable-length pools
    ("origin_asn", np.uint32),
    ("blackhole", np.bool_),
)


def pack_community(c: Community) -> int:
    """``asn:value`` (both u16 by construction) into one u32."""
    return (c.asn << 16) | c.value


def unpack_community(packed: int) -> Community:
    return Community((packed >> 16) & 0xFFFF, packed & 0xFFFF)


def encode_updates(messages: Sequence[BGPUpdate]) -> Dict[str, np.ndarray]:
    """Columnize a message stream (order preserved)."""
    n = len(messages)
    cols = {name: np.zeros(n, dtype=dt) for name, dt in CONTROL_FIXED}
    path_offsets = np.zeros(n + 1, dtype=np.int64)
    comm_offsets = np.zeros(n + 1, dtype=np.int64)
    path_pool: List[int] = []
    comm_pool: List[int] = []
    for i, msg in enumerate(messages):
        cols["time"][i] = msg.time
        cols["peer_asn"][i] = msg.peer_asn
        cols["action"][i] = (ACTION_ANNOUNCE
                             if msg.action is UpdateAction.ANNOUNCE
                             else ACTION_WITHDRAW)
        cols["prefix_net"][i] = msg.prefix.network_int
        cols["prefix_len"][i] = msg.prefix.length
        if msg.next_hop is not None:
            cols["has_next_hop"][i] = True
            cols["next_hop"][i] = int(msg.next_hop)
        cols["origin_asn"][i] = msg.origin_asn
        cols["blackhole"][i] = BLACKHOLE in msg.communities
        path_pool.extend(msg.as_path)
        path_offsets[i + 1] = len(path_pool)
        # frozensets have no canonical order; sort for determinism
        comm_pool.extend(sorted(pack_community(c) for c in msg.communities))
        comm_offsets[i + 1] = len(comm_pool)
    cols["as_path_offsets"] = path_offsets
    cols["as_path_values"] = np.asarray(path_pool, dtype=np.uint32)
    cols["community_offsets"] = comm_offsets
    cols["community_values"] = np.asarray(comm_pool, dtype=np.uint32)
    return cols


def decode_updates(columns: Dict[str, np.ndarray]) -> List[BGPUpdate]:
    """Reconstruct the exact message stream from control columns."""
    times = columns["time"]
    peer, action = columns["peer_asn"], columns["action"]
    net, plen = columns["prefix_net"], columns["prefix_len"]
    has_nh, nh = columns["has_next_hop"], columns["next_hop"]
    po, pv = columns["as_path_offsets"], columns["as_path_values"]
    co, cv = columns["community_offsets"], columns["community_values"]
    out: List[BGPUpdate] = []
    for i in range(len(times)):
        out.append(BGPUpdate(
            time=float(times[i]),
            peer_asn=int(peer[i]),
            action=(UpdateAction.ANNOUNCE if action[i] == ACTION_ANNOUNCE
                    else UpdateAction.WITHDRAW),
            prefix=IPv4Prefix(int(net[i]), int(plen[i])),
            next_hop=IPv4Address(int(nh[i])) if has_nh[i] else None,
            as_path=tuple(int(a) for a in pv[po[i]:po[i + 1]]),
            communities=frozenset(unpack_community(int(c))
                                  for c in cv[co[i]:co[i + 1]]),
        ))
    return out
