"""Property tests of the control-plane column codec:
``decode_updates(encode_updates(messages))`` must round-trip exactly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.community import BLACKHOLE, Community
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.columnar.encode import (
    decode_updates,
    encode_updates,
    pack_community,
    unpack_community,
)
from repro.net.ip import IPv4Address, IPv4Prefix


@st.composite
def updates_strategy(draw):
    communities = st.frozensets(
        st.builds(Community, st.integers(0, 0xFFFF),
                  st.integers(0, 0xFFFF)) | st.just(BLACKHOLE),
        max_size=3)
    messages = []
    for _ in range(draw(st.integers(0, 12))):
        action = draw(st.sampled_from([UpdateAction.ANNOUNCE,
                                       UpdateAction.WITHDRAW]))
        # announcements require a next hop; withdrawals may omit it
        next_hop = IPv4Address(draw(st.integers(0, 2**32 - 1))) \
            if action is UpdateAction.ANNOUNCE or draw(st.booleans()) \
            else None
        messages.append(BGPUpdate(
            time=draw(st.floats(0.0, 1e6, allow_nan=False)),
            peer_asn=draw(st.integers(1, 2**32 - 1)),
            action=action,
            prefix=IPv4Prefix(draw(st.integers(0, 2**32 - 1)),
                              draw(st.integers(0, 32))),
            next_hop=next_hop,
            as_path=tuple(draw(st.lists(st.integers(1, 2**32 - 1),
                                        max_size=4))),
            communities=draw(communities),
        ))
    return messages


class TestCodecRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(updates_strategy())
    def test_updates_round_trip_in_memory(self, messages):
        assert decode_updates(encode_updates(messages)) == messages

    def test_community_packing_bijective(self):
        for community in (Community(0, 0), Community(0xFFFF, 0xFFFF),
                          BLACKHOLE, Community(64_500, 666)):
            assert unpack_community(pack_community(community)) == community
