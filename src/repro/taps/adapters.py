"""Feed-format adapters: external control-plane records → :class:`BGPUpdate`.

Three adapter families cover the wire formats a blackholing observatory
realistically meets (ROADMAP item 2, ARTEMIS-style):

``ris``
    RIPE RIS-live style JSON lines: one ``UPDATE`` object per line with
    ``announcements`` (next-hop groups of prefixes) and ``withdrawals``.
``exabgp``
    exabgp-style JSON lines as emitted by ``encoder json``: the update
    nested under ``neighbor.message.update`` with ``announce``/``withdraw``
    keyed by address family.
``mrt``
    MRT-style framed dumps: each record carries the RFC 6396 common
    header (timestamp ``u32``, type ``u16``, subtype ``u16``, length
    ``u32``, big-endian) followed by ``length`` payload bytes.  The
    payload here is the canonical JSON update record rather than packed
    BGP attributes — the framing (and its failure modes: torn frames,
    absurd lengths, garbage headers) is what the robustness layer
    exercises; attribute unpacking would add nothing to the repro.

A feed line/frame may describe several prefixes, so :meth:`decode`
returns a *list* of updates.  Every malformed input raises
:class:`~repro.errors.TapError` with the reason — the supervisor turns
those into quarantine entries, never a crash.

Each adapter also implements :meth:`encode`, used by the fixture
generators so tests and CI drive the exact same parse paths real feeds
would, without any network.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Dict, List, Union

from repro.bgp.community import Community
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.errors import ReproError, TapError
from repro.net.ip import IPv4Address, IPv4Prefix

#: RFC 6396 common header: timestamp u32, type u16, subtype u16, length u32
MRT_HEADER = struct.Struct(">IHHI")
#: BGP4MP / MESSAGE_AS4 — the type/subtype stamped on encoded frames
MRT_TYPE_BGP4MP = 16
MRT_SUBTYPE_MESSAGE_AS4 = 4
#: frames claiming more payload than this are treated as framing garbage
MRT_MAX_FRAME = 1 << 20


def _finite_time(value) -> float:
    time = float(value)
    if not math.isfinite(time):
        raise TapError(f"non-finite timestamp {value!r}")
    return time


def _communities(raw) -> frozenset:
    if raw is None:
        return frozenset()
    out = set()
    for item in raw:
        if isinstance(item, str):
            out.add(Community.parse(item))
        else:
            asn, value = item
            out.add(Community(int(asn), int(value)))
    return frozenset(out)


class TapAdapter:
    """One feed format: how to split it into records and decode each."""

    #: registry key, e.g. ``"ris"``
    format: str
    #: ``"lines"`` (newline-delimited text) or ``"mrt"`` (framed binary)
    framing: str = "lines"

    def decode(self, payload: Union[str, bytes]) -> List[BGPUpdate]:
        """Parse one record; raises :class:`TapError` when malformed."""
        raise NotImplementedError

    def encode(self, msg: BGPUpdate) -> Union[str, bytes]:
        """Render one update in this feed's wire format (fixtures)."""
        raise NotImplementedError


class RISLinesAdapter(TapAdapter):
    """RIPE RIS-live style JSON lines."""

    format = "ris"

    def decode(self, payload: str) -> List[BGPUpdate]:
        try:
            raw = json.loads(payload)
        except ValueError as exc:
            raise TapError(f"not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise TapError(f"record is not an object: {type(raw).__name__}")
        kind = str(raw.get("type", "UPDATE")).upper()
        if kind != "UPDATE":
            raise TapError(f"unsupported RIS message type {kind!r}")
        try:
            time = _finite_time(raw["timestamp"])
            peer_asn = int(raw["peer_asn"])
            path = tuple(int(asn) for asn in raw.get("path", ()))
            communities = _communities(raw.get("community"))
            updates: List[BGPUpdate] = []
            for group in raw.get("announcements", ()):
                next_hop = IPv4Address(group["next_hop"])
                for prefix in group["prefixes"]:
                    updates.append(BGPUpdate(
                        time=time, peer_asn=peer_asn,
                        action=UpdateAction.ANNOUNCE,
                        prefix=IPv4Prefix(prefix), next_hop=next_hop,
                        as_path=path, communities=communities))
            for prefix in raw.get("withdrawals", ()):
                updates.append(BGPUpdate(
                    time=time, peer_asn=peer_asn,
                    action=UpdateAction.WITHDRAW,
                    prefix=IPv4Prefix(prefix)))
        except TapError:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise TapError(f"bad RIS record: {exc}") from None
        if not updates:
            raise TapError("RIS UPDATE carries no announcements or "
                           "withdrawals")
        return updates

    def encode(self, msg: BGPUpdate) -> str:
        record: Dict[str, object] = {
            "type": "UPDATE",
            "timestamp": msg.time,
            "peer_asn": str(msg.peer_asn),
            "path": list(msg.as_path),
            "community": sorted([c.asn, c.value] for c in msg.communities),
        }
        if msg.is_announce:
            record["announcements"] = [{"next_hop": str(msg.next_hop),
                                        "prefixes": [str(msg.prefix)]}]
            record["withdrawals"] = []
        else:
            record["announcements"] = []
            record["withdrawals"] = [str(msg.prefix)]
        return json.dumps(record)


class ExaBGPAdapter(TapAdapter):
    """exabgp-style JSON lines (``encoder json`` shape)."""

    format = "exabgp"

    def decode(self, payload: str) -> List[BGPUpdate]:
        try:
            raw = json.loads(payload)
        except ValueError as exc:
            raise TapError(f"not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise TapError(f"record is not an object: {type(raw).__name__}")
        if str(raw.get("type", "update")) != "update":
            raise TapError(f"unsupported exabgp message type "
                           f"{raw.get('type')!r}")
        try:
            time = _finite_time(raw["time"])
            neighbor = raw["neighbor"]
            peer_asn = int(neighbor["asn"]["peer"])
            update = neighbor["message"]["update"]
            attribute = update.get("attribute", {})
            path = tuple(int(asn) for asn in attribute.get("as-path", ()))
            communities = _communities(attribute.get("community"))
            updates: List[BGPUpdate] = []
            announce = update.get("announce", {}).get("ipv4 unicast", {})
            for next_hop, routes in announce.items():
                hop = IPv4Address(next_hop)
                for route in routes:
                    updates.append(BGPUpdate(
                        time=time, peer_asn=peer_asn,
                        action=UpdateAction.ANNOUNCE,
                        prefix=IPv4Prefix(route["nlri"]), next_hop=hop,
                        as_path=path, communities=communities))
            withdraw = update.get("withdraw", {}).get("ipv4 unicast", ())
            for route in withdraw:
                updates.append(BGPUpdate(
                    time=time, peer_asn=peer_asn,
                    action=UpdateAction.WITHDRAW,
                    prefix=IPv4Prefix(route["nlri"])))
        except TapError:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise TapError(f"bad exabgp record: {exc}") from None
        if not updates:
            raise TapError("exabgp update announces and withdraws nothing")
        return updates

    def encode(self, msg: BGPUpdate) -> str:
        update: Dict[str, object] = {
            "attribute": {
                "as-path": list(msg.as_path),
                "community": sorted([c.asn, c.value]
                                    for c in msg.communities),
            },
        }
        if msg.is_announce:
            update["announce"] = {"ipv4 unicast": {
                str(msg.next_hop): [{"nlri": str(msg.prefix)}]}}
        else:
            update["withdraw"] = {"ipv4 unicast": [
                {"nlri": str(msg.prefix)}]}
        return json.dumps({
            "exabgp": "4.2.0",
            "time": msg.time,
            "type": "update",
            "neighbor": {"asn": {"peer": msg.peer_asn},
                         "message": {"update": update}},
        })


class MRTAdapter(TapAdapter):
    """MRT-style framed records (RFC 6396 common header)."""

    format = "mrt"
    framing = "mrt"

    def decode(self, payload: bytes) -> List[BGPUpdate]:
        try:
            raw = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise TapError(f"undecodable MRT payload: {exc}") from None
        try:
            from repro.corpus.control import update_from_json

            return [update_from_json(raw)]
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise TapError(f"bad MRT record: {exc}") from None

    def encode(self, msg: BGPUpdate) -> bytes:
        from repro.corpus.control import update_to_json

        payload = json.dumps(update_to_json(msg)).encode("utf-8")
        header = MRT_HEADER.pack(int(max(0.0, msg.time)), MRT_TYPE_BGP4MP,
                                 MRT_SUBTYPE_MESSAGE_AS4, len(payload))
        return header + payload


#: format name → adapter class; ``parse_tap_spec`` resolves against this
ADAPTERS: Dict[str, type] = {
    cls.format: cls for cls in (MRTAdapter, RISLinesAdapter, ExaBGPAdapter)
}


class TapSpec:
    """One parsed ``--tap`` argument: name, format, and source path."""

    def __init__(self, name: str, format: str, path: Union[str, Path]):
        if format not in ADAPTERS:
            raise TapError(f"unknown tap format {format!r}; expected one "
                           f"of {sorted(ADAPTERS)}")
        self.name = name
        self.format = format
        self.path = Path(path)

    def adapter(self) -> TapAdapter:
        return ADAPTERS[self.format]()

    def __repr__(self) -> str:
        return f"TapSpec({self.name}={self.format}:{self.path})"


def parse_tap_spec(spec: str) -> TapSpec:
    """Parse ``[NAME=]FORMAT:PATH`` (e.g. ``upstream=ris:feed.jsonl``).

    The name defaults to the source file's stem; it keys the tap's
    status, telemetry labels, and quarantine file.
    """
    body = spec
    name = None
    if "=" in spec.split(":", 1)[0]:
        name, _, body = spec.partition("=")
        name = name.strip()
        if not name:
            raise TapError(f"empty tap name in spec {spec!r}")
    format, sep, path = body.partition(":")
    if not sep or not path:
        raise TapError(f"bad tap spec {spec!r}; expected [NAME=]FORMAT:PATH")
    return TapSpec(name or Path(path).stem, format.strip(), path)


def write_feed(path: Union[str, Path], messages, fmt: str) -> Path:
    """Write a feed fixture holding ``messages`` in format ``fmt``.

    Line formats get one record per line; ``mrt`` a concatenation of
    framed records.  Used by the committed CI fixtures and the tap test
    suites so every adapter's parse path is driven by its own encoder.
    """
    if fmt not in ADAPTERS:
        raise TapError(f"unknown tap format {fmt!r}")
    adapter = ADAPTERS[fmt]()
    path = Path(path)
    if adapter.framing == "mrt":
        with open(path, "wb") as fh:
            for msg in messages:
                fh.write(adapter.encode(msg))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for msg in messages:
                fh.write(adapter.encode(msg) + "\n")
    return path
