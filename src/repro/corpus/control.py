"""The control-plane corpus: every BGP UPDATE seen at the route server
during the measurement period, in time order.

Withdrawals carry no communities on the wire, so "RTBH-related" withdrawals
are identified the way the paper must: a withdrawal is blackhole-related
when the same peer currently has a blackhole announcement standing for the
prefix.  :class:`RTBHAutomaton` is the one state machine that makes that
decision and tracks the §5.1 announcement windows; the corpus feeds it
once and caches it, and the streaming reducer *is* one, so batch and
stream agree by construction.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bgp.community import Community
from repro.bgp.message import BGPUpdate, UpdateAction
from repro.corpus.ingest import IngestReport, check_policy
from repro.errors import CorpusError, IngestError, ReproError
from repro.net.ip import IPv4Address, IPv4Prefix
from repro import telemetry

#: marker returned alongside updates by :meth:`rtbh_updates`
RTBH_RELATED = "rtbh"

#: one announcement window: (announce time, withdraw time, announcer ASN)
Window = Tuple[float, float, int]


class RTBHAutomaton:
    """The announce/withdraw state machine behind every RTBH decision.

    Fed UPDATEs in time order, :meth:`feed` flags each one as
    blackhole-related or not and maintains the §5.1 window state per
    (peer, prefix) key:

    * a blackhole announcement is flagged and opens a window (a repeat
      while one is open keeps the first start);
    * a withdraw, or a plain announcement replacing the blackhole route,
      is flagged iff the key has a standing blackhole, and closes its
      window;
    * anything else is not RTBH-related.
    """

    def __init__(self) -> None:
        #: (peer, prefix) pairs with a standing blackhole announcement;
        #: always the keys of :attr:`open_at`, kept as a set because the
        #: stream checkpoint records it in set order
        self.active: Set[Tuple[int, IPv4Prefix]] = set()
        #: (peer, prefix) -> announce time of the currently-open window
        self.open_at: Dict[Tuple[int, IPv4Prefix], float] = {}
        #: prefix -> closed (start, end, announcer) windows
        self.windows: Dict[IPv4Prefix, List[Window]] = {}
        #: (prefix, announcer) -> first origin ASN announced
        self.origin_of: Dict[Tuple[IPv4Prefix, int], int] = {}
        #: timestamps of every RTBH-related update (Fig. 3 message series)
        self.rtbh_times: List[float] = []
        self.message_count = 0
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    def feed(self, msg: BGPUpdate) -> bool:
        """Apply one UPDATE; returns whether it is RTBH-related."""
        self.message_count += 1
        if self.start_time is None:
            self.start_time = msg.time
        self.end_time = msg.time
        key = (msg.peer_asn, msg.prefix)
        if msg.is_announce and msg.is_blackhole:
            self.active.add(key)
            self.open_at.setdefault(key, msg.time)
            self.origin_of.setdefault((msg.prefix, msg.peer_asn),
                                      msg.origin_asn)
        elif key in self.active:
            self.active.discard(key)
            self.windows.setdefault(msg.prefix, []).append(
                (self.open_at.pop(key), msg.time, msg.peer_asn))
        else:
            return False
        self.rtbh_times.append(msg.time)
        return True

    def windows_snapshot(self) -> Dict[IPv4Prefix, List[Window]]:
        """Per prefix: the sorted (announce, withdraw, announcer) windows
        fed so far, in a fresh dict.

        A window still open closes at the last fed time — the paper
        treats still-active blackholes (e.g. zombies) the same way.
        """
        out = {prefix: list(ws) for prefix, ws in self.windows.items()}
        for (peer, prefix), start in self.open_at.items():
            out.setdefault(prefix, []).append((start, self.end_time, peer))
        for ws in out.values():
            ws.sort()
        return out


class ControlPlaneCorpus:
    """An ordered store of BGP updates with RTBH-aware helpers.

    Construction validates timestamps: real feeds arrive with corrupt
    records, and a single NaN would silently poison every sort-based
    analysis.  Under ``on_error="strict"`` (default) a non-finite
    timestamp raises :class:`CorpusError`; under ``"skip"``/``"collect"``
    the record is dropped and accounted in :attr:`ingest_report`.
    """

    def __init__(self, messages: Sequence[BGPUpdate], *,
                 on_error: str = "strict",
                 ingest_report: Optional[IngestReport] = None):
        check_policy(on_error)
        report = ingest_report
        if report is None:
            report = IngestReport(source="<memory>", policy=on_error)
            report.total = len(messages)
        clean: List[BGPUpdate] = []
        for index, msg in enumerate(messages):
            if not math.isfinite(msg.time):
                if on_error == "strict":
                    raise CorpusError(
                        f"control-plane record {index} has non-finite "
                        f"timestamp {msg.time!r}")
                report.record_problem(f"record {index}",
                                      f"non-finite timestamp {msg.time!r}",
                                      payload=str(msg))
                continue
            clean.append(msg)
        self._messages: List[BGPUpdate] = sorted(clean, key=lambda m: m.time)
        report.loaded = len(self._messages)
        #: accounting of what construction/loading kept and dropped
        self.ingest_report: IngestReport = report

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[BGPUpdate]:
        return iter(self._messages)

    def __getitem__(self, index: int) -> BGPUpdate:
        return self._messages[index]

    @property
    def start_time(self) -> float:
        if not self._messages:
            raise CorpusError("empty control-plane corpus")
        return self._messages[0].time

    @property
    def end_time(self) -> float:
        if not self._messages:
            raise CorpusError("empty control-plane corpus")
        return self._messages[-1].time

    # -- RTBH classification ---------------------------------------------------

    @cached_property
    def _rtbh(self) -> Tuple[RTBHAutomaton, List[BGPUpdate], int]:
        automaton = RTBHAutomaton()
        flagged = [msg for msg in self._messages if automaton.feed(msg)]
        announcements = sum(m.is_announce and m.is_blackhole for m in flagged)
        return automaton, flagged, announcements

    @property
    def rtbh_automaton(self) -> RTBHAutomaton:
        """The automaton fed with the whole corpus (built on first use)."""
        return self._rtbh[0]

    def rtbh_updates(self) -> List[BGPUpdate]:
        """Only the blackhole-related updates (announce + paired withdraw)."""
        return list(self._rtbh[1])

    def rtbh_message_count(self) -> int:
        return len(self._rtbh[1])

    def rtbh_announcement_count(self) -> int:
        """Blackhole announcements only (Fig. 10's denominator); a plain
        announcement replacing a blackhole is flagged but not counted."""
        return self._rtbh[2]

    def rtbh_prefixes(self) -> Set[IPv4Prefix]:
        """Every prefix that was ever blackholed via the route server."""
        return {m.prefix for m in self._rtbh[1]}

    def rtbh_windows_by_prefix(self) -> Dict[IPv4Prefix, List[Window]]:
        """Per prefix: (announce_time, withdraw_time, announcer ASN) windows
        (see :meth:`RTBHAutomaton.windows_snapshot`)."""
        return self.rtbh_automaton.windows_snapshot()

    # -- persistence -----------------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        """One JSON object per line; communities as ``asn:value`` strings."""
        write_updates_jsonl(self._messages, path)

    @classmethod
    def load_jsonl(cls, path: str | Path, *, on_error: str = "strict",
                   quarantine_path: str | Path | None = None,
                   ) -> "ControlPlaneCorpus":
        """Stream a JSONL dump into a corpus under an error policy.

        ``strict`` raises :class:`~repro.errors.IngestError` at the first
        malformed line; ``skip``/``collect`` drop malformed lines and
        account for them in the returned corpus's :attr:`ingest_report`
        (``collect`` additionally quarantines the raw payloads, writing
        them to ``quarantine_path`` when given).
        """
        check_policy(on_error)
        telem = telemetry.current()
        report = IngestReport(source=str(path), policy=on_error,
                              quarantine_path=(None if quarantine_path is None
                                               else str(quarantine_path)))
        # records already quarantined by an earlier pass are recognised by
        # checksum and neither re-quarantined nor double-counted
        existing_quarantine: List[str] = []
        if quarantine_path is not None and Path(quarantine_path).exists():
            existing_quarantine = [
                line for line in Path(quarantine_path).read_text(
                    encoding="utf-8", errors="replace").splitlines() if line]
            report.seed_quarantine_digests(existing_quarantine)
        messages: List[BGPUpdate] = []
        with telem.span("ingest.control", source=str(path),
                        policy=on_error) as sp:
            for line_no, item in read_updates_jsonl(path, on_error=on_error):
                report.total += 1
                if isinstance(item, BGPUpdate):
                    messages.append(item)
                else:
                    report.record_problem(f"{Path(path).name}:{line_no}",
                                          item[0], payload=item[1])
            if quarantine_path is not None and (existing_quarantine
                                                or report.quarantined):
                from repro.runtime.atomic import atomic_writer

                with atomic_writer(quarantine_path) as fh:
                    for payload in existing_quarantine + report.quarantined:
                        fh.write(payload + "\n")
            corpus = cls(messages, on_error=on_error, ingest_report=report)
            sp.attrs["records"] = report.total
        telem.counter("ingest.records", plane="control",
                      outcome="ok").inc(report.loaded)
        telem.counter("ingest.records", plane="control",
                      outcome="skipped").inc(report.skipped)
        telem.counter("ingest.records", plane="control",
                      outcome="quarantined").inc(len(report.quarantined))
        return corpus


# -- record (de)serialization ----------------------------------------------------


def update_to_json(msg: BGPUpdate) -> dict:
    """The canonical JSONL representation of one UPDATE."""
    return {
        "time": msg.time,
        "peer_asn": msg.peer_asn,
        "action": msg.action.value,
        "prefix": str(msg.prefix),
        "next_hop": None if msg.next_hop is None else str(msg.next_hop),
        "as_path": list(msg.as_path),
        "communities": sorted(str(c) for c in msg.communities),
    }


def update_from_json(raw: dict) -> BGPUpdate:
    """Parse one JSONL record; raises ``KeyError``/``ValueError``/
    :class:`~repro.errors.ReproError` on malformed input."""
    if not isinstance(raw, dict):
        raise ValueError(f"record is not an object: {type(raw).__name__}")
    return BGPUpdate(
        time=float(raw["time"]),
        peer_asn=int(raw["peer_asn"]),
        action=UpdateAction(raw["action"]),
        prefix=IPv4Prefix(raw["prefix"]),
        next_hop=(None if raw["next_hop"] is None
                  else IPv4Address(raw["next_hop"])),
        as_path=tuple(int(asn) for asn in raw["as_path"]),
        communities=frozenset(
            Community.parse(c) for c in raw["communities"]
        ),
    )


def write_updates_jsonl(messages: Sequence[BGPUpdate],
                        path: str | Path) -> None:
    """Write messages in the given order (fault injection relies on the
    order being preserved, so no sorting happens here)."""
    with open(path, "w", encoding="utf-8") as fh:
        for msg in messages:
            fh.write(json.dumps(update_to_json(msg)) + "\n")


def read_updates_jsonl(
    path: str | Path, *, on_error: str = "strict",
) -> Iterator[Tuple[int, "BGPUpdate | Tuple[str, str]"]]:
    """Stream ``(line_no, update)`` pairs from a JSONL dump.

    Under lenient policies a malformed line yields ``(line_no, (reason,
    raw_line))`` instead of raising, letting callers do their own
    accounting without buffering the file.
    """
    check_policy(on_error)
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise IngestError(f"{path}: cannot open: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, update_from_json(json.loads(line))
            except (KeyError, ValueError, TypeError, ReproError) as exc:
                if on_error == "strict":
                    raise IngestError(
                        f"{path}:{line_no}: bad record: {exc}") from exc
                yield line_no, (f"bad record: {exc}", line)
