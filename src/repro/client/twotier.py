"""The improved two-tier access protocol (paper Section 3.4).

1. initial probe;
2. **first cycle only**: search the first-tier index and record the IDs
   of all result documents -- the first tier covers every requested
   document, so one read suffices for the whole session;
3. **every cycle** (including the first): read the second-tier offset
   list to learn where this cycle's documents start, and download the
   needed ones.

Equation 1: ``TT = L_I + n * L_O`` plus document download time, with n
the number of cycles listened to.  The first-tier read is selective by
default (packets the query's walk touches) or FULL (the literal L_I).

One client covers every program the server airs:

* **K data channels** (:class:`~repro.broadcast.multichannel.MultiChannelCycle`,
  extension).  The client has one tuner, retuning instantly at byte
  granularity.  Its data phase is a greedy tune plan: walk the wanted
  documents in air order and take each one that starts at or after the
  time the tuner frees up (``offset >= free``).  A document airing
  *while* the tuner is busy on another channel is a **conflict** and is
  deferred to a later cycle.  Deferral terminates: the earliest wanted
  document of a cycle is always catchable, and the server's
  acknowledged delivery keeps deferred documents scheduled.  On a
  single-channel program documents never overlap, so the plan takes
  every wanted document.  Cycles of a multichannel program report under
  the ``"two-tier-multi"`` label.
* **An error-prone channel** (extension): the erasures of a
  :class:`~repro.broadcast.loss.PacketLossModel` apply to every read.
  A lost first-tier packet means the result-ID set cannot be trusted:
  the client charges the bytes it listened to and retries the read next
  cycle.  A lost offset-list packet blinds the client for the cycle: it
  downloads nothing.  A document with any lost frame is not recorded but
  still occupies the tuner (the loss surfaces only once its frames have
  been listened to), so its air time is charged and it can still shadow
  later conflicting documents; a rebroadcast picks it up (acknowledged
  delivery).  The protocol stays safe -- it never records a wrong result
  set -- and live as long as the server rebroadcasts.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.broadcast.multichannel import MultiChannelCycle
from repro.broadcast.packets import PacketKind
from repro.broadcast.program import BroadcastCycle, IndexScheme
from repro.client.protocol import (
    AccessProtocol,
    FirstTierRead,
    LookupFn,
    OffsetRead,
    default_lookup,
)
from repro.xpath.ast import XPathQuery

#: Loss-sampling identity of the k-th second-tier packet of a cycle:
#: ``(cycle, OFFSET_PACKET_BASE + k)``, disjoint from first-tier packets.
OFFSET_PACKET_BASE = 1_000_000


class TwoTierClient(AccessProtocol):
    """Client running the improved two-tier protocol."""

    scheme = IndexScheme.TWO_TIER
    protocol_name = "two-tier"
    #: reporting label once the client hears a multichannel program
    multichannel_protocol_name = "two-tier-multi"

    def __init__(
        self,
        query: XPathQuery,
        arrival_time: int,
        lookup_fn: LookupFn = default_lookup,
        first_tier_read: FirstTierRead = FirstTierRead.SELECTIVE,
        offset_read: OffsetRead = OffsetRead.FULL,
        loss_model: PacketLossModel = LOSSLESS,
        client_key: int = 0,
    ) -> None:
        super().__init__(query, arrival_time, lookup_fn)
        self.first_tier_read = first_tier_read
        self.offset_read = offset_read
        self.loss_model = loss_model
        self.client_key = client_key
        #: cross-channel conflicts observed (one per deferred document
        #: per cycle it was deferred in)
        self.channel_conflicts = 0
        #: documents deferred at least once before retrieval
        self.deferred_doc_ids: set = set()
        #: cycles in which a loss forced a retry (diagnostics)
        self.index_retries = 0
        self.blind_cycles = 0

    def on_cycle(self, cycle: BroadcastCycle) -> None:
        if isinstance(cycle, MultiChannelCycle):
            self.protocol_name = self.multichannel_protocol_name
        super().on_cycle(cycle)

    def _consume(self, cycle: BroadcastCycle, probe_bytes: int) -> None:
        lossless = self.loss_model.is_lossless
        index_bytes = 0
        if self.expected_doc_ids is None:
            with obs.span("client.first_tier_read"):
                lookup = self._lookup(cycle)
                packed = cycle.packed_first_tier
                index_packets: Collection[int]
                if self.first_tier_read is FirstTierRead.FULL:
                    index_packets = range(packed.packet_count)
                    index_bytes = cycle.first_tier_bytes
                else:
                    index_packets = packed.packets_for_nodes(lookup.visited_node_ids)
                    index_bytes = len(index_packets) * packed.packet_bytes
                lost = not lossless and self.loss_model.any_lost(
                    self.client_key, cycle.cycle_number, index_packets
                )
            if lost:
                # Incomplete index read: charge it, retry next cycle.
                self.index_retries += 1
                self.metrics.merge_cycle(probe=probe_bytes, index=index_bytes)
                return
            # A dual-channel client may already hold documents it caught
            # on a provisional mid-cycle read; they stay expected.
            self.expected_doc_ids = frozenset(lookup.doc_ids) | self.received_doc_ids
        with obs.span("client.offset_read"):
            offset_packets: Collection[int]
            if self.offset_read is OffsetRead.SELECTIVE:
                offset_packets = cycle.offset_list.packets_for_docs(
                    self.expected_doc_ids
                )
                offset_bytes = len(offset_packets) * cycle.layout.packet_bytes
            else:
                offset_packets = range(cycle.offset_list.packet_count)
                offset_bytes = cycle.offset_list_air_bytes
            blind = not lossless and self.loss_model.any_lost(
                self.client_key,
                cycle.cycle_number,
                (OFFSET_PACKET_BASE + k for k in offset_packets),
            )
        if blind:
            # Blind cycle: without intact offsets there is no tune plan.
            self.blind_cycles += 1
            self.metrics.merge_cycle(
                probe=probe_bytes, index=index_bytes, offsets=offset_bytes
            )
            return
        data = cycle.layout.segment(PacketKind.DATA)
        with obs.span("client.doc_download"):
            # The tuner leaves the index channel where the data phase starts.
            doc_bytes, deferred = self._download_planned(
                cycle, self.expected_doc_ids, data.start if data else 0
            )
        if deferred:
            self.channel_conflicts += len(deferred)
            self.deferred_doc_ids.update(deferred)
            registry = obs.get_registry()
            if registry.enabled:
                registry.counter(
                    "client.channel_conflicts_total", protocol=self.protocol_name
                ).inc(len(deferred))
                registry.counter(
                    "client.deferred_docs_total", protocol=self.protocol_name
                ).inc(len(deferred))
        self.metrics.merge_cycle(
            probe=probe_bytes,
            index=index_bytes,
            offsets=offset_bytes,
            docs=doc_bytes,
        )

    def _download_planned(
        self, cycle: BroadcastCycle, wanted: FrozenSet[int], free: int
    ) -> Tuple[int, List[int]]:
        """Greedy single-tuner tune plan over this cycle's documents.

        Takes every wanted, not-yet-received document that starts at or
        after *free*, the byte time the tuner frees up.  Returns the
        document bytes listened to and the wanted documents that aired
        while the tuner was busy (or before *free*).
        """
        received = self.received_doc_ids
        loss_model = self.loss_model
        lossless = loss_model.is_lossless
        packet_bytes = cycle.layout.packet_bytes
        doc_bytes = 0
        last_end: Optional[int] = None
        deferred: List[int] = []
        for doc_id, offset, air in cycle.air_order:
            if doc_id not in wanted or doc_id in received:
                continue
            if offset < free:  # catchable iff it has not started yet
                deferred.append(doc_id)
                continue
            doc_bytes += air
            free = offset + air
            if not lossless and loss_model.span_lost(
                self.client_key,
                cycle.cycle_number,
                offset // packet_bytes,
                air // packet_bytes,
            ):
                # Corrupted frame(s): the tuner was committed for the
                # document's full air time before the loss surfaced, so
                # the bytes are charged and `free` stands -- but the
                # document is not recorded and waits for a rebroadcast.
                continue
            received.add(doc_id)
            last_end = free
        self._check_complete(cycle, last_end)
        return doc_bytes, deferred

