"""Dual-channel two-tier client (extension).

The multi-channel air-indexing literature (e.g. heterogeneous-channel
index allocation) separates index and data onto parallel channels: the
**index channel** continuously repeats the current cycle's first tier and
offset list, while the **data channel** carries the documents.  A client
arriving *mid-cycle* no longer waits for the next cycle boundary -- it
reads the index replica immediately and catches every result document
whose broadcast position is still ahead on the data channel.

Accounting model (one byte of broadcast = one unit of time, as in the
paper):

* the client's first index read starts half an index-program period
  after arrival in expectation; we charge the deterministic worst case
  of one full program (``L_I + L_O`` air bytes) of waiting for access
  time, and the usual selective-read bytes for tuning;
* within the arrival cycle, only documents whose offset lies after the
  position where the index read completes are catchable -- the two-tier
  tune plan started with the tuner busy until that position;
* subsequent cycles behave exactly like the single-channel two-tier
  protocol.

Tuning time is unchanged by design -- the win is **access time** (and it
costs a second channel's bandwidth; the bench states that caveat).
"""

from __future__ import annotations

from repro import obs
from repro.broadcast.program import BroadcastCycle
from repro.client.twotier import TwoTierClient


class DualChannelTwoTierClient(TwoTierClient):
    """Two-tier protocol over separate index and data channels."""

    protocol_name = "two-tier-dual"
    multichannel_protocol_name = protocol_name
    #: diagnostics: did the arrival cycle contribute documents?
    caught_mid_cycle = 0

    def can_use(self, cycle: BroadcastCycle) -> bool:
        """Any cycle still on air at arrival is usable (index replica)."""
        return cycle.end_time > self.metrics.arrival_time

    def _consume(self, cycle: BroadcastCycle, probe_bytes: int) -> None:
        arrival = self.metrics.arrival_time
        if cycle.start_time >= arrival or self.expected_doc_ids is not None:
            super()._consume(cycle, probe_bytes)
            return
        # The on-air cycle's index was built BEFORE this client was
        # admitted, so its result list may be incomplete (it only covers
        # documents other queries requested).  Treat it as *provisional*:
        # catch what it names, but defer the authoritative result-ID
        # recording to the next cycle's first tier, which the server
        # built with this query pending.
        with obs.span("client.first_tier_read"):
            lookup = self._lookup(cycle)
            index_bytes = cycle.packed_first_tier.tuning_bytes_for_nodes(
                lookup.visited_node_ids
            )
        offset_bytes = cycle.offset_list_air_bytes
        index_program = cycle.packed_first_tier.total_bytes + offset_bytes
        ready_offset = (arrival - cycle.start_time) + index_program
        with obs.span("client.doc_download"):
            # Documents that aired before the index read completed are
            # already gone by on the data channel.
            doc_bytes, _gone = self._download_planned(
                cycle, frozenset(lookup.doc_ids), ready_offset
            )
        if doc_bytes:
            self.caught_mid_cycle += 1
        self.metrics.merge_cycle(
            probe=probe_bytes,
            index=index_bytes,
            offsets=offset_bytes,
            docs=doc_bytes,
        )
