"""Tests for the dual-channel (separate index channel) extension."""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.dualchannel import DualChannelTwoTierClient
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.xpath.parser import parse_query


@pytest.fixture(scope="module")
def dual_result():
    return run_simulation(small_setup(dual_channel=True))


class TestDualChannelClientUnit:
    def build_cycle(self, capacity=100_000):
        from tests.xpath.test_evaluator import paper_documents

        store = DocumentStore(paper_documents())
        server = BroadcastServer(store, cycle_data_capacity=capacity)
        server.submit(parse_query("/a//c"), 0)
        return server, server.build_cycle()

    def test_mid_cycle_arrival_uses_on_air_cycle(self):
        _server, cycle = self.build_cycle()
        client = DualChannelTwoTierClient(
            parse_query("/a//c"), arrival_time=cycle.start_time + 1
        )
        assert client.can_use(cycle)
        client.on_cycle(cycle)
        # The on-air index predates this client's admission, so the read
        # is provisional: documents may be caught, but the authoritative
        # result-ID set is deferred to the next cycle's first tier.
        assert client.expected_doc_ids is None
        assert client.received_doc_ids <= {1, 2, 3, 4}
        assert client.metrics.index_bytes > 0  # the read was paid for

    def test_only_later_documents_catchable(self):
        _server, cycle = self.build_cycle()
        # Arrive just before the last document's offset: everything
        # earlier on the data channel is gone.
        last_doc = cycle.doc_ids[-1]
        arrival = cycle.start_time + cycle.doc_offsets[last_doc] - 1
        client = DualChannelTwoTierClient(parse_query("/a//c"), arrival)
        client.on_cycle(cycle)
        # The index-read delay pushes the ready position past even the
        # last document here, so nothing (or at most that one) is caught.
        assert client.received_doc_ids <= {last_doc}

    def test_arrival_before_cycle_behaves_like_single_channel(self):
        _server, cycle = self.build_cycle()
        dual = DualChannelTwoTierClient(parse_query("/a//c"), 0)
        dual.on_cycle(cycle)
        from repro.client.twotier import TwoTierClient

        single = TwoTierClient(parse_query("/a//c"), 0)
        single.on_cycle(cycle)
        assert dual.received_doc_ids == single.received_doc_ids
        assert dual.metrics.doc_bytes == single.metrics.doc_bytes

    def test_missed_documents_arrive_via_rebroadcast(self):
        server, cycle = self.build_cycle(capacity=256)
        # Arrive deep into cycle 0; most docs already gone.
        client = DualChannelTwoTierClient(
            parse_query("/a//c"), arrival_time=cycle.end_time - 1
        )
        client.on_cycle(cycle)
        server.submit(parse_query("/a//c"), cycle.end_time - 1)
        for _ in range(30):
            nxt = server.build_cycle()
            if nxt is None:
                break
            client.on_cycle(nxt)
        assert client.satisfied


class TestDualChannelSimulation:
    def test_records_present(self, dual_result):
        assert len(dual_result.records_for("two-tier-dual")) == small_setup().total_queries()

    def test_access_time_never_worse(self, dual_result):
        """Mid-cycle catching can only help -- but in the on-demand
        regime delivery spans ~n cycles, so the help is marginal (an
        honest negative result; see the dual-channel bench)."""
        dual = dual_result.mean_access_bytes("two-tier-dual")
        single = dual_result.mean_access_bytes("two-tier")
        assert dual <= single

    def test_correctness_unchanged(self, dual_result):
        """Dual-channel clients end with the same result sets (doc counts
        match the single-channel client per session)."""
        singles = {
            (r.query_text, r.arrival_time): r.result_doc_count
            for r in dual_result.records_for("two-tier")
        }
        for record in dual_result.records_for("two-tier-dual"):
            assert singles[(record.query_text, record.arrival_time)] == (
                record.result_doc_count
            )

    def test_cycles_listened_at_most_one_extra(self, dual_result):
        """The dual client additionally listens to (part of) its arrival
        cycle; it must never pay more than that one extra cycle."""
        dual = dual_result.mean_cycles_listened("two-tier-dual")
        single = dual_result.mean_cycles_listened("two-tier")
        assert dual <= single + 1.0

    def test_off_by_default(self):
        result = run_simulation(small_setup())
        assert result.records_for("two-tier-dual") == []


class TestMidCycleBoundaryRegression:
    """Arrival exactly at a document's offset boundary.

    The mid-cycle catch is the two-tier tune plan started with the tuner
    free at ``ready_offset = (arrival - cycle.start) + index_program``:
    it admits a document iff ``offset >= ready_offset`` -- a document
    whose first byte airs the instant the client finishes the index read
    is caught; one byte later and it is gone.  The same predicate
    (``offset >= free``) decides cross-channel conflicts, so a
    regression here would silently skew K-channel conflict accounting
    too.
    """

    def _cycle(self):
        from tests.xpath.test_evaluator import paper_documents

        store = DocumentStore(paper_documents())
        server = BroadcastServer(store, cycle_data_capacity=100_000)
        server.submit(parse_query("/a//c"), 0)
        return server.build_cycle()

    def _index_program_bytes(self, cycle):
        return cycle.packed_first_tier.total_bytes + cycle.offset_list_air_bytes

    def test_arrival_exactly_at_offset_boundary_catches_doc(self):
        cycle = self._cycle()
        index_program = self._index_program_bytes(cycle)
        boundary_doc = cycle.doc_ids[-1]
        offset = cycle.doc_offsets[boundary_doc]
        assert offset > index_program  # otherwise arrival is not mid-cycle
        # Choose arrival so the client's ready position lands exactly on
        # the document's first byte: ready = (arrival - start) + program.
        arrival = cycle.start_time + offset - index_program
        client = DualChannelTwoTierClient(parse_query("/a//c"), arrival)
        assert client.can_use(cycle)
        client.on_cycle(cycle)
        assert boundary_doc in client.received_doc_ids
        assert client.caught_mid_cycle == 1

    def test_arrival_one_byte_later_misses_doc(self):
        cycle = self._cycle()
        index_program = self._index_program_bytes(cycle)
        boundary_doc = cycle.doc_ids[-1]
        offset = cycle.doc_offsets[boundary_doc]
        arrival = cycle.start_time + offset - index_program + 1
        client = DualChannelTwoTierClient(parse_query("/a//c"), arrival)
        assert client.can_use(cycle)
        client.on_cycle(cycle)
        assert boundary_doc not in client.received_doc_ids
        assert client.caught_mid_cycle == 0

    def test_boundary_predicate_matches_multichannel_plan(self):
        """The tune plan frees its tuner at exactly ``offset`` and takes
        the doc."""
        from repro.client.twotier import TwoTierClient

        cycle = self._cycle()
        client = TwoTierClient(parse_query("/a//c"), 0)
        client.on_cycle(cycle)
        # Single channel, all docs back-to-back: every doc's offset
        # equals the previous doc's end (the 'free' position), so every
        # doc sits exactly on the boundary and all must be taken.
        assert client.received_doc_ids == set(cycle.doc_ids) & set(
            client.expected_doc_ids
        )
        assert client.channel_conflicts == 0
