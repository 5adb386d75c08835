"""The two-tier client's loss ladder, on one data channel and on two.

Every case runs on the paper's single-channel program (the base classes)
and again on a K=2 multichannel program (the ``...K2`` subclasses),
where the single tuner may also defer documents that air while it is
busy on the other channel.  A single channel never defers, so there a
healed channel's next rebroadcast always completes the session.
"""

from __future__ import annotations

from dataclasses import replace

from repro.broadcast.loss import LOSSLESS, PacketLossModel
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.twotier import TwoTierClient
from repro.index.sizes import PAPER_SIZE_MODEL
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.xpath.parser import parse_query


class _AlwaysLose(PacketLossModel):
    """Deterministic total loss for targeted packet ranges."""

    def __init__(self, lose_index=False, lose_offsets=False, lose_docs=False):
        object.__setattr__(self, "loss_prob", 0.5)  # non-zero: not lossless
        object.__setattr__(self, "seed", 0)
        self._lose_index = lose_index
        self._lose_offsets = lose_offsets
        self._lose_docs = lose_docs

    def packet_lost(self, client_key, cycle_number, packet_index):
        if packet_index >= 1_000_000:
            return self._lose_offsets
        return self._lose_index

    def span_lost(self, client_key, cycle_number, start_packet, packet_count):
        return self._lose_docs


class _LoseOnly(PacketLossModel):
    """Lose exactly the listed packet indices; record every query."""

    def __init__(self, targets=()):
        object.__setattr__(self, "loss_prob", 0.5)  # non-zero: not lossless
        object.__setattr__(self, "seed", 0)
        self._targets = set(targets)
        self.packet_queries = []

    def packet_lost(self, client_key, cycle_number, packet_index):
        self.packet_queries.append(packet_index)
        return packet_index in self._targets

    def span_lost(self, client_key, cycle_number, start_packet, packet_count):
        return False


class _CountingLoss(PacketLossModel):
    """Lossless, but record every span draw (single-draw regression)."""

    def __init__(self):
        object.__setattr__(self, "loss_prob", 0.5)
        object.__setattr__(self, "seed", 0)
        self.span_calls = []

    def packet_lost(self, client_key, cycle_number, packet_index):
        return False

    def span_lost(self, client_key, cycle_number, start_packet, packet_count):
        self.span_calls.append((cycle_number, start_packet, packet_count))
        return False


def drained_server(capacity=100_000, size_model=PAPER_SIZE_MODEL, num_channels=None):
    from tests.xpath.test_evaluator import paper_documents

    store = DocumentStore(paper_documents(), size_model=size_model)
    return BroadcastServer(
        store,
        cycle_data_capacity=capacity,
        acknowledged_delivery=True,
        num_data_channels=num_channels,
    )


#: packets small enough that the paper collection's offset list and
#: packed first tier both span several packets
TINY_PACKETS = replace(PAPER_SIZE_MODEL, packet_bytes=24)


class _Channels:
    """One data channel; the ``K2`` subclasses rerun every case on two."""

    #: ``num_data_channels`` of the server under test
    channels = None

    def server(self, **kwargs):
        return drained_server(num_channels=self.channels, **kwargs)

    def drain(self, server, pending, client, cycle):
        """Acknowledge and rebroadcast until *client* is satisfied.

        Returns the cycles it took; a single channel needs at most one.
        """
        cycles = 0
        while not client.satisfied:
            server.confirm_delivery(pending, client.received_doc_ids, cycle)
            cycle = server.build_cycle()
            assert cycle is not None
            client.on_cycle(cycle)
            cycles += 1
            assert cycles < 50
        if self.channels is None:
            assert cycles <= 1
        return cycles


class TestIndexLoss(_Channels):
    def test_index_loss_forces_retry(self):
        server = self.server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        first = server.build_cycle()

        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_AlwaysLose(lose_index=True)
        )
        client.on_cycle(first)
        assert client.expected_doc_ids is None  # read failed
        assert client.index_retries == 1
        assert client.metrics.index_bytes > 0  # the bytes were still paid
        assert client.metrics.offset_bytes == 0  # no point reading offsets

        # Channel heals: the retry on the next cycle succeeds.
        client.loss_model = LOSSLESS
        server.confirm_delivery(pending, client.received_doc_ids, first)
        second = server.build_cycle()
        client.on_cycle(second)
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})


class TestIndexLossK2(TestIndexLoss):
    channels = 2


class TestOffsetLoss(_Channels):
    def test_blind_cycle_downloads_nothing(self):
        server = self.server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_AlwaysLose(lose_offsets=True)
        )
        client.on_cycle(cycle)
        assert client.blind_cycles == 1
        assert client.received_doc_ids == set()
        assert client.metrics.doc_bytes == 0
        assert client.metrics.offset_bytes > 0  # charged for the attempt


class TestOffsetLossK2(TestOffsetLoss):
    channels = 2


class TestDocumentLoss(_Channels):
    def test_lost_documents_charged_but_not_received(self):
        server = self.server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()
        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_AlwaysLose(lose_docs=True)
        )
        client.on_cycle(cycle)
        assert client.expected_doc_ids == frozenset({1, 2, 3, 4})
        assert client.received_doc_ids == set()
        # The tuner was committed for every catchable document's full air
        # time before the corruption surfaced, so the bytes are charged.
        assert client.metrics.doc_bytes > 0

        # Rebroadcast under a healed channel drains the session.
        client.loss_model = LOSSLESS
        self.drain(server, pending, client, cycle)
        assert client.received_doc_ids == client.expected_doc_ids

    def test_span_lost_drawn_once_per_document(self):
        """Regression: a document's frame run is one loss draw, not many."""
        server = self.server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()
        model = _CountingLoss()
        client = TwoTierClient(query, 0, client_key=1, loss_model=model)
        client.on_cycle(cycle)
        if self.channels is None:
            assert client.received_doc_ids == client.expected_doc_ids
        self.drain(server, pending, client, cycle)
        assert len(model.span_calls) == len(client.expected_doc_ids)
        assert len(set(model.span_calls)) == len(model.span_calls)

    def test_lossless_model_equals_reliable_client(self):
        server = self.server()
        query = parse_query("/a//c")
        server.submit(query, 0)
        cycle = server.build_cycle()
        lossy = TwoTierClient(query, 0, client_key=1, loss_model=LOSSLESS)
        reliable = TwoTierClient(query, 0)
        lossy.on_cycle(cycle)
        reliable.on_cycle(cycle)
        assert lossy.received_doc_ids == reliable.received_doc_ids
        assert lossy.metrics.doc_bytes == reliable.metrics.doc_bytes
        assert lossy.metrics.offset_bytes == reliable.metrics.offset_bytes

    def test_lossless_ladder_counters_stay_zero(self):
        server = self.server()
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        client = TwoTierClient(query, 0, loss_model=LOSSLESS)
        cycle = server.build_cycle()
        client.on_cycle(cycle)
        self.drain(server, pending, client, cycle)
        assert client.index_retries == 0
        assert client.blind_cycles == 0
        assert client.received_doc_ids == client.expected_doc_ids


class TestDocumentLossK2(TestDocumentLoss):
    channels = 2


class TestMultiPacketStructures(_Channels):
    """Losses inside multi-packet index/offset structures (tiny packets)."""

    def test_one_lost_offset_packet_blinds_the_cycle(self):
        server = self.server(size_model=TINY_PACKETS)
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()
        assert cycle.offset_list.packet_count > 1  # the point of the test

        # Lose only the *last* offset packet; the first arrives fine.
        last = 1_000_000 + cycle.offset_list.packet_count - 1
        client = TwoTierClient(query, 0, client_key=1, loss_model=_LoseOnly({last}))
        client.on_cycle(cycle)
        assert client.expected_doc_ids is not None  # index read succeeded
        assert client.blind_cycles == 1
        assert client.received_doc_ids == set()
        assert client.metrics.offset_bytes > 0  # partial list still paid for

        # Healed channel: rebroadcast completes the session.
        client.loss_model = LOSSLESS
        self.drain(server, pending, client, cycle)
        assert client.received_doc_ids == client.expected_doc_ids

    def test_one_lost_packet_of_selective_index_read_forces_retry(self):
        server = self.server(size_model=TINY_PACKETS)
        query = parse_query("/a//c")
        pending = server.submit(query, 0)
        cycle = server.build_cycle()

        # Discover which first-tier packets the selective read touches.
        spy = _LoseOnly()
        probe_client = TwoTierClient(query, 0, client_key=1, loss_model=spy)
        probe_client.on_cycle(cycle)
        needed = {p for p in spy.packet_queries if p < 1_000_000}
        assert len(needed) > 1  # the read really spans several packets

        client = TwoTierClient(
            query, 0, client_key=1, loss_model=_LoseOnly({max(needed)})
        )
        client.on_cycle(cycle)
        assert client.index_retries == 1
        assert client.expected_doc_ids is None
        # All needed packets were listened to before the loss surfaced.
        packed = cycle.packed_first_tier
        assert client.metrics.index_bytes == len(needed) * packed.packet_bytes
        assert client.metrics.offset_bytes == 0

        client.loss_model = LOSSLESS
        self.drain(server, pending, client, cycle)
        assert client.received_doc_ids == client.expected_doc_ids


class TestMultiPacketStructuresK2(TestMultiPacketStructures):
    channels = 2


class TestLossySimulation(_Channels):
    #: the label the two-tier client's records carry
    protocol = "two-tier"

    def test_config_accepts_loss_with_channels(self):
        config = small_setup(num_data_channels=self.channels, loss_prob=0.15)
        assert config.loss_prob == 0.15  # not rejected

    def test_simulation_drains_under_losses(self, nitf_docs):
        # Per-packet erasures: whole-document survival decays
        # exponentially in frame count, so higher rates never drain.
        config = small_setup(
            n_q=6,
            arrival_cycles=2,
            max_cycles=300,
            num_data_channels=self.channels,
            loss_prob=0.002,
        )
        result = run_simulation(config, documents=nitf_docs)
        assert result.completed
        records = [r for r in result.clients if r.protocol == self.protocol]
        assert records  # the loss-aware client ran the show
        assert len(records) == len(result.clients)


class TestLossySimulationK2(TestLossySimulation):
    channels = 2
    protocol = "two-tier-multi"
