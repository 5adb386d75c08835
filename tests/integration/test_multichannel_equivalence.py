"""Single-channel vs K=1 multichannel builds must be byte-identical.

The multichannel cycle builder (``repro.broadcast.multichannel``) is a
generalisation, not a fork: with one data channel it must emit exactly
the single-channel program -- equal
:func:`~repro.broadcast.program.program_signature` fingerprints (which
cover the channel assignment), the channel field elided from the second
tier, and every client protocol's end-to-end metrics unchanged.  The
scripted suite pins this per allocation policy and across live
collection mutation; the Hypothesis suite fuzzes workloads and
mutations, and runs the two-tier client over both cycle streams under
every read discipline.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.loss import LOSSLESS
from repro.broadcast.multichannel import ALLOCATION_POLICIES, MultiChannelCycle
from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.client.protocol import FirstTierRead, OffsetRead
from repro.client.twotier import TwoTierClient
from repro.sim.config import small_setup
from repro.sim.simulation import run_simulation
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries

ALL_PROTOCOLS = ("one-tier", "two-tier", "two-tier-multi")


def make_pair(docs, allocation="balanced", **kwargs):
    """A single-channel server and a K=1 multichannel server."""
    single = BroadcastServer(DocumentStore(docs), **kwargs)
    multi = BroadcastServer(
        DocumentStore(docs),
        num_data_channels=1,
        channel_allocation=allocation,
        **kwargs,
    )
    return single, multi


def submit_both(single, multi, query_list, arrival_time=0):
    admitted = 0
    for query in query_list:
        try:
            single.submit(query, arrival_time)
        except ValueError:
            continue  # empty result set: skip on both servers
        multi.submit(query, arrival_time)
        admitted += 1
    return admitted


def assert_cycles_match(single, multi, now=None):
    """Build one cycle on each server and pin them byte-identical.

    Returns ``(single_cycle, multi_cycle)``, or ``None`` when both
    servers are idle.
    """
    cycle_s = single.build_cycle(now)
    cycle_m = multi.build_cycle(now)
    if cycle_s is None or cycle_m is None:
        assert cycle_s is None and cycle_m is None
        return None
    assert not isinstance(cycle_s, MultiChannelCycle)
    assert isinstance(cycle_m, MultiChannelCycle)
    assert program_signature(cycle_s) == program_signature(cycle_m)
    # Byte identity, not just fingerprint identity: same layout, same
    # on-air second-tier length (channel field elided at K=1), same
    # placement.
    assert cycle_m.layout.segments == cycle_s.layout.segments
    assert cycle_m.offset_list_air_bytes == cycle_s.offset_list_air_bytes
    assert cycle_m.doc_offsets == cycle_s.doc_offsets
    assert cycle_m.total_bytes == cycle_s.total_bytes
    return cycle_s, cycle_m


#: every read discipline of the two-tier client, on a lossless channel
#: given explicitly or by default
CLIENT_VARIANTS = [
    dict(first_tier_read=first, offset_read=offsets, **loss)
    for first in FirstTierRead
    for offsets in OffsetRead
    for loss in ({}, {"loss_model": LOSSLESS})
]


def twin_clients(single):
    """One two-tier client per admitted query and variant, for each of
    the single-channel and K=1 cycle streams."""
    return [
        (
            TwoTierClient(pending.query, 0, **variant),
            TwoTierClient(pending.query, 0, **variant),
        )
        for pending in single.pending
        for variant in CLIENT_VARIANTS
    ]


class TestScriptedEquivalence:
    @pytest.mark.parametrize("allocation", ALLOCATION_POLICIES)
    def test_steady_drain_per_policy(self, nitf_docs, nitf_queries, allocation):
        """Every allocation policy degenerates to the identity at K=1."""
        single, multi = make_pair(
            nitf_docs, allocation=allocation, cycle_data_capacity=4_000
        )
        assert submit_both(single, multi, nitf_queries) >= 10
        cycles = 0
        while single.pending or multi.pending:
            assert assert_cycles_match(single, multi) is not None
            cycles += 1
            assert cycles < 500
        assert cycles >= 20  # a real steady-state drain, not a one-shot

    def test_equivalence_across_collection_mutation(self):
        """add/remove_document between cycles; programs stay identical."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b", text="x" * 40))),
            XMLDocument(1, build_element("a", build_element("b", build_element("c")))),
            XMLDocument(2, build_element("a", build_element("c", text="y" * 60))),
        ]
        single, multi = make_pair(docs, cycle_data_capacity=64)
        for server in (single, multi):
            server.submit(parse_query("/a/b"), 0)
            server.submit(parse_query("/a//c"), 0)
        assert_cycles_match(single, multi)

        extra = XMLDocument(7, build_element("a", build_element("b", text="z" * 30)))
        for server in (single, multi):
            server.add_document(extra)
            server.submit(parse_query("/a/b"), server.clock)
        assert_cycles_match(single, multi)

        for server in (single, multi):
            server.remove_document(2)
        while single.pending or multi.pending:
            assert_cycles_match(single, multi)

    def test_signature_covers_channel_assignment(self, nitf_docs, nitf_queries):
        """At K>=2 the fingerprint must change when only the channel
        assignment changes (round-robin vs balanced on the same schedule)."""
        servers = {
            policy: BroadcastServer(
                DocumentStore(nitf_docs),
                num_data_channels=3,
                channel_allocation=policy,
                cycle_data_capacity=12_000,
            )
            for policy in ("round-robin", "balanced")
        }
        for query in nitf_queries[:10]:
            try:
                servers["round-robin"].submit(query, 0)
            except ValueError:
                continue
            servers["balanced"].submit(query, 0)
        cycle_rr = servers["round-robin"].build_cycle()
        cycle_bal = servers["balanced"].build_cycle()
        assert cycle_rr is not None and cycle_bal is not None
        assert tuple(cycle_rr.doc_ids) == tuple(cycle_bal.doc_ids)
        if cycle_rr.doc_channels != cycle_bal.doc_channels:
            assert program_signature(cycle_rr) != program_signature(cycle_bal)

    @pytest.mark.parametrize("allocation", ALLOCATION_POLICIES)
    def test_simulation_client_metrics_identical(self, allocation):
        """End-to-end: a K=1 multichannel simulation reproduces every
        protocol's client records; the two-tier client's records there
        carry the multichannel label and equal the single-channel run's
        two-tier records."""
        base = dict(document_count=40, n_q=12, cycle_data_capacity=10_000)
        res_single = run_simulation(small_setup(**base))
        res_multi = run_simulation(
            small_setup(
                num_data_channels=1, channel_allocation=allocation, **base
            )
        )
        assert res_single.completed and res_multi.completed
        assert res_multi.records_for("one-tier") == res_single.records_for(
            "one-tier"
        )
        assert res_multi.records_for("two-tier") == []
        multi_records = res_multi.records_for("two-tier-multi")
        twotier_records = res_single.records_for("two-tier")
        assert len(multi_records) == len(twotier_records) > 0
        for mine, theirs in zip(multi_records, twotier_records):
            assert mine == replace(theirs, protocol="two-tier-multi")
            assert mine.access_bytes == theirs.access_bytes
            assert mine.tuning_bytes == theirs.tuning_bytes
            assert mine.index_lookup_bytes == theirs.index_lookup_bytes
            assert mine.cycles_listened == theirs.cycles_listened
            assert mine.result_doc_count == theirs.result_doc_count


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        document_collections(min_docs=2, max_docs=6),
        st.lists(queries(max_steps=3), min_size=1, max_size=5),
        st.integers(min_value=64, max_value=512),
        st.sampled_from(ALLOCATION_POLICIES),
    )
    def test_random_workloads_byte_identical(
        self, docs, query_list, capacity, allocation
    ):
        single, multi = make_pair(
            docs, allocation=allocation, cycle_data_capacity=capacity
        )
        if not submit_both(single, multi, query_list):
            return
        clients = twin_clients(single)
        guard = 0
        while single.pending or multi.pending:
            cycles = assert_cycles_match(single, multi)
            assert cycles is not None
            for client_s, client_m in clients:
                client_s.on_cycle(cycles[0])
                client_m.on_cycle(cycles[1])
            guard += 1
            assert guard < 200
        # The same client over the single-channel and the K=1 stream:
        # identical accounting under every read discipline.
        for client_s, client_m in clients:
            assert client_s.satisfied and client_m.satisfied
            assert client_m.metrics == client_s.metrics
            assert client_m.received_doc_ids == client_s.received_doc_ids
            assert client_s.protocol_name == "two-tier"
            assert client_m.protocol_name == "two-tier-multi"

    @settings(max_examples=15, deadline=None)
    @given(
        document_collections(min_docs=3, max_docs=6),
        document_collections(min_docs=1, max_docs=2),
        st.lists(queries(max_steps=3), min_size=1, max_size=4),
        st.integers(min_value=64, max_value=512),
    )
    def test_equivalence_survives_live_mutation(
        self, docs, extra_docs, query_list, capacity
    ):
        """Mid-drain add/remove mutations keep the K=1 build identical."""
        single, multi = make_pair(docs, cycle_data_capacity=capacity)
        if not submit_both(single, multi, query_list):
            return
        assert_cycles_match(single, multi)

        next_id = max(doc.doc_id for doc in docs) + 1
        for offset, extra in enumerate(extra_docs):
            extra.doc_id = next_id + offset
            for server in (single, multi):
                server.add_document(extra)
        for query in query_list[:2]:
            try:
                single.submit(query, single.clock)
            except ValueError:
                continue
            multi.submit(query, multi.clock)
        victim = docs[0].doc_id
        for server in (single, multi):
            server.remove_document(victim)
        guard = 0
        while single.pending or multi.pending:
            assert_cycles_match(single, multi)
            guard += 1
            assert guard < 200
