"""Cached vs from-scratch cycle builds must be byte-identical.

The incremental cycle-build caches (``repro.broadcast.cycle_cache``) are
a pure optimisation: a server with ``enable_caches=True`` and one with
``enable_caches=False`` fed the same submissions must emit cycle
programs with equal :func:`~repro.broadcast.program.program_signature`
fingerprints -- including across live collection mutations, which
exercise the invalidation paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import program_signature
from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, queries


def make_pair(docs, **kwargs):
    """Two servers over independent stores of the same documents."""
    cached = BroadcastServer(DocumentStore(docs), enable_caches=True, **kwargs)
    plain = BroadcastServer(DocumentStore(docs), enable_caches=False, **kwargs)
    return cached, plain


def assert_cycles_match(cached, plain, now=None):
    cycle_a = cached.build_cycle(now)
    cycle_b = plain.build_cycle(now)
    if cycle_a is None or cycle_b is None:
        assert cycle_a is None and cycle_b is None
        return None
    assert program_signature(cycle_a) == program_signature(cycle_b)
    return cycle_a


class TestScriptedEquivalence:
    def test_steady_drain(self, nitf_docs, nitf_queries):
        """Overlapping queries drained over many small-capacity cycles:
        every cycle program matches the uncached server's."""
        cached, plain = make_pair(nitf_docs, cycle_data_capacity=4_000)
        admitted = 0
        for query in nitf_queries:
            try:
                cached.submit(query, arrival_time=0)
            except ValueError:
                continue  # empty result set: skip on both servers
            plain.submit(query, arrival_time=0)
            admitted += 1
        assert admitted >= 10
        cycles = 0
        while cached.pending or plain.pending:
            assert assert_cycles_match(cached, plain) is not None
            cycles += 1
            assert cycles < 500
        assert cycles >= 20  # a real steady-state drain, not a one-shot
        assert cached.cache.stats["ci_rebuilds"] > 0
        assert cached.cache.stats["dfa_hits"] > 0

    def test_equivalence_across_collection_mutation(self):
        """add/remove_document between cycles invalidates the caches; the
        programs must stay identical through it."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b", text="x" * 40))),
            XMLDocument(1, build_element("a", build_element("b", build_element("c")))),
            XMLDocument(2, build_element("a", build_element("c", text="y" * 60))),
        ]
        cached, plain = make_pair(docs, cycle_data_capacity=64)
        for server in (cached, plain):
            server.submit(parse_query("/a/b"), 0)
            server.submit(parse_query("/a//c"), 0)
        assert_cycles_match(cached, plain)

        extra = XMLDocument(7, build_element("a", build_element("b", text="z" * 30)))
        for server in (cached, plain):
            server.add_document(extra)
            server.submit(parse_query("/a/b"), server.clock)
        assert_cycles_match(cached, plain)

        for server in (cached, plain):
            server.remove_document(2)
        while cached.pending or plain.pending:
            assert_cycles_match(cached, plain)

    def test_no_cache_server_has_no_cache(self, nitf_docs):
        _cached, plain = make_pair(nitf_docs)
        assert plain.cache is None

    @pytest.mark.parametrize("scheduler_name", ["fcfs", "mrf", "rxw", "leelo"])
    def test_equivalence_per_scheduler(self, nitf_docs, nitf_queries, scheduler_name):
        from repro.broadcast.scheduling import make_scheduler

        cached = BroadcastServer(
            DocumentStore(nitf_docs),
            scheduler=make_scheduler(scheduler_name, DocumentStore(nitf_docs)),
            cycle_data_capacity=8_000,
            enable_caches=True,
        )
        plain = BroadcastServer(
            DocumentStore(nitf_docs),
            scheduler=make_scheduler(scheduler_name, DocumentStore(nitf_docs)),
            cycle_data_capacity=8_000,
            enable_caches=False,
        )
        for query in nitf_queries[:12]:
            try:
                cached.submit(query, 0)
            except ValueError:
                continue
            plain.submit(query, 0)
        guard = 0
        while cached.pending or plain.pending:
            assert assert_cycles_match(cached, plain) is not None
            guard += 1
            assert guard < 300


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        document_collections(min_docs=2, max_docs=6),
        st.lists(queries(max_steps=3), min_size=1, max_size=5),
        st.integers(min_value=64, max_value=512),
    )
    def test_random_workloads_byte_identical(self, docs, query_list, capacity):
        cached, plain = make_pair(docs, cycle_data_capacity=capacity)
        admitted = 0
        for query in query_list:
            try:
                cached.submit(query, 0)
            except ValueError:
                continue
            plain.submit(query, 0)
            admitted += 1
        if not admitted:
            return
        guard = 0
        while cached.pending or plain.pending:
            assert assert_cycles_match(cached, plain) is not None
            guard += 1
            assert guard < 200
