"""Tests for live collection changes at the store and server level."""

from __future__ import annotations

import pytest

from repro.broadcast.server import BroadcastServer, DocumentStore
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query


def paper_store() -> DocumentStore:
    from tests.xpath.test_evaluator import paper_documents

    return DocumentStore(paper_documents())


class TestStoreMaintenance:
    def test_add_document_updates_everything(self):
        store = paper_store()
        extra = XMLDocument(10, build_element("a", build_element("b")))
        store.add_document(extra)
        assert store.document(10) is extra
        assert store.air_bytes(10) > 0
        assert 10 in store.guides
        assert 10 in store.full_guide.docs_containing(("a", "b"))

    def test_add_duplicate_rejected(self):
        store = paper_store()
        with pytest.raises(ValueError):
            store.add_document(XMLDocument(0, build_element("a")))

    def test_remove_document_updates_everything(self):
        store = paper_store()
        removed = store.remove_document(1)  # d2
        assert removed.doc_id == 1
        assert 1 not in store.by_id
        assert 1 not in store.guides
        # d2's unique path disappears from the combined guide.
        assert store.full_guide.find(("a", "c", "b")) is None

    def test_remove_matches_rebuild(self):
        store = paper_store()
        store.remove_document(1)
        rebuilt = DocumentStore(store.documents)
        ours = {
            path: frozenset(node.leaf_docs)
            for node, path in store.full_guide.root.iter_with_paths()
        }
        theirs = {
            path: frozenset(node.leaf_docs)
            for node, path in rebuilt.full_guide.root.iter_with_paths()
        }
        assert ours == theirs

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError):
            paper_store().remove_document(99)

    def test_remove_last_rejected(self):
        store = DocumentStore([XMLDocument(0, build_element("a"))])
        with pytest.raises(ValueError):
            store.remove_document(0)


class TestServerMaintenance:
    def test_added_document_served_to_new_queries(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=10**6)
        extra = XMLDocument(10, build_element("a", build_element("b", build_element("zz"))))
        server.add_document(extra)
        pending = server.submit(parse_query("/a/b/zz"), 0)
        assert pending.result_doc_ids == {10}
        cycle = server.build_cycle()
        assert 10 in cycle.doc_ids

    def test_resolution_cache_invalidated_on_add(self):
        server = BroadcastServer(paper_store())
        before = server.resolve(parse_query("/a/b"))
        extra = XMLDocument(10, build_element("a", build_element("b")))
        server.add_document(extra)
        after = server.resolve(parse_query("/a/b"))
        assert 10 in after and 10 not in before

    def test_removed_document_dropped_from_pending(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=128)
        pending = server.submit(parse_query("/a/b/a"), 0)  # d1, d2
        first = server.build_cycle()
        assert len(first.doc_ids) == 1
        # The other result document disappears before it was broadcast.
        remaining_doc = next(iter(pending.remaining_doc_ids))
        server.remove_document(remaining_doc)
        assert pending.is_satisfied
        assert server.pending == []

    def test_removal_mid_broadcast_keeps_others_pending(self):
        server = BroadcastServer(paper_store(), cycle_data_capacity=128)
        pending = server.submit(parse_query("/a//c"), 0)  # d2..d5
        server.build_cycle()
        victim = next(iter(pending.remaining_doc_ids))
        server.remove_document(victim)
        assert victim not in pending.remaining_doc_ids
        if pending.remaining_doc_ids:
            assert not pending.is_satisfied

    def test_remove_satisfies_never_indexed_query(self):
        """Regression: removal satisfying a query that no cycle ever served
        must not stamp a bogus pre-arrival ``satisfied_cycle``."""
        docs = [
            XMLDocument(0, build_element("a", build_element("b"))),
            XMLDocument(1, build_element("a", build_element("zz"))),
        ]
        server = BroadcastServer(DocumentStore(docs))
        pending = server.submit(parse_query("/a/zz"), arrival_time=0)
        assert pending.result_doc_ids == {1}
        # The sole result document vanishes before any cycle is built.
        server.remove_document(1)
        assert pending.is_satisfied
        assert pending.satisfied_time is not None
        assert pending.satisfied_cycle is None  # was cycle_number - 1 == -1
        assert pending.cycles_listened is None
        assert server.pending == []

    def test_remove_satisfying_indexed_query_stamps_cycle(self):
        """A query some cycle *did* serve keeps its satisfied_cycle stamp
        when removal finishes it off."""
        server = BroadcastServer(paper_store(), cycle_data_capacity=128)
        pending = server.submit(parse_query("/a/b/a"), 0)  # d1, d2
        server.build_cycle()
        assert pending.first_indexed_cycle == 0
        remaining_doc = next(iter(pending.remaining_doc_ids))
        server.remove_document(remaining_doc)
        assert pending.is_satisfied
        assert pending.satisfied_cycle == 0
        assert pending.cycles_listened == 1

    def test_resolution_cache_invalidated_on_remove(self):
        server = BroadcastServer(paper_store())
        before = server.resolve(parse_query("/a/b"))
        victim = next(iter(before))
        server.remove_document(victim)
        after = server.resolve(parse_query("/a/b"))
        assert victim in before and victim not in after

    def test_confirm_delivery_does_not_resurrect_removed_doc(self):
        """Regression: acknowledged delivery resets the remaining set from
        ``result_doc_ids``; documents removed from the collection since
        admission must stay dropped."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        pending = server.submit(parse_query("/a/b/a"), 0)  # d1, d2 -> {0, 1}
        cycle = server.build_cycle()
        server.remove_document(1)
        assert pending.remaining_doc_ids == {0}
        server.confirm_delivery(pending, received_doc_ids=set(), cycle=cycle)
        assert pending.remaining_doc_ids == {0}  # doc 1 stays gone
        server.confirm_delivery(pending, received_doc_ids={0}, cycle=cycle)
        assert pending.is_satisfied

    def test_stale_ack_does_not_resurrect_completed_query(self):
        """Regression: an ACK for a query that already completed is a
        no-op -- it must not reset the remaining set, stamp a new
        satisfaction or put demand edges back for a finished query."""
        server = BroadcastServer(
            paper_store(), cycle_data_capacity=10**6, acknowledged_delivery=True
        )
        done = server.submit(parse_query("/a/b/a"), 0)  # d1, d2 -> {0, 1}
        live = server.submit(parse_query("/a/b"), 0)
        cycle = server.build_cycle()
        server.confirm_delivery(done, received_doc_ids={0, 1}, cycle=cycle)
        assert done.is_satisfied
        assert server.completed == [done]
        stamped = (done.satisfied_cycle, done.satisfied_time)
        later = server.build_cycle()
        assert later is not None
        server.confirm_delivery(done, received_doc_ids={0}, cycle=later)
        assert done.remaining_doc_ids == set()
        assert (done.satisfied_cycle, done.satisfied_time) == stamped
        assert server.pending == [live]
        assert server.completed == [done]
        snapshot = server.demand.snapshot(server.clock)
        assert all(done not in queries for queries in snapshot.values())
        assert set(snapshot) == set(live.remaining_doc_ids)
