"""Unit tests for the cycle-build caches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.cycle_cache import CycleBuildCache, query_key_of
from repro.broadcast.program import _index_tree_form
from repro.broadcast.server import BroadcastServer, DocumentStore, build_ci_from_store
from repro.index.nodes import validate_tree
from repro.xmlkit.model import XMLDocument, build_element
from repro.xpath.parser import parse_query
from tests.strategies import document_collections, xml_elements


def paper_store() -> DocumentStore:
    from tests.xpath.test_evaluator import paper_documents

    return DocumentStore(paper_documents())


def ci_form(ci):
    return (ci.virtual_root, _index_tree_form(ci))


class TestConstruction:
    def test_dfa_cache_size_validated(self):
        with pytest.raises(ValueError):
            CycleBuildCache(paper_store(), dfa_cache_size=0)


class TestCILayer:
    def test_cold_build_counts_rebuild(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        ci = cache.ci_for(frozenset({0, 1, 2}))
        assert cache.stats["ci_rebuilds"] == 1
        assert ci_form(ci) == ci_form(build_ci_from_store(store, {0, 1, 2}))

    def test_exact_hit_returns_same_object(self):
        cache = CycleBuildCache(paper_store())
        first = cache.ci_for(frozenset({0, 1, 2}))
        second = cache.ci_for(frozenset({0, 1, 2}))
        assert first is second
        assert cache.stats["ci_hits"] == 1

    def test_small_delta_applied_incrementally(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        cache.ci_for(frozenset({0, 1, 2, 3, 4}))
        shrunk = cache.ci_for(frozenset({0, 1, 2, 3}))
        assert cache.stats["ci_rebuilds"] == 2
        assert cache.stats["ci_hits"] == 0
        assert ci_form(shrunk) == ci_form(build_ci_from_store(store, {0, 1, 2, 3}))

    def test_growing_delta_applied_incrementally(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        cache.ci_for(frozenset({0, 1, 2, 3}))
        grown = cache.ci_for(frozenset({0, 1, 2, 3, 4}))
        assert cache.stats["ci_rebuilds"] == 2
        assert ci_form(grown) == ci_form(build_ci_from_store(store, {0, 1, 2, 3, 4}))

    def test_disjoint_successor_matches_scratch(self):
        store = paper_store()
        cache = CycleBuildCache(store)
        cache.ci_for(frozenset({0, 1, 2, 3}))
        rebuilt = cache.ci_for(frozenset({4}))
        assert cache.stats["ci_rebuilds"] == 2
        assert ci_form(rebuilt) == ci_form(build_ci_from_store(store, {4}))

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            CycleBuildCache(paper_store()).ci_for(frozenset())

    def test_incremental_walk_sequence_matches_scratch(self):
        """A drain-like sequence of shrinking request sets stays equal to
        from-scratch CIs at every step."""
        store = paper_store()
        cache = CycleBuildCache(store)
        sets = [{0, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 2, 3}, {1, 2}, {2}]
        for requested in sets:
            cached = cache.ci_for(frozenset(requested))
            assert ci_form(cached) == ci_form(
                build_ci_from_store(store, requested)
            ), requested


class TestProjection:
    """The cached CI is projected from the store's flat full-collection
    guide; the uncached server's per-document merge is its oracle."""

    @staticmethod
    def mixed_root_store() -> DocumentStore:
        return DocumentStore(
            [
                XMLDocument(0, build_element("a", build_element("b"))),
                XMLDocument(1, build_element("x", build_element("y"))),
                XMLDocument(2, build_element("a", build_element("c"))),
            ]
        )

    def test_virtual_root_collapses_for_single_requested_root(self):
        store = self.mixed_root_store()
        assert store.full_guide.virtual_root
        ci = CycleBuildCache(store).ci_for(frozenset({0, 2}))
        assert not ci.virtual_root
        assert ci.root.label == "a" and ci.root.parent is None
        assert [node.label for node in ci.nodes] == ["a", "b", "c"]
        assert ci_form(ci) == ci_form(build_ci_from_store(store, {0, 2}))

    def test_virtual_root_kept_for_mixed_requested_roots(self):
        store = self.mixed_root_store()
        ci = CycleBuildCache(store).ci_for(frozenset({1, 2}))
        assert ci.virtual_root
        assert [node.label for node in ci.root.children] == ["a", "x"]
        assert ci_form(ci) == ci_form(build_ci_from_store(store, {1, 2}))

    def test_flat_guide_dropped_by_mutation(self):
        server = BroadcastServer(self.mixed_root_store())
        flat = server.store.flat_guide
        assert server.store.flat_guide is flat
        server.remove_document(1)
        assert server.store.flat_guide is not flat
        ci = server.cache.ci_for(frozenset({0, 2}))
        assert not server.store.full_guide.virtual_root
        assert ci_form(ci) == ci_form(build_ci_from_store(server.store, {0, 2}))

    @settings(max_examples=60, deadline=None)
    @given(document_collections(min_docs=1, max_docs=6), st.data())
    def test_projection_matches_per_document_merge(self, docs, data):
        server = BroadcastServer(DocumentStore(docs))
        next_id = len(docs)
        for _ in range(data.draw(st.integers(1, 6), label="cycles")):
            action = data.draw(st.sampled_from(["cycle", "add", "remove"]))
            if action == "add":
                server.add_document(XMLDocument(next_id, data.draw(xml_elements())))
                next_id += 1
            elif action == "remove" and len(server.store) > 1:
                doc_ids = sorted(server.store.by_id)
                server.remove_document(data.draw(st.sampled_from(doc_ids)))
            doc_ids = sorted(server.store.by_id)
            requested = frozenset(
                data.draw(
                    st.lists(st.sampled_from(doc_ids), min_size=1, unique=True),
                    label="requested",
                )
            )
            projected = server.cache.ci_for(requested)
            validate_tree(projected.root)
            expected = build_ci_from_store(server.store, requested)
            assert ci_form(projected) == ci_form(expected)


class TestDFALayer:
    def test_hit_returns_same_dfa(self):
        cache = CycleBuildCache(paper_store())
        queries = [parse_query("/a/b")]
        key = query_key_of(queries)
        first = cache.dfa_for(key, queries)
        second = cache.dfa_for(key, queries)
        assert first is second
        assert cache.stats == {**cache.stats, "dfa_hits": 1, "dfa_misses": 1}

    def test_lru_evicts_oldest(self):
        cache = CycleBuildCache(paper_store(), dfa_cache_size=2)
        qa, qb, qc = ([parse_query(t)] for t in ("/a", "/a/b", "/a//c"))
        first = cache.dfa_for(query_key_of(qa), qa)
        cache.dfa_for(query_key_of(qb), qb)
        cache.dfa_for(query_key_of(qc), qc)  # evicts qa's entry
        again = cache.dfa_for(query_key_of(qa), qa)
        assert again is not first
        assert cache.stats["dfa_misses"] == 4

    def test_recent_use_protects_from_eviction(self):
        cache = CycleBuildCache(paper_store(), dfa_cache_size=2)
        qa, qb, qc = ([parse_query(t)] for t in ("/a", "/a/b", "/a//c"))
        first = cache.dfa_for(query_key_of(qa), qa)
        cache.dfa_for(query_key_of(qb), qb)
        cache.dfa_for(query_key_of(qa), qa)  # refresh qa
        cache.dfa_for(query_key_of(qc), qc)  # evicts qb, not qa
        assert cache.dfa_for(query_key_of(qa), qa) is first


class TestPCILayer:
    def test_reuse_when_nothing_changed(self):
        cache = CycleBuildCache(paper_store())
        requested = frozenset({0, 1, 2, 3, 4})
        queries = [parse_query("/a/b"), parse_query("/a//c")]
        ci = cache.ci_for(requested)
        first = cache.pci_for(ci, requested, queries)
        second = cache.pci_for(ci, requested, queries)
        assert first[0] is second[0] and first[1] is second[1]
        assert cache.stats["pci_hits"] == 1 and cache.stats["pci_misses"] == 1

    def test_query_order_irrelevant(self):
        cache = CycleBuildCache(paper_store())
        requested = frozenset({0, 1, 2, 3, 4})
        queries = [parse_query("/a/b"), parse_query("/a//c")]
        ci = cache.ci_for(requested)
        first = cache.pci_for(ci, requested, queries)
        second = cache.pci_for(ci, requested, list(reversed(queries)))
        assert first[0] is second[0]

    def test_requested_change_misses(self):
        cache = CycleBuildCache(paper_store())
        queries = [parse_query("/a/b")]
        full = frozenset({0, 1, 2, 3, 4})
        ci = cache.ci_for(full)
        cache.pci_for(ci, full, queries)
        smaller = frozenset({0, 1, 2, 3})
        ci2 = cache.ci_for(smaller)
        cache.pci_for(ci2, smaller, queries)
        assert cache.stats["pci_misses"] == 2
        # The DFA layer still hits: the query set did not change.
        assert cache.stats["dfa_hits"] == 1


class TestInvalidation:
    def test_collection_invalidation_drops_all_layers(self):
        cache = CycleBuildCache(paper_store())
        requested = frozenset({0, 1, 2})
        queries = [parse_query("/a/b")]
        ci = cache.ci_for(requested)
        pci = cache.pci_for(ci, requested, queries)[0]
        dfa = cache.dfa_for(query_key_of(queries), queries)
        cache.invalidate_collection()
        assert cache.ci_for(requested) is not ci
        assert cache.pci_for(cache.ci_for(requested), requested, queries)[0] is not pci
        assert cache.dfa_for(query_key_of(queries), queries) is not dfa
        assert cache.stats["ci_rebuilds"] == 2
