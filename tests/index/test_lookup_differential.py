"""Differential tests: the flat DFA index search against the NFA walk.

``CompactIndex.lookup_with_nfa`` scans flat preorder arrays on a memoised
DFA; :func:`tests.index.lookup_reference.reference_lookup` is the per-node
NFA walk it replaced.  Over random collections, their full and requested
CIs and both kinds of PCI -- with and without a virtual root -- every
``LookupResult`` field must agree, also when one DFA is reused across
several indexes (as a client reuses it across cycles).
"""

from __future__ import annotations

from typing import List

from hypothesis import given
from hypothesis import strategies as st

from repro.filtering.dfa import LazyQueryDFA
from repro.filtering.nfa import SharedPathNFA
from repro.index.ci import CompactIndex, build_ci, build_full_ci
from repro.index.pruning import prune_to_pci, prune_to_pci_containment
from repro.xpath.parser import parse_query
from tests.index.lookup_reference import reference_lookup
from tests.strategies import document_collections, queries


def _nfa(query_list) -> SharedPathNFA:
    nfa = SharedPathNFA()
    nfa.add_queries(query_list)
    return nfa.freeze()


def _indexes(docs, query_list, keep) -> List[CompactIndex]:
    """Full CI, a requested-subset CI, and both PCIs of each."""
    full = build_full_ci(docs)
    subset = build_ci(docs, [doc.doc_id for doc in docs if keep(doc.doc_id)])
    indexes = [full, subset]
    for ci in (full, subset):
        indexes.append(prune_to_pci(ci, query_list)[0])
        indexes.append(prune_to_pci_containment(ci, query_list)[0])
    return indexes


def _assert_same(actual, expected, label):
    assert actual.doc_ids == expected.doc_ids, label
    assert actual.matched_node_ids == expected.matched_node_ids, label
    assert actual.visited_node_ids == expected.visited_node_ids, label


def _check_collection(docs, query_list, keep):
    indexes = _indexes(docs, query_list, keep)
    for query in query_list:
        # One DFA per query, reused across every index (lookup() walks the
        # LRU's own).
        dfa = LazyQueryDFA.from_queries([query])
        nfa = _nfa([query])
        for index in indexes:
            expected = reference_lookup(index, nfa)
            label = (str(query), index.annotation, index.virtual_root)
            _assert_same(index.lookup_with_nfa(dfa), expected, label)
            _assert_same(index.lookup(query), expected, label)
    # A multi-query automaton matches the union in one pass.
    shared = LazyQueryDFA.from_queries(query_list)
    nfa = _nfa(query_list)
    for index in indexes:
        _assert_same(
            index.lookup_with_nfa(shared),
            reference_lookup(index, nfa),
            ("shared", index.annotation, index.virtual_root),
        )


class TestLookupDifferential:
    @given(
        document_collections(),
        st.lists(queries(), min_size=1, max_size=4),
        st.integers(0, 63),
    )
    def test_matches_reference_walk(self, docs, query_list, keep_mask):
        _check_collection(
            docs, query_list, lambda doc_id: doc_id == 0 or keep_mask >> doc_id & 1
        )

    @given(
        document_collections(min_docs=2),
        st.lists(queries(), min_size=1, max_size=4),
        st.integers(0, 63),
    )
    def test_matches_reference_walk_under_virtual_root(
        self, docs, query_list, keep_mask
    ):
        """Mixed root labels force ``virtual_root=True`` on the full CI
        (the subset keeps one of each label, so it has one too)."""
        for index, doc in enumerate(docs):
            doc.root.tag = ("a", "b")[index % 2]
        assert build_full_ci(docs).virtual_root
        _check_collection(
            docs, query_list, lambda doc_id: doc_id < 2 or keep_mask >> doc_id & 1
        )

    def test_bare_nfa_is_wrapped(self):
        """``lookup_with_nfa`` still accepts a bare (unfrozen) NFA."""
        from tests.xpath.test_evaluator import paper_documents

        ci = build_full_ci(paper_documents())
        nfa = SharedPathNFA()
        nfa.add_query(0, parse_query("/a//a"))
        result = ci.lookup_with_nfa(nfa)
        _assert_same(result, reference_lookup(ci, nfa), "bare nfa")
        assert result.doc_ids
