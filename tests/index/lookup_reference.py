"""Reference index search: the per-node NFA walk, kept as the oracle.

This is the original client-side lookup of
:class:`~repro.index.ci.CompactIndex`: a stack walk over the ``IndexNode``
tree that moves the NFA configuration once per node and scans it for
acceptance, then walks every matched node's subtree to collect its
annotations.  ``CompactIndex.lookup_with_nfa`` now scans flat preorder
arrays on a memoised DFA instead; ``tests/index/test_lookup_differential.py``
holds the two to identical results.  It is not used on any hot path.
"""

from __future__ import annotations

from typing import Set

from repro.filtering.nfa import SharedPathNFA
from repro.index.ci import CompactIndex, LookupResult


def reference_lookup(index: CompactIndex, nfa: SharedPathNFA) -> LookupResult:
    """Index search of *index* with a frozen (single- or multi-query) NFA."""
    visited: Set[int] = set()
    matched: Set[int] = set()
    initial = nfa.initial_states()
    # (node, configuration) walk; the virtual root does not consume a
    # query step because it is not a document element.
    if index.virtual_root:
        visited.add(index.root.node_id)
        stack = [
            (child, nfa.move(initial, child.label)) for child in index.root.children
        ]
    else:
        stack = [(index.root, nfa.move(initial, index.root.label))]
    while stack:
        node, configuration = stack.pop()
        if not configuration:
            continue  # dead branch: the client does not descend here
        visited.add(node.node_id)
        if nfa.is_accepting(configuration):
            matched.add(node.node_id)
        for child in node.children:
            stack.append((child, nfa.move(configuration, child.label)))

    doc_ids: Set[int] = set()
    if index.annotation == "containment":
        # Containment layout: the matched nodes carry their full result
        # sets; no subtree walk is needed (or charged).
        for node_id in matched:
            doc_ids.update(index.nodes[node_id].doc_ids)
    else:
        for node_id in matched:
            for sub in index.nodes[node_id].iter_preorder():
                visited.add(sub.node_id)
                doc_ids.update(sub.doc_ids)
    return LookupResult(
        doc_ids=tuple(sorted(doc_ids)),
        matched_node_ids=frozenset(matched),
        visited_node_ids=frozenset(visited),
    )
