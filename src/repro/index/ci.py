"""The Compact Index (CI) -- paper Section 3.1.

A CI is the combined DataGuide of a document set materialised as an
:class:`~repro.index.nodes.IndexNode` tree, with document annotations at
maximal paths.  ``CompactIndex.lookup`` reproduces the client-side index
search: descend from the root following viable entries, and at every node
the query accepts, collect the document annotations of the whole subtree
(the running example's q1 hits leaf n4 and reads d1, d2 directly).

Two builders cover the paper's two uses:

* :func:`build_full_ci` -- over the entire collection (the conceptual CI
  of Section 3.1);
* :func:`build_ci` -- over the *requested* documents only, which is what
  the server actually broadcasts in on-demand mode ("if a document is
  never requested, it will not be broadcast", Section 3.2) and what the
  CI curves of Figure 9 measure.

The server's per-cycle CI is the second kind, built without merging:
:meth:`FlatGuide.project` cuts it out of the whole collection's combined
guide, flattened once into preorder arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.dataguide.roxsum import (
    CombinedDataGuide,
    CombinedGuideNode,
    build_combined_guide,
)
from repro.filtering.dfa import LazyQueryDFA, query_dfa
from repro.filtering.nfa import SharedPathNFA
from repro.index.nodes import IndexNode, assign_preorder_ids, validate_tree
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import LabelPath, XMLDocument
from repro.xpath.ast import XPathQuery


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one index lookup.

    ``visited_node_ids`` are the nodes a client actually reads: the
    navigation walk (every node whose configuration is still live) plus
    the full subtrees of matched nodes (document annotations may sit
    anywhere below a match).  Tuning-time accounting maps these node ids
    to packets.
    """

    doc_ids: Tuple[int, ...]
    matched_node_ids: FrozenSet[int]
    visited_node_ids: FrozenSet[int]

    @property
    def is_empty(self) -> bool:
        return not self.doc_ids


#: How document annotations are laid out in an index tree.
#:
#: * ``"maximal"`` (the default, used by CI and the standard PCI): each
#:   document is annotated at its maximal paths; a lookup collects the
#:   matched nodes' *subtrees*.
#: * ``"containment"``: every accepting node carries its full containment
#:   set; a lookup reads the matched nodes *only* (no subtree walk).  Used
#:   by the alternative pruning mode for the annotation-scheme ablation.
AnnotationScheme = str

#: ``(labels, parents, ends, annotations)`` of an index in preorder.
_PreorderArrays = Tuple[List[str], List[int], List[int], List[Tuple[int, ...]]]


class CompactIndex:
    """A CI/PCI tree with size accounting and client-side lookup."""

    def __init__(
        self,
        root: IndexNode,
        size_model: SizeModel = PAPER_SIZE_MODEL,
        virtual_root: bool = False,
        annotation: AnnotationScheme = "maximal",
        validate: bool = True,
    ) -> None:
        if annotation not in ("maximal", "containment"):
            raise ValueError("annotation must be 'maximal' or 'containment'")
        self.root = root
        self.size_model = size_model
        self.virtual_root = virtual_root
        self.annotation = annotation
        self.nodes: List[IndexNode] = assign_preorder_ids(root)
        # Internal builders (guide conversion, pruning, the cycle cache)
        # construct trees that are correct by construction and pass
        # ``validate=False`` to skip the second full walk; anything built
        # from external bytes keeps the default.
        if validate:
            validate_tree(root)
        # Flat per-node count arrays in preorder (node_id == position):
        # all byte accounting runs off these, never re-walking the tree.
        child_counts = array("i", [0]) * len(self.nodes)
        doc_counts = array("i", [0]) * len(self.nodes)
        total_docs = 0
        for position, node in enumerate(self.nodes):
            child_counts[position] = len(node.children)
            docs = len(node.doc_ids)
            doc_counts[position] = docs
            total_docs += docs
        self._child_counts = child_counts
        self._doc_counts = doc_counts
        self._total_doc_entries = total_docs
        # Index trees are immutable once constructed, and the cycle-build
        # cache hands the same CI to every cycle's pruning stats -- memoise
        # the remaining whole-tree forms instead of re-walking per cycle.
        self._node_sizes: Dict[bool, array] = {}
        self._tree_form: Optional[Tuple] = None
        self._preorder: Optional[_PreorderArrays] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_guide(
        cls,
        guide: CombinedDataGuide,
        size_model: SizeModel = PAPER_SIZE_MODEL,
    ) -> "CompactIndex":
        """Materialise a combined guide as an index tree."""
        # Correct by construction: sorted unique child labels, sorted doc
        # ids, fresh parent links -- skip the validation walk.
        return cls(
            cls._convert(guide.root),
            size_model=size_model,
            virtual_root=guide.virtual_root,
            validate=False,
        )

    @staticmethod
    def _convert(guide_node: CombinedGuideNode) -> IndexNode:
        node = IndexNode(
            0, guide_node.label, doc_ids=tuple(sorted(guide_node.leaf_docs))
        )
        for label in sorted(guide_node.children):
            node.add_child(CompactIndex._convert(guide_node.children[label]))
        return node

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def total_doc_entries(self) -> int:
        """Total ``<doc, pointer>`` entries across all nodes."""
        return self._total_doc_entries

    def annotated_doc_ids(self) -> FrozenSet[int]:
        """All documents the index can locate."""
        ids: Set[int] = set()
        for node in self.nodes:
            ids.update(node.doc_ids)
        return frozenset(ids)

    def node_bytes(self, node: IndexNode, one_tier: bool) -> int:
        return self.size_model.node_bytes(
            len(node.children), len(node.doc_ids), one_tier=one_tier
        )

    def node_sizes(self, one_tier: bool) -> array:
        """Per-node serialized sizes, indexed by node id (cached).

        Computed from the flat count arrays in one vectorised-style pass:
        ``header + children*child_entry + docs*doc_entry`` per slot; the
        packer and encoder iterate this instead of touching node objects.
        """
        cached = self._node_sizes.get(one_tier)
        if cached is None:
            model = self.size_model
            header = model.node_header_bytes
            child_entry = model.child_entry_bytes
            doc_entry = (
                model.doc_entry_one_tier_bytes
                if one_tier
                else model.doc_entry_first_tier_bytes
            )
            child_counts = self._child_counts
            doc_counts = self._doc_counts
            cached = array(
                "i",
                (
                    header
                    + child_counts[position] * child_entry
                    + doc_counts[position] * doc_entry
                    for position in range(len(self.nodes))
                ),
            )
            self._node_sizes[one_tier] = cached
        return cached

    def size_bytes(self, one_tier: bool = True) -> int:
        """Total serialized index size (one-tier or first-tier layout)."""
        return self.size_model.tree_bytes(
            len(self.nodes), self._total_doc_entries, one_tier=one_tier
        )

    def tree_form(self) -> Tuple:
        """Canonical ``(id, label, doc_ids, child_count)`` preorder (cached).

        This is the tree component of :func:`~repro.broadcast.program.
        program_signature`; node ids equal preorder positions, so it reads
        straight off the flat node list.
        """
        if self._tree_form is None:
            self._tree_form = tuple(
                (node.node_id, node.label, node.doc_ids, len(node.children))
                for node in self.nodes
            )
        return self._tree_form

    def find_node(self, path: LabelPath) -> Optional[IndexNode]:
        """The node at a document label path, if present."""
        if not path:
            return None
        node = self.root
        labels: Sequence[str] = path
        if not self.virtual_root:
            if path[0] != node.label:
                return None
            labels = path[1:]
        for label in labels:
            nxt = node.child_by_label(label)
            if nxt is None:
                return None
            node = nxt
        return node

    # ------------------------------------------------------------------
    # Lookup (client-side index search)
    # ------------------------------------------------------------------

    def lookup(self, query: XPathQuery) -> LookupResult:
        """Simulate the client's index search for one query."""
        return self.lookup_with_nfa(query_dfa(query))

    def lookup_with_nfa(
        self, automaton: Union[LazyQueryDFA, SharedPathNFA]
    ) -> LookupResult:
        """Index search with a (single- or multi-query) automaton.

        Matches are nodes whose configuration accepts *any* registered
        query, so the server can also use this to locate the result set of
        a whole workload in one pass.  A bare :class:`SharedPathNFA` is
        wrapped in a fresh :class:`LazyQueryDFA`.

        One pass over the flat preorder arrays: each position's state is
        its parent's stepped on its label, and a dead position's subtree
        is skipped whole (the client does not descend there).  Under the
        maximal layout a match reads its whole subtree -- document
        annotations may sit anywhere below it -- so a match nested inside
        an already collected subtree is recorded but not collected again.
        """
        dfa = (
            automaton
            if isinstance(automaton, LazyQueryDFA)
            else LazyQueryDFA(automaton)
        )
        labels, parents, ends, annotations = self._preorder_arrays()
        rows = dfa.rows
        accepting = dfa.accepting
        step = dfa.step
        count = len(labels)
        # One state slot per position plus a trailing start slot, which the
        # root's parent index -1 reads.
        states = [0] * count
        states.append(dfa.start)
        visited: Set[int] = set()
        matched: Set[int] = set()
        doc_ids: Set[int] = set()
        visit = visited.add
        match = matched.add
        collect_subtrees = self.annotation == "maximal"
        collected_end = 0  # one past the last position already collected
        position = 0
        if self.virtual_root:
            # The virtual root is not a document element: it consumes no
            # query step, and the client always reads it.
            visit(0)
            states[0] = dfa.start
            position = 1
        while position < count:
            parent_state = states[parents[position]]
            label = labels[position]
            state = rows[parent_state].get(label)
            if state is None:
                state = step(parent_state, label)
            if not state:
                position = ends[position]
                continue
            states[position] = state
            if accepting[state]:
                match(position)
                if not collect_subtrees:
                    # Containment layout: the matched node carries its full
                    # result set; no subtree walk is needed (or charged).
                    visit(position)
                    doc_ids.update(annotations[position])
                elif position >= collected_end:
                    collected_end = ends[position]
                    visited.update(range(position, collected_end))
                    doc_ids.update(
                        chain.from_iterable(annotations[position:collected_end])
                    )
            elif position >= collected_end:
                visit(position)
            position += 1
        return LookupResult(
            doc_ids=tuple(sorted(doc_ids)),
            matched_node_ids=frozenset(matched),
            visited_node_ids=frozenset(visited),
        )

    def _preorder_arrays(self) -> _PreorderArrays:
        """Per-position ``labels``, ``parents`` (``-1`` at the root),
        subtree ``ends`` and doc-id ``annotations``, built on the first
        lookup and cached: the server never searches its own index, so
        building one pays nothing."""
        arrays = self._preorder
        if arrays is None:
            nodes = self.nodes
            labels = [node.label for node in nodes]
            parents = [-1] * len(nodes)
            for node in nodes:
                for child in node.children:
                    parents[child.node_id] = node.node_id
            annotations = [node.doc_ids for node in nodes]
            arrays = (labels, parents, _subtree_ends(parents), annotations)
            self._preorder = arrays
        return arrays


def _subtree_ends(parents: List[int]) -> List[int]:
    """One past the last position of each subtree, from preorder parents."""
    sizes = [1] * len(parents)
    for position in range(len(parents) - 1, 0, -1):
        sizes[parents[position]] += sizes[position]
    return [position + size for position, size in enumerate(sizes)]


class FlatGuide:
    """A combined DataGuide flattened into preorder arrays for projection.

    Every on-demand CI is a sub-trie of the whole collection's combined
    guide: the paths of the requested documents, annotated with those
    documents only.  Flattening the full guide once lets each cycle's CI
    be *projected* out of it in time linear in the CI, with no per-
    document guide merging.

    Positions are preorder with children sorted by label -- exactly the
    order :meth:`CompactIndex.from_guide` emits nodes in.  Per position:

    * ``labels`` -- the element label;
    * ``parents`` -- the parent position (``-1`` at the root);
    * ``ends`` -- one past the last position of the subtree.

    ``doc_positions`` maps each document to the positions of its maximal
    paths (the guide's ``leaf_docs``, transposed).
    """

    __slots__ = ("labels", "parents", "ends", "doc_positions", "virtual_root")

    def __init__(self, guide: CombinedDataGuide) -> None:
        labels: List[str] = []
        parents: List[int] = []
        doc_positions: Dict[int, List[int]] = {}
        stack: List[Tuple[CombinedGuideNode, int]] = [(guide.root, -1)]
        while stack:
            node, parent = stack.pop()
            position = len(labels)
            labels.append(node.label)
            parents.append(parent)
            for doc_id in node.leaf_docs:
                doc_positions.setdefault(doc_id, []).append(position)
            children = node.children
            for label in sorted(children, reverse=True):
                stack.append((children[label], position))
        self.labels = labels
        self.parents = parents
        self.ends = _subtree_ends(parents)
        self.doc_positions: Dict[int, Tuple[int, ...]] = {
            doc_id: tuple(positions) for doc_id, positions in doc_positions.items()
        }
        self.virtual_root = guide.virtual_root

    def project(
        self,
        requested_doc_ids: Iterable[int],
        size_model: SizeModel = PAPER_SIZE_MODEL,
    ) -> CompactIndex:
        """The CI over *requested_doc_ids*: equal, node for node, to
        :meth:`CompactIndex.from_guide` over the requested documents'
        combined guide."""
        # 1. Annotate each requested document's maximal paths; ascending
        #    ids keep every position's doc tuple sorted.
        doc_positions = self.doc_positions
        docs_at: Dict[int, List[int]] = {}
        for doc_id in sorted(requested_doc_ids):
            for position in doc_positions[doc_id]:
                bucket = docs_at.get(position)
                if bucket is None:
                    docs_at[position] = [doc_id]
                else:
                    bucket.append(doc_id)
        if not docs_at:
            raise ValueError("no requested documents -- nothing to index")

        # 2. A position is live when some requested document contains its
        #    path, i.e. it is an ancestor-or-self of an annotated position.
        #    Each walk stops at the first already-live ancestor.
        parents = self.parents
        live = bytearray(len(parents))
        for position in docs_at:
            while position >= 0 and not live[position]:
                live[position] = 1
                position = parents[position]

        # 3. With a virtual root, a subset whose documents share one root
        #    label is rooted at that label instead (as build_combined_guide
        #    roots a single-label subset).
        ends = self.ends
        start, stop, virtual_root = 0, len(parents), self.virtual_root
        if virtual_root:
            live_roots = []
            position = 1
            while position < stop:
                if live[position]:
                    live_roots.append(position)
                position = ends[position]
            if len(live_roots) == 1:
                start, virtual_root = live_roots[0], False
                stop = ends[start]

        # 4. Emit live positions in preorder, skipping dead subtrees whole.
        labels = self.labels
        emitted: Dict[int, IndexNode] = {}
        position = start
        while position < stop:
            if not live[position]:
                position = ends[position]
                continue
            docs = docs_at.get(position)
            node = IndexNode(0, labels[position], doc_ids=tuple(docs) if docs else ())
            if position != start:
                emitted[parents[position]].add_child(node)
            emitted[position] = node
            position += 1
        return CompactIndex(
            emitted[start],
            size_model=size_model,
            virtual_root=virtual_root,
            validate=False,
        )


def build_full_ci(
    documents: Sequence[XMLDocument],
    size_model: SizeModel = PAPER_SIZE_MODEL,
) -> CompactIndex:
    """The CI over the entire collection (paper Section 3.1)."""
    guide = build_combined_guide(documents)
    return CompactIndex.from_guide(guide, size_model=size_model)


def build_ci(
    documents: Sequence[XMLDocument],
    requested_doc_ids: Iterable[int],
    size_model: SizeModel = PAPER_SIZE_MODEL,
) -> CompactIndex:
    """The CI over the *requested* documents (the on-demand broadcast CI).

    Only documents some pending query asks for are indexed; everything
    else will never be broadcast in the current cycle anyway.
    """
    requested = frozenset(requested_doc_ids)
    subset = [doc for doc in documents if doc.doc_id in requested]
    if not subset:
        raise ValueError("no requested documents -- nothing to index")
    guide = build_combined_guide(subset)
    return CompactIndex.from_guide(guide, size_model=size_model)
