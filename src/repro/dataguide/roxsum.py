"""RoXSum-style combination of per-document DataGuides.

The combined guide is the trie-union of all member DataGuides.  Each node
carries two document annotations:

* ``leaf_docs`` -- documents having a *childless* element at this path
  (the node is a maximal path of those documents).  These are the
  ``<doc, pointer>`` entries the Compact Index stores, so each document
  appears only at its maximal paths instead of along whole root-to-leaf
  chains;
* ``containing_docs()`` -- documents containing the path at all, which is
  the union of ``leaf_docs`` over the node's subtree.  Query lookups
  return this set; it is precomputed bottom-up on demand and cached.

The paper assumes all documents share one root label ("/a" in the running
example; "nitf" for the NITF set).  Mixed collections are supported via a
synthetic virtual root so the NASA cross-check can reuse all machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dataguide.dataguide import DataGuide, build_dataguide
from repro.xmlkit.model import LabelPath, XMLDocument


@dataclass(slots=True)
class CombinedGuideNode:
    """One node of the combined DataGuide.

    ``containing_count`` reference-counts the documents whose path set
    includes this node's path; it is what incremental removal uses to
    know when a node has become structurally dead.

    Slotted: combined guides allocate one node per distinct label path
    and the uncached server merges a fresh guide every cycle, so per-node
    ``__dict__`` overhead is worth eliding.
    """

    label: str
    children: Dict[str, "CombinedGuideNode"] = field(default_factory=dict)
    leaf_docs: Set[int] = field(default_factory=set)
    containing_count: int = 0
    _containing_cache: Optional[FrozenSet[int]] = field(
        default=None, repr=False, compare=False
    )

    def ensure_child(self, label: str) -> "CombinedGuideNode":
        node = self.children.get(label)
        if node is None:
            node = CombinedGuideNode(label)
            self.children[label] = node
        return node

    def iter_with_paths(
        self, prefix: LabelPath = ()
    ) -> Iterator[Tuple["CombinedGuideNode", LabelPath]]:
        stack: List[Tuple[CombinedGuideNode, LabelPath]] = [
            (self, prefix + (self.label,))
        ]
        while stack:
            node, path = stack.pop()
            yield node, path
            for label in sorted(node.children, reverse=True):
                stack.append((node.children[label], path + (label,)))

    def containing_docs(self) -> FrozenSet[int]:
        """Documents containing this node's path (subtree leaf_doc union)."""
        if self._containing_cache is None:
            docs: Set[int] = set(self.leaf_docs)
            for child in self.children.values():
                docs.update(child.containing_docs())
            self._containing_cache = frozenset(docs)
        return self._containing_cache

    def invalidate_caches(self) -> None:
        """Drop cached unions after structural edits (tests only)."""
        self._containing_cache = None
        for child in self.children.values():
            child.invalidate_caches()

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_with_paths())


@dataclass
class CombinedDataGuide:
    """The combined (RoXSum) DataGuide of a document collection."""

    root: CombinedGuideNode
    doc_ids: FrozenSet[int]
    #: True when documents had differing root labels and a virtual root was
    #: inserted; lookups must then treat depth 1 as the real document roots.
    virtual_root: bool = False

    VIRTUAL_ROOT_LABEL = "#root"

    def node_count(self) -> int:
        return self.root.node_count()

    def paths(self) -> List[LabelPath]:
        """All distinct document label paths recorded by the guide.

        With a virtual root, the synthetic first label is stripped and the
        virtual root itself is omitted.
        """
        if not self.virtual_root:
            return [path for _node, path in self.root.iter_with_paths()]
        collected: List[LabelPath] = []
        for child_label in sorted(self.root.children):
            collected.extend(
                path for _node, path in self.root.children[child_label].iter_with_paths()
            )
        return collected

    def find(self, path: LabelPath) -> Optional[CombinedGuideNode]:
        """The node at a document label path, or ``None``."""
        if not path:
            return None
        node = self.root
        labels = path
        if self.virtual_root:
            pass  # document paths hang directly under the virtual root
        else:
            if path[0] != node.label:
                return None
            labels = path[1:]
            if not labels:
                return node
        for label in labels:
            nxt = node.children.get(label)
            if nxt is None:
                return None
            node = nxt
        return node

    def docs_containing(self, path: LabelPath) -> FrozenSet[int]:
        """Documents of the collection containing *path*."""
        node = self.find(path)
        return node.containing_docs() if node is not None else frozenset()


def build_combined_guide(
    documents: Sequence[XMLDocument],
    guides: Optional[Sequence[DataGuide]] = None,
) -> CombinedDataGuide:
    """Merge the DataGuides of *documents* into one combined guide.

    Pre-built *guides* may be supplied (e.g. by the server, which keeps
    them for the per-document baseline); otherwise they are constructed
    here.  Complexity is linear in the total guide size.
    """
    if not documents:
        raise ValueError("cannot combine an empty collection")
    if guides is None:
        guides = [build_dataguide(doc) for doc in documents]
    if len(guides) != len(documents):
        raise ValueError("documents and guides must align")

    root_labels = {guide.root.label for guide in guides}
    virtual = len(root_labels) > 1
    if virtual:
        combined_root = CombinedGuideNode(CombinedDataGuide.VIRTUAL_ROOT_LABEL)
    else:
        combined_root = CombinedGuideNode(next(iter(root_labels)))

    for guide in guides:
        if virtual:
            target_root = combined_root.ensure_child(guide.root.label)
        else:
            target_root = combined_root
        _merge(guide, target_root)

    return CombinedDataGuide(
        root=combined_root,
        doc_ids=frozenset(guide.doc_id for guide in guides),
        virtual_root=virtual,
    )


def _merge(guide: DataGuide, combined_root: CombinedGuideNode) -> None:
    stack = [(guide.root, combined_root)]
    while stack:
        guide_node, combined_node = stack.pop()
        combined_node.containing_count += 1
        # Containment unions change only along the merged document's own
        # paths, and every affected ancestor is itself on such a path --
        # invalidating the visited nodes is exact, no full-tree sweep.
        combined_node._containing_cache = None
        if guide_node.is_leaf_occurrence:
            combined_node.leaf_docs.add(guide.doc_id)
        for label, child in guide_node.children.items():
            stack.append((child, combined_node.ensure_child(label)))


# ----------------------------------------------------------------------
# Incremental maintenance
# ----------------------------------------------------------------------


def add_document_to_guide(
    combined: CombinedDataGuide, document: XMLDocument, guide: Optional[DataGuide] = None
) -> CombinedDataGuide:
    """Merge one more document into an existing combined guide.

    Returns the (possibly replaced) combined guide: adding a document
    whose root label differs from a non-virtual guide's root requires
    promoting to a virtual root, which changes the top-level object.
    Caches are invalidated along the way; the result is exactly what a
    full rebuild over the extended collection would produce (property-
    tested).
    """
    if document.doc_id in combined.doc_ids:
        raise ValueError(f"doc id {document.doc_id} already in the guide")
    if guide is None:
        guide = build_dataguide(document)

    if combined.virtual_root:
        target = combined.root.ensure_child(guide.root.label)
        _merge(guide, target)
        # _merge invalidates along the merged paths (from *target* down);
        # the virtual root sits above the merge start and is dirtied here.
        combined.root._containing_cache = None
        return CombinedDataGuide(
            root=combined.root,
            doc_ids=combined.doc_ids | {document.doc_id},
            virtual_root=True,
        )

    if guide.root.label == combined.root.label:
        _merge(guide, combined.root)
        return CombinedDataGuide(
            root=combined.root,
            doc_ids=combined.doc_ids | {document.doc_id},
            virtual_root=False,
        )

    # Root-label clash: promote to a virtual root.
    new_root = CombinedGuideNode(CombinedDataGuide.VIRTUAL_ROOT_LABEL)
    new_root.children[combined.root.label] = combined.root
    _merge(guide, new_root.ensure_child(guide.root.label))
    return CombinedDataGuide(
        root=new_root,
        doc_ids=combined.doc_ids | {document.doc_id},
        virtual_root=True,
    )


def remove_document_from_guide(
    combined: CombinedDataGuide, document: XMLDocument, guide: Optional[DataGuide] = None
) -> CombinedDataGuide:
    """Remove a document from an existing combined guide.

    Reference counts decide which nodes die: a node whose
    ``containing_count`` reaches zero is detached from its parent.
    Removing the last document empties the guide (disallowed, like
    building from an empty collection).
    """
    if document.doc_id not in combined.doc_ids:
        raise ValueError(f"doc id {document.doc_id} not in the guide")
    if len(combined.doc_ids) == 1:
        raise ValueError("cannot remove the last document from a guide")
    if guide is None:
        guide = build_dataguide(document)

    if combined.virtual_root:
        anchor = combined.root.children.get(guide.root.label)
        if anchor is None:
            raise ValueError("guide root missing from the combined guide")
        _unmerge(guide.root, anchor, guide.doc_id)
        if anchor.containing_count == 0:
            del combined.root.children[guide.root.label]
        # _unmerge dirties the removed paths; the virtual root is above them.
        combined.root._containing_cache = None
        remaining_roots = list(combined.root.children)
        if len(remaining_roots) == 1:
            # Collapse the virtual root once only one real root remains.
            sole = combined.root.children[remaining_roots[0]]
            return CombinedDataGuide(
                root=sole,
                doc_ids=combined.doc_ids - {document.doc_id},
                virtual_root=False,
            )
        return CombinedDataGuide(
            root=combined.root,
            doc_ids=combined.doc_ids - {document.doc_id},
            virtual_root=True,
        )

    if guide.root.label != combined.root.label:
        raise ValueError("guide root does not match the combined guide")
    _unmerge(guide.root, combined.root, guide.doc_id)
    return CombinedDataGuide(
        root=combined.root,
        doc_ids=combined.doc_ids - {document.doc_id},
        virtual_root=False,
    )


def _unmerge(guide_node, combined_node: CombinedGuideNode, doc_id: int) -> None:
    # Iterative like _merge: post-order pruning of dead children is
    # handled by checking each child's refcount right after its whole
    # subtree has been decremented (children are processed depth-first
    # before their siblings' deletions matter, and a child's count only
    # changes within its own subtree walk).
    stack = [(guide_node, combined_node)]
    while stack:
        g_node, c_node = stack.pop()
        c_node.containing_count -= 1
        if c_node.containing_count < 0:
            raise ValueError("reference counts corrupted (double removal?)")
        c_node._containing_cache = None  # see _merge: path-local is exact
        c_node.leaf_docs.discard(doc_id)
        for label, child in g_node.children.items():
            combined_child = c_node.children.get(label)
            if combined_child is None:
                raise ValueError(
                    f"path via {label!r} missing from the combined guide"
                )
            # The child's refcount drops by exactly one (this document),
            # so its post-walk value is known now: drop dead children
            # immediately instead of revisiting after the subtree.
            if combined_child.containing_count == 1:
                del c_node.children[label]
            stack.append((child, combined_child))
