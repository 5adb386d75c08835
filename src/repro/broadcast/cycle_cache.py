"""Cycle-build caches for the broadcast server.

Consecutive on-demand broadcast cycles overlap heavily: most pending
queries survive from one cycle to the next, so the requested document
set and the pending query set change only at the margins.  The seed
implementation nevertheless rebuilt everything from scratch each cycle
-- re-merging the requested documents' DataGuides into a fresh CI,
compiling a fresh pruning DFA, and re-pruning an unchanged index.

:class:`CycleBuildCache` removes that repeated work with three layers:

* **CI layer** -- an unchanged requested set reuses last cycle's CI
  outright.  Any other set is *projected* from the store's flat
  full-collection guide (:class:`~repro.index.ci.FlatGuide`): every
  requested-document CI is a sub-trie of that guide, so one pass linear
  in the CI's size replaces merging per-document guides and converting
  the merged trie.
* **Pruning-DFA cache** -- an LRU of :class:`~repro.filtering.dfa.LazyQueryDFA`
  instances keyed by the frozen pending-query-string set, wired through
  ``prune_to_pci``'s ``dfa`` parameter so memoised subset-construction
  transitions survive across cycles.
* **PCI cache** -- when *both* the requested set and the query set are
  unchanged, the previous cycle's pruned index (and its stats) are
  reused outright.

Every layer is observable (``server.*_cache_*`` counters) and
falsifiable: the caches are bypassed entirely with the server's
``enable_caches=False`` / the CLI's ``--no-cache``, whose per-document
merge (:func:`~repro.broadcast.server.build_ci_from_store`) is the
independent oracle property tests hold the cached cycle programs to,
byte for byte.

The cache assumes the underlying collection is frozen between explicit
mutations: ``BroadcastServer.add_document`` / ``remove_document`` call
:meth:`CycleBuildCache.invalidate_collection`, which drops every layer
(any cached index may miss new paths or reference dead documents); the
store itself drops its flat guide on the same mutations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Sequence, Tuple

from repro import obs

# Not called here: perfbench/layers.py patches these two names on this
# module by name (its ``dataguide.guide_delta`` span), so they stay
# importable from it.
from repro.dataguide.roxsum import (  # noqa: F401
    add_document_to_guide,
    remove_document_from_guide,
)
from repro.filtering.dfa import LazyQueryDFA
from repro.index.ci import CompactIndex
from repro.index.pruning import PruningStats, prune_to_pci
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.broadcast.server import DocumentStore


#: Frozen set of query strings -- the cache key of the DFA/PCI layers.
QueryKey = FrozenSet[str]


def query_key_of(queries: Sequence[XPathQuery]) -> QueryKey:
    """The DFA/PCI cache key of a pending query list.

    Keyed by query *string*: two pending queries with equal text prune
    identically, and the order queries were admitted in is irrelevant to
    the accepting/live predicates pruning consults.
    """
    return frozenset(str(query) for query in queries)


class CycleBuildCache:
    """Carries reusable cycle-build state from one broadcast cycle to the next."""

    def __init__(self, store: "DocumentStore", dfa_cache_size: int = 16) -> None:
        if dfa_cache_size < 1:
            raise ValueError("dfa_cache_size must be positive")
        self.store = store
        self.dfa_cache_size = dfa_cache_size

        #: memoised ``str(query)`` -- XPathQuery is frozen/hashable and the
        #: same instances recur every cycle via the pending queue, so key
        #: computation must not re-render each string per cycle
        self._query_strings: Dict[XPathQuery, str] = {}
        # CI layer
        self._ci_requested: Optional[FrozenSet[int]] = None
        self._ci_index: Optional[CompactIndex] = None
        # DFA layer (LRU, most-recently-used last)
        self._dfas: "OrderedDict[QueryKey, LazyQueryDFA]" = OrderedDict()
        # PCI layer
        self._pci_key: Optional[Tuple[FrozenSet[int], QueryKey]] = None
        self._pci: Optional[CompactIndex] = None
        self._pci_stats: Optional[PruningStats] = None

        #: plain-int mirror of the obs counters so tests and benchmarks can
        #: assert cache behaviour without enabling a registry
        self.stats: Dict[str, int] = {
            "ci_hits": 0,
            "ci_rebuilds": 0,
            "dfa_hits": 0,
            "dfa_misses": 0,
            "pci_hits": 0,
            "pci_misses": 0,
            "pci_stale_served": 0,
        }

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate_collection(self) -> None:
        """Drop every layer after a live collection mutation.

        Adding a document can extend paths any cached index would miss;
        removing one strands annotations.  The DFA layer only depends on
        query strings, but its entries are dropped too: they are cheap to
        rebuild and a stale collection's label alphabet no longer drives
        their memoisation anyway.
        """
        self._ci_requested = None
        self._ci_index = None
        self._pci_key = None
        self._pci = None
        self._pci_stats = None
        self._dfas.clear()
        obs.counter("server.cycle_cache_invalidations_total").inc()

    # ------------------------------------------------------------------
    # CI layer
    # ------------------------------------------------------------------

    def ci_for(self, requested: FrozenSet[int]) -> CompactIndex:
        """The CI over *requested*: last cycle's on an exact hit, else a
        projection of the store's flat full-collection guide."""
        if not requested:
            raise ValueError("no requested documents -- nothing to index")
        if self._ci_index is not None and requested == self._ci_requested:
            self._count("ci_hits", "server.ci_cache_hits_total")
            return self._ci_index
        index = self.store.flat_guide.project(requested, self.store.size_model)
        self._count("ci_rebuilds", "server.ci_cache_rebuilds_total")
        self._ci_requested = requested
        self._ci_index = index
        return index

    # ------------------------------------------------------------------
    # DFA layer
    # ------------------------------------------------------------------

    def dfa_for(
        self, key: QueryKey, queries: Sequence[XPathQuery]
    ) -> LazyQueryDFA:
        """The pruning DFA of a pending query set (LRU-cached by string set)."""
        dfa = self._dfas.get(key)
        if dfa is not None:
            self._dfas.move_to_end(key)
            self._count("dfa_hits", "server.dfa_cache_hits_total")
            return dfa
        dfa = LazyQueryDFA.from_queries(list(queries))
        self._dfas[key] = dfa
        while len(self._dfas) > self.dfa_cache_size:
            self._dfas.popitem(last=False)
        self._count("dfa_misses", "server.dfa_cache_misses_total")
        return dfa

    # ------------------------------------------------------------------
    # PCI layer
    # ------------------------------------------------------------------

    def pci_for(
        self,
        ci: CompactIndex,
        requested: FrozenSet[int],
        queries: Sequence[XPathQuery],
    ) -> Tuple[CompactIndex, PruningStats]:
        """Prune *ci* against *queries*, reusing last cycle's PCI when both
        the requested set and the query-string set are unchanged."""
        key = (requested, self._key_of(queries))
        if (
            self._pci is not None
            and self._pci_stats is not None
            and key == self._pci_key
        ):
            self._count("pci_hits", "server.pci_cache_hits_total")
            return self._pci, self._pci_stats
        pci, stats = prune_to_pci(ci, queries, dfa=self.dfa_for(key[1], queries))
        self._pci_key = key
        self._pci = pci
        self._pci_stats = stats
        self._count("pci_misses", "server.pci_cache_misses_total")
        return pci, stats

    def stale_pci(
        self, queries: Sequence[XPathQuery]
    ) -> Optional[Tuple[CompactIndex, PruningStats]]:
        """Last cycle's PCI *iff* it was pruned for the same query-string
        set -- the requested set may have moved on (that is what makes it
        stale).  Used by the server's overload degradation ladder; never
        updates the cache.  ``None`` when no such PCI is held (cold
        cache, different query set, or a collection mutation dropped it).
        """
        if (
            self._pci is None
            or self._pci_stats is None
            or self._pci_key is None
            or self._pci_key[1] != self._key_of(queries)
        ):
            return None
        self._count("pci_stale_served", "server.pci_cache_stale_served_total")
        return self._pci, self._pci_stats

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _key_of(self, queries: Sequence[XPathQuery]) -> QueryKey:
        """:func:`query_key_of` with per-query-instance string memoisation."""
        strings = self._query_strings
        out = set()
        for query in queries:
            text = strings.get(query)
            if text is None:
                text = strings[query] = str(query)
            out.add(text)
        return frozenset(out)

    def _count(self, stat: str, metric: str) -> None:
        self.stats[stat] += 1
        obs.counter(metric).inc()
