"""The on-demand broadcast server (paper Figure 1, Section 2.1).

The server owns the document collection, accumulates XPath queries in a
pending queue, resolves each query to its result documents (via the
filtering substrate over the collection's combined DataGuide), and emits
broadcast cycles: per cycle it

1. gathers the still-unsatisfied pending queries,
2. builds the CI over the union of their remaining result documents,
3. prunes it against the pending query set (PCI),
4. asks the scheduler which documents fill the cycle's data capacity,
5. assembles the cycle program and advances per-query bookkeeping.

A query leaves the pending queue once every document of its result set
has been broadcast since its arrival (the client listening for it has had
the chance to download everything).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.broadcast.cycle_cache import CycleBuildCache
from repro.broadcast.multichannel import (
    ALLOCATION_POLICIES,
    MultiChannelCycle,
    build_multichannel_program,
)
from repro.broadcast.program import (
    BroadcastCycle,
    IndexScheme,
    build_cycle_program,
)
from repro.broadcast.scheduling import DemandTable, LeeLoScheduler, Scheduler
from repro.dataguide.dataguide import DataGuide, build_dataguide
from repro.dataguide.roxsum import CombinedDataGuide, build_combined_guide
from repro.filtering.nfa import SharedPathNFA
from repro.index.ci import CompactIndex, FlatGuide
from repro.index.packing import PackingStrategy
from repro.index.pruning import PruningStats, prune_to_pci
from repro.index.sizes import SizeModel, PAPER_SIZE_MODEL
from repro.xmlkit.model import XMLDocument
from repro.xpath.ast import XPathQuery

if TYPE_CHECKING:  # pragma: no cover - layering guard (control -> broadcast)
    from repro.control.plan import CyclePlan


class DocumentStore:
    """The collection plus everything the server pre-computes about it.

    Per-document DataGuides, on-air sizes and the full-collection combined
    guide are immutable once built, so they are cached here and shared by
    the server, the experiments and the per-document baseline.  The
    combined guide's flat form (:attr:`flat_guide`), which every cached
    cycle's CI is projected from, is built on first use.
    """

    def __init__(
        self,
        documents: Sequence[XMLDocument],
        size_model: SizeModel = PAPER_SIZE_MODEL,
    ) -> None:
        if not documents:
            raise ValueError("a broadcast server needs a non-empty collection")
        self.documents: List[XMLDocument] = list(documents)
        self.size_model = size_model
        self.by_id: Dict[int, XMLDocument] = {}
        for doc in self.documents:
            if doc.doc_id in self.by_id:
                raise ValueError(f"duplicate doc id {doc.doc_id}")
            self.by_id[doc.doc_id] = doc
        self.guides: Dict[int, DataGuide] = {
            doc.doc_id: build_dataguide(doc) for doc in self.documents
        }
        self._air_bytes: Dict[int, int] = {
            doc.doc_id: size_model.document_air_bytes(doc.size_bytes)
            for doc in self.documents
        }
        self.full_guide: CombinedDataGuide = build_combined_guide(
            self.documents, [self.guides[d.doc_id] for d in self.documents]
        )
        self._flat_guide: Optional[FlatGuide] = None
        #: lazily filled ``doc_id -> serialized XML bytes``; documents are
        #: immutable once in the store, so a document re-broadcast every
        #: cycle serialises once, not once per cycle
        self._serialized: Dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def flat_guide(self) -> FlatGuide:
        """:attr:`full_guide` flattened for per-cycle CI projection (lazy;
        dropped by every collection mutation)."""
        if self._flat_guide is None:
            self._flat_guide = FlatGuide(self.full_guide)
        return self._flat_guide

    def air_bytes(self, doc_id: int) -> int:
        """On-air footprint of a document (packet aligned, with header)."""
        return self._air_bytes[doc_id]

    def serialized(self, doc_id: int) -> bytes:
        """The document's serialized UTF-8 bytes (cached)."""
        blob = self._serialized.get(doc_id)
        if blob is None:
            from repro.xmlkit.serialize import serialize_document

            blob = serialize_document(self.by_id[doc_id]).encode("utf-8")
            self._serialized[doc_id] = blob
        return blob

    # ------------------------------------------------------------------
    # Incremental collection maintenance
    # ------------------------------------------------------------------

    def add_document(self, document: XMLDocument) -> None:
        """Add a document to the live collection.

        All caches (per-document guide, air size, full combined guide)
        update incrementally -- no rebuild; the flat guide is rebuilt on
        next use.
        """
        if document.doc_id in self.by_id:
            raise ValueError(f"doc id {document.doc_id} already in the store")
        from repro.dataguide.roxsum import add_document_to_guide

        guide = build_dataguide(document)
        self.full_guide = add_document_to_guide(self.full_guide, document, guide)
        self._flat_guide = None
        self.documents.append(document)
        self.by_id[document.doc_id] = document
        self.guides[document.doc_id] = guide
        self._air_bytes[document.doc_id] = self.size_model.document_air_bytes(
            document.size_bytes
        )

    def remove_document(self, doc_id: int) -> XMLDocument:
        """Remove a document from the live collection; returns it."""
        if doc_id not in self.by_id:
            raise ValueError(f"doc id {doc_id} not in the store")
        if len(self.documents) == 1:
            raise ValueError("cannot remove the last document")
        from repro.dataguide.roxsum import remove_document_from_guide

        document = self.by_id[doc_id]
        self.full_guide = remove_document_from_guide(
            self.full_guide, document, self.guides[doc_id]
        )
        self._flat_guide = None
        self.documents = [doc for doc in self.documents if doc.doc_id != doc_id]
        del self.by_id[doc_id]
        del self.guides[doc_id]
        del self._air_bytes[doc_id]
        self._serialized.pop(doc_id, None)
        return document

    def document(self, doc_id: int) -> XMLDocument:
        return self.by_id[doc_id]

    def total_data_bytes(self) -> int:
        """Raw serialized size of the whole collection."""
        return sum(doc.size_bytes for doc in self.documents)

    def subset(self, doc_ids: Iterable[int]) -> List[XMLDocument]:
        wanted = set(doc_ids)
        return [doc for doc in self.documents if doc.doc_id in wanted]

    def guides_for(self, doc_ids: Iterable[int]) -> List[DataGuide]:
        return [self.guides[doc_id] for doc_id in doc_ids]


@dataclass
class PendingQuery:
    """One admitted query and its delivery bookkeeping."""

    query_id: int
    query: XPathQuery
    arrival_time: int
    result_doc_ids: FrozenSet[int]
    remaining_doc_ids: Set[int] = field(default_factory=set)
    #: cycle number at which the query was first served by an index
    first_indexed_cycle: Optional[int] = None
    #: cycle number whose data segment completed the result set
    satisfied_cycle: Optional[int] = None
    satisfied_time: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.remaining_doc_ids:
            self.remaining_doc_ids = set(self.result_doc_ids)

    @property
    def is_satisfied(self) -> bool:
        return not self.remaining_doc_ids

    @property
    def cycles_listened(self) -> Optional[int]:
        """The paper's n: cycles from first index read to completion."""
        if self.satisfied_cycle is None or self.first_indexed_cycle is None:
            return None
        return self.satisfied_cycle - self.first_indexed_cycle + 1


@dataclass(frozen=True)
class CycleRecord:
    """Server-side diagnostics for one emitted cycle."""

    cycle_number: int
    pending_count: int
    requested_docs: int
    scheduled_docs: int
    pci_nodes: int
    pruning: PruningStats
    #: wall-clock seconds per server phase of this cycle's construction;
    #: empty unless the run was observed (``obs.observed()``)
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    #: ``None`` for a full build; ``"pci-stale"`` / ``"ci-unpruned"``
    #: when the build budget was exceeded and the degradation ladder ran
    degraded: Optional[str] = None


@dataclass
class BuildBudget:
    """Cycle-build budget; exceeding it triggers graceful degradation.

    The server checks the budget instead of stalling: a cycle whose
    build would blow the budget still airs on time, carrying the best
    index the degradation ladder can produce (the previous cycle's PCI
    if the pending query-string set is unchanged, else the unpruned CI).

    ``max_requested_bytes`` caps the requested-document volume a full
    build may index; ``max_build_seconds`` caps wall-clock from build
    start.  Both are checked right after the CI phase: the CI is needed
    even when degrading (it is the ``"ci-unpruned"`` fallback), so what
    an over-budget cycle skips is the pruning phase.  ``force_overload``
    lets a fault plan or test declare a specific cycle over budget
    deterministically.
    """

    max_build_seconds: Optional[float] = None
    max_requested_bytes: Optional[int] = None
    force_overload: Optional[Callable[[int], bool]] = None
    #: injectable clock (seconds); tests replace it to force timeouts
    clock: Callable[[], float] = time.perf_counter

    def overload_reason(
        self,
        cycle_number: int,
        requested_bytes: int,
        build_started: float,
    ) -> Optional[str]:
        """Why this build is over budget, or ``None`` when it is not."""
        if self.force_overload is not None and self.force_overload(cycle_number):
            return "forced"
        if (
            self.max_requested_bytes is not None
            and requested_bytes > self.max_requested_bytes
        ):
            return "bytes"
        if (
            self.max_build_seconds is not None
            and self.clock() - build_started > self.max_build_seconds
        ):
            return "time"
        return None


class BroadcastServer:
    """On-demand XML broadcast server."""

    def __init__(
        self,
        store: DocumentStore,
        scheduler: Optional[Scheduler] = None,
        scheme: IndexScheme = IndexScheme.TWO_TIER,
        cycle_data_capacity: int = 100_000,
        packing: PackingStrategy = PackingStrategy.GREEDY_DFS,
        acknowledged_delivery: bool = False,
        enable_caches: bool = True,
        num_data_channels: Optional[int] = None,
        channel_allocation: str = "balanced",
        build_budget: Optional[BuildBudget] = None,
    ) -> None:
        if cycle_data_capacity <= 0:
            raise ValueError("cycle_data_capacity must be positive")
        if num_data_channels is not None:
            if num_data_channels < 1:
                raise ValueError("num_data_channels must be at least 1")
            if num_data_channels > 1 and scheme is not IndexScheme.TWO_TIER:
                raise ValueError(
                    "multi-channel broadcast requires the two-tier scheme"
                )
            if channel_allocation not in ALLOCATION_POLICIES:
                raise ValueError(
                    f"unknown channel allocation {channel_allocation!r}; "
                    f"choose from {ALLOCATION_POLICIES}"
                )
        self.store = store
        self.scheduler = scheduler or LeeLoScheduler(store)
        self.scheme = scheme
        self.cycle_data_capacity = cycle_data_capacity
        self.packing = packing
        #: ``None`` -> the single-channel program builder (the paper's
        #: layout).  An integer K >= 1 routes cycle assembly through the
        #: multi-channel builder with K data channels; K=1 is
        #: byte-identical to ``None`` (differentially tested), so the
        #: flag only changes *which* builder runs, never what goes on
        #: air for a single channel.
        self.num_data_channels = num_data_channels
        self.channel_allocation = channel_allocation
        #: Documents promoted onto the fast-repeat channel by the adaptive
        #: control plane (:meth:`apply_plan`).  Hot documents still
        #: demanded are force-scheduled every cycle and pinned to data
        #: channel 0; empty (the default) leaves scheduling untouched.
        self.hot_doc_ids: Tuple[int, ...] = ()
        #: Cycle-build caches (CI projection from the store's flat guide,
        #: pruning-DFA LRU, PCI reuse) plus demand-table reads by the
        #: scheduler.  With ``enable_caches=False`` (the CLI's
        #: ``--no-cache``) every cycle is built from scratch; cycle programs
        #: are byte-identical either way (property-tested).
        self.cache: Optional[CycleBuildCache] = (
            CycleBuildCache(store) if enable_caches else None
        )
        #: With acknowledged delivery (error-prone channel extension) the
        #: server does NOT assume broadcast means received: documents stay
        #: in a query's remaining set until :meth:`confirm_delivery`
        #: reports them received, so lost frames get rebroadcast.
        self.acknowledged_delivery = acknowledged_delivery
        #: ``None`` -> unbounded builds (the paper's server).  A
        #: :class:`BuildBudget` makes over-budget cycles degrade through
        #: the ladder (stale PCI, then unpruned CI) instead of stalling.
        self.build_budget = build_budget
        self.pending: List[PendingQuery] = []
        self.completed: List[PendingQuery] = []
        self.records: List[CycleRecord] = []
        self._next_query_id = 0
        self._resolution_cache: Dict[str, FrozenSet[int]] = {}
        #: idempotent-uplink dedup: ``(client_key, query string)`` of
        #: every keyed admission ever made.  A retried submission with
        #: the same key returns the *existing* PendingQuery -- never a
        #: second admission, never a reset of its arrival bookkeeping.
        self._uplink_dedup: Dict[Tuple[int, str], PendingQuery] = {}
        #: plain-int mirrors of the fault/recovery counters so tests and
        #: the CLI can read them without enabling a registry
        self.uplink_dedup_hits = 0
        self.degraded_cycles = 0
        #: doc id -> pending queries still missing it, mirrored across every
        #: remaining-set mutation so schedulers stop rebuilding it per cycle
        self.demand = DemandTable()
        self.clock = 0  # channel byte-time
        self.cycle_number = 0

    # ------------------------------------------------------------------
    # Query admission
    # ------------------------------------------------------------------

    def resolve(self, query: XPathQuery) -> FrozenSet[int]:
        """Result-document set of *query* over the full collection.

        Runs the query automaton over the combined DataGuide: the matched
        guide nodes' containment sets union to exactly the documents the
        naive evaluator returns (tested).  Cached per query string.
        """
        return self.resolve_batch([query])[0]

    def resolve_batch(
        self, queries: Sequence[XPathQuery]
    ) -> List[FrozenSet[int]]:
        """Result-document sets of *queries*, resolved in one shared pass.

        All cache-missing query strings are compiled into a single
        :class:`SharedPathNFA` and the combined guide is walked **once**,
        collecting every query's matched containment sets along the way --
        the same shared-prefix trick YFilter plays, applied to admission.
        Results are identical to query-at-a-time resolution (tested) and
        land in the same per-string cache.
        """
        for query in queries:
            if query.has_predicates():
                raise ValueError(
                    "the air index is purely structural: predicate queries "
                    "are supported by the filtering engine (YFilterEngine) "
                    "but not by the broadcast protocol -- the paper's "
                    "experiments use simple queries without predicates "
                    "(Section 4.1)"
                )
        results: List[Optional[FrozenSet[int]]] = [None] * len(queries)
        misses: Dict[str, List[int]] = {}
        representative: Dict[str, XPathQuery] = {}
        for position, query in enumerate(queries):
            key = str(query)
            cached = self._resolution_cache.get(key)
            if cached is not None:
                results[position] = cached
            else:
                misses.setdefault(key, []).append(position)
                representative.setdefault(key, query)
        if misses:
            keys = list(misses)
            with obs.span("server.query_filtering"):
                nfa = SharedPathNFA()
                for query_id, key in enumerate(keys):
                    nfa.add_query(query_id, representative[key])
                nfa.freeze()
                resolved = self._resolve_with_nfa(nfa, len(keys))
            obs.counter("server.resolved_query_strings_total").inc(len(keys))
            for query_id, key in enumerate(keys):
                value = frozenset(resolved[query_id])
                self._resolution_cache[key] = value
                for position in misses[key]:
                    results[position] = value
        # Every position is filled: it was either a cache hit or a miss
        # resolved just above.
        return [result for result in results if result is not None]

    def _resolve_with_nfa(
        self, nfa: SharedPathNFA, query_count: int
    ) -> List[Set[int]]:
        """One combined-guide walk collecting each query's containment union.

        Descent stops early only when *every* registered query has matched
        at a node (the subtree's containment is then already included for
        all of them), which degenerates to the classic stop-at-accept walk
        for a single query.
        """
        guide = self.store.full_guide
        collected: List[Set[int]] = [set() for _ in range(query_count)]
        initial = nfa.initial_states()
        if guide.virtual_root:
            stack = [
                (child, nfa.move(initial, child.label))
                for child in guide.root.children.values()
            ]
        else:
            stack = [(guide.root, nfa.move(initial, guide.root.label))]
        while stack:
            node, configuration = stack.pop()
            if not configuration:
                continue
            accepted = nfa.accepted_queries(configuration)
            if accepted:
                docs = node.containing_docs()
                for query_id in accepted:
                    collected[query_id].update(docs)
                if len(accepted) == query_count:
                    continue  # all queries matched: subtree adds nothing new
            for child in node.children.values():
                stack.append((child, nfa.move(configuration, child.label)))
        return collected

    def submit(
        self,
        query: XPathQuery,
        arrival_time: int,
        client_key: Optional[int] = None,
    ) -> PendingQuery:
        """Admit a query; resolution happens immediately.

        Queries with empty result sets are rejected (the paper assumes
        non-empty result sets; the workload generator guarantees it).

        With a *client_key* (unreliable-uplink extension) admission is
        idempotent: a retry of an already-admitted ``(client_key,
        query)`` returns the existing :class:`PendingQuery` unchanged --
        duplicates never double-admit and never reset ``arrival_time``
        or delivery bookkeeping.
        """
        return self.submit_batch(
            [query], arrival_time, client_keys=[client_key]
        )[0]

    def forget_uplink_key(self, client_key: int, query_text: str) -> bool:
        """Drop one idempotent-uplink dedup entry; True if it existed.

        The daemon's redelivery path uses this: when a reconnecting
        client resubmits a ``(client_key, query)`` whose original
        admission already completed, the bytes it missed will never
        re-air on their own -- the dedup entry must be forgotten so the
        resubmit becomes a fresh admission instead of an ACK for a
        broadcast that is gone.
        """
        return self._uplink_dedup.pop((client_key, query_text), None) is not None

    def submit_batch(
        self,
        queries: Sequence[XPathQuery],
        arrival_time: int,
        client_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> List[PendingQuery]:
        """Admit several same-time queries with one shared resolution pass.

        Admission is atomic over the *fresh* queries of the batch: if
        any of them resolves to an empty result set, the whole batch is
        rejected before a single query is admitted.  Keyed duplicates
        (see :meth:`submit`) are returned as-is without re-validation.
        """
        if client_keys is None:
            client_keys = [None] * len(queries)
        if len(client_keys) != len(queries):
            raise ValueError("client_keys must match queries one-to-one")
        out: List[Optional[PendingQuery]] = [None] * len(queries)
        fresh_positions: List[int] = []
        for position, (query, key) in enumerate(zip(queries, client_keys)):
            if key is not None:
                existing = self._uplink_dedup.get((key, str(query)))
                if existing is not None:
                    out[position] = existing
                    self.uplink_dedup_hits += 1
                    obs.counter("server.uplink_dedup_hits_total").inc()
                    continue
            fresh_positions.append(position)
        if fresh_positions:
            fresh = [queries[position] for position in fresh_positions]
            results = self.resolve_batch(fresh)
            for query, result in zip(fresh, results):
                if not result:
                    raise ValueError(f"query {query} has an empty result set")
            for position, result in zip(fresh_positions, results):
                pending = PendingQuery(
                    query_id=self._next_query_id,
                    query=queries[position],
                    arrival_time=arrival_time,
                    result_doc_ids=result,
                )
                self._next_query_id += 1
                self.pending.append(pending)
                self.demand.add_query(pending)
                key = client_keys[position]
                if key is not None:
                    self._uplink_dedup[(key, str(pending.query))] = pending
                out[position] = pending
            obs.counter("server.queries_total").inc(len(fresh_positions))
        return [pending for pending in out if pending is not None]

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------

    def active_pending(self, now: int) -> List[PendingQuery]:
        """Queries admitted by *now* and not yet satisfied."""
        return [
            q
            for q in self.pending
            if q.arrival_time <= now and not q.is_satisfied
        ]

    def build_cycle(self, now: Optional[int] = None) -> Optional[BroadcastCycle]:
        """Assemble and "broadcast" the next cycle; ``None`` when idle.

        Advances the server clock past the emitted cycle and updates the
        pending queries' remaining sets.
        """
        if now is None:
            now = self.clock
        active = self.active_pending(now)
        if not active:
            return None

        registry = obs.get_registry()
        observing = registry.enabled
        totals_before = registry.span_totals("server.") if observing else {}

        with registry.span("server.build_cycle"):
            requested: Set[int] = set()
            for query in active:
                requested.update(query.remaining_doc_ids)
            queries = [query.query for query in active]

            requested_key = frozenset(requested)
            budget = self.build_budget
            build_started = budget.clock() if budget is not None else 0.0
            with registry.span("server.ci_build"):
                if self.cache is not None:
                    ci = self.cache.ci_for(requested_key)
                else:
                    ci = build_ci_from_store(self.store, requested)

            overload_reason: Optional[str] = None
            if budget is not None:
                requested_bytes = (
                    sum(self.store.air_bytes(doc_id) for doc_id in requested)
                    if budget.max_requested_bytes is not None
                    else 0
                )
                overload_reason = budget.overload_reason(
                    self.cycle_number, requested_bytes, build_started
                )

            degraded: Optional[str] = None
            if overload_reason is None:
                with registry.span("server.prune_to_pci"):
                    if self.cache is not None:
                        pci, pruning_stats = self.cache.pci_for(
                            ci, requested_key, queries
                        )
                    else:
                        pci, pruning_stats = prune_to_pci(ci, queries)
            else:
                # Over budget: skip the pruning phase and walk down the
                # degradation ladder -- the cycle still airs on time.
                with registry.span("server.degraded_build"):
                    pci, pruning_stats, degraded = self._degraded_pci(
                        ci, queries
                    )
                self.degraded_cycles += 1
                obs.counter(
                    "server.degraded_cycles_total",
                    mode=degraded,
                    reason=overload_reason,
                ).inc()

            with registry.span("server.scheduling"):
                # Capacity is per data channel: K parallel channels carry K
                # full data segments in the same wall-clock span, so the
                # scheduler may fill K times the single-channel budget.
                # (K=1 multiplies by one and stays byte-identical.)
                capacity = self.cycle_data_capacity * (self.num_data_channels or 1)
                scheduled = self.scheduler.select(
                    active,
                    self.store,
                    capacity,
                    now,
                    demand=self.demand if self.cache is not None else None,
                )
                hot_on_air = self._force_hot_schedule(scheduled, requested, capacity)
                if hot_on_air:
                    scheduled = hot_on_air[1]
                    hot_scheduled: Tuple[int, ...] = hot_on_air[0]
                else:
                    hot_scheduled = ()
            with registry.span("server.cycle_assembly") as assembly_span:
                if self.num_data_channels is None:
                    cycle: BroadcastCycle = build_cycle_program(
                        cycle_number=self.cycle_number,
                        pci=pci,
                        scheduled_doc_ids=scheduled,
                        store=self.store,
                        scheme=self.scheme,
                        packing=self.packing,
                    )
                else:
                    demand_sets = None
                    if self.channel_allocation == "demand":
                        demand_sets = {
                            doc_id: frozenset(q.query_id for q in queries_for)
                            for doc_id, queries_for in self.demand.items_for(now)
                        }
                    cycle = build_multichannel_program(
                        cycle_number=self.cycle_number,
                        pci=pci,
                        scheduled_doc_ids=scheduled,
                        store=self.store,
                        num_channels=self.num_data_channels,
                        allocation=self.channel_allocation,
                        scheme=self.scheme,
                        packing=self.packing,
                        demand_sets=demand_sets,
                        hot_doc_ids=hot_scheduled,
                    )
        cycle.start_time = now
        cycle.degraded = degraded

        phase_seconds: Dict[str, float] = {}
        if observing:
            # Attribute this cycle's share of every server span (including
            # the nested two_tier_split inside cycle assembly) by diffing
            # the aggregate totals around the build.
            for name, (count, total) in registry.span_totals("server.").items():
                if name == "server.build_cycle":
                    continue
                previous_count, previous_total = totals_before.get(name, (0, 0.0))
                if count > previous_count:
                    phase_seconds[name[len("server."):]] = total - previous_total
            registry.counter("server.cycles_total").inc()
            registry.counter("server.broadcast_bytes_total").inc(cycle.total_bytes)
            registry.counter("server.data_bytes_total").inc(cycle.data_bytes)
            registry.counter("server.index_bytes_total").inc(
                cycle.total_bytes - cycle.data_bytes
            )
            registry.counter("server.scheduled_docs_total").inc(len(scheduled))
            registry.histogram(
                "server.cycle_assembly_seconds", scheduler=self.scheduler.name
            ).observe(assembly_span.elapsed)
            if isinstance(cycle, MultiChannelCycle):
                for channel, span_bytes in enumerate(cycle.channel_spans):
                    registry.counter(
                        "server.channel_air_bytes_total", channel=str(channel)
                    ).inc(span_bytes)
                    registry.counter(
                        "server.channel_docs_total", channel=str(channel)
                    ).inc(len(cycle.channel_queues[channel]))
                registry.counter("server.channel_idle_bytes_total").inc(
                    cycle.idle_padding_bytes
                )

        broadcast_set = set(scheduled)
        for query in active:
            if query.first_indexed_cycle is None:
                query.first_indexed_cycle = cycle.cycle_number
            if self.acknowledged_delivery:
                continue  # remaining shrinks only on confirm_delivery()
            before = len(query.remaining_doc_ids)
            delivered = query.remaining_doc_ids & broadcast_set
            query.remaining_doc_ids -= broadcast_set
            for doc_id in delivered:
                self.demand.discard(doc_id, query)
            if before and not query.remaining_doc_ids:
                query.satisfied_cycle = cycle.cycle_number
                query.satisfied_time = cycle.end_time
        self._reap_satisfied()

        self.records.append(
            CycleRecord(
                cycle_number=cycle.cycle_number,
                pending_count=len(active),
                requested_docs=len(requested),
                scheduled_docs=len(scheduled),
                pci_nodes=pci.node_count,
                pruning=pruning_stats,
                phase_seconds=phase_seconds,
                degraded=degraded,
            )
        )
        self.cycle_number += 1
        self.clock = cycle.end_time
        return cycle

    def _force_hot_schedule(
        self,
        scheduled: Sequence[int],
        requested: Set[int],
        capacity: int,
    ) -> Optional[Tuple[Tuple[int, ...], List[int]]]:
        """Force still-demanded hot documents into the schedule.

        The adaptive control plane's fast-repeat channel re-airs the hot
        set every cycle: hot documents that are still requested are
        prepended to the schedule (schedule order otherwise preserved)
        and the cold tail is trimmed back under *capacity*.  Trimmed
        documents are not lost -- they stay in their queries' remaining
        sets (adaptive runs use acknowledged delivery) and the scheduler
        re-picks them as their wait grows, so the cold set rotates.

        Returns ``(hot_on_air, new_schedule)``, or ``None`` when the hot
        set changes nothing (no hot set, single channel, or every hot
        document already scheduled).
        """
        if not self.hot_doc_ids or (self.num_data_channels or 1) < 2:
            return None
        hot_requested = [d for d in self.hot_doc_ids if d in requested]
        if not hot_requested:
            return None
        scheduled_set = set(scheduled)
        missing = [d for d in hot_requested if d not in scheduled_set]
        if not missing:
            return tuple(hot_requested), list(scheduled)
        schedule = missing + list(scheduled)
        total = sum(self.store.air_bytes(d) for d in schedule)
        hot_set = set(hot_requested)
        # Trim cold documents from the tail until the schedule fits; hot
        # documents are never trimmed (they are why we are here).
        position = len(schedule) - 1
        while total > capacity and position >= 0:
            doc_id = schedule[position]
            if doc_id not in hot_set:
                total -= self.store.air_bytes(doc_id)
                del schedule[position]
            position -= 1
        obs.counter("server.hot_forced_docs_total").inc(len(missing))
        return tuple(d for d in hot_requested if d in set(schedule)), schedule

    def apply_plan(self, plan: "CyclePlan") -> None:
        """Apply an adaptive control-plane plan to the next builds.

        Mutates the channel count, allocation policy and hot set between
        cycles.  Only servers built on the multi-channel path (an
        integer ``num_data_channels``, which K=1 joins byte-identically)
        accept plans: flipping a single-channel server to the
        multi-channel builder mid-run would change its program layout
        contract under the clients already listening.
        """
        if self.num_data_channels is None:
            raise RuntimeError(
                "apply_plan requires the multi-channel builder; construct "
                "the server with num_data_channels set (1 is byte-identical "
                "to the single-channel program)"
            )
        if plan.num_channels < 1:
            raise ValueError("plan.num_channels must be at least 1")
        if plan.num_channels > 1 and self.scheme is not IndexScheme.TWO_TIER:
            raise ValueError("multi-channel broadcast requires the two-tier scheme")
        if plan.allocation not in ALLOCATION_POLICIES:
            raise ValueError(f"unknown allocation policy {plan.allocation!r}")
        if plan.hot_doc_ids and plan.num_channels < 2:
            raise ValueError("a hot channel needs at least 2 data channels")
        self.num_data_channels = plan.num_channels
        self.channel_allocation = plan.allocation
        self.hot_doc_ids = tuple(plan.hot_doc_ids)

    def _degraded_pci(
        self, ci: CompactIndex, queries: Sequence[XPathQuery]
    ) -> Tuple[CompactIndex, PruningStats, str]:
        """The degradation ladder of an over-budget build.

        1. **stale PCI** -- if the cycle cache still holds a PCI pruned
           for the *same query-string set*, serve it as-is.  Its doc
           annotations may predate the latest remaining-set shrinkage
           (clients that already read the first tier are unaffected;
           clients that have not defer their read -- see
           ``BroadcastCycle.degraded``), but lookups stay sound: every
           annotation was a true result at pruning time.
        2. **unpruned CI** -- otherwise serve the CI itself.  It covers
           the full current requested set (complete, just bigger on
           air), so even first-tier reads are safe on it.

        Never caches its output: a degraded index must not poison the
        PCI layer for the next full build.
        """
        if self.cache is not None:
            stale = self.cache.stale_pci(queries)
            if stale is not None:
                return stale[0], stale[1], "pci-stale"
        doc_entries = sum(
            len(node.doc_ids) for node in ci.root.iter_preorder()
        )
        size = ci.size_bytes(one_tier=True)
        no_op = PruningStats(
            nodes_before=ci.node_count,
            nodes_after=ci.node_count,
            doc_entries_before=doc_entries,
            doc_entries_after=doc_entries,
            bytes_before=size,
            bytes_after=size,
        )
        return ci, no_op, "ci-unpruned"

    # ------------------------------------------------------------------
    # Live collection changes
    # ------------------------------------------------------------------

    def add_document(self, document: XMLDocument) -> None:
        """Add a document to the broadcast collection between cycles.

        Resolution caches are dropped (new structure can match old query
        strings) and the cycle-build caches invalidated; already-admitted
        queries keep their admission-time result sets, exactly as a real
        server that resolved them on arrival would.
        """
        self.store.add_document(document)
        self._resolution_cache.clear()
        if self.cache is not None:
            self.cache.invalidate_collection()

    def remove_document(self, doc_id: int) -> XMLDocument:
        """Remove a document; pending queries stop waiting for it.

        Any pending query whose remaining set contained the document has
        it dropped (it can never be broadcast again); queries fully
        satisfied by the removal leave the queue.  A query satisfied this
        way gets a ``satisfied_time`` stamp, but ``satisfied_cycle`` only
        if some cycle actually served it (``first_indexed_cycle`` set) --
        a query whose whole result set vanished before it was ever
        indexed was never broadcast-satisfied, so its ``cycles_listened``
        stays ``None`` instead of reporting a bogus pre-arrival cycle.
        """
        document = self.store.remove_document(doc_id)
        self._resolution_cache.clear()
        if self.cache is not None:
            self.cache.invalidate_collection()
        self.demand.discard_doc(doc_id)
        for pending in self.pending:
            pending.remaining_doc_ids.discard(doc_id)
            if pending.is_satisfied and pending.satisfied_time is None:
                pending.satisfied_time = self.clock
                if pending.first_indexed_cycle is not None:
                    pending.satisfied_cycle = self.cycle_number - 1
        self._reap_satisfied()
        return document

    def confirm_delivery(
        self,
        pending: PendingQuery,
        received_doc_ids: Set[int],
        cycle: BroadcastCycle,
    ) -> None:
        """Acknowledged-delivery feedback from a client (uplink ACK).

        Only meaningful with ``acknowledged_delivery=True``: the query's
        remaining set shrinks to the documents its client has actually
        received, so erased frames stay scheduled for rebroadcast.
        Documents that left the collection since admission stay dropped
        (resetting from ``result_doc_ids`` must not resurrect a document
        ``remove_document`` already gave up on).
        """
        if not self.acknowledged_delivery:
            raise RuntimeError(
                "confirm_delivery requires acknowledged_delivery=True"
            )
        before_set = set(pending.remaining_doc_ids)
        pending.remaining_doc_ids = {
            doc_id
            for doc_id in pending.result_doc_ids
            if doc_id not in received_doc_ids and doc_id in self.store.by_id
        }
        for doc_id in before_set - pending.remaining_doc_ids:
            self.demand.discard(doc_id, pending)
        for doc_id in pending.remaining_doc_ids - before_set:
            self.demand.add_entry(doc_id, pending)
        if before_set and not pending.remaining_doc_ids:
            pending.satisfied_cycle = cycle.cycle_number
            pending.satisfied_time = cycle.end_time
        self._reap_satisfied()

    def _reap_satisfied(self) -> None:
        newly_done = [q for q in self.pending if q.is_satisfied]
        if newly_done:
            self.completed.extend(newly_done)
            self.pending = [q for q in self.pending if not q.is_satisfied]


def build_ci_from_store(
    store: DocumentStore, requested_doc_ids: Iterable[int]
) -> CompactIndex:
    """CI over the requested documents, reusing the store's cached guides."""
    requested = sorted(set(requested_doc_ids))
    if not requested:
        raise ValueError("no requested documents -- nothing to index")
    subset = [store.by_id[doc_id] for doc_id in requested]
    guides = [store.guides[doc_id] for doc_id in requested]
    guide = build_combined_guide(subset, guides)
    return CompactIndex.from_guide(guide, size_model=store.size_model)
