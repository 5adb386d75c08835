"""Wrap the public functions of each ``repro`` layer in tracer spans.

Nothing inside ``src/`` is edited: the wrappers replace attributes from
outside for the length of a traced run and :meth:`Patcher.undo` puts the
originals back.  Functions imported *by name* into another module (for
instance ``prune_to_pci`` into ``repro.broadcast.cycle_cache``) are
replaced at every import site the serving path calls them through.

``install_server`` covers the serving process (the simulator, or the
daemon via ``perfbench/daemon_launch.py``); ``install_client`` covers
the process running the access protocols (the simulator again, or the
load process of the daemon workload).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from perfbench.tracing import Patcher, Tracer


def _remember_server(tracer: Tracer, args: tuple) -> None:
    server = args[0]
    tracer.seen["server"] = server
    tracer.counts["pending_at_build.sum"] += len(server.pending)
    tracer.counts["pending_at_build.n"] += 1


def _count_cycle_bytes(tracer: Tracer, args: tuple, cycle: Any) -> None:
    if cycle is not None:
        tracer.counts["cycle.total_bytes"] += cycle.total_bytes
        tracer.counts["cycle.data_bytes"] += cycle.data_bytes


def _count_encoded_bytes(tracer: Tracer, args: tuple, frames: Any) -> None:
    tracer.counts["encode_cycle.bytes"] += sum(len(frame.payload) for frame in frames)


def _count_decoded_cycle(tracer: Tracer, args: tuple, cycle: Any) -> None:
    if cycle is not None:
        tracer.counts["decoded_cycles"] += 1
        if tracer.session not in tracer.seen.setdefault("first_cycle_at", {}):
            tracer.seen["first_cycle_at"][tracer.session] = tracer.clock()


def install_server(tracer: Tracer, patcher: Patcher) -> None:
    from repro.broadcast import cycle_cache, multichannel, program, server
    from repro.broadcast.cycle_cache import CycleBuildCache
    from repro.broadcast.server import BroadcastServer
    from repro.control.controller import AdaptiveController
    from repro.control import controller
    from repro.net import daemon, wire
    from repro.sim.simulation import Simulation

    def method(owner, attr, name, **hooks):
        patcher.replace(owner, attr, lambda fn: tracer.wrap(name, fn, **hooks))

    method(
        BroadcastServer,
        "build_cycle",
        "broadcast.build_cycle",
        before=_remember_server,
        after=_count_cycle_bytes,
    )
    for attr in ("submit", "submit_batch"):
        method(BroadcastServer, attr, "broadcast.submit")
    for attr in ("resolve", "resolve_batch"):
        method(BroadcastServer, attr, "broadcast.resolve")
    method(BroadcastServer, "confirm_delivery", "broadcast.confirm_delivery")
    method(CycleBuildCache, "ci_for", "index.ci_for")
    for attr in ("add_document_to_guide", "remove_document_from_guide"):
        method(cycle_cache, attr, "dataguide.guide_delta")
    for module in (server, cycle_cache):
        method(module, "prune_to_pci", "index.prune_to_pci")
    for module in (program, multichannel):
        method(module, "pack_index", "index.pack_index")
        method(module, "split_two_tier", "index.split_two_tier")
    for module in (multichannel, controller):
        method(module, "allocate_channels", "broadcast.allocate_channels")
    method(wire, "encode_index", "index.encode_index")
    method(daemon, "encode_cycle", "net.encode_cycle", after=_count_encoded_bytes)
    method(AdaptiveController, "observe", "control.observe")
    method(Simulation, "run", "sim.run")


def install_client(
    tracer: Tracer, patcher: Patcher, session_of: Optional[Callable] = None
) -> None:
    """*session_of* maps a protocol object to its session id; by default
    the spans take ``tracer.session``, which the load loop sets."""
    from repro.client.protocol import AccessProtocol
    from repro.index.ci import CompactIndex
    from repro.net.wire import CycleDecoder

    patcher.replace(
        AccessProtocol,
        "on_cycle",
        lambda fn: tracer.wrap(
            "client.on_cycle",
            fn,
            name_of=lambda args: f"client.{args[0].protocol_name}.on_cycle",
            session_of=(lambda args: session_of(args[0])) if session_of else None,
        ),
    )
    patcher.replace(
        CompactIndex,
        "lookup_with_nfa",
        lambda fn: tracer.wrap("index.lookup_with_nfa", fn),
    )
    patcher.replace(
        CycleDecoder,
        "feed",
        lambda fn: tracer.wrap("net.decode", fn, after=_count_decoded_cycle),
    )


#: span names reported as ``<name>.calls`` / ``.total_ms`` (and ``.self_ms``)
SPAN_METRICS = {
    "broadcast.build_cycle": ("calls", "total_ms", "self_ms"),
    "index.ci_for": ("total_ms",),
    "dataguide.guide_delta": ("calls", "total_ms"),
    "index.prune_to_pci": ("calls", "total_ms"),
    "index.pack_index": ("total_ms",),
    "index.split_two_tier": ("total_ms",),
    "index.encode_index": ("total_ms",),
    "broadcast.resolve": ("total_ms",),
    "broadcast.submit": ("calls", "total_ms"),
    "index.lookup_with_nfa": ("calls", "total_ms"),
    "client.one-tier.on_cycle": ("calls", "total_ms"),
    "client.two-tier.on_cycle": ("calls", "total_ms"),
    "client.two-tier-multi.on_cycle": ("calls", "total_ms"),
    "broadcast.confirm_delivery": ("calls", "total_ms"),
    "broadcast.allocate_channels": ("total_ms",),
    "control.observe": ("calls", "total_ms"),
    "net.encode_cycle": ("calls", "total_ms"),
    "net.decode": ("total_ms",),
    "sim.run": ("total_ms", "self_ms"),
}


#: the per-layer metrics that are not span aggregates: name -> (unit, better)
OTHER_METRICS: Dict[str, Tuple[str, str]] = {
    "broadcast.pending_at_build.mean": ("count", "lower"),
    "broadcast.cache.ci_hit_ratio": ("ratio", "higher"),
    "broadcast.cache.dfa_hit_ratio": ("ratio", "higher"),
    "broadcast.cache.pci_hit_ratio": ("ratio", "higher"),
    "control.k_changes": ("count", "lower"),
    "control.shed_queries": ("count", "lower"),
    "net.encode_cycle.bytes": ("bytes", "lower"),
    "net.queue_wait_ms.p50": ("ms", "lower"),
    "net.daemon.cpu_s": ("s", "lower"),
    "net.daemon.traced_share": ("ratio", "higher"),
    "net.loadgen.cpu_s": ("s", "lower"),
    "net.signature_verified_ratio": ("ratio", "higher"),
    "client.cycles_listened.mean": ("count", "lower"),
    "broadcast.index_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def per_layer_catalogue() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out: Dict[str, Tuple[str, str]] = {}
    for name, fields in SPAN_METRICS.items():
        for field in fields:
            unit = "count" if field == "calls" else "ms"
            out[f"{name}.{field}"] = (unit, "lower")
    out.update(OTHER_METRICS)
    return out


def span_metrics(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The ``SPAN_METRICS`` values of a span summary (zero for spans never entered)."""
    out: Dict[str, float] = {}
    for name, fields in SPAN_METRICS.items():
        entry = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = entry["calls"]
            elif field == "total_ms":
                out[f"{name}.total_ms"] = entry["total_s"] * 1e3
            else:
                out[f"{name}.self_ms"] = entry["self_s"] * 1e3
    return out


def server_counts(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values read from the serving side after a traced run."""
    counts = tracer.counts
    server = tracer.seen.get("server")
    stats = server.cache.stats if server is not None and server.cache is not None else {}

    def ratio(hits: float, lookups: float) -> float:
        return hits / lookups if lookups else 0.0

    total = counts["cycle.total_bytes"]
    return {
        "broadcast.pending_at_build.mean": ratio(
            counts["pending_at_build.sum"], counts["pending_at_build.n"]
        ),
        # an incremental delta re-merge is a lookup but not a hit
        "broadcast.cache.ci_hit_ratio": ratio(
            stats.get("ci_hits", 0),
            stats.get("ci_hits", 0)
            + stats.get("ci_incremental", 0)
            + stats.get("ci_rebuilds", 0),
        ),
        "broadcast.cache.dfa_hit_ratio": ratio(
            stats.get("dfa_hits", 0),
            stats.get("dfa_hits", 0) + stats.get("dfa_misses", 0),
        ),
        "broadcast.cache.pci_hit_ratio": ratio(
            stats.get("pci_hits", 0),
            stats.get("pci_hits", 0) + stats.get("pci_misses", 0),
        ),
        "broadcast.index_share": ratio(total - counts["cycle.data_bytes"], total),
        "net.encode_cycle.bytes": counts["encode_cycle.bytes"],
    }
