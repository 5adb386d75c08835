"""The simulator workloads: ``sim-table2`` and ``sim-flash-adaptive``.

A run measures the workload's query streams, one simulator run each.
One iteration generates the collection, constructs the simulator (the
set-up), runs it to completion (the timed phase) and then checks it.

Timing is taken per *cycle interval*: from one cycle build's start to
the next (the first interval is the initial admission, the last ends
with the run).  Each interval is scaled to the reference machine speed
by the calibration kernel timed at its two ends (see
:mod:`perfbench.calibrate`); the kernel's own time is left out of every
interval.  The timed metrics pool the streams.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.broadcast.program import program_signature
from repro.sim.simulation import Simulation

from perfbench import calibrate, layers
from perfbench.tracing import Patcher, Tracer, median, percentile
from perfbench.workloads import SimWorkload, expected_results, spot_check

#: a set-up shorter than a kernel hiccup is repeated (without a run) until
#: the samples add up to this long, or there are this many of them
MIN_SETUP_TOTAL_S = 2.0
MAX_SETUP_SAMPLES = 15


class _Probe:
    """Per-instance hook on one simulator's server, cheap enough for untraced runs.

    At the start of every cycle build it stamps the wall and CPU clocks,
    times the calibration kernel, and stamps them again; it also keeps
    every emitted cycle so its program signature can be taken after the
    timed phase.
    """

    def __init__(self, server) -> None:
        self.boundaries: Dict[int, "_Boundary"] = {}
        self.cycles: List = []
        build_cycle = server.build_cycle

        def probe_build(now=None):
            # an idle call (returns None) is overwritten by the real build
            self.boundaries[server.cycle_number] = _Boundary.take()
            cycle = build_cycle(now)
            if cycle is not None:
                self.cycles.append(cycle)
            return cycle

        server.build_cycle = probe_build


@dataclass(frozen=True)
class _Boundary:
    """Clocks before and after one calibration sample."""

    wall_in: float
    cpu_in: float
    kernel_s: float
    wall_out: float
    cpu_out: float

    @classmethod
    def take(cls) -> "_Boundary":
        wall_in, cpu_in = time.perf_counter(), time.process_time()
        kernel_s = calibrate.sample()
        return cls(wall_in, cpu_in, kernel_s, time.perf_counter(), time.process_time())


@dataclass
class Iteration:
    #: set-up and cycle-interval times, all at the reference speed
    setup_s: float
    wall: List[float]
    cpu: List[float]
    attempted: int
    satisfied: int
    #: (first cycle indexed, cycle satisfied) of every satisfied session
    session_cycles: List[Tuple[int, int]]
    access_bytes_mean: float
    tuning_bytes_mean: float
    cycles_listened_mean: float
    signature_digest: str
    oracle: Dict
    errors: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    sim: Optional[Simulation] = None

    @property
    def wall_s(self) -> float:
        return sum(self.wall)


def run_iteration(
    spec: SimWorkload,
    query_seed: int,
    oracle: Optional[Dict] = None,
    tracer: Optional[Tracer] = None,
) -> Iteration:
    """Set up, run and check one query stream; *tracer* turns on the layer spans."""
    before = _Boundary.take()
    documents = spec.documents()
    sim = Simulation(spec.config_for(query_seed), documents=documents)
    after = _Boundary.take()
    setup_s = calibrate.scaled([after.wall_in - before.wall_out], [before.kernel_s, after.kernel_s])[0]

    patcher = Patcher()
    if tracer is not None:
        layers.install_server(tracer, patcher)
        layers.install_client(tracer, patcher, session_of=id)
    probe = _Probe(sim.server)
    try:
        begin = _Boundary.take()
        result = sim.run()
        end = _Boundary.take()
    finally:
        patcher.undo()
    marks = [begin] + [probe.boundaries[c] for c in range(len(probe.cycles))] + [end]
    samples = [m.kernel_s for m in marks]
    wall = calibrate.scaled([b.wall_in - a.wall_out for a, b in zip(marks, marks[1:])], samples)
    cpu = calibrate.scaled([b.cpu_in - a.cpu_out for a, b in zip(marks, marks[1:])], samples)

    errors: List[str] = []
    if not result.completed:
        errors.append("simulation stopped before every session was served")
    if oracle is None:
        oracle = expected_results((s.plan.query for s in sim.sessions), documents)
        mismatch = spot_check(oracle, documents)
        if mismatch:
            errors.append(mismatch)
    satisfied = 0
    session_cycles: List[Tuple[int, int]] = []
    for session in sim.sessions:
        expected = oracle.get(session.plan.query)
        wrong = [
            c.protocol_name
            for c in session.clients
            if not c.satisfied or c.received_doc_ids != expected
        ]
        pending = session.pending
        if wrong or pending is None or pending.satisfied_cycle is None:
            if len(errors) < 8:
                errors.append(f"{session.plan.query}: wrong or missing result under {wrong}")
            continue
        satisfied += 1
        session_cycles.append((pending.first_indexed_cycle, pending.satisfied_cycle))

    digest = hashlib.sha256()
    for cycle in probe.cycles:
        digest.update(program_signature(cycle).encode("ascii"))
    records = result.records_for(spec.protocol)
    return Iteration(
        setup_s=setup_s,
        wall=wall,
        cpu=cpu,
        attempted=len(sim.sessions),
        satisfied=satisfied,
        session_cycles=session_cycles,
        access_bytes_mean=result.mean_access_bytes(spec.protocol),
        tuning_bytes_mean=result.mean_tuning_bytes(spec.protocol),
        cycles_listened_mean=(
            sum(r.cycles_listened for r in records) / len(records) if records else 0.0
        ),
        signature_digest=digest.hexdigest(),
        oracle=oracle,
        errors=errors,
        tracer=tracer,
        sim=sim,
    )


def _same_program(reference: Iteration, other: Iteration, label: str) -> List[str]:
    errors = []
    if other.signature_digest != reference.signature_digest:
        errors.append(f"{label}: program signatures differ from the first iteration")
    for metric in ("access_bytes_mean", "tuning_bytes_mean"):
        if getattr(other, metric) != getattr(reference, metric):
            errors.append(f"{label}: {metric} differs from the first iteration")
    return errors


def session_latencies_ms(wall: List[float], session_cycles: List[Tuple[int, int]]) -> List[float]:
    """Wall time of the cycles each session listened to: interval ``c + 1`` is cycle ``c``."""
    prefix = [0.0]
    for seconds in wall:
        prefix.append(prefix[-1] + seconds)
    return [(prefix[last + 2] - prefix[first + 1]) * 1e3 for first, last in session_cycles]


def run(
    spec: SimWorkload,
    trace: bool,
    write_spans: Callable[[list, Dict, str], None],
) -> Dict:
    """Measure every query stream of *spec* once; the result dict run.py prints.

    With *trace*, the first stream runs untraced twice (cold, then warm)
    and then traced, and all three must broadcast the same program.
    """
    first = run_iteration(spec, spec.query_seeds[0])
    first.sim = None
    errors = list(first.errors)

    if trace:
        warm = run_iteration(spec, spec.query_seeds[0], first.oracle)
        warm.sim = None
        traced = run_iteration(spec, spec.query_seeds[0], first.oracle, Tracer())
        for label, it in (("untraced run", warm), ("traced run", traced)):
            errors += it.errors
            errors += _same_program(first, it, label)
        per_layer = _per_layer(warm.wall_s, traced, write_spans)
        return _result([first, warm, traced], errors, per_layer=per_layer)

    iterations = [first]
    for query_seed in spec.query_seeds[1:]:
        it = run_iteration(spec, query_seed)
        it.sim = None
        errors += it.errors
        iterations.append(it)
    result = _result(iterations, errors)
    if errors:
        return result
    setups = [it.setup_s for it in iterations]
    while len(setups) < MAX_SETUP_SAMPLES and sum(setups) < MIN_SETUP_TOTAL_S:
        before = _Boundary.take()
        Simulation(spec.config, documents=spec.documents())
        after = _Boundary.take()
        setups += calibrate.scaled([after.wall_in - before.wall_out], [before.kernel_s, after.kernel_s])
    satisfied = result["satisfied"]
    latencies = [
        ms for it in iterations for ms in session_latencies_ms(it.wall, it.session_cycles)
    ]
    result["metrics"] = {
        "setup_s": median(setups),
        "queries_per_s": satisfied / sum(it.wall_s for it in iterations),
        "cpu_ms_per_query": sum(sum(it.cpu) for it in iterations) * 1e3 / satisfied,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "access_bytes_mean": _pooled(iterations, "access_bytes_mean"),
        "tuning_bytes_mean": _pooled(iterations, "tuning_bytes_mean"),
        "satisfied_ratio": satisfied / result["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["details"]["latency_samples"] = len(latencies)
    return result


def _pooled(iterations: List[Iteration], metric: str) -> float:
    """A per-session mean over every stream's sessions."""
    return sum(getattr(it, metric) * it.attempted for it in iterations) / sum(
        it.attempted for it in iterations
    )


def _result(iterations: List[Iteration], errors: List[str], per_layer=None) -> Dict:
    attempted = sum(it.attempted for it in iterations)
    satisfied = sum(it.satisfied for it in iterations)
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "satisfied": satisfied,
        "failed": attempted - satisfied,
        "metrics": per_layer or {},
        "details": {
            "iterations": len(iterations),
            "iteration_wall_s": [it.wall_s for it in iterations],
            "program_digests": [it.signature_digest for it in iterations],
        },
    }


def _per_layer(untraced_s: float, traced: Iteration, write_spans) -> Dict:
    tracer = traced.tracer
    assert tracer is not None and traced.sim is not None
    metrics = layers.span_metrics(tracer.summary())
    metrics.update(layers.server_counts(tracer))
    controller = traced.sim.controller
    metrics["control.k_changes"] = controller.k_changes if controller else 0
    metrics["control.shed_queries"] = controller.shed_queries if controller else 0
    metrics["client.cycles_listened.mean"] = traced.cycles_listened_mean
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced_s - 1.0
    metrics["trace.spans"] = len(tracer.spans)
    sessions = {
        id(client): index
        for index, session in enumerate(traced.sim.sessions)
        for client in session.clients
    }
    write_spans(tracer.spans, sessions, "")
    return metrics
