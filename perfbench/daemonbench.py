"""The ``daemon-closed`` workload: a live daemon driven by one closed-loop client.

The daemon (``python -m repro serve``, or ``perfbench/daemon_launch.py``
for the traced run) runs in its own process.  This process is the load:
it runs one :class:`~repro.net.client.AsyncTwoTierClient` session at a
time over loopback (connect, tune, submit, run until satisfied, close),
cycling through a fixed load plan from
:func:`repro.net.loadgen.build_load_plan`, started where the seed says.
One session at a time keeps the byte accounting exact: every session
meets an idle daemon, so a query's access and tuning bytes do not depend
on arrival timing, and a repeated query must reproduce them.

With two CPUs the daemon is pinned to one and the load to the other.
Before every session the load hops onto the daemon's CPU for one
calibration sample (the daemon is idle then), and each session's
latency and daemon CPU time are scaled to the reference machine speed
by the samples at its two ends (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.client import AsyncTwoTierClient
from repro.net.framing import FrameKind, encode_text, read_frame_mixed
from repro.net.loadgen import build_load_plan
from repro.xpath.parser import parse_query

from perfbench import calibrate, layers
from perfbench.tracing import (
    Patcher,
    Tracer,
    median,
    percentile,
    summarise_spans,
    top_level_seconds,
)
from perfbench.workloads import DaemonWorkload, expected_results, spot_check

#: a session that takes longer than this has hung
SESSION_TIMEOUT_S = 60.0
#: the daemon must bind its port within this long
BOOT_TIMEOUT_S = 120.0
#: consecutive failed sessions after which the daemon is presumed dead
MAX_CONSECUTIVE_FAILURES = 3


class DaemonError(RuntimeError):
    """The daemon failed to start, died, or did not stop cleanly."""


class Daemon:
    """One daemon process; always stopped and waited for by :meth:`stop`."""

    def __init__(
        self,
        spec: DaemonWorkload,
        root: Path,
        work: Path,
        trace_out: Optional[Path],
        cpu: Optional[int],
    ) -> None:
        self.cpu = cpu
        port_file = work / f"port-{time.monotonic_ns()}"
        self.log_path = work / "daemon.log"
        serve = spec.serve_args() + ["--port-file", str(port_file)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(root / "perfbench" / "daemon_launch.py"), str(trace_out), *serve]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        kernel_before = self.calibrate()
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
            )
        try:
            while not (port_file.exists() and port_file.read_text().strip()):
                if self.proc.poll() is not None:
                    raise DaemonError(f"daemon exited with {self.proc.returncode} before binding")
                if time.perf_counter() - started > BOOT_TIMEOUT_S:
                    raise DaemonError("daemon did not bind its port in time")
                time.sleep(0.002)
            booted = time.perf_counter() - started
            self.port = int(port_file.read_text())
            #: spawn -> port bound (interpreter start, collection, server),
            #: at the reference speed
            self.setup_s = calibrate.scaled([booted], [kernel_before, self.calibrate()])[0]
        except BaseException:
            self.stop()
            raise

    def calibrate(self) -> float:
        """One calibration sample on the daemon's CPU."""
        with calibrate.on_cpu(self.cpu):
            return calibrate.sample()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (the daemon drains and exits), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


@dataclass
class Outcome:
    plan_index: int
    satisfied: bool
    started: float
    acked: float
    done: float
    access_bytes: int = 0
    tuning_bytes: int = 0
    cycles_listened: int = 0
    cycles_verified: int = 0
    error: Optional[str] = None
    #: daemon CPU seconds spent during the session
    daemon_cpu_s: float = 0.0
    #: calibration samples on the daemon's CPU before and after the session
    kernels: Tuple[float, float] = (calibrate.REFERENCE_S, calibrate.REFERENCE_S)

    def scaled(self, seconds: float) -> float:
        return calibrate.scaled([seconds], list(self.kernels))[0]

    @property
    def latency_ms(self) -> float:
        """Session start to satisfied, at the reference speed."""
        return self.scaled(self.done - self.started) * 1e3


async def _session(index: int, query: str, host: str, port: int, expected) -> Outcome:
    client = AsyncTwoTierClient(query, host=host, port=port)
    started = time.perf_counter()
    acked = started
    try:
        await client.connect()
        try:
            await client.tune()
            await client.submit()
            acked = time.perf_counter()
            report = await client.run_session()
        finally:
            await client.close()
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        return Outcome(index, False, started, acked, time.perf_counter(), error=f"{type(exc).__name__}: {exc}")
    outcome = Outcome(
        index,
        report.satisfied,
        started,
        acked,
        time.perf_counter(),
        access_bytes=report.access_bytes if report.satisfied else 0,
        tuning_bytes=report.tuning_bytes if report.satisfied else 0,
        cycles_listened=report.metrics.cycles_listened,
        cycles_verified=report.cycles_verified,
    )
    if not report.satisfied:
        outcome.error = "session ended unsatisfied"
    elif client.protocol is None or client.protocol.received_doc_ids != expected:
        outcome.satisfied = False
        outcome.error = f"{query}: received documents differ from matching_documents"
    return outcome


async def _status(host: str, port: int) -> Dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_text("STATUS"))
        await writer.drain()
        kind, payload = await read_frame_mixed(reader, 0)
        writer.write(encode_text("BYE"))
        await writer.drain()
    finally:
        writer.close()
        await writer.wait_closed()
    word, _, rest = payload.decode("utf-8").partition(" ")
    if kind is not FrameKind.TEXT or word != "STATUS":
        raise DaemonError(f"unexpected STATUS reply {payload[:80]!r}")
    return json.loads(rest)


@dataclass
class Phase:
    """One daemon's warm-up plus timed closed-loop phase."""

    setup_s: float
    warmup: List[Outcome]
    timed: List[Outcome]
    window: Tuple[float, float]
    daemon_cpu_s: float
    load_cpu_s: float
    peak_rss_mb: float
    status: Dict
    exit_code: int
    errors: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def satisfied(self) -> int:
        return sum(o.satisfied for o in self.timed)

    @property
    def queries_per_s(self) -> float:
        """Satisfied sessions per second of (reference-speed) session time."""
        return self.satisfied / (sum(o.latency_ms for o in self.timed) / 1e3)

    @property
    def cpu_ms_per_query(self) -> float:
        return sum(o.scaled(o.daemon_cpu_s) for o in self.timed) * 1e3 / max(self.satisfied, 1)


def run_phase(
    spec: DaemonWorkload,
    plan: List[str],
    oracle: Dict,
    seconds: float,
    root: Path,
    work: Path,
    trace_out: Optional[Path] = None,
    on_timed_start: Callable[[], None] = lambda: None,
    on_session: Callable[[int], None] = lambda index: None,
) -> Phase:
    cpus = calibrate.cpu_split()
    daemon = Daemon(spec, root, work, trace_out, cpus[0] if cpus else None)
    try:
        with calibrate.on_cpu(cpus[1] if cpus else None):
            return asyncio.run(
                _drive(spec, plan, oracle, seconds, daemon, on_timed_start, on_session)
            )
    except BaseException:
        daemon.stop()
        sys.stderr.write(daemon.log_tail() + "\n")
        raise


async def _drive(spec, plan, oracle, seconds, daemon, on_timed_start, on_session) -> Phase:
    queries = [parse_query(text) for text in plan]
    host, port = spec.host, daemon.port

    async def measured(index: int) -> Outcome:
        kernel = daemon.calibrate()
        cpu = daemon.cpu_seconds()
        outcome = await _timed_session(index, plan[index], host, port, oracle[queries[index]])
        outcome.daemon_cpu_s = daemon.cpu_seconds() - cpu
        outcome.kernels = (kernel, kernel)
        return outcome

    # the warm-up runs the sessions that precede the first timed one in
    # the plan's cycle, so every timed session follows its own predecessor
    warmup = []
    for index in range(len(plan) - min(spec.warmup_sessions, len(plan)), len(plan)):
        on_session(index - len(plan))
        warmup.append(await measured(index))
    on_timed_start()
    timed: List[Outcome] = []
    failures = 0
    cpu0, load_cpu0 = daemon.cpu_seconds(), time.process_time()
    t0 = time.perf_counter()
    while len(timed) < spec.min_sessions or time.perf_counter() - t0 < seconds:
        on_session(len(timed))
        outcome = await measured(len(timed) % len(plan))
        if timed:
            timed[-1].kernels = (timed[-1].kernels[0], outcome.kernels[0])
        timed.append(outcome)
        failures = 0 if outcome.satisfied else failures + 1
        if failures >= MAX_CONSECUTIVE_FAILURES:
            break
    t1 = time.perf_counter()
    timed[-1].kernels = (timed[-1].kernels[0], daemon.calibrate())
    daemon_cpu, load_cpu = daemon.cpu_seconds() - cpu0, time.process_time() - load_cpu0
    on_session(None)
    status = await _status(host, port)
    peak = daemon.peak_rss_mb()
    exit_code = daemon.stop()
    phase = Phase(
        setup_s=daemon.setup_s,
        warmup=warmup,
        timed=timed,
        window=(t0, t1),
        daemon_cpu_s=daemon_cpu,
        load_cpu_s=load_cpu,
        peak_rss_mb=peak,
        status=status,
        exit_code=exit_code,
    )
    phase.errors = _check_phase(phase)
    if phase.errors:
        sys.stderr.write(daemon.log_tail() + "\n")
    return phase


async def _timed_session(index, query, host, port, expected) -> Outcome:
    try:
        return await asyncio.wait_for(_session(index, query, host, port, expected), SESSION_TIMEOUT_S)
    except asyncio.TimeoutError:
        now = time.perf_counter()
        return Outcome(index, False, now, now, now, error="session timed out")


def _check_phase(phase: Phase) -> List[str]:
    errors: List[str] = []
    sessions = phase.warmup + phase.timed
    errors += [o.error for o in sessions if o.error][:8]
    reference: Dict[int, Tuple[int, int]] = {}
    for o in sessions:
        if not o.satisfied:
            continue
        seen = reference.setdefault(o.plan_index, (o.access_bytes, o.tuning_bytes))
        if seen != (o.access_bytes, o.tuning_bytes):
            errors.append(f"plan session {o.plan_index}: bytes differ on repeat {seen} vs {(o.access_bytes, o.tuning_bytes)}")
    verified = sum(o.cycles_verified for o in sessions)
    if phase.status.get("cycles") != verified:
        errors.append(
            f"daemon built {phase.status.get('cycles')} cycles, clients verified {verified}"
        )
    if phase.status.get("completed") != len(sessions) or phase.status.get("pending"):
        errors.append(f"daemon status disagrees with the load: {phase.status}")
    if phase.exit_code != 0:
        errors.append(f"daemon exited with {phase.exit_code}")
    return errors


def _reference_bytes(phase: Phase) -> Tuple[float, float]:
    """Mean access and tuning bytes over the plan's distinct sessions."""
    first: Dict[int, Outcome] = {}
    for o in phase.warmup + phase.timed:
        if o.satisfied:
            first.setdefault(o.plan_index, o)
    if not first:
        return 0.0, 0.0
    return (
        sum(o.access_bytes for o in first.values()) / len(first),
        sum(o.tuning_bytes for o in first.values()) / len(first),
    )


def prepare(spec: DaemonWorkload) -> Tuple[List[str], Dict, List[str]]:
    """The load plan's queries, their expected results, and oracle errors."""
    documents = spec.documents()
    plan = build_load_plan(documents, spec.plan_sessions, seed=spec.plan_seed)
    texts = [s.query for s in plan.sessions]
    start = spec.order_seed % len(texts)
    texts = texts[start:] + texts[:start]
    oracle = expected_results((parse_query(t) for t in texts), documents)
    mismatch = spot_check(oracle, documents)
    return texts, oracle, [mismatch] if mismatch else []


def run(spec: DaemonWorkload, seconds: float, trace: bool, root: Path, work: Path, write_spans) -> Dict:
    plan, oracle, errors = prepare(spec)
    if trace:
        return _run_traced(spec, plan, oracle, seconds, root, work, write_spans, errors)
    setups = []
    cpus = calibrate.cpu_split()
    for _ in range(2):
        daemon = Daemon(spec, root, work, None, cpus[0] if cpus else None)
        setups.append(daemon.setup_s)
        if daemon.stop() != 0:
            errors.append(f"set-up daemon exited with {daemon.proc.returncode}")
    phase = run_phase(spec, plan, oracle, seconds, root, work)
    setups.append(phase.setup_s)
    errors += phase.errors
    latencies = [o.latency_ms for o in phase.timed if o.satisfied]
    access, tuning = _reference_bytes(phase)
    result = _result(phase, errors)
    result["metrics"] = {
        "setup_s": median(setups),
        "queries_per_s": phase.queries_per_s,
        "cpu_ms_per_query": phase.cpu_ms_per_query,
        "latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "latency_p90_ms": percentile(latencies, 90) if latencies else 0.0,
        "access_bytes_mean": access,
        "tuning_bytes_mean": tuning,
        "satisfied_ratio": phase.satisfied / max(len(phase.timed), 1),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    result["details"]["latency_samples"] = len(latencies)
    return result


def _result(phase: Phase, errors: List[str]) -> Dict:
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": len(phase.timed),
        "satisfied": phase.satisfied,
        "failed": len(phase.timed) - phase.satisfied,
        "metrics": {},
        "details": {
            "timed_wall_s": phase.wall_s,
            "daemon_cpu_s": phase.daemon_cpu_s,
            "load_cpu_s": phase.load_cpu_s,
            "daemon_cycles": phase.status.get("cycles"),
        },
    }


def _run_traced(spec, plan, oracle, seconds, root, work, write_spans, errors) -> Dict:
    dark = run_phase(spec, plan, oracle, seconds, root, work)
    errors += [f"untraced: {e}" for e in dark.errors]

    tracer, patcher = Tracer(), Patcher()
    trace_out = work / "daemon-trace.json"

    def start_tracing() -> None:
        layers.install_client(tracer, patcher)

    def set_session(index) -> None:
        tracer.session = index

    try:
        lit = run_phase(spec, plan, oracle, seconds, root, work, trace_out, start_tracing, set_session)
    finally:
        patcher.undo()
    errors += lit.errors
    for name, (a, b) in {
        "access_bytes_mean": (_reference_bytes(dark)[0], _reference_bytes(lit)[0]),
        "tuning_bytes_mean": (_reference_bytes(dark)[1], _reference_bytes(lit)[1]),
    }.items():
        if a != b:
            errors.append(f"traced run changed {name}: {a} vs {b}")

    daemon_trace = json.loads(trace_out.read_text(encoding="utf-8"))
    daemon_spans = daemon_trace["spans"]
    metrics = layers.span_metrics(summarise_spans(daemon_spans, lit.window))
    load = summarise_spans(tracer.spans)
    for name, value in layers.span_metrics(load).items():
        if name.startswith(("client.", "index.lookup_with_nfa", "net.decode")):
            metrics[name] = value
    metrics.update(daemon_trace["counts"])

    first_cycle = tracer.seen.get("first_cycle_at", {})
    waits = [
        (first_cycle[i] - o.acked) * 1e3
        for i, o in enumerate(lit.timed)
        if i in first_cycle
    ]
    verified = sum(o.cycles_verified for o in lit.timed)
    metrics.update(
        {
            "net.queue_wait_ms.p50": median(waits) if waits else 0.0,
            "net.daemon.cpu_s": lit.daemon_cpu_s,
            "net.daemon.traced_share": top_level_seconds(daemon_spans, lit.window)
            / max(lit.daemon_cpu_s, 1e-9),
            "net.loadgen.cpu_s": lit.load_cpu_s,
            "net.signature_verified_ratio": verified / max(tracer.counts["decoded_cycles"], 1),
            "client.cycles_listened.mean": sum(o.cycles_listened for o in lit.timed)
            / max(len(lit.timed), 1),
            "trace.overhead_ratio": dark.queries_per_s / lit.queries_per_s - 1.0,
            "trace.spans": len(daemon_spans) + len(tracer.spans),
        }
    )
    write_spans(tracer.spans, {}, "load")
    write_spans(_stamp_sessions(daemon_spans, lit.timed), {}, "daemon")
    result = _result(lit, errors)
    result["metrics"] = metrics
    return result


def _stamp_sessions(spans: List, outcomes: List[Outcome]) -> List:
    """Attribute daemon spans to the (single) load session open at the time."""
    starts = [o.started for o in outcomes]
    for span in spans:
        position = bisect.bisect_right(starts, span[1]) - 1
        if position >= 0 and span[2] <= outcomes[position].done:
            span[4] = position
    return spans
