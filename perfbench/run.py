"""The repository benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--seconds`` is the shortest timed
phase of ``daemon-closed``; a simulator workload always measures its
three query streams, each a whole simulator run.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs the workload untraced
and then traced, and reports the per-layer metrics plus the tracing
overhead.  Every run checks the program's outputs (see README.md) and
exits non-zero when a check fails.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each result is also appended, with its configuration and environment,
to ``perfbench/archive/results.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics: name -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "cpu_ms_per_query": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "access_bytes_mean": "bytes",
    "tuning_bytes_mean": "bytes",
    "satisfied_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("sim-table2", "daemon-closed", "sim-flash-adaptive"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro in this checkout; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import daemonbench, layers, simbench, workloads
    from perfbench.tracing import percentile_supported, write_jsonl

    spec = workloads.workload(args.workload, args.seed)
    archive = ROOT / "perfbench" / "archive"
    work = ROOT / "perfbench" / ".work" / str(os.getpid())
    archive.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)

    def write_spans(spans, sessions: Dict, suffix: str) -> None:
        tail = f"-{suffix}" if suffix else ""
        write_jsonl(spans, archive / f"spans-{args.workload}{tail}.jsonl", sessions)

    try:
        if isinstance(spec, workloads.DaemonWorkload):
            result = daemonbench.run(spec, args.seconds, bool(args.trace), ROOT, work, write_spans)
        else:
            result = simbench.run(spec, bool(args.trace), write_spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["details"].get("latency_samples", 0)
    if not args.trace and result["correct"] and not percentile_supported(90, samples):
        result["errors"].append(f"{samples} latency samples leave fewer than 10 beyond p90")
        result["correct"] = False
    if args.trace:
        catalogue = layers.per_layer_catalogue()
        # a layer the workload never enters reports zero
        values = {name: result["metrics"].get(name, 0) for name in catalogue}
        units = {name: unit for name, (unit, _better) in catalogue.items()}
    else:
        values, units = result["metrics"], END_TO_END
    missing = set(units) - set(values)
    if missing:
        result["errors"].append(f"metrics not measured: {sorted(missing)}")
        result["correct"] = False
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}

    _append_archive(archive / "results.jsonl", args, spec, result, metrics)
    for name, metric in metrics.items():
        print(f"{args.workload:<20} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in result["details"].items():
        print(f"{args.workload:<20} [{key}] {value}")
    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def _append_archive(path: Path, args, spec, result: Dict, metrics: Dict) -> None:
    entry = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": spec.describe(),
        "git_commit": git_commit(ROOT),
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "correct": result["correct"],
        "errors": result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "details": result["details"],
    }
    with open(path, "a", encoding="utf-8") as out:
        out.write(json.dumps(entry, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
