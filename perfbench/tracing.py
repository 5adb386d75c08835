"""In-memory span tracing from outside the program, plus the statistics helpers.

The traced run wraps public functions of the ``repro`` layers (see
:mod:`perfbench.layers`); every wrapped call becomes one span with its
name, start, end, parent span and session id.  Spans stay in memory and
are written out once, when the run ends.  Only synchronous functions
are wrapped, so spans nest strictly on one stack even inside an asyncio
process.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: a span record: [name, start_s, end_s, parent_index or None, session]
Span = List[Any]


class Tracer:
    """Collects spans around wrapped calls and counts at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        #: session id stamped on spans whose wrapper gives no session of its own
        self.session: Any = None
        #: counters recorded by wrapper hooks (bytes encoded, pending at build, ...)
        self.counts: Dict[str, float] = defaultdict(float)
        #: objects a hook wants to keep (e.g. the server whose caches it reads)
        self.seen: Dict[str, Any] = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        name_of: Optional[Callable[[tuple], str]] = None,
        session_of: Optional[Callable[[tuple], Any]] = None,
        before: Optional[Callable[["Tracer", tuple], None]] = None,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """Return *fn* wrapped in a span.

        A call nested inside an open span of the same name is not
        recorded again (``resolve`` -> ``resolve_batch``, recursive
        helpers): the outermost span already covers it.
        """
        spans, stack, open_names, clock = self.spans, self._stack, self._open, self.clock

        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of is not None else name
            if open_names[span_name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            session = session_of(args) if session_of is not None else self.session
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None, session]
            stack.append(len(spans))
            spans.append(record)
            open_names[span_name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_names[span_name] -= 1
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        return summarise_spans(self.spans)


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, Any]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def write_jsonl(
    spans: Sequence[Span], path, session_names: Optional[Dict[Any, Any]] = None
) -> None:
    """Write every span as one JSON object per line, renaming session ids."""
    rename = session_names or {}
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, start, end, parent, session) in enumerate(spans):
            record = {
                "id": index,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "session": rename.get(session, session),
            }
            out.write(json.dumps(record) + "\n")


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


def summarise_spans(
    spans: Sequence[Span], window: Optional[Tuple[float, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    With a *window*, only spans lying wholly inside it are counted.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _session in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent, _session) in enumerate(spans):
        if window is not None and not (window[0] <= start and end <= window[1]):
            continue
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_time(start, end, children.get(index, ()))
    return out


def top_level_seconds(spans: Sequence[Span], window: Tuple[float, float]) -> float:
    """Seconds inside *window* covered by spans with no traced parent (they never overlap)."""
    return sum(
        end - start
        for _name, start, end, parent, _session in spans
        if parent is None and window[0] <= start and end <= window[1]
    )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def samples_beyond(q: float, n: int) -> int:
    """How many of *n* ordered samples lie strictly above the *q*-th percentile."""
    return n - math.ceil(n * q / 100.0)


def percentile_supported(q: float, n: int) -> bool:
    """Whether *n* samples leave at least :data:`MIN_TAIL_SAMPLES` beyond the *q*-th percentile."""
    return samples_beyond(q, n) >= MIN_TAIL_SAMPLES


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
