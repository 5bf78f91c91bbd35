"""Shared pieces of the repo benchmark: order statistics, the in-memory
span tracer with per-layer self time, and the environment record.

Only :func:`environment` imports :mod:`repro`, so the statistics and
the tracer can be tested without the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate percentiles for "the tail": the median and the nines.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: The tail is the highest candidate with at least this many samples
#: strictly beyond its rank.
TAIL_MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    data = sorted(values)
    if not data:
        raise ValueError("median of no values")
    mid = len(data) // 2
    if len(data) % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile ``p`` among ``n`` samples (1-based),
    robust to ``p * n / 100`` landing a rounding error above an
    integer."""
    return max(1, min(n, math.ceil(p * n / 100.0 - 1e-9)))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    return data[_rank(p, len(data)) - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(p, value, n)``: the highest candidate percentile ``p`` that
    has at least :data:`TAIL_MIN_BEYOND` of the ``n`` samples beyond
    its nearest rank, with its value.  With too few samples for any
    candidate the tail is the maximum, reported as ``p = 100``."""
    n = len(values)
    if n == 0:
        raise ValueError("tail of no values")
    chosen = 100.0
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen, percentile(values, chosen), n


def sustained_rate(rungs: Sequence[dict], limit_ms: float) -> Optional[dict]:
    """The highest ladder rung that meets the latency limit.

    Each rung is a dict with ``rate`` (offered, 1/s), ``latencies_ms``
    (one per attempted request; a failed request is ``inf``, so it
    misses the limit) and ``backlog_grew``.  A rung passes when its
    tail meets ``limit_ms`` and its backlog did not grow.  Rungs are
    judged in ascending rate; the first failure ends the ladder, since
    a higher rate only adds load.  Returns the passing rung with the
    highest rate, or ``None`` when the lowest rung already fails.
    """
    best = None
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        lat = rung["latencies_ms"]
        if not lat or rung["backlog_grew"]:
            break
        _p, tail, _n = tail_percentile(lat)
        if not tail <= limit_ms:
            break
        best = rung
    return best


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
class Tracer:
    """Spans kept in memory: name, layer, start, end, parent id and an
    optional request id.  Times are ``time.perf_counter`` seconds."""

    enabled = True

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, rid: Optional[str] = None):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "rid": rid, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, layer: str, start: float, end: float,
            rid: Optional[str] = None) -> None:
        """Record a span measured elsewhere (its parent is assigned by
        :func:`attach_by_containment`)."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "layer": layer, "parent": None, "rid": rid,
                           "start": start, "end": end, "imported": True})

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NullTracer:
    """The tracer of untraced calls: spans cost one call and record
    nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, layer: str, rid: Optional[str] = None):
        yield None


def attach_by_containment(spans: List[dict], slack_s: float = 5e-5) -> None:
    """Give every imported span (one without a recorded parent) the
    innermost other span whose interval contains it, within
    ``slack_s`` of clock skew.  Spans the benchmark opened itself keep
    the parent recorded when they were opened."""
    order = sorted(spans, key=lambda s: (s["start"], -s["end"]))
    stack: List[dict] = []
    for s in order:
        while stack and stack[-1]["end"] + slack_s < s["end"]:
            stack.pop()
        if s.get("imported") and stack:
            s["parent"] = stack[-1]["id"]
        stack.append(s)


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Seconds per layer: each span's duration minus the part of its
    interval that its child spans cover, summed by layer."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    out: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - _covered(
            children.get(s["id"], []), s["start"], s["end"])
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """The checkout's git commit read from ``.git`` (no subprocess), or
    ``"unknown"`` when the checkout is not a git repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def environment(root: str, seed: int) -> dict:
    import importlib.util

    import numpy
    from repro.experiments.cache import code_digest
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _commit(root),
        "source_digest": code_digest(),
        "seed": seed,
    }


def peak_rss_mb_self() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
