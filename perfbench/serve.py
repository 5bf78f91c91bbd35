"""The ``serve-mixed`` workload: an open loop of seeded arrivals against
a ``python -m repro.service serve`` subprocess.

Load comes from this one process over at most ``nproc`` keep-alive
connections.  Requests arrive at seeded times (a Poisson process
conditioned on its count, so every rate is offered exactly), each one
is timed from the moment it was due, and the generator records how late
it sent.  Phases alternate between two fixed rates (``low``, ``high``);
each format's median latency pools both.  The highest of the two rates
whose tail meets :data:`LIMIT_MS` without a growing backlog is the
sustained rate (recorded with the run).  A last, closed-loop phase
keeps every connection busy: its completion rate is the throughput.

Every answer is checked against :func:`repro.service.execute` run
in-process on the same request during set-up.

The traced run serves the ``low`` phase only, reads ``/v1/stats``, and
replays the same request stream in-process through the service's public
layers (``WorkloadRequest.from_json``, ``handler_for(kind).validate`` /
``.run_batch``, ``WorkloadResult.to_json``, ``experiments.cache``) to
time each layer.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from batch import (NULL_TRACER, SERVED_FORMATS, SETUP_REPEATS, Outcome,
                   maybe_probe, plane_metrics, posit_stage_metrics)
from common import (attach_by_containment, median, nproc, peak_rss_mb_pid,
                    self_times, sustained_rate, tail_percentile)

from repro.engine.plan import ExecPlan
from repro.experiments import cache as result_cache
from repro.service import (ServiceClient, ServiceError, WorkloadRequest,
                           WorkloadResult, execute, handler_for)

KINDS = ("forward", "pbd", "op", "astype", "viterbi", "pairhmm", "kalman")

#: Fresh requests per kind in each block of the stream, by format.
#: posit(64,9) requests cost about ten times the others (a per-call
#: floor of ~10 ms).  With this share the requests slowed by one are
#: clearly fewer than half and clearly more than a tenth of all, so
#: neither the median nor the p90 tail sits on the edge between the
#: fast and the slow mode, where it would jump from run to run.
FORMAT_WEIGHTS = {"binary64": 3, "log": 3, "posit(64,9)": 2}

#: The metric suffix of each format (as the batch workloads name it).
SUFFIX = dict(zip(FORMAT_WEIGHTS, SERVED_FORMATS))

#: Each block of the stream holds the fresh requests above plus this
#: many repeats of earlier requests: a quarter of all requests repeat,
#: so the server's result cache is read and written.
REPEATS_PER_BLOCK = 19

COMBOS = [(kind, fmt) for kind in KINDS
          for fmt, weight in FORMAT_WEIGHTS.items() for _ in range(weight)]

#: Offered rates (requests/s): ``low`` and ``high`` are about a quarter
#: and a half of the mix's capacity (150-200/s on a shared 2-CPU
#: x86 box whose speed drifts by a third within a minute).  They sit
#: below the third and two thirds one would pick on a quiet machine:
#: there, queueing amplified that drift past the latency bounds.
LOW_RPS = 40.0
HIGH_RPS = 80.0

#: ``low`` and ``high`` alternate for this many rounds, so both rates
#: sample the same stretches of a machine whose speed drifts; each
#: rate's figures come from its rounds' samples pooled.
ROUNDS = 5

#: Share of ``--seconds`` that the low/high rounds take together.
ROUNDS_SHARE = 0.8

#: The closed-loop phase sends this many requests per second of
#: ``--seconds``, back to back: it takes the fifth of the run the
#: rounds leave at 200 requests/s, less where the server is faster.
SATURATE_PER_S = 0.2 * 200.0

#: Latency limit on the tail for the sustained rate.
LIMIT_MS = 500.0

#: A rate whose completion rate falls below this share of its offered
#: rate has a growing backlog.
KEEP_UP = 0.9

#: A phase whose generator runs this late stops sending: its backlog is
#: growing and the rate has already missed the limit.
ABORT_LATE_S = 3.0

#: Requests per block of the stream.
BLOCK = len(COMBOS) + REPEATS_PER_BLOCK

#: The traced run replays this many requests of the stream in-process
#: (two blocks: every kind and format misses the cache at least once).
REPLAY_REQUESTS = 2 * BLOCK


# ----------------------------------------------------------------------
# Request stream
# ----------------------------------------------------------------------
def _model(rng, h: int, m: int, t: int) -> dict:
    return {"transition": rng.dirichlet(np.ones(h), size=h).tolist(),
            "emission": rng.dirichlet(np.ones(m), size=h).tolist(),
            "initial": rng.dirichlet(np.ones(h)).tolist(),
            "observations": rng.integers(0, m, t).tolist()}


def _payload(kind: str, rng, tiny: bool) -> dict:
    """One request payload.  Payloads are small, so even the posit(64,9)
    requests cost tens of ms at most: the queue behind two connections
    then drains fast enough for a run of a few seconds per rate to give
    steady latency figures."""
    t, n = (4, 1) if tiny else (8, 2)
    if kind == "forward":
        return {"models": [_model(rng, 4, 4, t)]}
    if kind == "pbd":
        return {"sites": rng.uniform(1e-4, 1e-2, size=(n, t)).tolist(),
                "k": 3}
    if kind == "op":
        return {"op": ("add", "sub", "mul", "div")[int(rng.integers(4))],
                "a": rng.uniform(0.1, 1.0, 8 * n).tolist(),
                "b": rng.uniform(0.01, 0.09, 8 * n).tolist()}
    if kind == "astype":
        return {"to": "posit(64,12)",
                "values": rng.uniform(1e-6, 1.0, 8 * n).tolist()}
    if kind == "viterbi":
        return {"model": _model(rng, 4, 4, t),
                "sequences": rng.integers(0, 4, (n, t)).tolist()}
    if kind == "pairhmm":
        return {"haplotype": rng.integers(0, 4, t).tolist(),
                "reads": rng.integers(0, 4, (1, t // 2)).tolist()}
    if kind == "kalman":
        return {"tracks": rng.uniform(0.2, 0.8, (n, t // 2)).tolist()}
    raise ValueError(kind)


def make_stream(seed: int, n: int, tiny: bool, salt: int = 0):
    """``(requests, fresh)``: ``n`` request JSON objects, and the list
    of distinct ones.  ``requests[i]["_fresh"]`` indexes ``fresh``;
    ``requests[i]["first"]`` is true on its first occurrence."""
    rng = np.random.default_rng([seed, 7, salt])
    fresh: List[dict] = []
    stream: List[dict] = []
    while len(stream) < n:
        slots = list(range(len(COMBOS))) + [-1] * REPEATS_PER_BLOCK
        rng.shuffle(slots)
        for slot in slots:
            first = not (slot < 0 and fresh)
            if not first:
                index = int(rng.integers(len(fresh)))
            else:
                kind, fmt = COMBOS[slot if slot >= 0 else 0]
                fresh.append(WorkloadRequest(
                    kind=kind, format=fmt,
                    payload=_payload(kind, rng, tiny)).to_json())
                index = len(fresh) - 1
            body = dict(fresh[index], request_id=f"r{len(stream)}")
            stream.append({"body": body, "_fresh": index,
                           "first": first})
    return stream[:n], fresh


def _normal(values) -> list:
    """Values as they look after a JSON round trip."""
    return json.loads(json.dumps(values))


def expected_values(fresh: List[dict]) -> List[list]:
    return [_normal(execute(WorkloadRequest.from_json(body)).values)
            for body in fresh]


def phase_schedule(seed: int, index: int, rate: float, seconds: float):
    """Due offsets (s) of one phase: a Poisson process at ``rate``
    conditioned on ``round(rate * seconds)`` arrivals, i.e. sorted
    uniform times."""
    n = max(1, int(round(rate * seconds)))
    rng = np.random.default_rng([seed, 11, index])
    return np.sort(rng.uniform(0.0, seconds, n)).tolist()


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
def _server_child_setup() -> None:
    """In the server child, before it runs: take Ctrl-C (SIGINT) as the
    CLI expects even if this process was started with SIGINT ignored,
    and ask Linux to send SIGTERM when this process dies, so even a
    killed benchmark leaves no server behind."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # not Linux: the ``with`` block still stops the server


class ServerProcess:
    """``python -m repro.service serve`` as users start it (CLI
    defaults, an ephemeral port, the cache under the run directory).
    :meth:`start` launches it; leaving the ``with`` block stops it and
    waits for it, on every exit path."""

    def __init__(self, root: str, run_dir: str, cache_dir: str, tag: str):
        self.root = root
        self.cache_dir = cache_dir
        self.log_path = os.path.join(run_dir, f"server-{tag}.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def __enter__(self) -> "ServerProcess":
        return self

    def start(self) -> float:
        """Launch and wait until ``/v1/healthz`` answers; returns the
        seconds that took."""
        start = time.perf_counter()
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.join(self.root, "src"))
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", "0", "--cache-dir", self.cache_dir],
                cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                preexec_fn=_server_child_setup)
        self.port = self._wait_for_port(timeout_s=60.0)
        asyncio.run(self._healthz())
        return time.perf_counter() - start

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def _wait_for_port(self, timeout_s: float) -> int:
        deadline = time.perf_counter() + timeout_s
        pattern = re.compile(r"serving on http://[^:]+:(\d+)")
        while time.perf_counter() < deadline:
            with open(self.log_path) as f:
                match = pattern.search(f.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            time.sleep(0.005)
        raise RuntimeError("server did not report its port in time")

    async def _healthz(self) -> None:
        async with ServiceClient("127.0.0.1", self.port, timeout_s=30.0,
                                 connect_retries=20, backoff_s=0.01,
                                 backoff_max_s=0.2) as client:
            health = await client.healthz()
        if not health.get("ok"):
            raise RuntimeError(f"server unhealthy: {health}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self) -> None:
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------
async def _one(client, item, expected, record, free, tracer):
    rid = item["body"]["request_id"]
    try:
        with tracer.span("service.client.submit", "service.client",
                         rid=rid):
            result = await client.submit(
                WorkloadRequest.from_json(item["body"]))
        record["ok"] = _normal(result.values) == expected
        record["stats"] = result.stats
    except ServiceError as exc:
        record["ok"] = False
        record["error"] = exc.code
    finally:
        record["done"] = time.perf_counter()
        free.put_nowait(client)


async def run_phase(clients, items, offsets, seconds, expected,
                    tracer) -> dict:
    """Send ``items`` at ``offsets`` (s from now, all below
    ``seconds``) over ``clients``; with ``seconds`` 0 the phase is a
    closed loop (all due at once, sent as connections free up)."""
    free: asyncio.Queue = asyncio.Queue()
    for client in clients:
        free.put_nowait(client)
    start = time.perf_counter() + 0.02
    records: List[dict] = []
    tasks = []
    aborted = False
    for item, offset in zip(items, offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        client = await free.get()
        sent = time.perf_counter()
        if seconds and sent - due > ABORT_LATE_S:
            free.put_nowait(client)
            aborted = True
            break
        record = {"due": due, "sent": sent, "first": item["first"],
                  "format": item["body"]["format"]}
        records.append(record)
        tasks.append(asyncio.ensure_future(_one(
            client, item, expected[item["_fresh"]], record, free, tracer)))
    for task in tasks:
        await task
    return {"start": start, "seconds": seconds, "records": records,
            "aborted": aborted, "offered": len(items)}


def _phase_summary(name: str, rate: float, phase: dict) -> dict:
    records = phase["records"]
    lat_ok = [(r["done"] - r["due"]) * 1e3 for r in records if r["ok"]]
    lat_all = [(r["done"] - r["due"]) * 1e3 if r["ok"] else float("inf")
               for r in records]
    late = [(r["sent"] - r["due"]) * 1e3 for r in records]
    last_quarter = late[-max(1, len(late) // 4):] if late else [0.0]
    done = [r["done"] for r in records if r["ok"]]
    # Completions per second from the first arrival to the last answer.
    achieved = len(done) / (max(done) - records[0]["due"]) if done else 0.0
    # Completions fall behind arrivals, or the generator keeps running
    # later: either way the backlog is growing.  A closed loop has no
    # arrival rate to fall behind.
    grew = False
    if phase["seconds"]:
        keep_up = len(done) / max([phase["seconds"]] + [
            d - phase["start"] for d in done])
        grew = phase["aborted"] or median(last_quarter) > LIMIT_MS or \
            keep_up < KEEP_UP * phase["offered"] / phase["seconds"]
    summary = {"phase": name, "rate": rate, "offered": phase["offered"],
               "sent": len(records),
               "failed": sum(not r["ok"] for r in records),
               "latencies_ms": lat_all, "backlog_grew": grew,
               "achieved_rps": achieved,
               "late_ms_p50": median(late) if late else 0.0,
               "late_ms_max": max(late) if late else 0.0}
    if lat_ok:
        p, tail, n = tail_percentile(lat_ok)
        summary.update(p50_ms=median(lat_ok), tail_ms=tail,
                       tail_percentile=p, tail_samples=n)
    return summary


async def _drive(port: int, phases, expected, tracer, warmup) -> tuple:
    conns = min(2, nproc())
    clients = [ServiceClient("127.0.0.1", port, retries=0, timeout_s=60.0)
               for _ in range(conns)]
    try:
        for client in clients:
            await client.connect()
        items, expected_warm = warmup
        warm = await run_phase(clients, items, [0.0] * len(items), 0.0,
                               expected_warm, NULL_TRACER)
        warm_summary = _phase_summary("warmup", 0.0, warm)
        out = []
        for name, rate, items, offsets, seconds in phases:
            phase = await run_phase(clients, items, offsets, seconds,
                                    expected, tracer)
            summary = _phase_summary(name, rate, phase)
            summary["records"] = phase["records"]
            out.append(summary)
        stats = await clients[0].stats()
        return warm_summary, out, stats
    finally:
        for client in clients:
            await client.close()


# ----------------------------------------------------------------------
# In-process replay (traced run)
# ----------------------------------------------------------------------
def replay(items, expected, cache_dir: str, tracer) -> dict:
    """Serve ``items`` one by one through the service's public layers,
    as the server would with its cache on, timing each layer.  A traced
    replay also keeps the program's telemetry of each computed request,
    by format."""
    timings: Dict[str, List[float]] = {}
    probes: Dict[str, list] = {suffix: [] for suffix in SUFFIX.values()}
    counts = {"hits": 0, "misses": 0, "stores": 0, "failed": 0}
    plan = ExecPlan()

    def timed(name, layer, rid, fn):
        t0 = time.perf_counter()
        with tracer.span(name, layer, rid=rid):
            out = fn()
        timings.setdefault(name, []).append((time.perf_counter() - t0)
                                            * 1e3)
        return out

    for item in items:
        body = json.dumps(item["body"]).encode()
        rid = item["body"]["request_id"]
        started = time.perf_counter()
        request = timed("parse", "service.api", rid, lambda: (
            WorkloadRequest.from_json(json.loads(body.decode()))))
        handler = handler_for(request.kind)
        timed("validate", "service.workloads", rid,
              lambda: handler.validate(request))
        namespace = f"svc-{request.kind}"
        identity = request.cache_identity()
        entry = timed("cache.read", "experiments.cache", rid,
                      lambda: result_cache.load(namespace, identity,
                                                cache_dir=cache_dir))
        if entry is not None:
            counts["hits"] += 1
            values = json.loads(entry["text"])["values"]
            stats = {"cached": True}
        else:
            counts["misses"] += 1
            with maybe_probe(tracer.enabled, tracer,
                             probes[SUFFIX[request.format]]):
                (values, stats), = timed(
                    f"run.{request.kind}", "service.workloads", rid,
                    lambda: handler.run_batch([request], plan=plan))
            timed("cache.write", "experiments.cache", rid,
                  lambda: result_cache.store(
                      namespace, identity,
                      json.dumps({"values": values, "stats": stats}),
                      cache_dir=cache_dir))
            counts["stores"] += 1
        timed("encode", "service.api", rid, lambda: json.dumps(
            WorkloadResult(kind=request.kind, values=values,
                           request_id=rid, stats=stats).to_json()))
        timings.setdefault("request", []).append(
            (time.perf_counter() - started) * 1e3)
        counts["failed"] += _normal(values) != expected[item["_fresh"]]
    return {"timings": timings, "counts": counts, "probes": probes}


def _p50_tail(values: List[float]):
    return median(values), tail_percentile(values)[1]


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def phase_plan(seconds: float, trace: bool) -> List[tuple]:
    """``(name, rate, seconds)`` of every phase, in order; the closed
    loop has no rate and 0 seconds."""
    if trace:  # the traced run serves the low rate only
        return [("low", LOW_RPS, 0.5 * seconds)]
    # Each rate gets the same number of samples (640 at 30 s), so its
    # tail is the same percentile (p90) over the same count.
    each = ROUNDS_SHARE * seconds / ROUNDS / (LOW_RPS + HIGH_RPS)
    plan = [(name, rate, each * other) for _ in range(ROUNDS)
            for name, rate, other in (("low", LOW_RPS, HIGH_RPS),
                                      ("high", HIGH_RPS, LOW_RPS))]
    return plan + [("saturate", None, 0.0)]


def _pooled(rounds: List[dict]) -> dict:
    """One ladder rung from the rounds of one rate."""
    return {"phase": rounds[0]["phase"], "rate": rounds[0]["rate"],
            "latencies_ms": [x for r in rounds for x in r["latencies_ms"]],
            "backlog_grew": any(r["backlog_grew"] for r in rounds),
            "achieved_rps": median(r["achieved_rps"] for r in rounds)}


def serve_mixed(ctx) -> Outcome:
    cache_dir = os.path.join(ctx.run_dir, "server-cache")
    plan = phase_plan(ctx.seconds, ctx.trace)

    setups = []
    for i in range(SETUP_REPEATS - 1):
        with ServerProcess(ctx.root, ctx.run_dir, cache_dir, str(i)) as s:
            setups.append(s.start())
    with ServerProcess(ctx.root, ctx.run_dir, cache_dir, "run") as server:
        setups.append(server.start())
        start = time.perf_counter()
        offsets = [phase_schedule(ctx.seed, i, rate, seconds) if rate
                   else [0.0] * round(SATURATE_PER_S * ctx.seconds)
                   for i, (_name, rate, seconds) in enumerate(plan)]
        stream, fresh = make_stream(
            ctx.seed, max(sum(map(len, offsets)), REPLAY_REQUESTS),
            ctx.tiny)
        expected = expected_values(fresh)
        # Warm-up: every kind and format once, on payloads the
        # measured phases never send.  The traced run skips it, so the
        # server's latency window holds the measured phase alone.
        _, warm_fresh = make_stream(ctx.seed, 0 if ctx.trace else BLOCK,
                                    ctx.tiny, salt=1)
        warm_items = [{"body": dict(body, request_id=f"w{i}"),
                       "_fresh": i, "first": True}
                      for i, body in enumerate(warm_fresh)]
        warm_expected = expected_values(warm_fresh)
        phases, lo = [], 0
        for (name, rate, seconds), offs in zip(plan, offsets):
            phases.append((name, rate, stream[lo:lo + len(offs)], offs,
                           seconds))
            lo += len(offs)
        once_s = time.perf_counter() - start
        tracer = ctx.tracer if ctx.trace else NULL_TRACER
        # The generator's own heap (every expected answer) stays out of
        # the garbage collector's way while requests are timed.
        gc.collect()
        gc.freeze()
        try:
            warm, summaries, stats = asyncio.run(_drive(
                server.port, phases, expected, tracer,
                (warm_items, warm_expected)))
        finally:
            gc.unfreeze()
        peak_rss = server.peak_rss_mb()
    shutil.rmtree(cache_dir, ignore_errors=True)

    attempted = warm["sent"] + sum(s["sent"] for s in summaries)
    failed = warm["failed"] + sum(s["failed"] for s in summaries)
    detail = {"connections": min(2, nproc()), "limit_ms": LIMIT_MS,
              "requests_distinct": len(fresh),
              "setup_repeats_s": setups, "setup_once_s": once_s,
              "phases": [{k: v for k, v in s.items()
                          if k not in ("latencies_ms", "records")}
                         for s in summaries]}
    if ctx.trace:
        return _traced_outcome(ctx, summaries, stats,
                               stream[:REPLAY_REQUESTS], expected,
                               attempted, failed, detail)
    metrics = {"setup_s": ctx.import_s + median(setups) + once_s,
               "peak_rss_mb": peak_rss}
    # Each format's latency pools the low and the high rounds.  It is
    # taken over first occurrences, the requests the server computes: a
    # stream block holds the same kinds and formats for every seed, so
    # the median does not move with the share of cache hits a seed draws.
    rounds = [r for s in summaries if s["phase"] in ("low", "high")
              for r in s["records"] if r["ok"] and r["first"]]
    for fmt, suffix in SUFFIX.items():
        lat = [(r["done"] - r["due"]) * 1e3 for r in rounds
               if r["format"] == fmt]
        if lat:
            metrics[f"latency_p50_ms.{suffix}"] = median(lat)
    ladder = []
    for name in ("low", "high"):
        pooled = _pooled([s for s in summaries if s["phase"] == name])
        ladder.append(pooled)
        ok = [x for x in pooled["latencies_ms"] if math.isfinite(x)]
        if ok:
            p, tail, n = tail_percentile(ok)
            detail[f"rate_{name}"] = {"p50_ms": median(ok), "tail_ms": tail,
                                      "tail_percentile": p, "samples": n}
    best = sustained_rate(ladder, LIMIT_MS)
    detail["sustained_rate"] = best["phase"] if best else None
    metrics["throughput_per_s"] = summaries[-1]["achieved_rps"]
    return Outcome(metrics, attempted, failed, detail)


def _traced_outcome(ctx, summaries, stats, items, expected, attempted,
                    failed, detail) -> Outcome:
    live = summaries[0]["records"]
    server_lat = stats["latency_ms"]
    counters = stats["telemetry"]["counters"]
    computed = [r["stats"] for r in live if r["ok"] and
                not r["stats"].get("cached")]
    waits = [s["wait_ms"] for s in computed] or [0.0]
    round_trip = [(r["done"] - r["sent"]) * 1e3 for r in live if r["ok"]]

    walls = []
    for traced in (False, True):
        tracer = ctx.tracer if traced else NULL_TRACER
        replay_cache = os.path.join(ctx.run_dir, f"replay-cache-{traced:d}")
        t0 = time.perf_counter()
        rep = replay(items, expected, replay_cache, tracer)
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(replay_cache, ignore_errors=True)
        failed += rep["counts"]["failed"]
        attempted += len(items)
    tm, counts = rep["timings"], rep["counts"]

    out = {}
    for suffix, probes in rep["probes"].items():
        plane_metrics(out, suffix, probes)
    posit_stage_metrics(out, rep["probes"]["posit"])
    out["service.api.parse_ms.p50"], out["service.api.parse_ms.tail"] = \
        _p50_tail(tm["parse"])
    out["service.api.encode_ms.p50"], out["service.api.encode_ms.tail"] = \
        _p50_tail(tm["encode"])
    out["service.workloads.validate_ms.p50"] = median(tm["validate"])
    for kind in KINDS:
        out[f"service.workloads.run_ms.{kind}"] = median(tm[f"run.{kind}"])
    out["service.scheduler.wait_ms.p50"], \
        out["service.scheduler.wait_ms.tail"] = _p50_tail(waits)
    out["service.scheduler.batch_size_mean"] = \
        sum(s["batch_size"] for s in computed) / max(len(computed), 1)
    out["service.shed"] = counters.get("service.shed", 0)
    out["service.rejected"] = counters.get("service.rejected", 0)
    out["service.server.latency_ms.p50"] = server_lat["p50"]
    out["service.server.latency_ms.p99"] = server_lat["p99"]
    out["service.net_ms"] = median(round_trip) - server_lat["p50"]
    # Server time the layer timings do not cover: the replayed
    # per-request work (parse, validate, cache, run, encode) and the
    # scheduler wait (none on a cache hit) against the server's latency.
    all_waits = [0.0 if r["stats"].get("cached") else r["stats"]["wait_ms"]
                 for r in live if r["ok"]]
    out["service.unattributed_ms"] = server_lat["p50"] - (
        median(tm["request"]) + median(all_waits or [0.0]))
    out["experiments.cache.hits"] = counts["hits"]
    out["experiments.cache.misses"] = counts["misses"]
    out["experiments.cache.stores"] = counts["stores"]
    out["experiments.cache.hit_ratio"] = counts["hits"] / len(items)
    out["experiments.cache.read_ms"] = median(tm["cache.read"])
    out["experiments.cache.write_ms"] = median(tm["cache.write"])
    attach_by_containment(ctx.tracer.spans)
    replay_spans = [s for s in ctx.tracer.spans
                    if s["layer"] != "service.client"]
    for layer, seconds in sorted(self_times(replay_spans).items()):
        out[f"self_s.{layer}"] = seconds
    out["trace.overhead_s"] = walls[1] - walls[0]
    detail["server_latency_window"] = server_lat["window"]
    return Outcome(out, attempted, failed, detail)
