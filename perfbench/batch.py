"""The two batch workloads: ``forward-wide`` and ``paper-apps``.

Both drive the program through its public functions only
(:mod:`repro.apps`, :mod:`repro.nd`, :mod:`repro.core.accuracy`) and
time whole passes: every format once per pass, passes repeated until
the run's time is used, medians reported.  The traced run adds the
benchmark's own spans around each call into a layer, and reads the
counters and spans the program already exports through
:func:`repro.telemetry.collect`.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from common import (NullTracer, attach_by_containment, median,
                    peak_rss_mb_self, self_times)

from repro import apps, nd, telemetry
from repro.apps.vicar import reference_likelihoods
from repro.core.accuracy import score_value
from repro.data.dirichlet import sample_hcg_like_hmm, sample_hmm
from repro.data.genome import FIG9_BINS, stratified_columns
from repro.engine.plan import ExecPlan

#: ``(metric suffix, registry name, format kwargs, plan)``.  log-space
#: runs in sequential sum mode, the mode whose batch and scalar paths
#: are bit-identical.
FORMATS = (
    ("binary64", "binary64", {}, None),
    ("log", "log", {"sum_mode": "sequential"}, None),
    ("posit", "posit(64,9)", {}, None),
    ("posit_compiled", "posit(64,9)", {}, ExecPlan(compiled=True)),
)

#: The formats every workload runs, serve-mixed included; each has an
#: end-to-end latency metric.
SERVED_FORMATS = ("binary64", "log", "posit")

NULL_TRACER = NullTracer()

#: Calls per pass for the formats whose call is short.  Each pass
#: times a format's calls together, over a tenth of a second or more:
#: on the 2-CPU box the bounds were set on, single calls of a few ms
#: fall into a fast and a ~60% slower mode, and their median
#: jumps between the modes from run to run.
CALLS_PER_PASS = {"binary64": 16, "log": 3}

#: Set-up (input generation and warm-up) is repeated this many times
#: and the median reported, so set-up time is steady enough to gate.
SETUP_REPEATS = 3

#: Two 64-bit operands read and one written per arithmetic operation;
#: every format here stores 64-bit codes.  Bytes are computed from
#: shapes, not measured.
BYTES_PER_OP = 24


def _calls(ctx, suffix: str) -> int:
    """Calls per pass; one in a traced run, whose untraced passes are
    the overhead baseline for passes traced call by call."""
    return 1 if ctx.trace else CALLS_PER_PASS.get(suffix, 1)


def _backends(names) -> Dict[str, object]:
    out = {}
    for suffix, name, kwargs, _plan in FORMATS:
        if suffix in names:
            with nd.use_format(name, **kwargs) as backend:
                out[suffix] = backend
    return out


def _forward_ops(h: int, t: int) -> int:
    """Arithmetic operations of one forward recurrence: ``H`` initial
    products, ``2H^2`` per later step (``H^2`` products and
    ``H(H-1)`` sums in the contraction, ``H`` emission products), and
    ``H - 1`` sums in the final total."""
    return h + (t - 1) * 2 * h * h + (h - 1)


def _pbd_ops(depth: int, k: int) -> int:
    """Operations of one Poisson-binomial column as the batched
    recurrence runs it: ``3k`` per trial on the ``(k,)`` PMF row, plus
    a multiply-add into the tail for each of the last
    ``depth - k + 1`` trials."""
    return depth * 3 * k + 2 * (depth - k + 1)


def _layer_of(program_span: str) -> str:
    """The program's ``app.*`` spans belong to ``apps``; the rest
    (``posit.*``, ``kernel.*``, ...) are the engine's."""
    return "apps" if program_span.startswith("app.") else "engine"


class Probe:
    """One call into the program under :func:`telemetry.collect`, with
    the program's own spans imported into the benchmark's tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.collector = None
        self._sink = None

    def __enter__(self):
        self._sink = io.StringIO()
        # The collector's span times count from its creation.
        self._epoch = time.perf_counter()
        self.collector = telemetry.Collector(trace=self._sink)
        self._scope = telemetry.collect(collector=self.collector)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc):
        self._scope.__exit__(*exc)
        self.top_level = 0
        for line in self._sink.getvalue().splitlines():
            rec = json.loads(line)
            if rec.get("type") != "span":
                continue
            start = self._epoch + rec["start_s"]
            self.tracer.add(rec["name"], _layer_of(rec["name"]), start,
                            start + rec["duration_s"])
            self.top_level += rec["depth"] == 0
        return False

    def plane_elements(self) -> Dict[str, int]:
        """Element counts from the ``nd.<op>.<fmt>.<plane>`` counters."""
        out = {"batch": 0, "scalar": 0}
        for name, n in self.collector.counters.items():
            plane = name.rsplit(".", 1)[-1]
            if name.startswith("nd.") and plane in out:
                out[plane] += n
        return out

    def span_total(self, prefix: str) -> float:
        return sum(agg[1] for name, agg in self.collector.spans.items()
                   if name.startswith(prefix))

    def span_count(self, prefix: str) -> int:
        return sum(agg[0] for name, agg in self.collector.spans.items()
                   if name.startswith(prefix))


def _format_layer_metrics(out: dict, suffix: str, probes: List[Probe],
                          results: int, seconds: float, ops: int) -> None:
    """The ``apps``/``nd``/``engine`` per-format metrics of one pass."""
    calls = sum(probe.top_level for probe in probes)
    out[f"apps.calls.{suffix}"] = calls
    out[f"apps.results_per_call.{suffix}"] = results / max(calls, 1)
    plane_metrics(out, suffix, probes)
    out[f"engine.ops_computed.{suffix}"] = ops
    out[f"engine.bytes_computed.{suffix}"] = ops * BYTES_PER_OP
    out[f"engine.ns_per_op.{suffix}"] = seconds / ops * 1e9


def plane_metrics(out: dict, suffix: str, probes: List[Probe]) -> None:
    """The ``nd`` per-format metrics: elements on each plane."""
    elements = {"batch": 0, "scalar": 0}
    for probe in probes:
        for plane, n in probe.plane_elements().items():
            elements[plane] += n
    total = elements["batch"] + elements["scalar"]
    out[f"nd.batch_elements.{suffix}"] = elements["batch"]
    out[f"nd.scalar_elements.{suffix}"] = elements["scalar"]
    # Share of nd elements kept off the scalar plane; 1 when nd saw none
    # (the compiled tier's fused kernels bypass nd entirely).
    out[f"nd.batch_share.{suffix}"] = \
        1.0 - elements["scalar"] / total if total else 1.0


def posit_stage_metrics(out: dict, probes: List[Probe]) -> None:
    out["engine.posit.decode_s"] = sum(p.span_total("posit.decode")
                                       for p in probes)
    out["engine.posit.core_s"] = sum(p.span_total("posit.core.")
                                     for p in probes)
    out["engine.posit.encode_s"] = sum(p.span_total("posit.encode")
                                       for p in probes)
    out["engine.posit.decode_calls"] = sum(p.span_count("posit.decode")
                                           for p in probes)
    out["engine.posit.encode_calls"] = sum(p.span_count("posit.encode")
                                           for p in probes)


def _repeat_check(counts: dict):
    """A check that every call of one key reproduces that key's first
    call exactly, counting attempts and mismatches into ``counts``."""
    first: Dict[str, list] = {}

    def check(key: str, values: list) -> None:
        counts["attempted"] += len(values)
        want = first.setdefault(key, values)
        counts["failed"] += sum(x != y for x, y in zip(values, want))
    return check


def _median_dicts(dicts: List[dict]) -> dict:
    return {name: median(d[name] for d in dicts) for name in dicts[0]}


def _finish_trace(ctx, untraced_walls, traced_walls, layer_passes) -> dict:
    per_layer = _median_dicts(layer_passes)
    attach_by_containment(ctx.tracer.spans)
    passes = len(traced_walls)
    for layer, seconds in sorted(self_times(ctx.tracer.spans).items()):
        per_layer[f"self_s.{layer}"] = seconds / passes
    per_layer["trace.overhead_s"] = median(traced_walls) - \
        median(untraced_walls)
    return per_layer


def _end_to_end(ctx, setups: List[float], times: Dict[str, List[float]],
                results: int, detail: dict) -> dict:
    """The end-to-end metrics of a batch workload from the median time
    of one call per format: the call's latency in each format every
    workload serves, and the throughput of one call in every format
    run here (results per second)."""
    call_s = {suffix: median(t) for suffix, t in times.items()}
    metrics = {"setup_s": ctx.import_s + median(setups),
               "peak_rss_mb": peak_rss_mb_self(),
               "throughput_per_s": results * len(call_s) /
               sum(call_s.values())}
    for suffix in SERVED_FORMATS:
        metrics[f"latency_p50_ms.{suffix}"] = call_s[suffix] * 1e3
    detail["items_per_s"] = {suffix: results / seconds
                             for suffix, seconds in call_s.items()}
    return metrics


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: dict        # metric name -> value; units in BENCHMARK.json
    attempted: int
    failed: int
    detail: dict


def _timed_passes(ctx, run_pass):
    """Run passes until the run's time is used; returns the untraced
    and the traced pass times.  A traced run spends its first half
    untraced (the overhead baseline), then traces."""
    start = time.perf_counter()
    untraced: List[float] = []
    traced: List[float] = []
    while True:
        tracing = bool(ctx.trace and untraced and
                       time.perf_counter() - start >= ctx.seconds / 2)
        t0 = time.perf_counter()
        run_pass(tracing)
        (traced if tracing else untraced).append(time.perf_counter() - t0)
        if time.perf_counter() - start >= ctx.seconds and \
                (traced or not ctx.trace):
            return untraced, traced


# ----------------------------------------------------------------------
# forward-wide
# ----------------------------------------------------------------------
def forward_wide(ctx) -> Outcome:
    h, m, t, b = (4, 4, 6, 8) if ctx.tiny else (16, 8, 32, 256)

    def make_inputs():
        hmm = sample_hmm(h, m, t, seed=ctx.seed)
        rng = np.random.default_rng([ctx.seed, 1])
        obs = rng.integers(0, m, size=(b, t))
        backends = _backends([f[0] for f in FORMATS])
        for suffix, _name, _kw, plan in FORMATS:
            apps.forward_batch(hmm, backends[suffix],
                               observations=obs[:4], plan=plan)
        return hmm, obs, backends

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hmm, obs, backends = make_inputs()
        setups.append(time.perf_counter() - start)

    ops = b * _forward_ops(h, t)
    times: Dict[str, List[float]] = {f[0]: [] for f in FORMATS}
    layer_passes: List[dict] = []
    counts = {"attempted": 0, "failed": 0}
    check = _repeat_check(counts)

    def run_pass(tracing: bool) -> None:
        tracer = ctx.tracer if tracing else NULL_TRACER
        layer: dict = {}
        probes: Dict[str, list] = {}
        values = {}
        for suffix, _name, _kw, plan in FORMATS:
            backend = backends[suffix]
            probes[suffix] = []
            calls, outs = _calls(ctx, suffix), []
            start = time.perf_counter()
            for _ in range(calls):
                with tracer.span(f"apps.forward_batch.{suffix}", "apps"), \
                        maybe_probe(tracing, tracer, probes[suffix]):
                    outs.append(apps.forward_batch(
                        hmm, backend, observations=obs, plan=plan))
            elapsed = (time.perf_counter() - start) / calls
            times[suffix].append(elapsed)
            for out in outs:
                check(suffix, out)
            values[suffix] = outs[-1]
            if tracing:
                c0 = time.perf_counter()
                with tracer.span(f"apps.model_arrays.{suffix}", "apps"):
                    apps.model_arrays(hmm, backend, plan=plan,
                                      certified=False)
                layer[f"apps.convert_s.{suffix}"] = \
                    time.perf_counter() - c0
                layer[f"apps.forward_s.{suffix}"] = elapsed
                _format_layer_metrics(layer, suffix, probes[suffix], b,
                                      elapsed, ops)
        if tracing:
            posit_stage_metrics(layer, probes["posit"] +
                                probes["posit_compiled"])
            layer_passes.append(layer)
        # The compiled tier is bit-identical to the default plan.
        counts["failed"] += sum(
            x != y for x, y in zip(values["posit_compiled"],
                                   values["posit"]))

    untraced, traced = _timed_passes(ctx, run_pass)
    detail = {"shape": {"H": h, "M": m, "T": t, "B": b},
              "passes": len(untraced) + len(traced),
              "setup_repeats_s": setups}
    if ctx.trace:
        return Outcome(_finish_trace(ctx, untraced, traced, layer_passes),
                       counts["attempted"], counts["failed"], detail)
    detail["wall_s"] = median(untraced)
    metrics = _end_to_end(ctx, setups, times, b, detail)
    return Outcome(metrics, counts["attempted"], counts["failed"], detail)


# ----------------------------------------------------------------------
# paper-apps
# ----------------------------------------------------------------------
#: Figure 9 bins from 2^-16000 up.  Below that posit(64,9) saturates;
#: the ViCAR models already cover saturation, and keeping the deeper
#: bins out keeps the median error inside one accuracy regime, so it
#: does not jump between regimes from seed to seed.
LOFREQ_BINS = FIG9_BINS[3:]

#: The paper's Fig. 10 regime: likelihoods near 2^-590000.
VICAR_BITS_PER_STEP = 1180.0


def paper_apps(ctx) -> Outcome:
    suffixes = SERVED_FORMATS
    if ctx.tiny:
        h, t, n_models, per_bin, bins = 4, 20, 1, 1, LOFREQ_BINS[-2:]
    else:
        h, t, n_models, per_bin, bins = 13, 500, 3, 3, LOFREQ_BINS

    def make_inputs():
        models = [sample_hcg_like_hmm(h, t, seed=ctx.seed * 1000 + i,
                                      bits_per_step=VICAR_BITS_PER_STEP)
                  for i in range(n_models)]
        columns = stratified_columns(per_bin, seed=ctx.seed, bins=bins)
        backends = _backends(suffixes)
        warm_model = sample_hcg_like_hmm(3, 8, seed=ctx.seed,
                                         bits_per_step=VICAR_BITS_PER_STEP)
        warm_cols = columns[-1:]
        reference_likelihoods([warm_model])
        apps.reference_pvalues(warm_cols)
        for backend in backends.values():
            apps.forward_models_batch([warm_model], backend)
            apps.column_pvalues(warm_cols, backend)
        return models, columns, backends

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        models, columns, backends = make_inputs()
        setups.append(time.perf_counter() - start)

    n_results = n_models + len(columns)
    ops = n_models * _forward_ops(h, t) + sum(
        _pbd_ops(c.depth, c.k) for c in columns)
    counts = {"attempted": 0, "failed": 0}
    check = _repeat_check(counts)
    times: Dict[str, List[float]] = {s: [] for s in suffixes}
    errors: Dict[str, List[float]] = {}
    layer_passes: List[dict] = []

    def run_pass(tracing: bool) -> None:
        tracer = ctx.tracer if tracing else NULL_TRACER
        layer: dict = {}
        values: Dict[str, list] = {}
        start = time.perf_counter()
        with tracer.span("bigfloat.reference_likelihoods", "bigfloat"):
            ref = reference_likelihoods(models)
        with tracer.span("bigfloat.reference_pvalues", "bigfloat"):
            ref += apps.reference_pvalues(columns)
        layer["bigfloat.oracle_s"] = time.perf_counter() - start
        layer["bigfloat.oracle_results"] = len(ref)
        score_s = 0.0
        check("oracle", ref)
        for suffix in suffixes:
            backend = backends[suffix]
            calls, outs = _calls(ctx, suffix), []
            t0 = time.perf_counter()
            for _ in range(calls):
                probes = []
                with tracer.span(f"apps.forward_models_batch.{suffix}",
                                 "apps"), maybe_probe(tracing, tracer,
                                                       probes):
                    likes = apps.forward_models_batch(models, backend)
                t1 = time.perf_counter()
                with tracer.span(f"apps.column_pvalues.{suffix}",
                                 "apps"), maybe_probe(tracing, tracer,
                                                       probes):
                    outs.append(likes + apps.column_pvalues(columns,
                                                            backend))
            t2 = time.perf_counter()
            times[suffix].append((t2 - t0) / calls)
            for out in outs:
                check(suffix, out)
            values[suffix] = outs[-1]
            with tracer.span(f"core.score_value.{suffix}", "core"):
                scored = [score_value(backend, v, r)
                          for v, r in zip(values[suffix], ref)]
            t3 = time.perf_counter()
            score_s += t3 - t2
            errors[suffix] = [s.log10_error for s in scored if s.ok]
            if tracing:
                with tracer.span(f"apps.model_arrays.{suffix}", "apps"):
                    for hmm in models:
                        apps.model_arrays(hmm, backend)
                layer[f"apps.convert_s.{suffix}"] = \
                    time.perf_counter() - t3
                if suffix != "binary64":
                    layer[f"core.digits_p50.{suffix}"] = \
                        -median(errors[suffix])
                layer[f"apps.forward_s.{suffix}"] = t1 - t0
                layer[f"apps.pbd_s.{suffix}"] = t2 - t1
                _format_layer_metrics(layer, suffix, probes, n_results,
                                      t2 - t0, ops)
                if suffix == "posit":
                    posit_stage_metrics(layer, probes)
        layer["core.score_s"] = score_s
        if tracing:
            layer_passes.append(layer)

    untraced, traced = _timed_passes(ctx, run_pass)
    detail = {"shape": {"vicar_models": n_models, "H": h, "T": t,
                        "lofreq_columns": len(columns),
                        "lofreq_bins": [list(b) for b in bins]},
              "passes": len(untraced) + len(traced),
              "scored": {s: len(errors[s]) for s in suffixes},
              "setup_repeats_s": setups}
    if ctx.trace:
        return Outcome(_finish_trace(ctx, untraced, traced, layer_passes),
                       counts["attempted"], counts["failed"], detail)
    detail["wall_s"] = median(untraced)
    detail["log10_err_p50"] = {s: median(errors[s]) for s in suffixes}
    metrics = _end_to_end(ctx, setups, times, n_results, detail)
    return Outcome(metrics, counts["attempted"], counts["failed"], detail)


def maybe_probe(tracing: bool, tracer, probes: list):
    if not tracing:
        return contextlib.nullcontext()
    probe = Probe(tracer)
    probes.append(probe)
    return probe
