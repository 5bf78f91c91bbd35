"""The repo benchmark: one command per workload, every metric by name
and unit, outputs checked.

    python3 perfbench/run.py --workload forward-wide --seed 1 \\
        --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``forward-wide`` — one shared HMM over a wide batch, in binary64,
  log-space, posit(64,9) and posit(64,9) on the compiled tier;
* ``paper-apps`` — the paper's ViCAR forward (Fig. 10) and LoFreq
  p-values (Fig. 9), scored against the 256-bit oracle;
* ``serve-mixed`` — an open loop of mixed requests against a
  ``python -m repro.service serve`` subprocess.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a
separate run that prints the per-layer metrics, from spans the
benchmark records around each call into a layer plus the counters and
spans the program exports.  Everything the run writes (results, spans,
server logs and cache) goes under ``perfbench/runs/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check exits 1.
"""

import argparse
import fnmatch
import json
import math
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass

#: Start of the clock for ``setup_s``: the program's imports count.
_STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("forward-wide", "paper-apps", "serve-mixed")

#: Per-layer metrics of layers (or formats) a workload does not
#: exercise.  Every run prints every declared metric, so a traced run
#: prints these as 0: no time, no calls, no elements in that layer.
NOT_EXERCISED = {
    "forward-wide": ("bigfloat.*", "core.*", "apps.pbd_s.*", "service.*",
                     "experiments.*", "self_s.bigfloat", "self_s.core",
                     "self_s.service.*", "self_s.experiments.*"),
    "paper-apps": ("*.posit_compiled", "service.*", "experiments.*",
                   "self_s.service.*", "self_s.experiments.*"),
    "serve-mixed": ("bigfloat.*", "core.*", "apps.*", "*.posit_compiled",
                    "engine.ops_computed.*", "engine.bytes_computed.*",
                    "engine.ns_per_op.*", "self_s.bigfloat",
                    "self_s.core"),
}


@dataclass
class Context:
    """What a workload needs to know about its run."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    tracer: object  # records the traced calls (common.Tracer)
    import_s: float
    run_dir: str
    root: str


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    parser.add_argument("--run-dir", default=None,
                        help="where the run writes (default: "
                             "perfbench/runs/<workload>-s<seed>-t<trace>)")
    return parser.parse_args(argv)


def _declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _terminate(signum, frame):
    # Leave through the normal exit path, so the server subprocess is
    # stopped by the ``with`` block that owns it.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.dont_write_bytecode = True  # a run leaves the checkout unchanged
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import batch
        import common
        import serve
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    declared = _declared(ROOT)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    run_dir = args.run_dir or os.path.join(
        HERE, "runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    signal.signal(signal.SIGTERM, _terminate)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), tiny=args.tiny,
                  tracer=common.Tracer(), import_s=import_s,
                  run_dir=run_dir, root=ROOT)
    run = {"forward-wide": batch.forward_wide,
           "paper-apps": batch.paper_apps,
           "serve-mixed": serve.serve_mixed}[args.workload]
    outcome = run(ctx)
    if args.trace:
        ctx.tracer.write(os.path.join(run_dir, "spans.jsonl"))

    values = dict(outcome.metrics)
    if args.trace:
        unused = [name for name in wanted if name not in values and any(
            fnmatch.fnmatchcase(name, pattern)
            for pattern in NOT_EXERCISED[args.workload])]
        values.update((name, 0.0) for name in unused)
        outcome.detail["not_exercised"] = unused
    problems = [f"{name} is not declared in BENCHMARK.json"
                for name in values if name not in wanted]
    problems += [f"{name} was not measured"
                 for name in wanted if name not in values]
    problems += [f"{name} = {value} is not finite"
                 for name, value in values.items()
                 if not math.isfinite(value)]
    if outcome.failed:
        problems.append(f"{outcome.failed} of {outcome.attempted} "
                        f"outputs were wrong or failed")
    metrics = {name: {"value": float(value), "unit": wanted[name]}
               for name, value in sorted(values.items())
               if name in wanted and math.isfinite(value)}
    result = {"correct": not problems, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds,
              "environment": common.environment(ROOT, args.seed),
              "detail": outcome.detail, "problems": problems,
              "result": result}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in
                      ("environment", "detail", "problems")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
