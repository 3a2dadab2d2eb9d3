#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of tsdyn.

Run from the root of a checkout:

    python3 bench/run.py --workload fine-mesh --seed 1 --seconds 30 --trace 0

It imports tsdyn from ``src/`` of the checkout and drives the public API in
a closed loop from this one process: one client, the next request only after
the previous one returns.  BLAS and OpenMP threads are capped at the number
of usable cores.  A run repeats passes over the workload's request list (see
``workloads.py``) for ``--seconds``, two passes at a time because each pair of
passes balances the drawn exponents; each request's result is checked by the
independent oracle in ``oracle.py`` outside the timed region.

Times are medians over passes, taken per slot: one request, or both twins of
a pair.  ``pass_s`` is the sum of the slot medians;
``picard_s`` and the other per-operation times divide the slot medians of that
operation by its requests per pass.  Only the metrics every workload has, and
that stay steady from seed to seed, are in ``BENCHMARK.json``; the others are
printed for the workloads that run the operation.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` spends half the time on untraced passes, then repeats the same
passes with spans around each module's public functions (``tracing.py``) and
reports the per-layer metrics per pass, plus ``trace.overhead_s``: traced
minus untraced ``pass_s``.  Spans are written to ``.bench_work/traces/``.

Before the last line, standard output lists every metric with its unit and
sample count (with the per-operation times, the failure ratio and the status
disagreements), the run's provenance and each failed request.  The last line
is the JSON result.  The exit code is 0 when the run completed, whatever the
oracle found, and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:                 # must precede the numpy import
    os.environ[_var] = str(NPROC)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5

#: Per-operation time metrics, by request kind.
KIND_METRICS = {
    "picard": "picard_s", "monotone": "monotone_s", "newton": "newton_s",
    "nest": "nest_s", "criteria": "criteria_s", "cli": "cli_solve_s",
}


def import_tsdyn():
    """Import tsdyn from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tsdyn

    if not Path(tsdyn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tsdyn imported from {tsdyn.__file__}, not from {SRC}")
    return tsdyn


class Pass:
    """Timings and oracle outcomes of one pass over the request list."""

    def __init__(self):
        self.slot_seconds: dict[str, float] = defaultdict(float)
        self.slot_kind: dict[str, tuple[str, int]] = {}
        self.outcomes = []                           # (request, outcome)


def run_pass(workload, index: int, tracer=None, ids=None) -> Pass:
    from oracle import Outcome

    record = Pass()
    for request in workload.requests(index):
        if tracer is not None:
            tracer.request = next(ids)
        start = time.perf_counter()
        try:
            result = request.run()
        except Exception as exc:   # a failed request is counted, the run goes on
            elapsed = time.perf_counter() - start
            outcome = Outcome(False, detail=f"raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            try:
                outcome = request.check(result)
            except Exception as exc:
                outcome = Outcome(False, detail=f"check raised {type(exc).__name__}: {exc}")
            del result
        if tracer is not None:
            tracer.request = None
        gc.collect()               # free the request's scale and cached kernel now
        kind, count = record.slot_kind.get(request.slot, (request.kind, 0))
        record.slot_kind[request.slot] = (kind, count + 1)
        record.slot_seconds[request.slot] += elapsed
        record.outcomes.append((request, outcome))
    return record


def measure(workload, seconds: float, step: int) -> list[Pass]:
    """Passes, ``step`` at a time, until the next step would end after ``seconds``."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for _ in range(step):
            passes.append(run_pass(workload, len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + step / len(passes)) > seconds:
            return passes


def setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first request.

    Each probe imports numpy and tsdyn and builds the first request list,
    then prints the time; the probes run one after another.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - spawned)
    return samples


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timings(passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """Pass and per-operation times: ``name -> (seconds, samples)``."""
    slot_median = {slot: statistics.median([p.slot_seconds[slot] for p in passes])
                   for slot in passes[0].slot_seconds}
    out = {"pass_s": (sum(slot_median.values()), len(passes))}
    per_kind = defaultdict(lambda: [0.0, 0])
    for slot, (kind, count) in passes[0].slot_kind.items():
        per_kind[kind][0] += slot_median[slot]
        per_kind[kind][1] += count
    for kind, (seconds, count) in per_kind.items():
        out[KIND_METRICS[kind]] = (seconds / count, count * len(passes))
    return out


def tally(passes: list[Pass]) -> dict:
    outcomes = [o for p in passes for _, o in p.outcomes]
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "false_claims": sum(o.false_claim for o in outcomes),
        "status_disagrees": sum(o.disagrees for o in outcomes),
        "converged_claims": sum(o.claimed_ok is True for o in outcomes),
        "verdicts": sum(o.verdicts for o in outcomes),
        "verdicts_ok": sum(o.verdicts_ok for o in outcomes),
        "reproducible": all(o.reproducible for o in outcomes),
        "cli_calls": sum(o.bytes_out > 0 for o in outcomes),
        "bytes_out": sum(o.bytes_out for o in outcomes),
    }


def per_layer(tracer, traced: list[Pass], plain: list[Pass]) -> dict[str, float]:
    """Per-pass layer metrics of the traced passes."""
    n = len(traced)
    totals = tracer.summary()
    counts = tally(traced)
    out = {key: value / n for key, value in totals.items()}
    iterations = totals["solver.iterations"]
    solves = totals["solver.solve.calls"]
    out["solver.rhs_per_iter"] = totals["solver.rhs_in_solve"] / iterations if iterations else 0.0
    out["solver.converged_ratio"] = totals["solver.converged"] / solves if solves else 0.0
    out["solver.status_disagrees"] = counts["status_disagrees"] / n
    out["criteria.verdict_ok_ratio"] = (counts["verdicts_ok"] / counts["verdicts"]
                                        if counts["verdicts"] else 1.0)
    out["cli.bytes_out"] = counts["bytes_out"] / counts["cli_calls"] if counts["cli_calls"] else 0.0
    out["trace.overhead_s"] = timings(traced)["pass_s"][0] - timings(plain)["pass_s"][0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_tsdyn()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WHY:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WHY)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.Workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            workload.requests(0)
            print(repr(time.time()), flush=True)
            return 0
        return run(args, spec, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workload) -> int:
    import numpy as np
    import tsdyn

    import oracle
    import tracing

    setup = setup_seconds(args)
    self_test = oracle.self_test()
    tracer = None
    if args.trace:
        plain = measure(workload, args.seconds / 2, step=1)
        tracer = tracing.Tracer()
        tracer.install()
        ids = itertools.count()
        try:
            traced = [run_pass(workload, i, tracer, ids) for i in range(len(plain))]
        finally:
            tracer.uninstall()
        passes = plain + traced
        values = per_layer(tracer, traced, plain)
        wanted = spec["per_layer"]
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.csv")
    else:
        plain = passes = measure(workload, args.seconds, step=2)
        wanted = spec["end_to_end"]
    e2e = {"setup_s": (statistics.median(setup), "s", len(setup)),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)}
    e2e.update({name: (seconds, "s", n) for name, (seconds, n) in timings(plain).items()})
    if not args.trace:
        values = {name: value for name, (value, _, _) in e2e.items()}

    counts = tally(passes)
    correct = (not self_test and counts["false_claims"] == 0 and counts["reproducible"]
               and counts["verdicts_ok"] == counts["verdicts"])
    print(f"workload {args.workload}: {workload.why}")
    print(f"seed {args.seed}, {len(passes)} passes, {counts['attempted']} requests, "
          f"trace {args.trace}")
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:<26} {value:.6g} {unit} (n={samples})")
    print(f"  {'fail_ratio':<26} {counts['failed'] / counts['attempted']:.6g} "
          f"({counts['failed']} of {counts['attempted']} requests)")
    print(f"  {'solver.status_disagrees':<26} {counts['status_disagrees']} "
          f"(of {counts['attempted']} requests, {counts['converged_claims']} claiming success)")
    if tracer is not None:
        for name in sorted(values):
            print(f"  {name:<34} {values[name]:.6g} (per traced pass)")
    for index, record in enumerate(passes):
        for request, outcome in record.outcomes:
            if not outcome.ok or outcome.disagrees:
                verdict = "FAILED" if not outcome.ok else "status disagrees"
                print(f"  pass {index} {request.label}: {verdict}: {outcome.detail}")
    for failure in self_test:
        print(f"  oracle self-test FAILED: {failure}")
    print("provenance " + json.dumps({
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "python": platform.python_version(),
        "numpy": np.__version__, "tsdyn": tsdyn.__version__, "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS}, "commit": commit(),
        "absent_trace_targets": tracer.absent if tracer is not None else None,
    }, sort_keys=True))

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"metric {name!r} is not measured on workload {args.workload!r}")
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
