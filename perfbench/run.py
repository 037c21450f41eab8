#!/usr/bin/env python3
"""mflangevin benchmark: one closed-loop client running a workload's task
list pass after pass for a fixed time, every output checked by an oracle.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it is a run record (environment, load, raw time to
solution, probe times, exact counts, output digests, failures); the record
and, for traced runs, the spans are also written to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.15
# wall_ref_s is the time to solution on a host where the probe takes this long
REFERENCE_PROBE_S = 0.005
SETUP_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload's inputs, then exit (set-up timing)")
    return ap.parse_args(argv)


def cap_threads(nproc: int) -> str | None:
    """Cap BLAS threads at nproc before numpy loads; refuse a setting above it."""
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        if raw is None:
            os.environ[var] = str(nproc)
        elif not raw.isdigit() or not 1 <= int(raw) <= nproc:
            return f"{var}={raw} asks for more threads than nproc={nproc} (or is not a count)"
    return None


def time_setup_child(args) -> float:
    """Wall time of a fresh interpreter that imports the package and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def layer_metrics(harness, setup_ctx, passes) -> dict:
    """Per-layer values: set-up spans plus the median over traced passes."""
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes[1:] if p.tracer is None]
    totals = [p.tracer.totals() for p in traced]
    setup_totals = setup_ctx.tracer.totals()
    values = {}
    for name in set(setup_totals).union(*totals):
        per_pass = harness.median([t.get(name, 0.0) for t in totals])
        values[name + ".s"] = setup_totals.get(name, 0.0) + per_pass
    values.update(setup_ctx.counts)
    for key, n in passes[0].counts.items():
        values[key] = values.get(key, 0) + n

    steps = passes[0].particle_steps
    ns = {}
    for tag, n in steps.items():
        ns[tag] = harness.median([t[f"dynamics.simulate[{tag}]"] for t in totals]) * 1e9 / n
        values[f"dynamics.ns_per_particle_step.{tag}"] = ns[tag]
    if steps:
        sim_s = harness.median([sum(v for k, v in t.items() if k.startswith("dynamics.simulate["))
                                for t in totals])
        values["dynamics.simulate.ns_per_particle_step"] = sim_s * 1e9 / sum(steps.values())
        values["dynamics.simulate.cpu_s"] = harness.median(
            [sum(p.tracer.cpu_totals().values()) for p in traced])
    if "quartic_n100_r8" in ns:
        values["dynamics.xy_over_quartic"] = ns["xy_n100_r8"] / ns["quartic_n100_r8"]
        values["dynamics.tabulated_over_quartic"] = ns["tabulated_n100_r8"] / ns["quartic_n100_r8"]

    values["trace.overhead_frac"] = (harness.task_list_seconds(traced)
                                     / harness.task_list_seconds(untraced) - 1.0)
    values["trace.spans"] = len(traced[0].tracer.spans)
    return values


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mflangevin" / "__init__.py").is_file():
        return fail(f"no package source under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    nproc = len(os.sched_getaffinity(0))
    refusal = cap_threads(nproc)
    if refusal:
        return fail(refusal)

    load_before = os.getloadavg()
    setup_times = []
    if not args.setup_only and not args.trace:
        setup_times = [time_setup_child(args) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    setup_fn, pass_fn = workloads.WORKLOADS[args.workload]
    setup_ctx = harness.Pass("setup", workdir,
                             harness.Tracer("setup") if args.trace else None)
    inputs = setup_fn(args.seed, setup_ctx)
    if args.setup_only:
        return 0

    env = harness.environment(nproc)
    too_many = [b for b in env["blas"] if b.get("threads", 0) > nproc]
    if too_many:
        return fail(f"BLAS runs {too_many[0]['threads']} threads on {nproc} cpus")

    passes, walls = [], []
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        while True:
            # with tracing, pass 0 warms up and later passes alternate traced/untraced
            traced = bool(args.trace) and len(passes) % 2 == 1
            label = f"{args.workload}/seed{args.seed}/pass{len(passes)}"
            ctx = harness.Pass(label, workdir, harness.Tracer(label) if traced else None,
                               probe_every_s=PROBE_EVERY_S)
            t0 = time.perf_counter()
            ctx.maybe_probe(force=True)
            pass_fn(inputs, ctx)
            ctx.maybe_probe(force=True)
            walls.append(time.perf_counter() - t0)
            passes.append(ctx)
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (4 if args.trace else 1)
            if enough and elapsed + harness.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    first = passes[0]
    for p in passes[1:]:
        attempted += 1
        if p.counts != first.counts or p.digests != first.digests:
            failures.append(f"{p.label}: determinism: counts or digests differ from pass 0")

    wall_s = harness.task_list_seconds(passes)
    probe = harness.probe_summary(passes)
    if args.trace:
        measured = layer_metrics(harness, setup_ctx, passes)
        wanted = spec["per_layer"]
    else:
        measured = {
            "wall_ref_s": wall_s * REFERENCE_PROBE_S / probe["median_s"],
            "setup_s": harness.median(setup_times),
            "peak_rss_mb": harness.peak_rss_mb(),
            "passed_frac": 1.0 - len(failures) / attempted,
        }
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unreported = sorted(k for k in measured if k not in names)
    # a layer this workload never calls reads 0
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "passes": len(passes), "pass_walls_s": walls, "setup_runs_s": setup_times,
        "wall_s": wall_s, "probe": probe,
        "op_seconds": {name: harness.median([p.op_walls[name] for p in passes])
                       for name in first.op_walls},
        "counts": dict(sorted(first.counts.items())),
        "setup_counts": dict(sorted(setup_ctx.counts.items())),
        "digests": dict(sorted(first.digests.items())),
        "failures": failures,
        "unreported": unreported,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = setup_ctx.tracer.spans + [s for p in passes if p.tracer for s in p.tracer.spans]
        fields = ("id", "parent", "run", "name", "start", "end", "cpu_s")
        (out_dir / f"{stem}.spans.json").write_text(
            json.dumps([dict(zip(fields, s)) for s in spans]) + "\n")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
