"""charge-lab benchmark: one workload, timed end to end or traced per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics: `wall_s` (median seconds of
one checked pass over the inputs), `setup_s` (median seconds a fresh
interpreter takes to import charge_lab and build the inputs) and
`peak_rss_mb`. Both times are rescaled to a reference host speed by
bench/speed.py; the raw times go to the results file. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
of bench/spans.py. The last line of stdout
is one JSON object; a fuller results file, with the run's metadata, goes
to bench/results/.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SCHEMA = "charge-lab/bench/1"
SETUP_RUNS = 9
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> tuple:
    """SETUP_RUNS fresh-interpreter set-ups, after one that compiles the
    bytecode caches: their raw and their rescaled seconds."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    raw, rescaled = [], []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        seconds, at_ref = map(float, out.stdout.strip().splitlines()[-1].split())
        raw.append(seconds)
        rescaled.append(at_ref)
    return raw[1:], rescaled[1:]


def timed_pass(ops) -> tuple:
    gc.collect()  # every pass starts from the same collected heap
    t0 = time.perf_counter()
    attempted, failed = workloads.run_pass(ops)
    return time.perf_counter() - t0, attempted, failed


def timed_run(ops, seconds: int) -> dict:
    """Checked passes under the speed sampler until the next one would end
    after `seconds`, and at least MIN_PASSES of them."""
    walls, ref_walls, calibration, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same collected heap
        (a, f), wall, ref_wall, samples = speed.measure(lambda: workloads.run_pass(ops))
        walls.append(wall)
        ref_walls.append(ref_wall)
        calibration.extend(samples)
        attempted += a
        failed += f
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    return {"walls": walls, "ref_walls": ref_walls, "calibration_samples": calibration,
            "attempted": attempted, "failed": failed}


def traced_run(ops, seconds: int) -> dict:
    """Pairs of an untraced and a traced pass until the next pair would end
    after `seconds`, and at least one pair. Counts must repeat exactly
    across the traced passes."""
    tracer = spans.Tracer()
    walls, traced_walls, tables, tallies = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall, a, f = timed_pass(ops)
        walls.append(wall)
        tracer.reset()
        tracer.install()
        try:
            twall, ta, tf = timed_pass(ops)
        finally:
            tracer.uninstall()
        traced_walls.append(twall)
        table = tracer.table()
        tables.append(table)
        tallies.append(({fn: row["calls"] for fn, row in table.items()}, dict(tracer.counts)))
        attempted += a + ta
        failed += f + tf
        elapsed = time.perf_counter() - start
        if elapsed + wall + twall > seconds:
            break
    layers = [spans.layer_metrics(t, c) for t, (_, c) in zip(tables, tallies)]
    metrics = {}
    for name, first in layers[0].items():
        values = [layer[name]["value"] for layer in layers]
        value = values[0] if first["unit"] == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "counts_repeat": all(t == tallies[0] for t in tallies),
        "metrics": metrics,
        "functions": tables[-1],
    }


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "charge_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    ops = workloads.build(args.workload, args.seed)
    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "inputs": [{"label": op.label, "chain_lengths": op.chain_lengths} for op in ops],
    }
    if args.trace:
        run = traced_run(ops, args.seconds)
        correct = run["failed"] == 0 and run["counts_repeat"]
        metrics = run.pop("metrics")
    else:
        setup_raw, setup_ref = setup_seconds(args.workload, args.seed)
        run = timed_run(ops, args.seconds)
        run.update(setup_samples=setup_raw, ref_setup_samples=setup_ref)
        correct = run["failed"] == 0
        metrics = {
            "wall_s": {"value": statistics.median(run["ref_walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    fail_ratio = run["failed"] / run["attempted"]
    record.update(run, fail_ratio=fail_ratio, correct=correct, metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload}: {len(run['walls'])} untraced passes, "
          f"fail_ratio {fail_ratio:g} ({run['failed']}/{run['attempted']}), results in "
          f"{out_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
