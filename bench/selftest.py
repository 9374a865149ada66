"""Self-test of the benchmark: its gate catches injected faults, its traced
counts repeat exactly, and its trace reproduces known facts of this code.

Usage, from the root of a checkout (a minute or two):

    python3 bench/selftest.py

Exits 1 and names each failed check if any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import spans
import workloads
from charge_lab import verify
from charge_lab.charge import charge as original_charge
from charge_lab.poly import ram_yip_t0
from charge_lab.qbg import EdgeKind, edge_by_criterion
from charge_lab.weyl import LieType

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
original_check_bijection = verify.check_bijection

failures = []


def expect(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def failed_ops(workload: str) -> int:
    return workloads.run_pass(workloads.build(workload, seed=0))[1]


def broken_charge(f, trace=False):
    """Charge off by one on every filling of nonzero charge."""
    value = original_charge(f, trace)
    return value if trace or value == 0 else value + 1


def drop_quantum_edges(lt, w, r):
    kind = edge_by_criterion(lt, w, r)
    return None if kind is EdgeKind.QUANTUM else kind


def bijection_with_broken_edges(lt, weights, edge_test=None):
    return original_check_bijection(lt, weights, edge_test=drop_quantum_edges)


def check_gate():
    for workload in workloads.NAMES:
        expect(failed_ops(workload) == 0, f"gate: {workload} passes on unmodified code")

    undo = spans.rebind(original_charge, broken_charge)
    try:
        for workload in ("construct", "poly_check"):
            expect(failed_ops(workload) > 0, f"gate: {workload} catches a broken charge")
    finally:
        undo()

    undo = spans.rebind(original_check_bijection, bijection_with_broken_edges)
    try:
        expect(failed_ops("verify_sweep") > 0,
               "gate: verify_sweep catches a broken edge_test in check_bijection")
    finally:
        undo()


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_trace():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for workload in workloads.NAMES:
        first, second = traced(workload, 1), traced(workload, 2)
        expect(first["correct"] and second["correct"], f"trace: {workload} traced runs are correct")
        expect(list(first["metrics"]) == per_layer,
               f"trace: {workload} reports exactly the per_layer metrics of BENCHMARK.json")
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
        expect(counts == again, f"trace: {workload} counts repeat across seeds 1 and 2")
        if workload == "construct":
            m = {k: v["value"] for k, v in first["metrics"].items()}
            expect(m["weyl.length.s"] >= 0.5 * m["poly.ram_yip_t0.s"],
                   "trace: construct spends >= 50% of ram_yip_t0 in weyl.length")
            expect(m["poly.weyl_character.s"] == 0 and m["poly.is_invariant.s"] == 0,
                   "trace: construct makes no oracle calls")

    tracer = spans.Tracer()
    tracer.install()
    try:
        ram_yip_t0(LieType("C", 3), (3, 2, 1))
    finally:
        tracer.uninstall()
    table = tracer.table()
    expect(table["weyl.length"]["calls"] == 17928,
           "trace: C3 (3,2,1) ram_yip_t0 makes 17,928 weyl.length calls")
    expect(table["qbg.edge_by_criterion"]["calls"] == 3697,
           "trace: C3 (3,2,1) ram_yip_t0 makes 3,697 edge tests")


if __name__ == "__main__":
    check_gate()
    check_trace()
    print(f"{len(failures)} failed checks" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
