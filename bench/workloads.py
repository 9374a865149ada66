"""The benchmark's three workloads: their inputs, and one checked pass over them.

`build(name, seed)` makes a workload's inputs: the Lie types, weight lists
and mu-chains, wrapped as operations. The seed only permutes the order of
the operations (and of the weights inside a verify call), so every seed
does the same work. `run_pass(ops)` runs every operation once and counts
the failures. An operation is one CLI call or one `check_*` call; it fails
when it raises, exits non-zero, returns `ok=False`, or prints output whose
SHA-256 differs from the pinned reference.

Operations look the package's functions up at call time
(`cli.main`, `verify.check_poly`, ...), so the tracer and the gate
self-test can rebind them from outside.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

sys.path.insert(0, str(SRC))
import charge_lab  # noqa: E402

if Path(charge_lab.__file__).resolve().parent != SRC / "charge_lab":
    raise ImportError(f"charge_lab was imported from {charge_lab.__file__}, not from {SRC}")

from charge_lab import cli, verify  # noqa: E402
from charge_lab.chains import mu_chain  # noqa: E402
from charge_lab.weyl import LieType  # noqa: E402

REFERENCE = BENCH / "reference" / "construct_sha256.json"
NAMES = ("construct", "verify_sweep", "poly_check")

# ROADMAP ladder: deep single constructions, no oracle calls.
CONSTRUCT_LADDER = [
    ("A", 4, (2, 1)),
    ("A", 5, (3, 2, 1)),
    ("A", 6, (3, 2, 1)),
    ("A", 7, (3, 2, 1)),
    ("C", 2, (2, 1)),
    ("C", 3, (3, 2, 1)),
    ("C", 4, (2, 2, 1)),
    ("C", 4, (3, 2, 1)),
]

# Oracle-heavy: weyl_character and is_invariant dominate.
POLY_CHECK_INPUTS = [
    ("A", 6, (3, 2, 1)),
    ("C", 3, (3, 2, 1)),
    ("C", 4, (2, 1)),
]

# Breadth: many small verify calls. (type, n, largest |mu|) per sweep.
SWEEP_SCOPES = [("A", 4, 5), ("C", 3, 4)]
SWEEP_CHECKS = ("check_bijection", "check_statistics", "check_poly")
RUN_SCOPE_ALL_RESULTS = 9


@dataclass
class Op:
    """One unit of work: `run()` returns how many of its `size` checked
    operations failed."""

    label: str
    size: int
    run: Callable[[], int]
    chain_lengths: list


def mu_label(mu) -> str:
    return ",".join(str(m) for m in mu)


def input_label(variant: str, n: int, mu) -> str:
    return f"{variant}{n} mu={mu_label(mu)}"


def _construct_op(variant, n, mu, expected) -> Op:
    argv = ["poly", "--type", variant, "--n", str(n), "--mu", mu_label(mu),
            "--method", "both", "--format", "json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return int(code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != expected)

    lt = LieType(variant, n)
    return Op(input_label(variant, n, mu), 1, run, [len(mu_chain(lt, mu))])


def _check_op(check: str, lt: LieType, *args) -> Op:
    """`args` is empty or holds the weight list."""
    chains = [len(mu_chain(lt, mu)) for mu in args[0]] if args else []

    def run():
        return int(not getattr(verify, check)(lt, *args).ok)

    return Op(f"{check} {lt.variant}{lt.n}", 1, run, chains)


def _run_scope_all_op() -> Op:
    def run():
        results = verify.run_scope("all")
        missing = RUN_SCOPE_ALL_RESULTS - len(results)
        return max(missing, 0) + sum(not r.ok for r in results)

    return Op("run_scope all", RUN_SCOPE_ALL_RESULTS, run, [])


def build(name: str, seed: int) -> list:
    """The workload's operations, in an order permuted by `seed`."""
    rng = random.Random(seed)
    if name == "construct":
        reference = json.loads(REFERENCE.read_text())["sha256"]
        ops = [_construct_op(v, n, mu, reference[input_label(v, n, mu)])
               for v, n, mu in CONSTRUCT_LADDER]
    elif name == "verify_sweep":
        ops = [
            _check_op("check_qbg", LieType("A", 6)),
            _check_op("check_qbg", LieType("C", 4)),
            _check_op("check_kn", LieType("C", 4)),
            _run_scope_all_op(),
        ]
        for variant, n, size in SWEEP_SCOPES:
            lt = LieType(variant, n)
            for check in SWEEP_CHECKS:
                weights = verify.scope_weights(lt, size)
                rng.shuffle(weights)
                ops.append(_check_op(check, lt, weights))
    elif name == "poly_check":
        ops = [_check_op("check_poly", LieType(v, n), [mu]) for v, n, mu in POLY_CHECK_INPUTS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def run_op(op: Op) -> int:
    try:
        return op.run()
    except (Exception, SystemExit):
        return op.size


def run_pass(ops) -> tuple:
    """Run every operation once; return (attempted, failed)."""
    return sum(op.size for op in ops), sum(run_op(op) for op in ops)
