"""Command-line surface.

Subcommands: chain (print a mu-chain), poly (compute the graded polynomial
by either construction), charge (charge of a filling; --trace and --format
json print one rendering of its charge word and passes), qbg (export the
quantum Bruhat graph), verify (run the exhaustive small-rank suites).

Exit codes: 0 success, 1 validation error, 2 verification failure.
"""

import argparse
import functools
import json
import os
import re
import sys

from .chains import chain_str, mu_chain
from .charge import charge_of_word, charge_word, label_str
from .fillings import filling_from_json, filling_str
from .poly import charge_formula_t0, poly_json_str, ram_yip_t0, render_text
from .qbg import graph_dot, graph_json_str
from .verify import run_scope
from .weyl import LieType, ValidationError, letter_str, root_str


def parse_mu(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each ASCII digits with an optional leading
    minus and spaces around; a blank text is the empty partition, and any
    other part (empty, '+2', '1_0', a non-ASCII digit) is refused."""
    if not text.strip():
        return ()
    parts = text.split(",")
    if not all(re.fullmatch(r"\s*-?[0-9]+\s*", p) for p in parts):
        raise ValidationError(f"cannot parse partition {text!r}")
    return tuple(map(int, parts))


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and reused by every later
    one; a parse reads it and leaves it unchanged."""
    lie = argparse.ArgumentParser(add_help=False)
    lie.add_argument("--type", dest="variant", choices=("A", "C"), default="A")
    lie.add_argument("--n", type=int, default=3)
    text_or_json = argparse.ArgumentParser(add_help=False)
    text_or_json.add_argument("--format", choices=("text", "json"), default="text")

    p = argparse.ArgumentParser(prog="charge-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("chain", parents=[lie, text_or_json], help="print the mu-chain")
    sp.add_argument("--mu", required=True)

    sp = sub.add_parser("poly", parents=[lie, text_or_json], help="graded polynomial at t=0")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--method", choices=("ramyip", "charge", "both"), default="ramyip")

    sp = sub.add_parser("charge", parents=[text_or_json], help="charge of a filling")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--filling", help="filling as an inline JSON object")
    group.add_argument("--filling-file", help="path to a filling JSON file")
    sp.add_argument("--trace", action="store_true")

    sp = sub.add_parser("qbg", parents=[lie], help="export the quantum Bruhat graph")
    sp.add_argument("--format", choices=("json", "dot"), default="json")

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--scope", default="all")
    return p


def cmd_chain(args) -> int:
    lt = LieType(args.variant, args.n)
    chain = mu_chain(lt, parse_mu(args.mu))
    if args.format == "json":
        print(json.dumps(
            {
                "schema": "charge-lab/mu-chain/1",
                "type": lt.variant,
                "n": lt.n,
                "mu": list(chain.mu),
                "roots": [root_str(r) for r in chain.roots],
                "levels": list(chain.levels),
            },
            indent=2,
        ))
    else:
        print(chain_str(chain))
    return 0


def cmd_poly(args) -> int:
    lt = LieType(args.variant, args.n)
    mu = parse_mu(args.mu)
    if args.method == "ramyip":
        p = ram_yip_t0(lt, mu)
    elif args.method == "charge":
        p = charge_formula_t0(lt, mu)
    else:
        p = ram_yip_t0(lt, mu)
        other = charge_formula_t0(lt, mu)
        if p != other:
            print("the two constructions disagree", file=sys.stderr)
            return 2
        print("both constructions agree", file=sys.stderr)
    print(poly_json_str(p) if args.format == "json" else render_text(p))
    return 0


def cmd_charge(args) -> int:
    try:
        if args.filling_file:
            with open(args.filling_file) as fh:
                data = json.load(fh)
        else:
            data = json.loads(args.filling)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read the filling: {exc}")
    f = filling_from_json(data)
    biword = charge_word(f)
    total, passes = charge_of_word([lab for _, lab in biword], trace=True)
    word = [[x, label_str(lab)] for x, lab in biword]
    passes = [
        {
            "selected": [[pos + 1, label_str(lab)] for pos, lab in ps["selected"]],
            "wraps": [label_str(lab) for lab in ps["wraps"]],
            "contribution": ps["contribution"],
        }
        for ps in passes
    ]
    if args.format == "json":
        print(json.dumps(
            {
                "schema": "charge-lab/charge/1",
                "charge": total,
                "word": word,
                "passes": passes,
            },
            indent=2,
        ))
        return 0
    print(filling_str(f))
    if args.trace:
        print("word:", " ".join(f"{letter_str(x)}/{lab}" for x, lab in word))
        for it, ps in enumerate(passes, start=1):
            picks = " ".join(f"{pos}:{lab}" for pos, lab in ps["selected"])
            wraps = ",".join(ps["wraps"]) or "-"
            print(f"pass {it}: picks {picks}; wraps {wraps}; adds {ps['contribution']}")
    print(f"charge: {total}")
    return 0


def cmd_qbg(args) -> int:
    lt = LieType(args.variant, args.n)
    if args.format == "dot":
        print(graph_dot(lt))
    else:
        print(graph_json_str(lt))
    return 0


def cmd_verify(args) -> int:
    results = run_scope(args.scope, n=args.n)
    failed = False
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
        failed = failed or not r.ok
    return 2 if failed else 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler = {
        "chain": cmd_chain,
        "poly": cmd_poly,
        "charge": cmd_charge,
        "qbg": cmd_qbg,
        "verify": cmd_verify,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): point stdout at devnull so
        # that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
