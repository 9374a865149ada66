"""The command line is a thin adapter over the library; pin its text."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from charge_lab import cli, fillings
from charge_lab.cli import main
from charge_lab.qbg import graph_json_str
from charge_lab.weyl import LieType


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, stdout=subprocess.PIPE):
    """Run the CLI module as a program, from the repository root."""
    return subprocess.run(
        [sys.executable, "-m", "charge_lab.cli", *argv],
        cwd=Path(__file__).resolve().parents[1], env=dict(os.environ, PYTHONPATH="src"),
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def readme_cli_examples():
    """(command line, the output README shows for it or None) for each
    `charge-lab` line of the sh block under README's "## CLI"; the output
    is a comment at the end of the line or alone on the next line."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    examples = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("charge-lab "):
            command, _, shown = line.partition(" # ")
            if not shown and after.startswith("# "):
                shown = after[2:]
            examples.append((command.strip(), shown.strip() or None))
    return examples


README_CLI = readme_cli_examples()


def test_readme_lists_its_cli_examples():
    assert len(README_CLI) == 6
    assert [shown for _, shown in README_CLI if shown] == [
        "(1,4),(1,3),(1,2) | (1,4),(1,3),(2,4),(2,3) | (1,4),(2,4),(3,4)", "x1 + x2"]


@pytest.mark.parametrize("command,shown", README_CLI)
def test_readme_cli_example_runs_as_documented(capsys, command, shown):
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    if shown is not None:
        assert out == shown + "\n"


def test_the_module_runs_as_a_program():
    # the exit code of main() reaches the shell through the __main__ guard
    ok = run_module("poly", "--type", "A", "--n", "2", "--mu", "1")
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "x1 + x2\n", "")
    bad = run_module("poly", "--type", "A", "--n", "3", "--mu", "2,,1")
    assert (bad.returncode, bad.stdout, bad.stderr) == (
        1, "", "error: cannot parse partition '2,,1'\n")
    assert run_module("poly").returncode == 2


@pytest.mark.parametrize("argv", [("poly", "--type", "A", "--n", "3", "--mu", "2,1"),
                                  ("qbg", "--n", "3"),
                                  ("verify", "--scope", "A-qbg")])
def test_a_closed_stdout_ends_without_a_traceback(argv):
    # the reader has gone, as after `| head -c 80`: writing stdout raises
    # BrokenPipeError
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_module(*argv, stdout=write)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr
    assert done.returncode == 1


# stdlib modules that `import dataclasses` loads and the CLI has no use for;
# tier1.yml runs the same check against the installed package
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_the_cli_loads_no_introspection_module():
    # the modules that the import adds, so that one a site hook preloads
    # does not count against the package
    probe = ("import sys; before = set(sys.modules); import charge_lab.cli; "
             "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=Path(__file__).resolve().parents[1], env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {"charge_lab.cli", "charge_lab.weyl"} <= added
    assert not added & INTROSPECTION


def parsers_built(after):
    """In a fresh interpreter, the number of ArgumentParser objects built by
    `import charge_lab.cli` and then by each statement of after, summed."""
    probe = ("import argparse, contextlib, io; built = []; init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
             "import charge_lab.cli\nprint(len(built))\n"
             + "".join(f"with contextlib.redirect_stdout(io.StringIO()): {statement}\n"
                       f"print(len(built))\n" for statement in after))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=Path(__file__).resolve().parents[1], env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [int(count) for count in done.stdout.split()]


POLY_A3 = ["poly", "--type", "A", "--n", "3", "--mu", "2,1"]


def test_importing_the_cli_builds_no_parser():
    assert parsers_built([]) == [0]


def test_main_builds_its_parser_tree_once():
    # the tree: the top-level parser, its two parents and five subparsers
    main_call = f"charge_lab.cli.main({POLY_A3!r})"
    assert parsers_built([main_call] * 3) == [0, 8, 8, 8]


@pytest.mark.parametrize("first,code", [(POLY_A3 + ["--bogus"], 2), (["--help"], 0)],
                         ids=["unknown-option", "help"])
def test_a_refused_or_help_parse_leaves_the_parser_as_it_was(capsys, first, code):
    alone = run_module(*POLY_A3)
    assert alone.returncode == 0, alone.stderr
    with pytest.raises(SystemExit) as exc:
        main(first)
    assert exc.value.code == code
    capsys.readouterr()
    assert run(capsys, *POLY_A3) == (0, alone.stdout, "")


def test_chain_type_a(capsys):
    code, out, _ = run(capsys, "chain", "--type", "A", "--n", "4", "--mu", "3,2,1")
    assert code == 0
    assert out.strip() == "(1,4),(1,3),(1,2) | (1,4),(1,3),(2,4),(2,3) | (1,4),(2,4),(3,4)"


def test_chain_type_c(capsys):
    code, out, _ = run(capsys, "chain", "--type", "C", "--n", "3", "--mu", "2,1")
    assert code == 0
    assert out.strip() == (
        " | (1,2~),(1,3~),(1,1~),(1,3),(1,2)"
        " || (1,2~) | (1,3~),(1,1~),(1,3),(1,2~),(2,3~),(2,2~),(2,3)"
    ).strip()


def test_chain_json(capsys):
    code, out, _ = run(capsys, "chain", "--type", "A", "--n", "3", "--mu", "1", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["schema"] == "charge-lab/mu-chain/1"
    assert data["roots"] == ["(1,3)", "(1,2)"]


def test_dominance_error_exit_code(capsys):
    code, _, err = run(capsys, "chain", "--type", "A", "--n", "3", "--mu", "1,2")
    assert code == 1
    assert "partition" in err


@pytest.mark.parametrize("mu", ["2,,1", ",2,1,", "2,1,", ",", " , "])
def test_an_empty_part_is_refused(capsys, mu):
    code, out, err = run(capsys, "poly", "--type", "A", "--n", "3", "--mu", mu)
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse partition {mu!r}\n"


@pytest.mark.parametrize("mu,message", [
    # int() would read each of these as a number: 10, 3, 2
    *((mu, f"cannot parse partition {mu!r}") for mu in ["1_0", "\u0663", "+2", "2,+1", " 1_0 "]),
    # a leading minus parses, so the part is refused as a weight
    ("-1", "(-1,) is not a partition"),
])
def test_a_part_is_ascii_digits_with_an_optional_minus(capsys, mu, message):
    code, out, err = run(capsys, "chain", "--type", "A", "--n", "3", "--mu", mu)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("mu,same_as", [("", "0"), (" ", "0"), (" 2, 1", "2,1"), ("2 ,1 ", "2,1")])
def test_a_blank_partition_is_empty_and_spaces_are_accepted(capsys, mu, same_as):
    expected = run(capsys, "poly", "--type", "A", "--n", "3", "--mu", same_as)
    assert expected[0] == 0
    assert run(capsys, "poly", "--type", "A", "--n", "3", "--mu", mu) == expected


def test_poly_pins(capsys):
    code, out, _ = run(capsys, "poly", "--type", "A", "--n", "2", "--mu", "1")
    assert (code, out.strip()) == (0, "x1 + x2")
    code, out, _ = run(capsys, "poly", "--type", "C", "--n", "1", "--mu", "1")
    assert (code, out.strip()) == (0, "x1 + x1^-1")


def test_poly_method_both(capsys):
    code, out, err = run(capsys, "poly", "--type", "C", "--n", "2", "--mu", "2,1",
                         "--method", "both")
    assert code == 0
    assert "agree" in err


def test_poly_method_both_reports_a_disagreement(capsys, monkeypatch):
    # a charge construction that drops every term
    monkeypatch.setattr(cli, "charge_formula_t0", lambda lt, mu: {})
    code, out, err = run(capsys, "poly", "--type", "A", "--n", "3", "--mu", "2,1",
                         "--method", "both")
    assert (code, out) == (2, "")
    assert err == "the two constructions disagree\n"


@pytest.mark.parametrize("variant,n,mu", [("A", "4", "2,1"), ("C", "2", "2,1"),
                                          ("C", "3", "2,2,1"), ("A", "2", "0")])
def test_poly_method_charge_prints_what_ramyip_prints(capsys, variant, n, mu):
    for fmt in ("text", "json"):
        argv = ["poly", "--type", variant, "--n", n, "--mu", mu, "--format", fmt]
        expected = run(capsys, *argv, "--method", "ramyip")
        assert expected[0] == 0
        assert run(capsys, *argv, "--method", "charge") == expected


@pytest.mark.parametrize("method", ["ramyip", "charge", "both"])
def test_bmu_guard_names_the_normalised_partition(capsys, method):
    # in type A the last part is taken from every part: (16, 3, 3) is (13)
    code, out, err = run(capsys, "poly", "--type", "A", "--n", "3", "--mu", "16,3,3",
                         "--method", method)
    assert (code, out) == (1, "")
    assert err == "error: |B_mu| for A3 mu=13 is 1,594,323, over the limit of 1,000,000\n"


def test_charge_command(capsys):
    filling = {
        "schema": "charge-lab/filling/1",
        "type": "A",
        "n": 6,
        "shape": [4, 3, 3],
        "columns": [[2], [1, 2, 4], [2, 3, 4], [3, 5, 6]],
        "split": False,
    }
    code, out, _ = run(capsys, "charge", "--filling", json.dumps(filling), "--trace")
    assert code == 0
    assert "charge: 6" in out
    assert "pass 1" in out


def test_charge_command_type_c_json(capsys):
    filling = {
        "type": "C",
        "n": 5,
        "columns": [[1, 3, -2], [1, 2, -3], [3, -4, -2], [2, -4, -3],
                    [-5, -3, -2, -1], [-5, -3, -2, -1]],
        "split": True,
    }
    code, out, _ = run(capsys, "charge", "--filling", json.dumps(filling),
                       "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["charge"] == 4
    assert data["schema"] == "charge-lab/charge/1"


# the acceptance fillings TAU_A and TAU_C of test_charge.py
TAU_A_JSON = {"type": "A", "n": 6, "columns": [[2], [1, 2, 4], [2, 3, 4], [3, 5, 6]]}
TAU_C_JSON = {"type": "C", "n": 5,
              "columns": [[1, 3, -2], [1, 2, -3], [3, -4, -2], [2, -4, -3],
                          [-5, -3, -2, -1], [-5, -3, -2, -1]]}


@pytest.mark.parametrize("filling,expected", [
    (TAU_A_JSON, """\
2 1 2 3
  2 3 5
  4 4 6
word: 6/1 5/1 4/3 4/2 3/2 3/1 2/4 2/3 2/2 1/3
pass 1: picks 6:1 5:2 3:3 7:4; wraps 4; adds 1
pass 2: picks 2:1 9:2 8:3; wraps 2; adds 2
pass 3: picks 1:1 4:2 10:3; wraps 2,3; adds 3
charge: 6
"""),
    (TAU_C_JSON, """\
 1  1  3  2 5~ 5~
 3  2 4~ 4~ 3~ 3~
2~ 3~ 2~ 3~ 2~ 2~
            1~ 1~
word: 1~/1' 1~/1 2~/3' 2~/2' 2~/1' 2~/1 3~/3 3~/2 3~/1' 3~/1 4~/2' 4~/2 5~/1' 5~/1 \
3/3' 3/2' 2/3 2/2 1/3' 1/3
pass 1: picks 14:1 13:1' 12:2 11:2' 7:3 3:3'; wraps -; adds 0
pass 2: picks 10:1 9:1' 8:2 4:2' 20:3 19:3'; wraps 3; adds 1
pass 3: picks 6:1 5:1' 18:2 16:2' 17:3 15:3'; wraps 2,3; adds 3
pass 4: picks 2:1 1:1'; wraps -; adds 0
charge: 4
"""),
])
def test_charge_trace_text_is_pinned(capsys, filling, expected):
    assert run(capsys, "charge", "--filling", json.dumps(filling), "--trace") == (0, expected, "")


def selected(*picks):
    return [[int(pos), lab] for pos, lab in (p.split(":") for p in picks)]


@pytest.mark.parametrize("filling,expected", [
    (TAU_A_JSON, {
        "schema": "charge-lab/charge/1",
        "charge": 6,
        "word": [[6, "1"], [5, "1"], [4, "3"], [4, "2"], [3, "2"], [3, "1"], [2, "4"],
                 [2, "3"], [2, "2"], [1, "3"]],
        "passes": [
            {"selected": selected("6:1", "5:2", "3:3", "7:4"), "wraps": ["4"],
             "contribution": 1},
            {"selected": selected("2:1", "9:2", "8:3"), "wraps": ["2"], "contribution": 2},
            {"selected": selected("1:1", "4:2", "10:3"), "wraps": ["2", "3"],
             "contribution": 3},
        ],
    }),
    (TAU_C_JSON, {
        "schema": "charge-lab/charge/1",
        "charge": 4,
        "word": [[-1, "1'"], [-1, "1"], [-2, "3'"], [-2, "2'"], [-2, "1'"], [-2, "1"],
                 [-3, "3"], [-3, "2"], [-3, "1'"], [-3, "1"], [-4, "2'"], [-4, "2"],
                 [-5, "1'"], [-5, "1"], [3, "3'"], [3, "2'"], [2, "3"], [2, "2"],
                 [1, "3'"], [1, "3"]],
        "passes": [
            {"selected": selected("14:1", "13:1'", "12:2", "11:2'", "7:3", "3:3'"),
             "wraps": [], "contribution": 0},
            {"selected": selected("10:1", "9:1'", "8:2", "4:2'", "20:3", "19:3'"),
             "wraps": ["3"], "contribution": 1},
            {"selected": selected("6:1", "5:1'", "18:2", "16:2'", "17:3", "15:3'"),
             "wraps": ["2", "3"], "contribution": 3},
            {"selected": selected("2:1", "1:1'"), "wraps": [], "contribution": 0},
        ],
    }),
])
def test_charge_json_is_pinned(capsys, filling, expected):
    # the whole document, byte for byte: the keys in order, indented by two
    for flags in ([], ["--trace"]):
        out = run(capsys, "charge", "--filling", json.dumps(filling), "--format", "json", *flags)
        assert out == (0, json.dumps(expected, indent=2) + "\n", "")


@pytest.mark.parametrize("flags", [["--trace"], ["--format", "json"]])
def test_charge_builds_its_word_once(monkeypatch, capsys, flags):
    # the word and the passes are rendered from one sorted biword
    charge_module = importlib.import_module("charge_lab.charge")
    real, calls = charge_module.charge_word, []

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(cli, "charge_word", counted)
    monkeypatch.setattr(charge_module, "charge_word", counted)
    assert run(capsys, "charge", "--filling", json.dumps(TAU_C_JSON), *flags)[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("variant,columns", [("A", [[], [], [2], [1]]), ("A", [[]]),
                                             ("C", [[], [], [1], [1]])])
def test_charge_refuses_an_empty_column(capsys, variant, columns):
    filling = {"type": variant, "n": 3, "columns": columns}
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "charge", "--filling", json.dumps(filling), "--format", fmt)
        assert (code, out, err) == (1, "", "error: filling columns must not be empty\n")


def test_charge_of_the_empty_filling(capsys):
    # no columns at all is B of the empty partition, not an empty column
    filling = json.dumps({"type": "A", "n": 3, "columns": []})
    assert run(capsys, "charge", "--filling", filling) == (0, "\ncharge: 0\n", "")


def test_charge_reads_a_filling_file(capsys, tmp_path):
    filling = {"type": "C", "n": 2, "columns": [[1], [1], [2, -1], [1, -2]], "split": True}
    path = tmp_path / "filling.json"
    path.write_text(json.dumps(filling))
    for fmt in ("text", "json"):
        inline = run(capsys, "charge", "--filling", json.dumps(filling), "--trace",
                     "--format", fmt)
        from_file = run(capsys, "charge", "--filling-file", str(path), "--trace",
                        "--format", fmt)
        assert inline[0] == 0
        assert from_file == inline


@pytest.mark.parametrize(
    "filling,message",
    [({"type": "C", "n": 2, "columns": [[1], [2, -1]], "split": False},
      "filling split must be true for type C"),
     ({"type": "C", "n": 2, "columns": [[-1], [2, -1]]}, "paired columns must have equal heights"),
     ({"type": "A", "n": 3, "columns": [[1], [2]], "split": True},
      "filling split must be false for type A"),
     ({"type": "B", "n": 2, "columns": []}, "unknown type 'B'")],
)
def test_charge_refuses_a_filling_whose_shape_disagrees_with_its_type(capsys, filling, message):
    # a type C filling is never charged with the unprimed labels of type A
    code, out, err = run(capsys, "charge", "--filling", json.dumps(filling))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "filling,message",
    [({"type": "A", "n": 3, "columns": [[1], [2]], "shape": [7, 7], "schema": "nonsense/9"},
      "filling schema must be 'charge-lab/filling/1', not 'nonsense/9'"),
     ({"type": "A", "n": 3, "columns": [[1], [2]], "shape": [7, 7]},
      "filling shape [7, 7] does not match the columns' shape [2]"),
     ({"type": "A", "n": 3, "columns": [[1], [2]], "labels": [2, 1]},
      "filling has unknown keys 'labels'")],
)
def test_charge_refuses_a_filling_with_a_foreign_or_contradicting_key(capsys, filling, message):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "charge", "--filling", json.dumps(filling), "--format", fmt)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_charge_of_a_type_c_filling_without_its_split_key(capsys):
    filling = {"type": "C", "n": 2, "columns": [[1], [1], [2, -1], [1, -2]]}
    for fmt in ("text", "json"):
        bare = run(capsys, "charge", "--filling", json.dumps(filling), "--trace",
                   "--format", fmt)
        keyed = run(capsys, "charge", "--filling", json.dumps({**filling, "split": True}),
                    "--trace", "--format", fmt)
        assert bare[0] == 0
        assert bare == keyed


@pytest.mark.parametrize("columns", [[[2], [1]], [[-1], [1]], [[1], [1], [1, 2], [1, -2]]])
def test_charge_refuses_a_type_c_pair_that_is_not_a_split_kn_column(capsys, columns):
    # B_(1) of C2 holds only the pairs ((x), (x))
    filling = {"type": "C", "n": 2, "columns": columns}
    code, out, err = run(capsys, "charge", "--filling", json.dumps(filling))
    assert (code, out, err) == (1, "", "error: column pair 1 does not sort to a split KN column\n")


def test_charge_malformed_filling(capsys):
    bad = {"type": "A", "n": 3, "columns": [[1, 1]], "split": False}
    code, _, err = run(capsys, "charge", "--filling", json.dumps(bad))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--filling", "notjson"],
        ["--filling-file", "/missing.json"],
        ["--filling", "{}"],
        ["--filling", "[1]"],
        ["--filling", '{"type":"A","n":3,"columns":[[1,"x"]]}'],
        ["--filling", '{"type":"C","n":2,"columns":[[0],[0]],"split":true}'],
        ["--filling", "[" * 100_000 + "]" * 100_000],
    ],
)
def test_charge_unreadable_filling_is_a_clean_error(capsys, argv):
    code, _, err = run(capsys, "charge", *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_qbg_dot(capsys):
    code, out, _ = run(capsys, "qbg", "--type", "C", "--n", "1", "--format", "dot")
    assert code == 0
    assert "digraph" in out and "style=dashed" in out


def test_qbg_defaults_to_json(capsys):
    code, out, _ = run(capsys, "qbg", "--type", "C", "--n", "2")
    assert code == 0
    assert out == graph_json_str(LieType("C", 2)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--jobs", "2"],
        ["poly", "--mu", "1", "--format", "dot"],
        ["qbg", "--format", "text"],
        ["verify", "--format", "json"],
        ["charge", "--type", "A", "--filling", "{}"],
    ],
)
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_verify_scope(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "A-qbg", "--n", "3")
    assert code == 0
    assert out.startswith("PASS A-qbg")


def test_verify_unknown_scope(capsys):
    code, _, err = run(capsys, "verify", "--scope", "bogus")
    assert code == 1


def test_verify_rank_without_scope_is_rejected(capsys):
    code, out, err = run(capsys, "verify", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("scope", ["A-qbg", "kn", "C-poly"])
def test_verify_rank_zero_is_rejected(capsys, scope):
    code, out, err = run(capsys, "verify", "--scope", scope, "--n", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: rank 0 too small")


def test_verify_reports_a_rejected_image_as_a_failure(capsys, monkeypatch):
    # a path_A that skips the first position of its scan
    real = fillings.path_A
    monkeypatch.setattr(fillings, "path_A", lambda lt, u, i, c, L: real(lt, u, i, c, L[1:]))
    code, out, err = run(capsys, "verify", "--scope", "A-bijection")
    assert code == 2
    assert out.startswith("FAIL A-bijection: A n=3:")
    assert "is rejected: value 2 not reachable" in out
    assert err == ""


def test_verify_full_run(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scope", "A-poly", "--n", "100"],
        ["poly", "--type", "C", "--n", "40", "--mu", "3,2,1"],
        ["qbg", "--type", "A", "--n", "10"],
        # a huge part: the chain length and |B_mu| are counted per column height
        ["chain", "--type", "A", "--n", "2", "--mu", "99999999"],
        ["poly", "--type", "A", "--n", "2", "--mu", "99999999"],
        ["chain", "--type", "C", "--n", "3", "--mu", "99999999,5"],
        ["poly", "--type", "C", "--n", "3", "--mu", "99999999,5", "--method", "both"],
    ],
)
def test_oversized_input_is_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "over the limit of 1,000,000" in err


@pytest.mark.parametrize("variant,n,pairs", [("A", "8", "1,128,960"), ("C", "6", "1,658,880")])
def test_qbg_refuses_more_pairs_than_it_may_sweep(capsys, variant, n, pairs):
    # the export tests every (element, root) pair, so the pairs are counted,
    # not |W|: A8 has 40,320 elements but 28 roots each
    start = time.perf_counter()
    code, out, err = run(capsys, "qbg", "--type", variant, "--n", n)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (f"error: qbg for {variant}{n}: the number of (element, root) pairs "
                   f"is {pairs}, over the limit of 1,000,000\n")


# stdout SHA-256 of `poly --method both --format json` on the benchmark's
# construct ladder, pinned in the benchmark's reference file
CONSTRUCT_PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference" / "construct_sha256.json")
    .read_text())["sha256"]


@pytest.mark.parametrize("label", sorted(CONSTRUCT_PINS))
def test_poly_json_output_matches_the_construct_pins(label):
    lt, _, mu = label.partition(" mu=")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["poly", "--type", lt[0], "--n", lt[1:], "--mu", mu,
                     "--method", "both", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CONSTRUCT_PINS[label]


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--n", "99999999999", "--mu", ""],
        ["poly", "--type", "C", "--n", "101", "--mu", "1"],
        ["qbg", "--type", "C", "--n", "99999999999"],
        ["verify", "--scope", "kn", "--n", "1000"],
        ["charge", "--filling", '{"type":"A","n":99999999999,"columns":[[1]]}'],
    ],
)
def test_oversized_rank_is_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: rank") and "over the limit of 100" in err


# small, huge or malformed argument values: each part of a partition is one
# digit, junk, or a part so large that the input is refused before any work
RANKS = st.integers(-2, 4).map(str) | st.sampled_from(["", "x", "1.5", "99999999999"])
PARTITIONS = st.lists(st.sampled_from(["0", "1", "2", "3", "", " ", "x", "-1", "1.5",
                                       "99999999"]),
                      max_size=3).map(",".join)
FORMATS = st.sampled_from(["text", "json", "dot", "", "TEXT", "xml"])
SCOPES = st.sampled_from(["all", "A-qbg", "C-qbg", "kn", "A-bijection", "C-statistics",
                          "C-poly", "A-", "-poly", "B-qbg", "", "kn "])
FILLINGS = st.sampled_from([
    "{}", "[]", "null", "not json", '{"type":"A","n":3,"columns":[[1],[2]]}',
    '{"type":"A","n":3,"columns":[[4]]}', '{"type":"C","n":2,"columns":[[1],[-1]],"split":true}',
    '{"type":"C","n":2,"columns":[[2],[1]],"split":1}', '{"type":"B","n":2,"columns":[]}',
    '{"type":"A","n":-1,"columns":[]}', '{"type":"A","n":2,"columns":[[2,1],[1]]}',
])


def options(*pairs):
    """Each of the given (flag, values) options, present or not."""
    return st.tuples(*(st.one_of(st.just([]), values.map(lambda v, f=flag: [f, v]))
                       for flag, values in pairs)).map(lambda parts: sum(parts, []))


ARGV = st.one_of(
    options(("--type", st.sampled_from(["A", "C", "B", ""])), ("--n", RANKS),
            ("--mu", PARTITIONS), ("--format", FORMATS)).map(lambda o: ["chain"] + o),
    options(("--type", st.sampled_from(["A", "C", "D"])), ("--n", RANKS), ("--mu", PARTITIONS),
            ("--method", st.sampled_from(["ramyip", "charge", "both", "all"])),
            ("--format", FORMATS)).map(lambda o: ["poly"] + o),
    options(("--filling", FILLINGS), ("--format", FORMATS)).map(lambda o: ["charge"] + o),
    options(("--type", st.sampled_from(["A", "C", "a"])), ("--n", RANKS),
            ("--format", FORMATS)).map(lambda o: ["qbg"] + o),
    options(("--scope", SCOPES), ("--n", RANKS)).map(lambda o: ["verify"] + o),
    st.lists(st.sampled_from(["chain", "poly", "--n", "2", "--mu", "1", "-h", "x"]), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(ARGV)
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
