"""The command line is a thin adapter over the library; pin its text."""

import json

import pytest

from charge_lab.cli import main
from charge_lab.qbg import graph_json_str
from charge_lab.weyl import LieType


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_full_run(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
