"""The benchmark's traced names still exist in the package.

`bench/spans.py` wraps the functions it names in `TRACED` by looking them
up in the package modules; deleting or renaming one breaks the traced
benchmark run. The file is loaded read-only, without writing bytecode
next to it.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from charge_lab import cli
from charge_lab.fillings import enumerate_bmu
from charge_lab.weyl import LieType

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_traced_name_is_a_plain_package_function(monkeypatch):
    traced = load_spans(monkeypatch).TRACED
    for module_name, names in traced.items():
        module = importlib.import_module(f"charge_lab.{module_name}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{module_name}.{name}"


def test_traced_outcome_counts_see_the_shapes_they_expect(monkeypatch):
    # the tracer counts generator items per resumption and the length of
    # the list enumerate_bmu returns
    traced = load_spans(monkeypatch).TRACED
    foldings = importlib.import_module("charge_lab.foldings")
    assert "enumerate_admissible" in traced["foldings"]
    assert inspect.isgeneratorfunction(foldings.enumerate_admissible)
    assert "enumerate_bmu" in traced["fillings"]
    assert isinstance(enumerate_bmu(LieType("C", 2), (1,)), list)


def test_traced_poly_pass_yields_every_per_layer_metric(monkeypatch, capsys):
    # the traced benchmark hands layer_metrics a plain dict, so a count
    # that a construct pass never makes would end it with a KeyError
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["poly", "--type", "C", "--n", "2", "--mu", "2,1",
                         "--method", "both", "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = spans.layer_metrics(tracer.table(), dict(tracer.counts))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the traced run appends its own overhead, the difference of two walls
    assert list(metrics) + ["trace.overhead_s"] == [m["name"] for m in per_layer]
    edges = [metrics[f"qbg.edges_{kind}"]["value"] for kind in ("up", "quantum", "none")]
    assert edges == [9, 2, 10]
