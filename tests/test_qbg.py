"""Quantum Bruhat graph edge tests and exports."""

import re

import pytest

from charge_lab.qbg import (
    EdgeKind,
    edge_by_criterion,
    edge_by_length,
    graph_dot,
    graph_json,
    qbg_edges,
)
from charge_lab.weyl import (
    LieType,
    ValidationError,
    all_elements,
    length,
    positive_roots,
    rho_pairing,
)


@pytest.mark.parametrize(
    "lt",
    [LieType("A", 2), LieType("A", 3), LieType("A", 4),
     LieType("C", 1), LieType("C", 2), LieType("C", 3),
     LieType("A", 5), LieType("A", 6), LieType("C", 4)],
)
def test_criterion_agrees_with_length_test(lt):
    # up to A6 and C4, the ranks that check_qbg sweeps in the benchmark
    for w in all_elements(lt):
        for r in positive_roots(lt):
            assert edge_by_criterion(lt, w, r) is edge_by_length(lt, w, r), (w, r)


def test_up_edges_are_covers():
    lt = LieType("C", 2)
    for w in all_elements(lt):
        for r, kind in qbg_edges(lt, w):
            from charge_lab.weyl import apply_root

            diff = length(lt, apply_root(lt, w, r)) - length(lt, w)
            if kind is EdgeKind.UP:
                assert diff == 1
            else:
                assert diff == 1 - 2 * rho_pairing(lt, r)


def test_known_edges():
    C2 = LieType("C", 2)
    # from the window 2~1~, the reflection (1,2) raises length by one
    assert edge_by_length(C2, (-2, -1), (1, 2)) is EdgeKind.UP
    # long-root quantum edge down from a sign flip
    assert edge_by_criterion(C2, (-1, 2), (1, -1)) is EdgeKind.QUANTUM
    # e_i + e_j roots never carry quantum edges
    for w in all_elements(C2):
        kind = edge_by_criterion(C2, w, (1, -2))
        assert kind in (None, EdgeKind.UP)


def test_identity_has_all_simple_up_edges():
    lt = LieType("A", 3)
    ident = (1, 2, 3)
    ups = {r for r, kind in qbg_edges(lt, ident) if kind is EdgeKind.UP}
    assert {(1, 2), (2, 3)} <= ups


def test_graph_exports():
    lt = LieType("C", 1)
    data = graph_json(lt)
    assert data["schema"] == "charge-lab/qbg-graph/1"
    assert set(data["nodes"]) == {"1", "1~"}
    kinds = {(e["source"], e["kind"]) for e in data["edges"]}
    assert ("1", "up") in kinds and ("1~", "quantum") in kinds
    dot = graph_dot(lt)
    assert "digraph" in dot and "style=dashed" in dot


@pytest.mark.parametrize("w", [(1, 2), (1, 1, 2), (1, 2, 4), (0, 1, 2)])
def test_edge_by_length_rejects_a_malformed_window(w):
    with pytest.raises(ValidationError):
        edge_by_length(LieType("C", 3), w, (1, 3))


@pytest.mark.parametrize("w", [(1, 2, 3, 4), (1, 1, 2), (1, 2)])
def test_qbg_edges_rejects_a_malformed_window(w):
    # edge_by_criterion trusts its window, so qbg_edges checks it once
    with pytest.raises(ValidationError):
        qbg_edges(LieType("A", 3), w)


def test_edge_tests_reject_a_bad_root():
    # a root that is not a pair is refused as a bad label, not unpacked
    for root in [(2, 1), (1, 2, 3), (1,), 5, None]:
        for test in (edge_by_length, edge_by_criterion):
            with pytest.raises(ValidationError, match=re.escape(f"bad root label {root} for type A")):
                test(LieType("A", 3), (1, 2, 3), root)
