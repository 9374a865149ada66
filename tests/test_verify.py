"""The verification harness itself: scopes, results, mutation sensitivity."""

import pytest

from charge_lab import verify
from charge_lab.poly import poly_term
from charge_lab.qbg import EdgeKind, edge_by_criterion
from charge_lab.verify import (
    check_bijection,
    check_poly,
    check_statistics,
    partitions_up_to,
    run_scope,
    scope_weights,
)
from charge_lab.weyl import LieType, ValidationError, check_dominant


def test_partitions_up_to():
    assert set(partitions_up_to(2, 2)) == {(), (1,), (2,), (1, 1)}
    assert partitions_up_to(3, 0) == [()]
    assert all(p == tuple(sorted(p, reverse=True)) for p in partitions_up_to(4, 3))


def test_scope_weights_respects_type():
    # type A drops the all-parts case since weights live modulo (1,...,1)
    assert (1, 1) not in scope_weights(LieType("A", 2), 4)
    assert (1, 1) in scope_weights(LieType("C", 2), 4)


def test_run_scope_all_passes():
    for result in run_scope("all"):
        assert result.ok, result


def test_unknown_scope():
    with pytest.raises(ValidationError):
        run_scope("no-such-suite")


def test_rank_needs_a_single_scope():
    with pytest.raises(ValidationError, match="single"):
        run_scope("all", n=2)


def mutated_edge_test(lt, w, r):
    """Drop one genuine edge of the graph."""
    if w == tuple([2, 1] + list(range(3, lt.n + 1))) and r == (1, 2):
        return None
    return edge_by_criterion(lt, w, r)


def test_mutation_is_detected():
    assert not run_scope("A-qbg", edge_test=mutated_edge_test)[0].ok
    lt = LieType("A", 3)
    weights = scope_weights(lt, 3)
    assert not check_bijection(lt, weights, edge_test=mutated_edge_test).ok


def level_on_up_edges(lt, w, r):
    """Swap the edge kinds, so the enumerator counts level on up edges."""
    kind = edge_by_criterion(lt, w, r)
    swap = {EdgeKind.UP: EdgeKind.QUANTUM, EdgeKind.QUANTUM: EdgeKind.UP}
    return swap.get(kind)


@pytest.mark.parametrize("variant,n,size", [("A", 3, 4), ("C", 2, 3)])
def test_level_counted_on_up_edges_is_detected(variant, n, size):
    lt = LieType(variant, n)
    result = check_statistics(lt, scope_weights(lt, size), edge_test=level_on_up_edges)
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail


def test_broken_character_oracle_is_detected(monkeypatch):
    # a character that is only the highest-weight monomial x^mu
    monkeypatch.setattr(
        verify, "weyl_character", lambda lt, mu: poly_term(1, 0, check_dominant(lt, mu))
    )
    lt = LieType("C", 2)
    result = check_poly(lt, scope_weights(lt, 3))
    assert not result.ok
    assert "q=0 is not the character" in result.detail


def test_statistics_suite_counts_pairs():
    lt = LieType("C", 2)
    result = check_statistics(lt, [(1,), (1, 1)])
    assert result.ok
    assert "pairs" in result.detail
