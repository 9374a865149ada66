"""Folding pairs: signs, weights, levels, admissibility, enumeration."""

from itertools import combinations

import pytest

from charge_lab.chains import chain_from_roots, mu_chain
from charge_lab.fillings import content, filling_map
from charge_lab.foldings import (
    enumerate_admissible,
    fold_chain,
    is_admissible,
    level_of,
    weight_of,
)
from charge_lab.weyl import (
    LieType,
    ValidationError,
    all_elements,
    identity,
    weights_equal,
    window_str,
)

A4 = LieType("A", 4)
C3 = LieType("C", 3)


def test_fold_signs_type_a_example():
    chain = mu_chain(A4, (3, 2, 1, 0))
    folded = fold_chain(chain, (2, 1, 3, 4), (3, 6, 7, 9, 10))
    assert folded.J_plus == (3, 7, 9, 10)
    assert folded.J_minus == (6,)
    assert folded.end == (1, 2, 3, 4)


def test_fold_signs_type_c_example():
    chain = mu_chain(C3, (2, 1, 0))
    w, J = (1, 2, 3), (3, 5, 6, 11, 12, 13)
    folded = fold_chain(chain, w, J)
    assert folded.J_plus == (5, 6, 11, 12, 13)
    assert folded.J_minus == (3,)
    assert folded.end == (1, 2, 3)
    assert window_str(folded.end) == "123"
    assert level_of(chain, w, J) == 1
    assert weight_of(chain, w, J) == (1, 0, 0)
    carried = {(v, K): (level, weight) for v, K, level, weight in enumerate_admissible(chain)}
    assert carried[w, J] == (1, (1, 0, 0))


def test_weight_on_explicit_walk():
    # six-crossing walk for mu = 3e1 + e2, folded at the first two positions
    lt = LieType("A", 3)
    chain = chain_from_roots(lt, (3, 1, 0), [(1, 3), (1, 2), (1, 3), (2, 3), (1, 3), (1, 2)])
    assert weights_equal(lt, weight_of(chain, (1, 2, 3), (1, 2)), (0, 1, 0))
    folded = fold_chain(chain, (1, 2, 3), (1, 2))
    assert folded.J_plus == (2,)
    assert folded.J_minus == (1,)


def test_type_a_example_level_and_weight():
    chain = mu_chain(A4, (3, 2, 1, 0))
    w, J = (2, 1, 3, 4), (3, 6, 7, 9, 10)
    assert level_of(chain, w, J) == 1
    assert weights_equal(A4, weight_of(chain, w, J), (2, 2, 1, 1))


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 3), (2, 1, 0)), (LieType("C", 2), (1, 1))],
)
def test_admissibility_methods_agree(lt, mu):
    chain = mu_chain(lt, mu)
    positions = range(1, len(chain) + 1)
    for w in all_elements(lt):
        for r in range(len(chain) + 1):
            for J in combinations(positions, r):
                assert is_admissible(chain, w, J) == is_admissible(chain, w, J, method="path")


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 3), (2, 1, 0)), (LieType("C", 2), (1, 1)), (LieType("C", 2), (2,))],
)
def test_enumeration_matches_brute_force(lt, mu):
    chain = mu_chain(lt, mu)
    for w, J, level, weight in enumerate_admissible(chain):
        assert level == level_of(chain, w, J)
        assert weight == content(filling_map(chain, w, J))
        assert weights_equal(lt, weight_of(chain, w, J), weight)
    found = {(w, J) for w, J, _, _ in enumerate_admissible(chain)}
    brute = set()
    for w in all_elements(lt):
        for r in range(len(chain) + 1):
            for J in combinations(range(1, len(chain) + 1), r):
                if is_admissible(chain, w, J):
                    brute.add((w, J))
    assert found == brute
    assert len(found) == len(list(enumerate_admissible(chain)))  # duplicate-free


def test_empty_weight_has_one_admissible_pair():
    lt = LieType("C", 2)
    chain = mu_chain(lt, ())
    assert list(enumerate_admissible(chain)) == [(identity(lt), (), 0, (0, 0))]


def test_position_validation():
    chain = mu_chain(A4, (1,))
    with pytest.raises(ValidationError):
        fold_chain(chain, (1, 2, 3, 4), (5,))
    with pytest.raises(ValidationError):
        fold_chain(chain, (1, 2, 3, 4), (1, 1))

