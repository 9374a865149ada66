"""KN columns: splitting, maxcol, and the pair conditions."""

import math
from itertools import combinations

import pytest

from charge_lab.kn import (
    condition_r1,
    condition_r2,
    condition_r3,
    enumerate_kn_columns,
    int_set,
    is_kn_column,
    maxcol,
    maxcol_formulas_hold,
    split_candidates_equal,
    split_column,
    unsplit,
)
from charge_lab.verify import distinct_abs_columns, maxcol_decomposition_holds
from charge_lab.weyl import LieType, ValidationError, circ_offset, letters
from references import condition_1

C3 = LieType("C", 3)
C5 = LieType("C", 5)


def test_split_example():
    assert split_column(C5, (4, 5, -5, -4, -3)) == (
        (4, 5, -3, -2, -1),
        (1, 2, -5, -4, -3),
    )


def test_split_of_plain_column_is_itself():
    col = (1, 3, -2)
    assert split_column(C3, col) == (col, col)


def test_not_kn_column_fails_to_split():
    # 2 and 2-bar at distance 1 in a height-3 column violates the bound
    assert not is_kn_column(C3, (2, -2, -1))
    with pytest.raises(ValidationError):
        split_column(C3, (2, -2, -1))


def test_maxcol_example():
    assert maxcol((3, 4, 5), (4, 5)) == (1, 2, 3)


def test_maxcol_decomposition_exhaustive():
    universe = range(1, 6)
    subsets = [set(s) for r in range(6) for s in combinations(universe, r)]
    checked = 0
    for A in subsets:
        if not A:
            continue
        for B in subsets:
            result = maxcol_decomposition_holds(A, B)
            if result is not None:
                checked += 1
                assert result, (sorted(A), sorted(B))
    assert checked > 100


def test_definitions_agree_exhaustively():
    for k in range(1, 4):
        for col in combinations(letters(C3), k):
            try:
                split_column(C3, col)
                splittable = True
            except ValidationError:
                splittable = False
            assert splittable == is_kn_column(C3, col), col


def test_kn_column_count():
    # height-k KN columns number C(2n,k) - C(2n,k-2)
    for n in (1, 2, 3):
        lt = LieType("C", n)
        for k in range(1, n + 1):
            expected = math.comb(2 * n, k) - (math.comb(2 * n, k - 2) if k >= 2 else 0)
            assert len(enumerate_kn_columns(lt, k)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unsplit_inverts_split_column(n):
    lt = LieType("C", n)
    for k in range(1, n + 1):
        for col in enumerate_kn_columns(lt, k):
            assert unsplit(*split_column(lt, col)) == col


@pytest.mark.parametrize("k", [0, 4])
def test_kn_columns_of_a_height_out_of_range_are_refused(k):
    with pytest.raises(ValidationError, match=f"height {k} out of range for n=3"):
        enumerate_kn_columns(C3, k)


def test_three_way_splitting_equivalence():
    # restricted to columns with distinct absolute values; with repeats the
    # R-conditions can hold while the splitting ones fail, e.g. (1, 1-bar)
    cols = distinct_abs_columns(C3)
    for Dp in cols:
        for D in cols:
            if len(D) != len(Dp):
                continue
            e1 = condition_r1(C3, D, Dp) and condition_r2(C3, D, Dp) and condition_r3(C3, D, Dp)
            assert e1 == maxcol_formulas_hold(C3, Dp, D) == split_candidates_equal(C3, Dp, D)


def test_repeated_value_column_is_the_known_exception():
    D = (1, -1)
    assert condition_r1(C3, D, D) and condition_r2(C3, D, D) and condition_r3(C3, D, D)
    assert not maxcol_formulas_hold(C3, D, D)
    assert not split_candidates_equal(C3, D, D)


def condition_2(lt, Cp, C):
    """Equivalent minimality form of condition_1: each C'(i) is circularly
    minimal, from C(i), among C'(i..end)."""
    for i in range(1, len(Cp) + 1):
        off = lambda x: circ_offset(lt, C[i - 1], x)
        if any(off(Cp[l]) < off(Cp[i - 1]) for l in range(i, len(Cp))):
            return False
    return True


def test_conditions_1_and_2_agree_on_columns():
    lt = LieType("C", 2)
    cols = [c for k in (1, 2) for c in combinations(letters(lt), k)]
    for Cp in cols:
        for C in cols:
            if len(Cp) > len(C):
                continue
            assert condition_1(lt, Cp, C) == condition_2(lt, Cp, C), (Cp, C)


def test_int_set():
    lt = LieType("C", 2)
    assert int_set(lt, (1,), (-1,)) == {2, -2}
