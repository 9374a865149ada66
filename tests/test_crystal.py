"""Charge is constant on the connected components of the crystal B_mu: every
Kashiwara lowering operator f_i keeps it.

The crystal operators are written here from the signature rule alone. The
reading word of a filling joins its logical columns, leftmost first, each
read top to bottom in increasing order; in type C each (right, left) pair
is first un-split back to its Kashiwara-Nakashima column.

The same signature rule decides which fillings are highest weight (no
raising operator e_i acts), and the charge side's search must yield
exactly those.
"""

import pytest

from charge_lab.charge import charge
from charge_lab.fillings import Filling, enumerate_bmu
from charge_lab.kn import enumerate_kn_columns, split_column
from charge_lab.poly import highest_weight_fillings
from charge_lab.weyl import LieType, letter_key


def arrows_of(lt: LieType, i: int):
    """The letters f_i changes ('+', with their images) and the letters
    that cancel them ('-')."""
    n = lt.n
    if i == n:  # type C only: n -> n-bar
        return {n: -n}, {-n}
    plus = {i: i + 1}
    minus = {i + 1}
    if lt.variant == "C":
        plus[-(i + 1)] = -i
        minus.add(-i)
    return plus, minus


def f(lt: LieType, columns, i: int):
    """f_i on a list of columns read in the given order, or None where it
    is not defined: each '-' cancels the nearest unmatched '+' before it,
    and f_i changes the leftmost unmatched '+'."""
    plus, minus = arrows_of(lt, i)
    unmatched = []
    for d, col in enumerate(columns):
        for r, x in enumerate(col):
            if x in plus:
                unmatched.append((d, r))
            elif x in minus and unmatched:
                unmatched.pop()
    if not unmatched:
        return None
    d, r = unmatched[0]
    col = list(columns[d])
    col[r] = plus[col[r]]
    out = list(columns)
    out[d] = tuple(sorted(col, key=lambda x: letter_key(lt, x)))
    return out


def e_acts(lt: LieType, columns, i: int) -> bool:
    """Whether e_i is defined on a list of columns read in the given order:
    some '-' finds no unmatched '+' before it to cancel."""
    plus, minus = arrows_of(lt, i)
    unmatched = 0
    for col in columns:
        for x in col:
            if x in plus:
                unmatched += 1
            elif x in minus:
                if not unmatched:
                    return True
                unmatched -= 1
    return False


def logical_columns(lt: LieType, bmu):
    """Each filling of bmu with its logical columns, leftmost first: in type
    C each (right, left) pair un-split back to its KN column."""
    if lt.variant == "A":
        return [(tau, tau.columns) for tau in bmu]
    unsplit = {}
    for k in {len(c) for tau in bmu for c in tau.columns}:
        unsplit.update((split_column(lt, c), c) for c in enumerate_kn_columns(lt, k))
    return [(tau, [unsplit[tau.columns[d : d + 2]] for d in range(0, len(tau.columns), 2)])
            for tau in bmu]


def crystal_arrows(lt: LieType, mu, reverse=False):
    """Every defined arrow b -> f_i b of B_mu, as (b, f_i b); with
    reverse=True the columns are read right to left instead."""
    bmu = enumerate_bmu(lt, mu)
    split = lt.variant == "C"
    members = set(bmu)
    arrows = []
    for tau, logical in logical_columns(lt, bmu):
        if reverse:
            logical = logical[::-1]
        for i in range(1, lt.n + (1 if split else 0)):
            image = f(lt, logical, i)
            if image is None:
                continue
            if reverse:
                image = image[::-1]
            columns = sum((split_column(lt, c) for c in image), ()) if split else tuple(image)
            fb = Filling(lt, columns)
            assert fb in members, (tau, i, fb)
            arrows.append((tau, fb))
    return arrows


SHAPES = [
    (LieType("A", 3), (2, 1), 8),
    (LieType("A", 5), (3, 2, 1), 940),
    (LieType("C", 2), (2, 1), 21),
    (LieType("C", 3), (2, 2, 1), 306),
    (LieType("C", 4), (2, 2, 1), 2514),
]


@pytest.mark.parametrize("lt,mu,count", SHAPES)
def test_charge_is_constant_along_every_crystal_arrow(lt, mu, count):
    arrows = crystal_arrows(lt, mu)
    assert len(arrows) == count
    assert all(charge(b) == charge(fb) for b, fb in arrows)


@pytest.mark.parametrize("lt,mu,broken,count", [
    (LieType("A", 3), (2, 1), 2, 8),
    (LieType("A", 5), (3, 2, 1), 263, 940),
    (LieType("C", 2), (2, 1), 4, 21),
    (LieType("C", 3), (2, 2, 1), 52, 306),
])
def test_reading_the_columns_right_to_left_breaks_the_invariance(lt, mu, broken, count):
    # the checker can fail: the crystal with the other tensor order does
    # not preserve charge
    arrows = crystal_arrows(lt, mu, reverse=True)
    assert len(arrows) == count
    assert sum(charge(b) != charge(fb) for b, fb in arrows) == broken


# the construct ladder: 64 highest-weight fillings in all
LADDER = [
    (LieType("A", 4), (2, 1), 2),
    (LieType("A", 5), (3, 2, 1), 7),
    (LieType("A", 6), (3, 2, 1), 8),
    (LieType("A", 7), (3, 2, 1), 8),
    (LieType("C", 2), (2, 1), 2),
    (LieType("C", 3), (3, 2, 1), 12),
    (LieType("C", 4), (2, 2, 1), 5),
    (LieType("C", 4), (3, 2, 1), 20),
]


# SHAPES and the construct ladder; A5 (3,2,1), C2 (2,1) and C4 (2,2,1) are in both
@pytest.mark.parametrize("lt,mu,count", [
    (LieType("A", 3), (2, 1), 2),
    (LieType("C", 3), (2, 2, 1), 3),
] + LADDER)
def test_the_search_yields_exactly_the_highest_weight_fillings(lt, mu, count):
    arrows = range(1, lt.n + (1 if lt.variant == "C" else 0))
    expected = [tau for tau, logical in logical_columns(lt, enumerate_bmu(lt, mu))
                if not any(e_acts(lt, logical, i) for i in arrows)]
    assert highest_weight_fillings(lt, mu) == expected
    assert len(expected) == count
