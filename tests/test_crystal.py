"""Charge is constant on the connected components of the crystal B_mu: every
Kashiwara lowering operator f_i keeps it.

The crystal operators are written here from the signature rule alone. The
reading word of a filling joins its logical columns, leftmost first, each
read top to bottom in increasing order; in type C each (right, left) pair
is first un-split back to its Kashiwara-Nakashima column.
"""

import pytest

from charge_lab.charge import charge
from charge_lab.fillings import Filling, enumerate_bmu
from charge_lab.kn import enumerate_kn_columns, split_column
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


def crystal_arrows(lt: LieType, mu, reverse=False):
    """Every defined arrow b -> f_i b of B_mu, as (b, f_i b); with
    reverse=True the columns are read right to left instead."""
    bmu = enumerate_bmu(lt, mu)
    split = lt.variant == "C"
    unsplit = {}
    if split:
        for k in {len(c) for tau in bmu for c in tau.columns}:
            unsplit.update((split_column(lt, c), c) for c in enumerate_kn_columns(lt, k))
    members = set(bmu)
    arrows = []
    for tau in bmu:
        cols = tau.columns
        logical = [unsplit[cols[d : d + 2]] for d in range(0, len(cols), 2)] if split else cols
        if reverse:
            logical = logical[::-1]
        for i in range(1, lt.n + (1 if split else 0)):
            image = f(lt, logical, i)
            if image is None:
                continue
            if reverse:
                image = image[::-1]
            columns = sum((split_column(lt, c) for c in image), ()) if split else tuple(image)
            fb = Filling(lt, columns, split)
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
