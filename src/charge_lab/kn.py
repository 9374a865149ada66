"""Kashiwara-Nakashima columns and the column-pair machinery.

A KN column is a strictly increasing column over the signed alphabet
which can be split into a right and a left column (the doubling used to
realize symplectic crystals). The splitting is governed by the maxcol
construction, and column pairs are classified by several interacting
conditions that this module checks.
"""

from itertools import combinations

from .weyl import LieType, ValidationError, letter_key, letters


def check_column(lt: LieType, col) -> tuple[int, ...]:
    """A column: strictly increasing letters (z and z-bar may coexist)."""
    col = tuple(col)
    keys = [letter_key(lt, x) for x in col]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValidationError(f"column {col} is not strictly increasing")
    return col


def is_kn_column(lt: LieType, col) -> bool:
    """The distance test: no pair z at p, z-bar at q with q - p <= k - z."""
    col = check_column(lt, col)
    k = len(col)
    pos = {x: p for p, x in enumerate(col, start=1)}
    for z in col:
        if z > 0 and -z in pos:
            if pos[-z] - pos[z] <= k - z:
                return False
    return True


def split_column(lt: LieType, col):
    """Split a KN column into (rC, lC) via the substitution sets I, J.

    Raises if the set J cannot be built, which happens exactly when the
    column is not KN.
    """
    col = check_column(lt, col)
    absent = set(range(1, lt.n + 1)) - {abs(x) for x in col}
    I = sorted((z for z in col if z > 0 and -z in col), reverse=True)
    J = []
    bound = lt.n + 1
    for z in I:
        cands = [t for t in absent if t < min(bound, z)]
        if not cands:
            raise ValidationError(f"column {tuple(col)} is not splittable (not KN)")
        t = max(cands)
        J.append(t)
        absent.discard(t)
        bound = t
    subs = dict(zip(I, J))
    key = lambda x: letter_key(lt, x)
    r_col = sorted((-subs[-x] if x < 0 and -x in subs else x for x in col), key=key)
    l_col = sorted((subs[x] if x > 0 and x in subs else x for x in col), key=key)
    return tuple(r_col), tuple(l_col)


def enumerate_kn_columns(lt: LieType, k: int) -> list[tuple[int, ...]]:
    """All KN columns of height k over the signed alphabet, sorted."""
    if not 1 <= k <= lt.n:
        raise ValidationError(f"height {k} out of range for n={lt.n}")
    alpha = letters(lt)
    return [c for c in combinations(alpha, k) if is_kn_column(lt, c)]


def maxcol(A, B) -> tuple[int, ...]:
    """Entrywise-largest increasing integer column <= A and disjoint from B."""
    A, B = list(A), set(B)
    out = [0] * len(A)
    bound = None
    for i in range(len(A) - 1, -1, -1):
        c = A[i] if bound is None else min(A[i], bound - 1)
        while c in B:
            c -= 1
        out[i] = c
        bound = c
    return tuple(out)


def int_set(lt: LieType, C, Cp) -> set[int]:
    """int(C, C'): letters strictly between paired entries, minus +-C."""
    key = lambda x: letter_key(lt, x)
    out = set()
    for a, b in zip(C, Cp):
        out.update(x for x in letters(lt) if key(a) < key(x) < key(b))
    return out - {c for x in C for c in (x, -x)}


def condition_r1(lt: LieType, C, Cp) -> bool:
    return {abs(x) for x in C} == {abs(x) for x in Cp}


def condition_r2(lt: LieType, C, Cp) -> bool:
    key = lambda x: letter_key(lt, x)
    return all(
        (a > 0) == (b > 0) and key(a) <= key(b) for a, b in zip(C, Cp)
    )


def condition_r3(lt: LieType, C, Cp) -> bool:
    return not int_set(lt, C, Cp)


def split_candidates_equal(lt: LieType, Dp, D) -> bool:
    """Splitting characterization: (D', D) is (rK, lK) for the KN column K
    assembled from the positive part of D' and the negative part of D."""
    key = lambda x: letter_key(lt, x)
    kand = sorted([x for x in Dp if x > 0] + [x for x in D if x < 0], key=key)
    if len(kand) != len(D):
        return False
    try:
        r_col, l_col = split_column(lt, kand)
    except ValidationError:
        return False
    return (tuple(Dp), tuple(D)) == (r_col, l_col)


def maxcol_formulas_hold(lt: LieType, Dp, D) -> bool:
    """The maxcol reconstruction identities on sorted columns D' and D."""
    d_neg = sorted(abs(x) for x in D if x < 0)
    dp_neg = sorted(abs(x) for x in Dp if x < 0)
    dp_pos = sorted(x for x in Dp if x > 0)
    d_pos = sorted(x for x in D if x > 0)
    if len(d_neg) != len(dp_neg):
        return False
    if tuple(dp_neg) != maxcol(d_neg, dp_pos):
        return False
    return d_pos == sorted((set(dp_pos) | set(dp_neg)) - set(d_neg))
