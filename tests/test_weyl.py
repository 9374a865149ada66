"""Core Weyl-group arithmetic, checked against independent brute force."""

from collections import deque
from itertools import product

import pytest
from hypothesis import given, strategies as st

from charge_lab.weyl import (
    LieType,
    ValidationError,
    act_on_weight,
    all_elements,
    apply_root,
    check_dominant,
    check_window,
    circ_between,
    circ_offset,
    column_counts,
    conjugate,
    coroot_pairing,
    identity,
    length,
    letter_key,
    letters,
    positive_roots,
    rho_pairing,
    root_for_positions,
    root_vector,
    simple_roots,
    value_at,
    w0_word,
    window_ranks,
    window_str,
)
from references import normalize_weight

A3 = LieType("A", 3)
C2 = LieType("C", 2)
C3 = LieType("C", 3)


def longest_element(lt):
    """w0: the reversal in type A, -1 in type C."""
    if lt.variant == "A":
        return tuple(range(lt.n, 0, -1))
    return tuple(-i for i in range(1, lt.n + 1))


def bfs_lengths(lt):
    """Word length over simple generators, by breadth-first search."""
    start = identity(lt)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for r in simple_roots(lt):
            v = apply_root(lt, w, r)
            if v not in dist:
                dist[v] = dist[w] + 1
                queue.append(v)
    return dist


@pytest.mark.parametrize("lt", [LieType("A", 2), A3, LieType("A", 4), LieType("C", 1), C2, C3])
def test_length_matches_bfs_word_length(lt):
    dist = bfs_lengths(lt)
    assert len(dist) == len(all_elements(lt))
    for w in all_elements(lt):
        assert length(lt, w) == dist[w], w


def pairwise_length(lt, w):
    """Type C length by its definition: the pairs (k, l) of one-line
    positions with k <= |l| and w(k) above w(l) in the alphabet order."""
    key = lambda x: letter_key(lt, x)
    return sum(
        1
        for k in range(1, lt.n + 1)
        for l in letters(lt)
        if k <= abs(l) and key(value_at(w, k)) > key(value_at(w, l))
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_length_matches_pairwise_definition(n):
    lt = LieType("C", n)
    for w in all_elements(lt):
        assert length(lt, w) == pairwise_length(lt, w), w


def test_specific_lengths():
    assert length(C2, (-2, -1)) == 3
    assert length(C2, (-1, -2)) == 4
    assert length(A3, (3, 2, 1)) == 3
    assert length(C3, identity(C3)) == 0


@pytest.mark.parametrize(
    "lt,expected",
    [(A3, 3), (LieType("A", 4), 6), (C2, 4), (C3, 9)],
)
def test_longest_element_length(lt, expected):
    w0 = longest_element(lt)
    assert length(lt, w0) == expected
    assert all(length(lt, w) <= expected for w in all_elements(lt))


def test_letter_order_type_c():
    # 1 < 2 < ... < n < n-bar < ... < 1-bar
    assert letters(C3) == [1, 2, 3, -3, -2, -1]
    keys = [letter_key(C3, x) for x in letters(C3)]
    assert keys == sorted(keys)
    assert letter_key(C3, -1) == 5
    assert window_ranks(C3, letters(C3)) == keys


def test_circular_order():
    assert circ_between(A3, 1, 2, 3)
    assert not circ_between(A3, 1, 3, 2)
    assert circ_between(A3, 3, 1, 2)  # wraps around
    assert circ_offset(C2, -1, 1) == 1
    assert circ_offset(C2, 1, 1) == 0
    with pytest.raises(ValidationError):
        circ_between(A3, 1, 2, 1)


@pytest.mark.parametrize(
    "lt", [LieType("A", n) for n in range(2, 6)] + [LieType("C", n) for n in range(1, 5)]
)
def test_circular_helpers_match_the_letter_key_formula(lt):
    alphabet = letters(lt)
    off = lambda a, b: (letter_key(lt, b) - letter_key(lt, a)) % len(alphabet)
    for a in alphabet:
        for b in alphabet:
            assert circ_offset(lt, a, b) == off(a, b), (a, b)
            for c in alphabet:
                if a == c:
                    with pytest.raises(ValidationError):
                        circ_between(lt, a, b, c)
                else:
                    assert circ_between(lt, a, b, c) == (0 < off(a, b) < off(a, c)), (a, b, c)


@pytest.mark.parametrize("lt", [A3, C2])
def test_apply_root_is_involution(lt):
    for w in all_elements(lt):
        for r in positive_roots(lt):
            assert apply_root(lt, apply_root(lt, w, r), r) == w


def test_root_for_positions_full_one_line():
    # transposing one-line positions agrees with the root action
    lt = C3
    for w in all_elements(lt):
        for i in range(1, 4):
            for m in list(range(i + 1, 4)) + [-p for p in range(1, 4)]:
                r = root_for_positions(lt, i, m)
                v = apply_root(lt, w, r)
                if m != -i:
                    assert value_at(v, i) == value_at(w, m)
                    assert value_at(v, m) == value_at(w, i)
                else:
                    assert value_at(v, i) == -value_at(w, i)


def test_rho_pairings():
    # <rho, alpha-check> values driving quantum edge drops
    assert rho_pairing(A3, (1, 3)) == 2
    assert rho_pairing(C3, (1, -1)) == 3
    assert rho_pairing(C3, (1, -2)) == 5
    assert rho_pairing(C3, (2, -3)) == 3


@pytest.mark.parametrize(
    "lt", [LieType("A", n) for n in range(2, 7)] + [LieType("C", n) for n in range(1, 6)]
)
def test_w0_word_is_a_reduced_word_of_w0(lt):
    word = w0_word(lt)
    assert set(word) <= set(simple_roots(lt))
    v = identity(lt)
    for r in word:
        v = apply_root(lt, v, r)
    w0 = longest_element(lt)
    assert v == w0
    assert len(word) == length(lt, w0)


def test_check_dominant_pads_and_normalizes():
    assert check_dominant(C3, (2, 1)) == (2, 1, 0)
    assert check_dominant(A3, (3, 2, 1)) == (2, 1, 0)
    with pytest.raises(ValidationError):
        check_dominant(A3, (1, 2))
    with pytest.raises(ValidationError):
        check_dominant(C2, (1, 1, 1))


def test_normalize_weight():
    assert normalize_weight(A3, (3, 2, 1)) == (2, 1, 0)
    assert normalize_weight(C3, (3, 2, 1)) == (3, 2, 1)


def test_unknown_lie_type_is_refused():
    with pytest.raises(ValidationError, match="unknown type 'B'"):
        LieType("B", 2)


def test_window_validation():
    with pytest.raises(ValidationError):
        check_window(A3, (1, 1, 2))
    with pytest.raises(ValidationError):
        check_window(C2, (1, -1))
    assert window_str((2, -1, 3)) == "21~3"


@given(st.permutations(list(range(1, 5))))
def test_coroot_pairing_linear(w):
    lam = tuple(w)
    lt = LieType("A", 4)
    for r in positive_roots(lt):
        i, j = r
        assert coroot_pairing(lt, lam, r) == lam[i - 1] - lam[j - 1]


def test_root_reflection_acts_on_weights_by_its_vector_and_coroot():
    # s_beta(lam) = lam - <lam, beta-check> beta ties apply_root, root_vector
    # and coroot_pairing together, the long roots 2e_i included
    cases = 0
    for lt in [LieType("A", n) for n in range(2, 7)] + [LieType("C", n) for n in range(1, 6)]:
        for r in positive_roots(lt):
            beta = root_vector(lt, r)
            assert coroot_pairing(lt, beta, r) == 2, (lt, r)
            s_beta = apply_root(lt, identity(lt), r)
            for lam in product(range(-1, 3), repeat=lt.n):
                c = coroot_pairing(lt, lam, r)
                assert act_on_weight(lt, s_beta, lam) == tuple(
                    x - c * b for x, b in zip(lam, beta)), (lt, r, lam)
                cases += 1
    assert cases == 103_764


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5))
def test_column_counts_run_length_encode_the_conjugate(parts):
    mu = tuple(sorted(parts, reverse=True))
    heights = [k for k, m in reversed(column_counts(mu)) for _ in range(m)]
    assert tuple(heights) == conjugate(mu)
    assert all(m > 0 for _, m in column_counts(mu))


def test_column_counts_of_a_huge_part():
    assert column_counts((99999999, 5, 0)) == [(1, 99999994), (2, 5)]


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=5))
def test_conjugate_is_an_involution(parts):
    mu = tuple(sorted(parts, reverse=True))
    assert conjugate(conjugate(mu)) == tuple(m for m in mu if m)
    assert sum(conjugate(mu)) == sum(mu)
