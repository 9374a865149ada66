"""Folding pairs: signs, weights, levels, admissibility, enumeration."""

from itertools import combinations

import pytest

from charge_lab import foldings
from charge_lab.chains import chain_from_roots, mu_chain
from charge_lab.charge import charge
from charge_lab.fillings import (
    Filling,
    check_filling,
    content,
    filling_map,
    inverse_filling_map,
    ord_filling,
)
from charge_lab.foldings import (
    check_pair,
    enumerate_admissible,
    fold_chain,
    level_of,
    weight_of,
)
from charge_lab.kn import split_column
from charge_lab.qbg import EdgeKind, edge_by_criterion, edge_by_length
from charge_lab.verify import scope_weights
from charge_lab.weyl import (
    LieType,
    ValidationError,
    act_on_weight,
    all_elements,
    apply_root,
    coroot_pairing,
    identity,
    length,
    rho_pairing,
    root_vector,
    window_str,
)
from references import weights_equal

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


def is_admissible(chain, w, J, method="identity"):
    """Membership test for the surviving Ram-Yip index set.

    'identity' evaluates the defining arithmetic identity (every summand
    of which is non-negative); 'path' checks that the reversed folds make
    a quantum Bruhat graph path ending at the identity element.
    """
    lt = chain.lt
    w, J = check_pair(chain, w, J)
    if method == "identity":
        folded = fold_chain(chain, w, J)
        total = length(lt, w) + length(lt, folded.end) - len(J)
        total += 2 * sum(rho_pairing(lt, chain.root_at(j)) for j in folded.J_minus)
        return total == 0
    if method == "path":
        folded = fold_chain(chain, w, J)
        if folded.end != identity(lt):
            return False
        elems = folded.elements
        for i, j in enumerate(J):
            # the backward step w_i -> w_{i-1} must be a graph edge
            if edge_by_criterion(lt, elems[i + 1], chain.root_at(j)) is None:
                return False
        return True
    raise ValidationError(f"unknown admissibility method {method!r}")


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


A3_CHAIN = mu_chain(LieType("A", 3), (2, 1))
NOT_INTEGERS = (True, 1.0, 1.5, "1")
BY_PAIR = [fold_chain, level_of, weight_of, filling_map]
REFUSALS = (
    [(f, (x, 2, 3), (1,)) for f in BY_PAIR for x in NOT_INTEGERS]
    + [(f, (1, 2, 3), (x,)) for f in BY_PAIR for x in NOT_INTEGERS]
    + [(lambda chain, w, J: edge_by_length(chain.lt, w, (1, 2)), (x, 2, 3), ())
       for x in NOT_INTEGERS]
    # a rank, a root entry and a letter, each passed in as w
    + [(fn, x, ()) for x in NOT_INTEGERS for fn in (
        lambda chain, x, J: LieType("C", x),
        lambda chain, x, J: chain_from_roots(chain.lt, (1,), [(x, 2)]),
        lambda chain, x, J: edge_by_criterion(chain.lt, (1, 2, 3), (x, 2)),
        lambda chain, x, J: edge_by_length(chain.lt, (1, 2, 3), (x, 2)),
        lambda chain, x, J: check_filling(Filling(chain.lt, ((x,),))),
        lambda chain, x, J: charge(Filling(chain.lt, ((x,),))),
        lambda chain, x, J: ord_filling(Filling(chain.lt, ((1, x),))),
        lambda chain, x, J: inverse_filling_map(mu_chain(chain.lt, (1,)),
                                                Filling(chain.lt, ((x,),))),
        lambda chain, x, J: split_column(LieType("C", 2), (x,)),
    )]
)


@pytest.mark.parametrize("fn,w,J", REFUSALS)
def test_entries_that_are_not_integers_are_refused(fn, w, J):
    # a comparison by value would take True and 1.0 for 1, and 1.5 or a
    # string would end in a raw TypeError
    with pytest.raises(ValidationError):
        fn(A3_CHAIN, w, J)


def test_a_bad_pair_gets_one_message_from_every_function_that_takes_it():
    # the window is checked before the positions, whichever function is called
    for fn in BY_PAIR:
        with pytest.raises(ValidationError) as exc:
            fn(A3_CHAIN, (1, 2), (0,))
        assert str(exc.value) == "window (1, 2) has wrong length for n=3"



def reference_enumerate_admissible(chain, edge_test=edge_by_criterion):
    """The enumerator as a recursive generator: one frame per chain
    position, the skip branch before the take branch."""
    lt = chain.lt

    def descend(pos, v, taken, level, lam):
        if pos == 0:
            yield v, tuple(reversed(taken)), level, act_on_weight(lt, v, lam)
            return
        yield from descend(pos - 1, v, taken, level, lam)
        r, l = chain.root_at(pos), chain.level_at(pos)
        kind = edge_test(lt, v, r)
        if kind is not None:
            coeff = coroot_pairing(lt, lam, r) - l
            lam_r = tuple(a - coeff * b for a, b in zip(lam, root_vector(lt, r)))
            taken.append(pos)
            yield from descend(pos - 1, apply_root(lt, v, r), taken,
                               level + l if kind is EdgeKind.QUANTUM else level, lam_r)
            taken.pop()

    yield from descend(len(chain), identity(lt), [], 0, chain.mu)


# scope_weights sweeps of A n <= 5 and C n <= 4, and the construct ladder
SCOPE_SWEEP = [(LieType(v, n), mu) for v, n, size in
               [("A", 2, 6), ("A", 3, 6), ("A", 4, 5), ("A", 5, 4),
                ("C", 1, 6), ("C", 2, 5), ("C", 3, 4), ("C", 4, 2)]
               for mu in scope_weights(LieType(v, n), size)]
SWEEP = SCOPE_SWEEP + [
    (LieType(v, n), mu) for v, n, mu in
    [("A", 4, (2, 1)), ("A", 5, (3, 2, 1)), ("A", 6, (3, 2, 1)), ("A", 7, (3, 2, 1)),
     ("C", 2, (2, 1)), ("C", 3, (3, 2, 1)), ("C", 4, (2, 2, 1)), ("C", 4, (3, 2, 1))]]


def test_enumeration_matches_recursive_reference():
    pairs = 0
    for lt, mu in SWEEP:
        chain = mu_chain(lt, mu)
        found = list(enumerate_admissible(chain))
        assert found == list(reference_enumerate_admissible(chain)), (lt, mu)
        pairs += len(found)
    assert len(SWEEP) == 93
    assert pairs == 30068


# root sequences off the mu-chain: the walk's v(lambda) update holds for
# any sequence, not only for the chains mu_chain builds
OFF_CHAIN = [
    # the six-crossing walk of test_weight_on_explicit_walk
    (LieType("A", 3), (3, 1, 0), [(1, 3), (1, 2), (1, 3), (2, 3), (1, 3), (1, 2)]),
    (LieType("C", 2), (2, 1), list(reversed(mu_chain(LieType("C", 2), (2, 1)).roots))),
    (C3, (2, 1, 1), list(reversed(mu_chain(C3, (2, 1, 1)).roots))),
    # (i, j-bar) and (i, i-bar) roots mixed, with some (i, j) among them
    (C3, (2, 1), [(1, -2), (1, -1), (2, -3), (2, -2), (1, 3), (1, -3), (3, -3), (2, 3),
                  (1, -2), (1, -1), (2, -2), (1, 2)]),
]


def test_enumeration_off_the_mu_chain_matches_recursive_reference():
    counts = []
    for lt, mu, roots in OFF_CHAIN:
        chain = chain_from_roots(lt, mu, roots)
        found = list(enumerate_admissible(chain))
        assert found == list(reference_enumerate_admissible(chain)), (lt, mu)
        counts.append(len(found))
    assert counts == [27, 8, 4, 36]


def counting(calls):
    """edge_by_criterion, recording each (w, r) it is asked about."""
    def test(lt, w, r):
        calls.append((w, r))
        return edge_by_criterion(lt, w, r)
    return test


def test_enumeration_makes_the_reference_edge_tests():
    chain = mu_chain(C3, (3, 2, 1))
    stack, reference = [], []
    list(enumerate_admissible(chain, edge_test=counting(stack)))
    list(reference_enumerate_admissible(chain, edge_test=counting(reference)))
    assert len(reference) == 3697
    assert len(stack) == len(set(stack)) == 275
    assert set(stack) == set(reference)


def test_construct_ladder_tests_each_edge_once_per_input():
    tests = reference_tests = 0
    for lt, mu in SWEEP[len(SCOPE_SWEEP):]:
        chain = mu_chain(lt, mu)
        stack, reference = [], []
        list(enumerate_admissible(chain, edge_test=counting(stack)))
        list(reference_enumerate_admissible(chain, edge_test=counting(reference)))
        assert len(stack) == len(set(stack)) and set(stack) == set(reference), (lt, mu)
        tests += len(stack)
        reference_tests += len(reference)
    assert (tests, reference_tests) == (9281, 77429)


def test_walk_applies_each_edge_found_once_per_input(monkeypatch):
    # the edge memo holds each edge's target, so the walk multiplies v * r
    # once per up or quantum edge it finds, not once per take
    products, kinds = [], []

    def counted_product(lt, w, r):
        products.append((w, r))
        return apply_root(lt, w, r)

    def recorded(lt, w, r):
        kinds.append(edge_by_criterion(lt, w, r))
        return kinds[-1]

    chains = [mu_chain(lt, mu) for lt, mu in SWEEP[len(SCOPE_SWEEP):]]
    monkeypatch.setattr(foldings, "apply_root", counted_product)
    for chain in chains:
        list(enumerate_admissible(chain, edge_test=recorded))
    up, quantum = kinds.count(EdgeKind.UP), kinds.count(EdgeKind.QUANTUM)
    assert (len(products), up, quantum) == (2971, 2287, 684)


def test_edge_memo_lives_for_one_call():
    # a memo that outlived the call would answer the second run from the
    # first and hide an injected edge test
    chain = mu_chain(C3, (3, 2, 1))
    list(enumerate_admissible(chain))
    calls = []
    list(enumerate_admissible(chain, edge_test=counting(calls)))
    assert len(calls) == 275


def reference_fold_signs(chain, w, J):
    """Fold signs with two lengths computed per fold, as fold_chain did
    before it carried each element's length to the next fold."""
    lt = chain.lt
    plus, minus = [], []
    v = w
    for j in J:
        nxt = apply_root(lt, v, chain.root_at(j))
        (plus if length(lt, nxt) < length(lt, v) else minus).append(j)
        v = nxt
    return tuple(plus), tuple(minus)


def test_fold_signs_match_the_two_length_reference():
    pairs = 0
    for lt, mu in SCOPE_SWEEP:
        chain = mu_chain(lt, mu)
        for w, J, _, _ in enumerate_admissible(chain):
            folded = fold_chain(chain, w, J)
            assert (folded.J_plus, folded.J_minus) == reference_fold_signs(chain, w, J)
            pairs += 1
    assert pairs == 9739
