"""Alcove chains: fixed layouts, levels, and the root-multiplicity check."""

import re
import time

import pytest
from hypothesis import given, strategies as st

from charge_lab.chains import chain_from_roots, chain_length, chain_str, mu_chain
from charge_lab.fillings import check_filling, filling_map
from charge_lab.verify import scope_weights
from charge_lab.weyl import (
    LieType,
    ValidationError,
    conjugate,
    coroot_pairing,
    identity,
    positive_roots,
)

A4 = LieType("A", 4)
C3 = LieType("C", 3)


def omega_chain(lt, k):
    """The omega_k-chain: the mu-chain of a single column of height k."""
    return mu_chain(lt, (1,) * k).roots


def test_omega_chain_type_a_layout():
    # k rows, row i running (i,n), (i,n-1), ..., (i,k+1)
    assert omega_chain(A4, 1) == ((1, 4), (1, 3), (1, 2))
    assert omega_chain(A4, 2) == ((1, 4), (1, 3), (2, 4), (2, 3))
    assert omega_chain(A4, 3) == ((1, 4), (2, 4), (3, 4))


def test_omega_chain_type_c_k1():
    assert omega_chain(C3, 1) == ((1, -2), (1, -3), (1, -1), (1, 3), (1, 2))


def test_mu_chain_a_matches_display():
    chain = mu_chain(A4, (3, 2, 1, 0))
    assert chain_str(chain) == "(1,4),(1,3),(1,2) | (1,4),(1,3),(2,4),(2,3) | (1,4),(2,4),(3,4)"
    assert chain.levels == (1, 1, 1, 2, 2, 1, 1, 3, 2, 1)


def test_mu_chain_c_matches_display():
    chain = mu_chain(C3, (2, 1, 0))
    assert chain_str(chain) == (
        " | (1,2~),(1,3~),(1,1~),(1,3),(1,2)"
        " || (1,2~) | (1,3~),(1,1~),(1,3),(1,2~),(2,3~),(2,2~),(2,3)"
    )
    assert chain.root_at(6) == (1, -2)
    assert chain.level_at(6) == 2
    # (1,2~) occurs at positions 1, 6, 10
    assert chain.root_at(10) == (1, -2) and chain.level_at(10) == 3


def test_level_at_position_six_of_type_a_chain():
    chain = mu_chain(A4, (3, 2, 1, 0))
    assert chain.root_at(6) == (2, 4)
    assert chain.level_at(6) == 1


@pytest.mark.parametrize(
    "lt,mus",
    [
        (LieType("A", 3), [(1,), (2,), (2, 1), (2, 2), (3, 1), (4,)]),
        (LieType("C", 2), [(1,), (1, 1), (2, 1), (3,), (2, 2)]),
    ],
)
def test_root_multiplicity_equals_coroot_pairing(lt, mus):
    # each positive root is crossed <mu, alpha-check> times on the walk
    for mu in mus:
        chain = mu_chain(lt, mu)
        from charge_lab.weyl import check_dominant

        padded = check_dominant(lt, mu)
        for r in positive_roots(lt):
            assert chain.roots.count(r) == coroot_pairing(lt, padded, r), (mu, r)


def test_levels_count_prefix_occurrences():
    chain = mu_chain(C3, (2, 2, 1))
    for pos in range(1, len(chain) + 1):
        r = chain.root_at(pos)
        assert chain.level_at(pos) == chain.roots[:pos].count(r)


def test_chain_from_roots_has_no_segments():
    chain = chain_from_roots(LieType("A", 3), (3, 1), [(1, 3), (1, 2)])
    assert chain.parts == ()
    assert chain_str(chain) == "(1,3),(1,2)"


@pytest.mark.parametrize("root", [(3, 1), (1, 5), (1, -2), (1, 2, 3), (1,), 5, None])
def test_chain_from_roots_rejects_a_bad_root(root):
    # a root that is not a pair is refused as a bad label, not unpacked
    with pytest.raises(ValidationError, match=re.escape(f"bad root label {root} for type A, n=3")):
        chain_from_roots(LieType("A", 3), (1,), [(1, 3), root])


def test_chain_from_roots_takes_a_root_given_as_a_list():
    assert chain_from_roots(LieType("A", 3), (1,), [[1, 3]]).roots == ((1, 3),)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_empty_and_padded_weights(parts):
    mu = tuple(sorted(parts, reverse=True))
    lt = LieType("C", 4)
    chain = mu_chain(lt, mu)
    assert len(chain) == sum(len(omega_chain(lt, k)) for k in conjugate(chain.mu))


SCOPES = [(LieType("A", n), 5) for n in range(2, 6)] + [(LieType("C", n), 4) for n in range(1, 5)]


@pytest.mark.parametrize("lt,size", SCOPES)
def test_mu_conj_and_chain_length_on_the_scope_weights(lt, size):
    for mu in scope_weights(lt, size):
        chain = mu_chain(lt, mu)
        # one part per column of mu in type A, two in type C, rightmost first
        heights = [height for height, _, _ in chain.parts]
        assert heights[::-1 if lt.variant == "A" else -2] == list(conjugate(chain.mu)), mu
        assert chain_length(lt, mu) == len(chain), mu


def test_parts_and_rows_tile_the_chain():
    # the parts tile the chain in order, no root repeats inside a part, so
    # the inverse filling map finds each fold by its part alone, and part
    # d is as tall as column d of the filling map
    for lt, size in SCOPES:
        for mu in scope_weights(lt, size):
            chain = mu_chain(lt, mu)
            end = 0
            for d, (height, lo, hi) in enumerate(chain.parts):
                assert lo == end <= hi, (mu, d)
                part = chain.roots[lo:hi]
                assert len(set(part)) == len(part), (mu, d)
                end = hi
            assert end == len(chain), mu
            f = filling_map(chain, identity(lt), ())
            check_filling(f)
            assert f.heights == tuple(height for height, _, _ in chain.parts), mu


def test_mu_chain_refuses_a_huge_part_before_building_it():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="the chain length for A2 mu=10000000 is "
                                              "10,000,000, over the limit"):
        mu_chain(LieType("A", 2), (10**7,))
    assert time.perf_counter() - start < 1


def test_chain_length_of_a_huge_part_is_counted_without_a_chain():
    assert chain_length(LieType("A", 2), (99999999,)) == 99999999
    # m_1 = 99999994 columns of height 1 (5 roots each), 5 of height 2 (8 each)
    assert chain_length(C3, (99999999, 5)) == 99999994 * 5 + 5 * 8
