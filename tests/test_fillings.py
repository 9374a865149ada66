"""Filling map, its inverse, sorting, reconstruction, and descent arms."""

import pytest
from hypothesis import given, settings, strategies as st

from charge_lab.chains import chain_from_roots, mu_chain
from charge_lab.fillings import (
    Filling,
    arm_statistic,
    bmu_size,
    check_filling,
    content,
    descents,
    enumerate_bmu,
    filling_from_json,
    filling_map,
    filling_str,
    inverse_filling_map,
    ord_filling,
    reconstruct_sigma,
)
from charge_lab.foldings import enumerate_admissible
from charge_lab.kn import condition_1
from charge_lab.verify import scope_weights
from charge_lab.weyl import LieType, ValidationError, conjugate, letter_key, letters

A4 = LieType("A", 4)
C3 = LieType("C", 3)


def test_filling_map_type_a_example():
    chain = mu_chain(A4, (3, 2, 1, 0))
    f = filling_map(chain, (2, 1, 3, 4), (3, 6, 7, 9, 10))
    assert f.columns == ((2,), (1, 2), (1, 3, 4))
    assert not f.split
    assert content(f) == (2, 2, 1, 1)


def test_filling_map_type_c_example():
    chain = mu_chain(C3, (2, 1, 0))
    f = filling_map(chain, (1, 2, 3), (3, 5, 6, 11, 12, 13))
    assert f.columns == ((1,), (1,), (2, -1), (1, -2))
    assert f.split
    assert content(f) == (1, 0, 0)


def test_inverse_round_trip_on_examples():
    chain = mu_chain(A4, (3, 2, 1, 0))
    f = filling_map(chain, (2, 1, 3, 4), (3, 6, 7, 9, 10))
    assert inverse_filling_map(chain, f) == ((2, 1, 3, 4), (3, 6, 7, 9, 10))

    chainc = mu_chain(C3, (2, 1, 0))
    fc = filling_map(chainc, (1, 2, 3), (3, 5, 6, 11, 12, 13))
    assert inverse_filling_map(chainc, fc) == ((1, 2, 3), (3, 5, 6, 11, 12, 13))


def test_reconstruct_sigma_type_a():
    lt = LieType("A", 6)
    tau = Filling(lt, ((2,), (1, 2, 4), (2, 3, 4), (3, 5, 6)))
    sigma = reconstruct_sigma(tau)
    assert sigma.columns == ((2,), (4, 2, 1), (3, 2, 4), (3, 5, 6))
    assert ord_filling(sigma).columns == tau.columns
    for d in range(3):
        assert condition_1(lt, sigma.columns[d], sigma.columns[d + 1])


def test_reconstruct_sigma_type_c():
    lt = LieType("C", 5)
    tau = Filling(
        lt,
        ((1, 3, -2), (1, 2, -3), (3, -4, -2), (2, -4, -3),
         (-5, -3, -2, -1), (-5, -3, -2, -1)),
        split=True,
    )
    sigma = reconstruct_sigma(tau)
    assert sigma.columns == (
        (-2, 1, 3), (-3, 1, 2), (-4, -2, 3), (-4, -3, 2),
        (-5, -3, -2, -1), (-5, -3, -2, -1),
    )
    assert {(j, i) for j, i, _ in descents(sigma)} == {(2, 2), (2, 3), (1, 3)}
    assert arm_statistic(sigma) == 4


def test_descents_type_a():
    lt = LieType("A", 6)
    sigma = Filling(lt, ((2,), (4, 2, 1), (3, 2, 4), (3, 5, 6)))
    cells = {(j, i) for j, i, _ in descents(sigma)}
    assert cells == {(3, 1), (2, 3), (1, 2), (1, 3)}


def test_content_odd_difference_rejected():
    f = Filling(C3, ((1,), (2,)), split=True)
    with pytest.raises(ValidationError):
        content(f)


def test_check_filling_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        check_filling(Filling(A4, ((1, 2), (1,))))  # heights must increase
    with pytest.raises(ValidationError):
        check_filling(Filling(A4, ((1, 1),)))  # repeated value
    with pytest.raises(ValidationError):
        check_filling(Filling(C3, ((1,), (1, 2)), split=True))


@pytest.mark.parametrize(
    "lt,columns,split",
    [(A4, ((1,), (0, 2)), False), (A4, ((5,),), False), (A4, ((1, -1),), False),
     (C3, ((1,), (1,), (2, 0), (2, 0)), True), (C3, ((4,), (4,)), True),
     (C3, ((-4,), (-4,)), True)],
)
def test_check_filling_rejects_a_letter_outside_the_alphabet(lt, columns, split):
    bad = next(x for c in columns for x in c if x not in letters(lt))
    with pytest.raises(ValidationError) as exc:
        check_filling(Filling(lt, columns, split))
    with pytest.raises(ValidationError) as expected:
        letter_key(lt, bad)
    assert str(exc.value) == str(expected.value)


def test_bmu_sizes():
    import math

    # type A columns are plain subsets
    assert len(enumerate_bmu(LieType("A", 3), (2, 1))) == 3 * 3
    # type C columns of height k number C(2n,k) - C(2n,k-2)
    lt = LieType("C", 2)
    assert len(enumerate_bmu(lt, (1,))) == 4
    assert len(enumerate_bmu(lt, (1, 1))) == math.comb(4, 2) - math.comb(4, 0)
    assert len(enumerate_bmu(lt, (2, 1))) == 4 * 5


def filling_json(f):
    """The JSON object filling_from_json reads, with the shape it implies."""
    return {
        "schema": "charge-lab/filling/1",
        "type": f.lt.variant,
        "n": f.lt.n,
        "shape": list(conjugate(f.mu_conjugate())),
        "columns": [list(c) for c in f.columns],
        "split": f.split,
    }


def test_filling_json_round_trip():
    chain = mu_chain(C3, (2, 1, 0))
    f = filling_map(chain, (1, 2, 3), (3, 5, 6, 11, 12, 13))
    data = filling_json(f)
    assert data["schema"] == "charge-lab/filling/1"
    assert data["shape"] == [2, 1]
    assert filling_from_json(data) == f
    assert "2 1~" in filling_str(f) or "1~" in filling_str(f)


def test_inverse_rejects_fillings_outside_the_image():
    chain = mu_chain(LieType("A", 3), (2, 1, 0))
    # rightmost column not increasing
    with pytest.raises(ValidationError):
        inverse_filling_map(chain, Filling(LieType("A", 3), ((1,), (2, 1))))
    # wrong shape
    with pytest.raises(ValidationError):
        inverse_filling_map(chain, Filling(LieType("A", 3), ((1, 2),)))


def test_inverse_refuses_a_chain_without_segment_structure():
    lt = LieType("A", 3)
    chain = chain_from_roots(lt, (1,), [(1, 3), (1, 2)])
    with pytest.raises(ValidationError, match="chain carries no segment structure"):
        inverse_filling_map(chain, Filling(lt, ((2,),)))


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 3), (2, 2, 0)), (LieType("A", 3), (3, 1, 0)), (LieType("C", 2), (2, 1))],
)
def test_round_trip_over_all_admissible_pairs(lt, mu):
    chain = mu_chain(lt, mu)
    seen = set()
    for w, J, _, _ in enumerate_admissible(chain):
        sigma = filling_map(chain, w, J)
        assert inverse_filling_map(chain, sigma) == (w, J)
        tau = ord_filling(sigma)
        assert reconstruct_sigma(tau).columns == sigma.columns
        seen.add(tau.columns)
    assert seen == {f.columns for f in enumerate_bmu(lt, mu)}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=19))
def test_reconstruction_round_trips_on_bmu(index):
    lt = LieType("C", 2)
    pool = enumerate_bmu(lt, (2, 1))
    tau = pool[index % len(pool)]
    sigma = reconstruct_sigma(tau)
    assert ord_filling(sigma).columns == tau.columns
    for d in range(len(sigma.columns) - 1):
        assert condition_1(lt, sigma.columns[d], sigma.columns[d + 1])


@pytest.mark.parametrize(
    "lt,size",
    [(LieType("A", n), 5) for n in range(2, 6)] + [(LieType("C", n), 4) for n in range(1, 5)],
)
def test_bmu_size_counts_enumerate_bmu(lt, size):
    for mu in scope_weights(lt, size):
        assert bmu_size(lt, mu) == len(enumerate_bmu(lt, mu)), mu


@pytest.mark.parametrize(
    "lt,mu,power",
    [(LieType("A", 2), (99999999,), 99999999), (C3, (99999999, 5), 99999994),
     (LieType("C", 1), (20,), 20)],
)
def test_bmu_size_refuses_a_repeated_height_before_the_power(lt, mu, power):
    with pytest.raises(ValidationError, match=rf"at least 2\^{power}, over the limit"):
        bmu_size(lt, mu)


def test_bmu_size_just_under_the_repeat_bound_is_exact():
    assert bmu_size(LieType("C", 1), (19,)) == 2**19


def test_enumerate_bmu_refuses_an_oversized_bmu_before_building_it():
    # two columns of height 10 in A20: C(20, 10)^2 = 184756^2 fillings
    with pytest.raises(ValidationError, match=r"\|B_mu\| for A20 mu=2,2,2,2,2,2,2,2,2,2 is "
                                              r"34,134,779,536, over the limit"):
        enumerate_bmu(LieType("A", 20), (2,) * 10)
