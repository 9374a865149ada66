"""Polynomial engine: both constructions, the character oracle, rendering."""

from itertools import product

import pytest

from charge_lab.poly import (
    act_on_poly,
    charge_formula_t0,
    is_invariant,
    poly_json,
    poly_mul,
    poly_term,
    ram_yip_t0,
    render_text,
    specialize_q,
    sum_coefficients,
    weyl_character,
)
from charge_lab.charge import charge
from charge_lab.fillings import content, enumerate_bmu
from charge_lab.verify import scope_weights
from charge_lab.weyl import (
    LieType,
    act_on_weight,
    all_elements,
    check_dominant,
    conjugate,
    length,
    rho,
)


def ssyt_polynomial(shape, n):
    """Schur polynomial by direct semistandard tableau enumeration."""
    heights = conjugate(shape)
    columns_by_height = {}

    def columns(h):
        # strictly increasing columns with entries in 1..n
        if h not in columns_by_height:
            from itertools import combinations

            columns_by_height[h] = [c for c in combinations(range(1, n + 1), h)]
        return columns_by_height[h]

    poly = {}
    col_heights = list(heights)  # left to right, tallest first
    for combo in product(*(columns(h) for h in col_heights)):
        ok = True
        for left, right in zip(combo, combo[1:]):
            # rows weakly increase left to right
            if any(left[i] > right[i] for i in range(len(right))):
                ok = False
                break
        if not ok:
            continue
        exps = [0] * n
        for col in combo:
            for x in col:
                exps[x - 1] += 1
        key = (0, tuple(exps))
        poly[key] = poly.get(key, 0) + 1
    return poly


def test_trivial_pins():
    assert render_text(ram_yip_t0(LieType("A", 2), (1,))) == "x1 + x2"
    assert render_text(ram_yip_t0(LieType("C", 1), (1,))) == "x1 + x1^-1"


def test_weyl_character_pins():
    assert render_text(weyl_character(LieType("A", 3), (1,))) == "x1 + x2 + x3"
    assert render_text(weyl_character(LieType("C", 2), (1,))) == "x1 + x2 + x2^-1 + x1^-1"


def test_single_column_is_schur_with_no_q():
    p = ram_yip_t0(LieType("A", 3), (1, 1, 0))
    assert p == ssyt_polynomial((1, 1), 3)
    assert all(qdeg == 0 for qdeg, _ in p)


def test_q0_specialization_is_schur():
    p = ram_yip_t0(LieType("A", 3), (2, 1, 0))
    assert specialize_q(p, 0) == ssyt_polynomial((2, 1), 3)


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 3), (2, 1, 0)), (LieType("A", 3), (2, 2)), (LieType("C", 2), (2, 1))],
)
def test_constructions_agree(lt, mu):
    p = ram_yip_t0(lt, mu)
    assert p == charge_formula_t0(lt, mu)
    assert specialize_q(p, 0) == weyl_character(lt, mu)
    assert is_invariant(lt, p)
    assert all(c > 0 for c in p.values())


def test_q1_mass_counts_the_index_set():
    lt = LieType("C", 2)
    p = ram_yip_t0(lt, (2, 1))
    assert sum_coefficients(specialize_q(p, 1)) == len(enumerate_bmu(lt, (2, 1)))


def alternant(lt, lam):
    """A(lam) = sum over W of (-1)^length(w) x^w(lam)."""
    out = {}
    for w in all_elements(lt):
        key = (0, act_on_weight(lt, w, lam))
        out[key] = out.get(key, 0) + (-1) ** length(lt, w)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize(
    "lt,max_size",
    [(LieType("A", n), 4) for n in (2, 3, 4)] + [(LieType("C", n), 3) for n in (1, 2, 3)],
)
def test_weyl_formula_multiplied_out(lt, max_size):
    # Weyl's formula without division: char(mu) * A(rho) == A(mu + rho)
    r = rho(lt)
    for mu in scope_weights(lt, max_size):
        shifted = tuple(a + b for a, b in zip(check_dominant(lt, mu), r))
        assert poly_mul(weyl_character(lt, mu), alternant(lt, r)) == alternant(lt, shifted)


def test_act_on_poly_permutes_exponents():
    lt = LieType("A", 2)
    p = poly_term(1, 2, (3, 1))
    assert act_on_poly(lt, (2, 1), p) == poly_term(1, 2, (1, 3))


def test_render_and_json():
    p = {(0, (2, 0)): 1, (1, (1, 0)): 2, (0, (0, 0)): 3, (2, (0, 1)): -1}
    assert render_text(p) == "x1^2 + 3 + 2*q x1 - q^2 x2"
    data = poly_json(p)
    assert data["schema"] == "charge-lab/polynomial/1"
    assert data["terms"][0] == {"q": 0, "exps": [2, 0], "coeff": 1}
    assert render_text({}) == "0"


def test_invariance_failure_detected():
    lt = LieType("A", 2)
    assert not is_invariant(lt, poly_term(1, 0, (1, 0)))
    # x1 + x2 is fixed by s_1; only the long root 2e_2 moves it in C2, only s_2 in A3
    c2 = LieType("C", 2)
    p = {**poly_term(1, 0, (1, 0)), **poly_term(1, 0, (0, 1))}
    assert act_on_poly(c2, (2, 1), p) == p
    assert not is_invariant(c2, p)
    a3 = LieType("A", 3)
    p = {**poly_term(1, 0, (1, 0, 0)), **poly_term(1, 0, (0, 1, 0))}
    assert act_on_poly(a3, (2, 1, 3), p) == p
    assert not is_invariant(a3, p)


# scope_weights sweeps of A n <= 5 and C n <= 4, and the construct ladder
SWEEP = [(LieType(v, n), mu) for v, n, size in
         [("A", 2, 6), ("A", 3, 6), ("A", 4, 5), ("A", 5, 4),
          ("C", 1, 6), ("C", 2, 5), ("C", 3, 4), ("C", 4, 2)]
         for mu in scope_weights(LieType(v, n), size)]
SWEEP += [(LieType(v, n), mu) for v, n, mu in
          [("A", 4, (2, 1)), ("A", 5, (3, 2, 1)), ("A", 6, (3, 2, 1)), ("A", 7, (3, 2, 1)),
           ("C", 2, (2, 1)), ("C", 3, (3, 2, 1)), ("C", 4, (2, 2, 1)), ("C", 4, (3, 2, 1))]]


def test_charge_formula_equals_the_tally_without_reuse():
    for lt, mu in SWEEP:
        tally = {}
        for tau in enumerate_bmu(lt, mu):
            key = (charge(tau), content(tau))
            tally[key] = tally.get(key, 0) + 1
        # term order included
        assert list(charge_formula_t0(lt, mu).items()) == list(tally.items()), (lt, mu)
