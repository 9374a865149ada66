"""Polynomial engine: both constructions, the character oracle, rendering."""

import json
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from charge_lab.poly import (
    _demazure,
    charge_formula_t0,
    dominant_character,
    is_invariant,
    orbit,
    poly_json_str,
    poly_mul,
    poly_term,
    ram_yip_t0,
    render_text,
    specialize_q,
    weyl_character,
)
from charge_lab import chains, fillings, foldings, poly, weyl
from charge_lab.chains import mu_chain
from charge_lab.charge import charge
from charge_lab.fillings import bmu_size, content, enumerate_bmu
from charge_lab.qbg import EdgeKind
from charge_lab.verify import scope_weights
from charge_lab.weyl import (
    LieType,
    ValidationError,
    act_on_weight,
    all_elements,
    check_dominant,
    conjugate,
    length,
    rho,
    simple_roots,
)
from references import act_on_poly, demazure as reference_demazure
from references import is_invariant as reference_is_invariant
from references import poly_json as reference_poly_json


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
    [(LieType("A", 3), (2, 1, 0)), (LieType("A", 3), (2, 2)), (LieType("C", 2), (2, 1)),
     (LieType("C", 4), (3, 3, 1)), (LieType("C", 5), (3, 2, 1))],
)
def test_constructions_agree(lt, mu):
    p = ram_yip_t0(lt, mu)
    assert p == charge_formula_t0(lt, mu)
    assert specialize_q(p, 0) == weyl_character(lt, mu)
    assert is_invariant(lt, p)
    assert all(c > 0 for c in p.values())


@pytest.mark.parametrize("lt,mu", [(LieType("A", 20), (1, 1, 1)), (LieType("C", 10), (1, 1))])
def test_constructions_agree_at_large_rank(lt, mu):
    # the edge test reads long slices of the window here; budget: 1 s for both
    start = time.perf_counter()
    assert ram_yip_t0(lt, mu) == charge_formula_t0(lt, mu)
    assert time.perf_counter() - start < 1


def test_specialize_q_refuses_a_negative_q_degree():
    with pytest.raises(ValidationError, match="negative q-degree cannot be specialized"):
        specialize_q({(-1, (1, 0)): 1}, 2)


def test_q1_mass_counts_the_index_set():
    lt = LieType("C", 2)
    p = ram_yip_t0(lt, (2, 1))
    assert sum(specialize_q(p, 1).values()) == len(enumerate_bmu(lt, (2, 1)))


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


CHARACTER_SCOPES = [(LieType("A", n), 5) for n in (2, 3, 4, 5)] + [
    (LieType("C", n), 4) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("lt,max_size", CHARACTER_SCOPES)
def test_freudenthal_character_equals_the_demazure_character(lt, max_size):
    for mu in scope_weights(lt, max_size):
        if not mu:
            continue
        lam = check_dominant(lt, mu)
        chi = {(0, w): m for nu, m in dominant_character(lt, lam).items() for w in orbit(lt, nu)}
        assert chi == weyl_character(lt, mu), (lt, mu)


def test_act_on_poly_permutes_exponents():
    lt = LieType("A", 2)
    p = poly_term(1, 2, (3, 1))
    assert act_on_poly(lt, (2, 1), p) == poly_term(1, 2, (1, 3))


def test_render_and_json():
    p = {(0, (2, 0)): 1, (1, (1, 0)): 2, (0, (0, 0)): 3, (2, (0, 1)): -1}
    assert render_text(p) == "x1^2 + 3 + 2*q x1 - q^2 x2"
    data = json.loads(poly_json_str(p))
    assert data == reference_poly_json(p)
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
    # the zero weight is fixed by every reflection, yet act_on_poly drops a
    # zero coefficient, so the reference refuses it and so must the lookup
    for lt in (LieType("A", 2), c2):
        for p in ({(0, (0, 0)): 0}, {(0, (0, 0)): 1, (1, (0, 0)): 0}):
            assert not reference_is_invariant(lt, p)
            assert not is_invariant(lt, p)


# the oracle kernels against their whole-vector references on A2-A5 and C1-C4
ORACLE_TYPES = [LieType("A", n) for n in (2, 3, 4, 5)] + [LieType("C", n) for n in (1, 2, 3, 4)]


def oracle_polys(lt, coeffs=st.integers(-5, 5)):
    weights = st.tuples(*[st.integers(-4, 4)] * lt.n)
    return st.dictionaries(st.tuples(st.integers(0, 3), weights), coeffs, max_size=6)


def with_pairing(alpha, lam, m):
    """lam with its pairing against the simple root alpha set to m."""
    i, j = alpha
    lam = list(lam)
    if j > 0:
        lam[i] = lam[i - 1] - m
    else:
        lam[i - 1] = m
    return tuple(lam)


@st.composite
def demazure_cases(draw):
    """A type and a polynomial holding, for each simple root, a term of
    pairing -1 and one of pairing <= -2 with that root."""
    lt = draw(st.sampled_from(ORACLE_TYPES))
    p = draw(oracle_polys(lt))
    for alpha in simple_roots(lt):
        for m in (-1, draw(st.integers(-6, -2))):
            lam = with_pairing(alpha, draw(st.tuples(*[st.integers(-4, 4)] * lt.n)), m)
            p[(draw(st.integers(0, 3)), lam)] = draw(st.integers(-5, 5).filter(bool))
    return lt, p


@given(demazure_cases())
def test_demazure_step_equals_the_whole_vector_reference(case):
    lt, p = case
    for alpha in simple_roots(lt):
        assert _demazure(lt, alpha, p) == reference_demazure(lt, alpha, p), alpha


@st.composite
def invariance_cases(draw):
    """A type and a polynomial: a W-symmetrised one, then possibly edited by
    a bumped or zeroed coefficient, a dropped term, or an added zero term."""
    lt = draw(st.sampled_from(ORACLE_TYPES))
    p = draw(oracle_polys(lt, st.integers(-5, 5).filter(bool)))
    sym = {}
    for w in all_elements(lt):
        for key, c in act_on_poly(lt, w, p).items():
            sym[key] = sym.get(key, 0) + c
    sym = {k: v for k, v in sym.items() if v}
    edit = draw(st.sampled_from(["none", "raw", "bump", "zero", "drop", "add zero"]))
    if edit == "raw":
        sym = p
    elif edit in ("bump", "zero", "drop") and sym:
        key = draw(st.sampled_from(sorted(sym)))
        if edit == "drop":
            del sym[key]
        else:
            sym[key] = sym[key] + 1 if edit == "bump" else 0
    elif edit == "add zero":
        sym[(0, (0,) * lt.n)] = 0
    return lt, sym


@given(invariance_cases())
def test_invariance_lookup_gives_the_reference_verdict(case):
    lt, p = case
    assert is_invariant(lt, p) == reference_is_invariant(lt, p)


# scope_weights sweeps of A n <= 5 and C n <= 4, and the construct ladder
SWEEP = [(LieType(v, n), mu) for v, n, size in
         [("A", 2, 6), ("A", 3, 6), ("A", 4, 5), ("A", 5, 4),
          ("C", 1, 6), ("C", 2, 5), ("C", 3, 4), ("C", 4, 2)]
         for mu in scope_weights(LieType(v, n), size)]
SWEEP += [(LieType(v, n), mu) for v, n, mu in
          [("A", 4, (2, 1)), ("A", 5, (3, 2, 1)), ("A", 6, (3, 2, 1)), ("A", 7, (3, 2, 1)),
           ("C", 2, (2, 1)), ("C", 3, (3, 2, 1)), ("C", 4, (2, 2, 1)), ("C", 4, (3, 2, 1))]]


# one-row shapes, where a content coordinate reaches +mu_1 (A2) or -mu_1 (C1)
BOUNDARY = [(LieType(v, n), (mu1,)) for v, n in [("A", 2), ("C", 1)] for mu1 in (1, 2, 3, 4, 7, 8)]


@pytest.mark.parametrize("lt,mu", BOUNDARY)
def test_charge_formula_at_the_packed_field_boundaries(lt, mu):
    assert max(abs(e) for tau in enumerate_bmu(lt, mu) for e in content(tau)) == mu[0]
    tally = {}
    for tau in enumerate_bmu(lt, mu):
        key = (charge(tau), content(tau))
        tally[key] = tally.get(key, 0) + 1
    assert charge_formula_t0(lt, mu) == tally


@pytest.mark.parametrize("construction", [ram_yip_t0, charge_formula_t0])
def test_constructions_refuse_a_huge_part_quickly(construction):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"\|B_mu\| for A2 mu=10000000 is at least 2\^"):
        construction(LieType("A", 2), (10**7,))
    assert time.perf_counter() - start < 1


def test_weyl_character_refuses_an_oversized_index_set_quickly():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"\|B_mu\| for A10 mu=5,4,3,2,1 is 2,857,680,000"):
        weyl_character(LieType("A", 10), (5, 4, 3, 2, 1))
    assert time.perf_counter() - start < 1


def test_charge_formula_equals_the_tally_without_reuse():
    for lt, mu in SWEEP:
        tally = {}
        for tau in enumerate_bmu(lt, mu):
            key = (charge(tau), content(tau))
            tally[key] = tally.get(key, 0) + 1
        assert charge_formula_t0(lt, mu) == tally, (lt, mu)


def test_construct_ladder_charges_only_its_highest_weight_fillings(monkeypatch):
    # the walk visits all 20,329 pairs with 9,281 edge tests (2,287 up,
    # 684 quantum, 6,310 none), while charge runs on the 64 highest-weight
    # fillings only, and the column options come from one
    # enumerate_bmu(lt, (1,) * k) per distinct height
    counts = dict.fromkeys(["charge", "pairs", "edge tests", "column options"], 0)
    kinds = dict.fromkeys([EdgeKind.UP, EdgeKind.QUANTUM, None], 0)

    def counted(name, fn, size=lambda result: 1):
        def wrapper(*args):
            result = fn(*args)
            counts[name] += size(result)
            return result
        return wrapper

    def walk(chain):
        for pair in foldings.enumerate_admissible(chain):
            counts["pairs"] += 1
            yield pair

    def edge_test(lt, w, r, edge_by_criterion=foldings.edge_by_criterion):
        kind = edge_by_criterion(lt, w, r)
        kinds[kind] += 1
        return kind

    monkeypatch.setattr(poly, "charge", counted("charge", charge))
    monkeypatch.setattr(poly, "enumerate_bmu", counted("column options", enumerate_bmu, len))
    monkeypatch.setattr(poly, "enumerate_admissible", walk)
    monkeypatch.setattr(foldings, "edge_by_criterion", counted("edge tests", edge_test))
    for lt, mu in SWEEP[-8:]:  # the construct ladder
        assert ram_yip_t0(lt, mu) == charge_formula_t0(lt, mu), (lt, mu)
    assert counts == {"charge": 64, "pairs": 20329, "edge tests": 9281, "column options": 340}
    assert kinds == {EdgeKind.UP: 2287, EdgeKind.QUANTUM: 684, None: 6310}


def test_json_writer_matches_json_dumps_on_the_sweep():
    for lt, mu in SWEEP:
        p = charge_formula_t0(lt, mu)
        text = poly_json_str(p)
        assert text == json.dumps(reference_poly_json(p), indent=2), (lt, mu)
        assert json.loads(text) == reference_poly_json(p), (lt, mu)


@pytest.mark.parametrize(
    "p",
    [
        {},
        {(0, (1, 0)): -1, (0, (0, 1)): 1},
        {(0, (-3, 12)): 2, (1, (10, -11)): 1},
        {(10, (1,)): 1, (9, (1,)): 3, (123, (0,)): -45},
        # one vector at three q-degrees, beside others of the same q-degree,
        # coefficient and exponent sum
        {(0, (2, 1)): 1, (1, (2, 1)): -2, (3, (2, 1)): 5, (1, (1, 2)): 7, (0, (3, 0)): 1},
        {(0, ()): 3, (2, ()): -1},
    ],
    ids=["zero", "negative-coefficient", "negative-and-multi-digit-exponents", "q-degree-10",
         "one-vector-at-three-q-degrees", "empty-vector-at-two-q-degrees"],
)
def test_json_writer_edge_cases(p):
    text = poly_json_str(p)
    assert text == json.dumps(reference_poly_json(p), indent=2)
    assert json.loads(text) == reference_poly_json(p)


POLYS = st.integers(1, 4).flatmap(lambda n: st.dictionaries(
    st.tuples(st.integers(-20, 20), st.tuples(*[st.integers(-20, 20)] * n)),
    st.integers(-1000, 1000).filter(bool), min_size=1, max_size=8))


@given(POLYS)
def test_json_writer_matches_json_dumps_on_random_polynomials(p):
    assert poly_json_str(p) == json.dumps(reference_poly_json(p), indent=2)


@pytest.mark.parametrize("mu", [(2.5,), ("2",), (True,), (2.0, 1.0)])
@pytest.mark.parametrize(
    "entry", [mu_chain, ram_yip_t0, charge_formula_t0, weyl_character, bmu_size]
)
def test_entry_points_refuse_a_part_that_is_not_an_integer(entry, mu):
    for lt in (LieType("A", 3), LieType("C", 2)):
        with pytest.raises(ValidationError, match="not an integer"):
            entry(lt, mu)


def test_each_construction_checks_its_weight_once_per_entry(monkeypatch):
    # ram_yip_t0 checks mu in check_bmu_size and mu_chain; charge_formula_t0
    # in check_bmu_size and in each of the 3 enumerate_bmu calls that build
    # the column options. The size and length cores trust the padded mu.
    calls = []

    def counted(lt, mu):
        calls.append(mu)
        return check_dominant(lt, mu)

    for module in (chains, fillings, foldings, poly, weyl):
        for attr, value in list(vars(module).items()):
            if value is check_dominant:
                monkeypatch.setattr(module, attr, counted)
    C3 = LieType("C", 3)
    counts = []
    for construction in (ram_yip_t0, charge_formula_t0):
        calls.clear()
        construction(C3, (3, 2, 1))
        counts.append(len(calls))
    assert counts == [2, 4]
