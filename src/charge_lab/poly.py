"""Exact Laurent polynomials in q and x_1..x_n over the integers, plus the
two independent ways to build the t=0 symmetric Macdonald polynomial: the
alcove-walk sum over admissible folding pairs, and the charge-graded sum
over tensor products of columns.

The q = 0 oracle is the Weyl character, computed by the Demazure character
formula: the Demazure operators of a reduced word of the longest element
applied to the monomial x^mu. Invariance is checked on the simple
reflections only.
"""

import json

from .chains import mu_chain
from .charge import charge, charge_word
from .fillings import content, enumerate_bmu
from .foldings import enumerate_admissible
from .weyl import (
    LieType,
    ValidationError,
    act_on_weight,
    apply_root,
    check_dominant,
    coroot_pairing,
    identity,
    root_vector,
    simple_roots,
    w0_word,
)


# Poly: dict mapping (qdeg, exps) -> integer coefficient, exps a tuple
Poly = dict


def poly_term(coeff: int, qdeg: int, exps) -> Poly:
    return {(qdeg, tuple(exps)): coeff} if coeff else {}


def poly_mul(p: Poly, other: Poly) -> Poly:
    out: Poly = {}
    for (qa, ea), ca in p.items():
        for (qb, eb), cb in other.items():
            key = (qa + qb, tuple(x + y for x, y in zip(ea, eb)))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def specialize_q(p: Poly, q0: int) -> Poly:
    out: Poly = {}
    for (qdeg, exps), c in p.items():
        if qdeg < 0:
            raise ValidationError("negative q-degree cannot be specialized")
        key = (0, exps)
        out[key] = out.get(key, 0) + c * q0**qdeg
    return {k: v for k, v in out.items() if v}


def sum_coefficients(p: Poly) -> int:
    return sum(p.values())


def act_on_poly(lt: LieType, w, p: Poly) -> Poly:
    """Apply a Weyl group element to the x-variables."""
    out: Poly = {}
    for (qdeg, exps), c in p.items():
        key = (qdeg, act_on_weight(lt, w, exps))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def is_invariant(lt: LieType, p: Poly) -> bool:
    """Invariance under the simple reflections, which generate W."""
    ident = identity(lt)
    return all(act_on_poly(lt, apply_root(lt, ident, a), p) == p for a in simple_roots(lt))


def _demazure(lt: LieType, alpha, p: Poly) -> Poly:
    """The Demazure operator of a simple root; on x^lam, with
    m = <lam, alpha-check>, it gives x^lam + x^(lam-alpha) + ... + x^(lam-m alpha)
    for m >= 0, zero for m = -1, and -(x^(lam+alpha) + ... + x^(lam+(-m-1)alpha))
    for m <= -2."""
    vec = root_vector(lt, alpha)
    out: Poly = {}
    for (qdeg, lam), c in p.items():
        m = coroot_pairing(lt, lam, alpha)
        ks, sign = (range(m + 1), 1) if m >= 0 else (range(-1, m, -1), -1)
        for k in ks:
            key = (qdeg, tuple(x - k * v for x, v in zip(lam, vec)))
            out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in out.items() if v}


def weyl_character(lt: LieType, mu) -> Poly:
    """The character of the highest-weight mu module by the Demazure
    character formula: pi_{w0}(x^mu), one Demazure operator per letter of a
    reduced word of w0; no q-variable appears."""
    p = poly_term(1, 0, check_dominant(lt, mu))
    for alpha in w0_word(lt):
        p = _demazure(lt, alpha, p)
    return p


def ram_yip_t0(lt: LieType, mu) -> Poly:
    """Alcove-walk sum: q^level x^weight over admissible folding pairs, with
    the level and weight the enumerator carries; the weight equals the
    content of the pair's filling exactly."""
    out: Poly = {}
    for _, _, level, weight in enumerate_admissible(mu_chain(lt, mu)):
        key = (level, weight)
        out[key] = out.get(key, 0) + 1
    return out


def charge_formula_t0(lt: LieType, mu) -> Poly:
    """Charge-graded sum: q^charge x^content over the column tensor product.

    Within one call the label alphabet is fixed, so charge depends only on
    the labels of the charge word; each distinct label word is charged once.
    """
    mu = check_dominant(lt, mu)
    out: Poly = {}
    # charge by label word, each label (j, primed) encoded as 2j + primed
    charges: dict[tuple[int, ...], int] = {}
    for tau in enumerate_bmu(lt, mu):
        word = tuple(2 * j + primed for _, (j, primed) in charge_word(tau))
        q = charges.get(word)
        if q is None:
            q = charges[word] = charge(tau)
        key = (q, content(tau))
        out[key] = out.get(key, 0) + 1
    return out


def _sorted_terms(p: Poly):
    return sorted(p.items(), key=lambda kv: (kv[0][0], tuple(-e for e in kv[0][1])))


def render_text(p: Poly) -> str:
    """Human rendering: ascending q-degree, then descending lex in the x's."""
    if not p:
        return "0"
    parts = []
    for (qdeg, exps), c in _sorted_terms(p):
        bits = []
        if qdeg == 1:
            bits.append("q")
        elif qdeg:
            bits.append(f"q^{qdeg}")
        for i, e in enumerate(exps, start=1):
            if e == 1:
                bits.append(f"x{i}")
            elif e:
                bits.append(f"x{i}^{e}")
        body = " ".join(bits)
        if abs(c) != 1 or not body:
            body = f"{abs(c)}*{body}" if body else str(abs(c))
        parts.append((c < 0, body))
    first_neg, first = parts[0]
    text = ("-" if first_neg else "") + first
    for neg, body in parts[1:]:
        text += (" - " if neg else " + ") + body
    return text


def poly_json(p: Poly) -> dict:
    return {
        "schema": "charge-lab/polynomial/1",
        "terms": [
            {"q": qdeg, "exps": list(exps), "coeff": c}
            for (qdeg, exps), c in _sorted_terms(p)
        ],
    }


def poly_json_str(p: Poly) -> str:
    return json.dumps(poly_json(p), indent=2)
