"""Exact Laurent polynomials in q and x_1..x_n over the integers, plus the
two independent ways to build the t=0 symmetric Macdonald polynomial: the
alcove-walk sum over admissible folding pairs, and the charge-graded sum
over tensor products of columns.

The q = 0 oracle is the Weyl character, computed by the Demazure character
formula: the Demazure operators of a reduced word of the longest element
applied to the monomial x^mu. Invariance is checked on the simple
reflections only.
"""

from .chains import mu_chain
from .charge import biletter_codes, charge, code_base, column_labels
from .fillings import Filling, check_bmu_size, content, enumerate_bmu
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
    check_bmu_size(lt, mu)
    out: Poly = {}
    for _, _, level, weight in enumerate_admissible(mu_chain(lt, mu)):
        key = (level, weight)
        out[key] = out.get(key, 0) + 1
    return out


def _content_fields(mu1: int) -> tuple[int, int]:
    """The (offset, width in bits) of each coordinate's field in a packed
    content. Each of the mu1 columns adds 0 or 1 to a type A coordinate and
    -1, 0 or +1 to a type C one, so a coordinate lies in [-mu1, mu1] and,
    offset by mu1, fits its field with no carry into the next."""
    return mu1, (2 * mu1).bit_length()


def unpack_content(code: int, n: int, mu1: int) -> tuple[int, ...]:
    """The content tuple of a packed content for a shape with mu_1 = mu1."""
    offset, width = _content_fields(mu1)
    mask = (1 << width) - 1
    return tuple(((code >> (width * i)) & mask) - offset for i in range(n))


def charge_words(lt: LieType, mu):
    """Each filling tau of B_mu with its charge label word (the label codes
    of charge_word(tau)) and its packed content.

    B_mu is a product of per-column choices, so both are merged from a
    table per column position, filled on first sight of each column option
    (one column in type A, the (right, left) pair in type C): the option's
    biletter codes and its content as one integer, coordinate i in the i-th
    field of (2*mu_1).bit_length() bits from the bottom. A filling's packed
    content is the sum of its options' entries plus mu_1 in every field;
    each field then holds coordinate + mu_1, in [0, 2*mu_1], and
    `unpack_content(code, n, mu_1)` gives the content back.
    """
    mu = check_dominant(lt, mu)
    bmu = enumerate_bmu(lt, mu)
    mu1 = mu[0] if mu else 0  # mu = (): one filling, no columns, content 0
    base = code_base(mu1)
    split = lt.variant == "C"
    width = 2 if split else 1
    offset, field = _content_fields(mu1)
    start = sum(offset << (field * i) for i in range(lt.n))
    tables: list[dict] = [{} for _ in range(mu1)]
    for tau in bmu:
        cols = tau.columns
        codes: list[int] = []
        packed = start
        for d, table in enumerate(tables):
            lo = width * d
            option = cols[lo : lo + width]
            entry = table.get(option)
            if entry is None:
                labels = column_labels(tau)[lo : lo + width]
                entry = table[option] = (
                    [e for c, lab in zip(option, labels) for e in biletter_codes(lt, c, lab, base)],
                    sum(x << (field * i) for i, x in enumerate(content(Filling(lt, option, split)))),
                )
            codes += entry[0]
            packed += entry[1]
        codes.sort(reverse=True)
        yield tau, tuple([e % base for e in codes]), packed


def charge_formula_t0(lt: LieType, mu) -> Poly:
    """Charge-graded sum: q^charge x^content over the column tensor product.

    Within one call the label alphabet is fixed, so charge depends only on
    the labels of the charge word; each distinct label word is charged once.
    Terms are tallied by (charge, packed content), exact because every
    coordinate lies in [-mu_1, mu_1] (see charge_words), and each distinct
    packed content is unpacked once, in first-seen order.
    """
    mu = check_dominant(lt, mu)
    tally: dict[tuple[int, int], int] = {}
    charges: dict[tuple[int, ...], int] = {}
    for tau, word, packed in charge_words(lt, mu):
        q = charges.get(word)
        if q is None:
            q = charges[word] = charge(tau)
        key = (q, packed)
        tally[key] = tally.get(key, 0) + 1
    mu1 = mu[0] if mu else 0
    return {(q, unpack_content(packed, lt.n, mu1)): c for (q, packed), c in tally.items()}


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


def poly_json_str(p: Poly) -> str:
    """The polynomial as JSON, written in one pass: the bytes that
    json.dumps(..., indent=2) writes for {"schema": ..., "terms": [{"q": ...,
    "exps": [...], "coeff": ...}, ...]}, the terms in render_text's order."""
    blocks = []
    for (qdeg, exps), c in _sorted_terms(p):
        xs = "[\n        " + ",\n        ".join(map(str, exps)) + "\n      ]" if exps else "[]"
        blocks.append(f'    {{\n      "q": {qdeg},\n      "exps": {xs},\n      "coeff": {c}\n    }}')
    terms = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    return f'{{\n  "schema": "charge-lab/polynomial/1",\n  "terms": {terms}\n}}'
