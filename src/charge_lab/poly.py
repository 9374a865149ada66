"""Exact Laurent polynomials in q and x_1..x_n over the integers, plus the
two independent ways to build the t=0 symmetric Macdonald polynomial: the
alcove-walk sum over admissible folding pairs, and the charge-graded sum
over tensor products of columns.

The charge side charges only the classical highest-weight fillings of
B_mu, found by a depth-first search with one signature balance per
crystal arrow, and expands each by the irreducible character of its
weight: Freudenthal's formula for the dominant multiplicities, spread over
W-orbits.

The q = 0 oracle is the Weyl character, computed by the Demazure character
formula: the Demazure operators of a reduced word of the longest element
applied to the monomial x^mu, each moving only the coordinates its root
touches. Invariance under the simple reflections is checked by looking up
each term's reflected key. The charge side uses neither.
"""

from collections import Counter
from itertools import accumulate
from operator import itemgetter

from .chains import mu_chain
from .charge import charge
from .fillings import Filling, check_bmu_size, content, enumerate_bmu
from .foldings import enumerate_admissible
from .kn import unsplit
from .weyl import (
    LieType,
    ValidationError,
    conjugate,
    positive_roots,
    rho,
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


def is_invariant(lt: LieType, p: Poly) -> bool:
    """Invariance under the simple reflections, which generate W: each swaps
    coordinates i and i+1 or negates coordinate n of a key, and must carry
    every term to one of equal coefficient. A zero coefficient fails."""
    if not all(p.values()):
        return False
    for i, j in simple_roots(lt):
        # written out, not weyl.apply_root: an oracle shares no code with the walk
        for (qdeg, lam), c in p.items():
            image = (lam[:i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:] if j > 0
                     else lam[:-1] + (-lam[-1],))
            if p.get((qdeg, image)) != c:
                return False
    return True


def _demazure(lt: LieType, alpha, p: Poly) -> Poly:
    """The Demazure operator of a simple root; on x^lam, with
    m = <lam, alpha-check>, it gives x^lam + x^(lam-alpha) + ... + x^(lam-m alpha)
    for m >= 0, zero for m = -1, and -(x^(lam+alpha) + ... + x^(lam+(-m-1)alpha))
    for m <= -2. Only coordinates i, i+1 (by -+1) or n (by -+2) move."""
    i, j = alpha
    out: Poly = {}
    # written out, not weyl.root_vector: an oracle shares no code with the walk
    for (qdeg, lam), c in p.items():
        head, x, tail = lam[:i - 1], lam[i - 1], lam[i + 1:]
        y = lam[i] if j > 0 else 0
        m = x - y
        ks, signed = (range(m + 1), c) if m >= 0 else (range(-1, m, -1), -c)
        for k in ks:
            key = (qdeg, head + ((x - k, y + k) if j > 0 else (x - 2 * k,)) + tail)
            out[key] = out.get(key, 0) + signed
    return {k: v for k, v in out.items() if v}


def weyl_character(lt: LieType, mu) -> Poly:
    """The character of the highest-weight mu module by the Demazure
    character formula: pi_{w0}(x^mu), one Demazure operator per letter of a
    reduced word of w0; no q-variable appears."""
    p = poly_term(1, 0, check_bmu_size(lt, mu))
    for alpha in w0_word(lt):
        p = _demazure(lt, alpha, p)
    return p


def ram_yip_t0(lt: LieType, mu) -> Poly:
    """Alcove-walk sum: q^level x^weight over admissible folding pairs, with
    the level and weight the enumerator carries; the weight equals the
    content of the pair's filling exactly. Counter counts the (level,
    weight) keys of the pairs, in the order the walk first meets them."""
    pairs = enumerate_admissible(mu_chain(lt, check_bmu_size(lt, mu)))
    return dict(Counter(map(itemgetter(2, 3), pairs)))


def _arrows(lt: LieType):
    """Each classical arrow i as the sign of each letter it reads: +1 where
    f_i acts (i and (i+1)-bar), -1 where e_i acts (i+1 and i-bar); type C
    adds arrow n, with n against n-bar."""
    n = lt.n
    arrows = [{i: 1, -i - 1: 1, i + 1: -1, -i: -1} for i in range(1, n)]
    return arrows + [{n: 1, -n: -1}] if lt.variant == "C" else arrows


def _column_options(lt: LieType, k: int, arrows):
    """The options for one column of height k, from B^{k,1}: each with its
    columns in a filling (a column in type A, the split (right, left) pair
    in type C) and, per arrow, the net change and the minimum prefix of the
    balance #'+' - #'-' along its reading word, the column top to bottom.
    In type C the word is the KN column the pair splits."""
    out = []
    for option in enumerate_bmu(lt, (1,) * k):
        cols = option.columns
        word = cols[0] if len(cols) == 1 else unsplit(*cols)
        runs = [list(accumulate([sign.get(x, 0) for x in word], initial=0)) for sign in arrows]
        out.append((cols, tuple(r[-1] for r in runs), tuple(min(r) for r in runs)))
    return out


def highest_weight_fillings(lt: LieType, mu) -> list[Filling]:
    """The fillings of B_mu on which no e_i acts, in enumerate_bmu's order.

    The reading word joins the columns leftmost first. By the signature
    rule e_i acts exactly when some prefix of the word holds more '-' than
    '+' letters for arrow i, so a depth-first search over the columns
    prunes a branch as soon as one balance would go negative, and every
    filling it completes is highest weight.
    """
    heights = conjugate(check_bmu_size(lt, mu))[::-1]
    arrows = _arrows(lt)
    options = {k: _column_options(lt, k, arrows) for k in set(heights)}
    layout = [options[k] for k in heights]
    out = []

    def grow(d, cols, balance):
        if d == len(layout):
            out.append(Filling(lt, cols))
            return
        for option, nets, lows in layout[d]:
            if all(b + low >= 0 for b, low in zip(balance, lows)):
                grow(d + 1, cols + option, tuple([b + e for b, e in zip(balance, nets)]))

    grow(0, (), (0,) * len(arrows))
    return out


def _dominant(lt: LieType, w) -> tuple[int, ...]:
    """The dominant weight in the W-orbit of w."""
    return tuple(sorted(w if lt.variant == "A" else map(abs, w), reverse=True))


def dominant_character(lt: LieType, lam) -> dict:
    """The multiplicity of each dominant weight in the irreducible module of
    highest weight lam, by Freudenthal's formula.

    The form is the Euclidean one on Z^n, which W preserves in both types.
    The dominant weights of the module are those reached from lam by
    subtracting positive roots while staying dominant. They are filled in
    by decreasing pairing with rho, so every weight mu + k alpha above mu,
    through its dominant representative, is known before mu.
    """
    roots = [root_vector(lt, r) for r in positive_roots(lt)]
    shift = rho(lt)
    seen, stack = {lam}, [lam]
    while stack:
        mu = stack.pop()
        for a in roots:
            nu = tuple([x - y for x, y in zip(mu, a)])
            if nu not in seen and nu == _dominant(lt, nu):
                seen.add(nu)
                stack.append(nu)
    norm = lambda w: sum((x + r) ** 2 for x, r in zip(w, shift))
    top = norm(lam)
    mult = {lam: 1}
    for mu in sorted(seen - {lam}, key=lambda w: -sum(x * r for x, r in zip(w, shift))):
        total = 0
        for a in roots:
            k = 1
            while True:
                nu = tuple([x + k * y for x, y in zip(mu, a)])
                m = mult.get(_dominant(lt, nu))
                if m is None:
                    break
                total += m * sum(x * y for x, y in zip(nu, a))
                k += 1
        mult[mu] = 2 * total // (top - norm(mu))
    return mult


def orbit(lt: LieType, lam) -> set[tuple[int, ...]]:
    """The W-orbit of a weight: its distinct permutations in type A, its
    distinct signed permutations in type C."""
    images = {()}
    for x in lam:
        signs = {x} if lt.variant == "A" else {x, -x}
        images = {w[:i] + (y,) + w[i:] for w in images for i in range(len(w) + 1) for y in signs}
    return images


def charge_formula_t0(lt: LieType, mu) -> Poly:
    """Charge-graded sum: q^charge x^content over the column tensor product.

    Charge is constant on the classical crystal components of B_mu. Each
    component holds one highest-weight filling b, and its character is the
    irreducible character of highest weight content(b). So the sum is the
    sum over the highest-weight fillings b of q^charge(b) times that
    character: each such filling is charged once, each character is
    computed once by Freudenthal's formula, and the dominant terms are
    spread over their W-orbits.
    """
    graded: dict[tuple[int, ...], dict[int, int]] = {}
    for tau in highest_weight_fillings(lt, mu):
        by_q = graded.setdefault(content(tau), {})
        q = charge(tau)
        by_q[q] = by_q.get(q, 0) + 1
    dominant: dict[tuple[int, ...], dict[int, int]] = {}
    for lam, by_q in graded.items():
        for nu, m in dominant_character(lt, lam).items():
            coeffs = dominant.setdefault(nu, {})
            for q, c in by_q.items():
                coeffs[q] = coeffs.get(q, 0) + c * m
    out: Poly = {}
    for nu, coeffs in dominant.items():
        for w in orbit(lt, nu):
            for q, c in coeffs.items():
                out[(q, w)] = out.get((q, w), 0) + c
    return out


def _sorted_terms(p: Poly):
    """The terms (key, coeff) of p by ascending q-degree, then descending
    exponents: a sort on the exponents, reversed, then a stable sort on
    the q-degree, each keyed by an itemgetter."""
    keys = sorted(p, key=itemgetter(1), reverse=True)
    keys.sort(key=itemgetter(0))
    return [(key, p[key]) for key in keys]


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
    blocks, rendered = [], {}  # rendered: each distinct exps as JSON
    for (qdeg, exps), c in _sorted_terms(p):
        xs = rendered.get(exps)
        if xs is None:
            xs = rendered[exps] = ("[\n        " + ",\n        ".join(map(str, exps)) + "\n      ]"
                                   if exps else "[]")
        blocks.append(f'    {{\n      "q": {qdeg},\n      "exps": {xs},\n      "coeff": {c}\n    }}')
    terms = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    return f'{{\n  "schema": "charge-lab/polynomial/1",\n  "terms": {terms}\n}}'
