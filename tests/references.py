"""Test-side references: independent spellings of rules the package
applies in one place, kept here to check that place against."""

from charge_lab.weyl import (
    LieType,
    act_on_weight,
    apply_root,
    circ_offset,
    coroot_pairing,
    identity,
    root_vector,
    simple_roots,
)


def condition_1(lt: LieType, Cp, C) -> bool:
    """Adjacency condition on a pair C'C (C' to the left, not taller).

    For i < l <= #C', neither C(i) = C'(l) nor C(i) < C'(l) < C'(i) in the
    circular order starting at C(i). The reference for reconstruct_sigma,
    which builds the left column that satisfies it. Trusts its letters,
    like circ_offset.
    """
    for i, (c, cp) in enumerate(zip(C, Cp), start=1):
        hi = circ_offset(lt, c, cp)
        for x in Cp[i:]:
            off = circ_offset(lt, c, x)
            if off == 0 or off < hi:
                return False
    return True


def circ_max(lt: LieType, u, i: int, Cp) -> int:
    """M(u, i, C'): circular maximum, from u(i), of u(i) and the values in
    positions above the column height that lie on the arc up to C'(i).
    The reference for where path_A's scan toward C'(i) over those
    positions ends. Trusts its letters, like circ_offset."""
    a = u[i - 1]
    hi = circ_offset(lt, a, Cp[i - 1])
    best, best_off = a, 0
    for x in u[len(Cp):]:
        off = circ_offset(lt, a, x)
        if best_off < off <= hi:
            best, best_off = x, off
    return best


def normalize_weight(lt: LieType, lam: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of a weight; type A works modulo (1,...,1)."""
    if lt.variant == "A":
        return tuple(x - lam[-1] for x in lam)
    return tuple(lam)


def weights_equal(lt: LieType, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return normalize_weight(lt, a) == normalize_weight(lt, b)


def poly_json(p: dict) -> dict:
    """The JSON object of a polynomial: its schema, then its terms in
    ascending q-degree and descending lex order in the x's. The reference
    for poly_json_str, which writes json.dumps(poly_json(p), indent=2) in
    one pass."""
    terms = sorted(p.items(), key=lambda kv: (kv[0][0], tuple(-e for e in kv[0][1])))
    return {
        "schema": "charge-lab/polynomial/1",
        "terms": [{"q": qdeg, "exps": list(exps), "coeff": c} for (qdeg, exps), c in terms],
    }


def act_on_poly(lt: LieType, w, p: dict) -> dict:
    """Apply a Weyl group element to the x-variables, dropping zero
    coefficients."""
    out = {}
    for (qdeg, exps), c in p.items():
        key = (qdeg, act_on_weight(lt, w, exps))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def is_invariant(lt: LieType, p: dict) -> bool:
    """Invariance under the simple reflections, each applied to the whole
    polynomial through act_on_poly. The reference for poly.is_invariant,
    which looks up each term's reflected key instead."""
    ident = identity(lt)
    return all(act_on_poly(lt, apply_root(lt, ident, a), p) == p for a in simple_roots(lt))


def demazure(lt: LieType, alpha, p: dict) -> dict:
    """The Demazure operator of a simple root, each string point built from
    the whole root vector. The reference for poly._demazure, which moves
    only the coordinates the root touches."""
    vec = root_vector(lt, alpha)
    out = {}
    for (qdeg, lam), c in p.items():
        m = coroot_pairing(lt, lam, alpha)
        ks, sign = (range(m + 1), 1) if m >= 0 else (range(-1, m, -1), -1)
        for k in ks:
            key = (qdeg, tuple(x - k * v for x, v in zip(lam, vec)))
            out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in out.items() if v}
