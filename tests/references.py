"""Test-side references: independent spellings of rules the package
applies in one place, kept here to check that place against."""

from charge_lab.weyl import LieType, circ_offset


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
