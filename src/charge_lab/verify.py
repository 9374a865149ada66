"""Exhaustive small-rank verification suites.

Each check sweeps a full finite domain and reports a VerifyResult; the CLI
`verify` command and the acceptance tests are thin wrappers around these.
The edge_test parameter lets a harness inject a mutated graph-edge test to
confirm the suites actually detect errors. The alcove walk consults it once
per (element, root) in each enumeration, so it must be a function of
(lt, w, r).

check_statistics and check_bijection rank the letters of each walk image
once, by a letter->rank table local to the call, and pass the ranks to the
private cores of charge, arm_statistic, content and ord_filling, the cores
the public functions call on letter_key ranks.
"""

from itertools import combinations, product
from math import comb

from .chains import mu_chain
from .charge import _charge, _column_labels
from .fillings import (
    _arm_sum,
    _content,
    _descent_cells,
    _filling_map,
    _inverse_filling_map,
    _sorted_columns,
    bmu_size,
    enumerate_bmu,
)
from .foldings import _level_of, _weight_of, enumerate_admissible
from .kn import (
    condition_r1,
    condition_r2,
    condition_r3,
    is_kn_column,
    maxcol,
    maxcol_formulas_hold,
    split_candidates_equal,
    split_column,
)
from .poly import (
    charge_formula_t0,
    is_invariant,
    ram_yip_t0,
    specialize_q,
    weyl_character,
)
from .qbg import check_pair_count, edge_by_criterion, edge_by_length_change
from .weyl import (
    Frozen,
    LieType,
    ValidationError,
    all_elements,
    apply_root,
    check_domain_size,
    letter_key,
    length,
    letters,
    positive_roots,
    rho_pairing,
)


class VerifyResult(Frozen):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def _result(name: str, detail: str, failures: list[str]) -> VerifyResult:
    """A suite's result: it passes when nothing failed, and the detail
    names the first five failures."""
    if failures:
        detail += "; " + "; ".join(failures[:5])
    return VerifyResult(name, not failures, detail)


def partitions_up_to(max_size: int, max_parts: int):
    """All partitions (including the empty one) of size <= max_size with at
    most max_parts parts."""
    out = [()]

    def grow(prefix, remaining, cap):
        if len(prefix) < max_parts:
            for part in range(min(remaining, cap), 0, -1):
                nxt = prefix + (part,)
                out.append(nxt)
                grow(nxt, remaining - part, part)

    grow((), max_size, max_size)
    return out


def scope_weights(lt: LieType, max_size: int):
    max_parts = lt.n - 1 if lt.variant == "A" else lt.n
    return partitions_up_to(max_size, max_parts)


def _check_bmu_sum(lt: LieType, suite: str, weights) -> None:
    """Refuse, before it walks, a sweep over weights whose |B_mu| sum to
    more than MAX_DOMAIN."""
    check_domain_size(f"{lt.variant}-{suite} at n={lt.n}: the sum of |B_mu|",
                      sum(bmu_size(lt, mu) for mu in weights))


def check_qbg(lt: LieType, edge_test=None) -> VerifyResult:
    """The circular-order edge criterion agrees with the length-based test
    on every (element, root) pair. The reference classifies each step by
    the rule of edge_by_length, on lengths computed once per element."""
    check_pair_count(lt, f"{lt.variant}-qbg at n={lt.n}")
    test = edge_test if edge_test is not None else edge_by_criterion
    lengths = {w: length(lt, w) for w in all_elements(lt)}
    roots = [(r, rho_pairing(lt, r)) for r in positive_roots(lt)]
    failures = []
    for w, lw in lengths.items():
        for r, rho_r in roots:
            ref = edge_by_length_change(lengths[apply_root(lt, w, r)] - lw, rho_r)
            if test(lt, w, r) is not ref:
                failures.append(f"edge kinds disagree at {w}, {r}")
    return _result(f"{lt.variant}-qbg", f"{lt.variant} n={lt.n}: {len(lengths) * len(roots)} "
                   f"pairs, {len(failures)} disagreements", failures)


def check_bijection(lt: LieType, weights, edge_test=None) -> VerifyResult:
    """Admissible pairs biject with the column tensor product: equal
    cardinality, sorted images are distinct and exhaust the target, and the
    inverse map round-trips. An image is keyed by its columns sorted on a
    letter->rank table local to the call. The images come from walk pairs,
    so the trusted core of the inverse runs on them, with one replay table
    per mu (its folds are positions in that mu's chain): the images share
    their column checks and the replay of each column from each element.
    The core checks each column of an image against its right neighbour
    before replaying it; an image it rejects is a failed pair, not an input
    error."""
    _check_bmu_sum(lt, "bijection", weights)
    rank = {x: k for k, x in enumerate(letters(lt))}
    failures = []
    pairs_total = 0
    for mu in weights:
        chain = mu_chain(lt, mu)
        pairs = 0
        images = set()
        memo = {}
        for w, J, _, _ in enumerate_admissible(chain, edge_test=edge_test):
            pairs += 1
            sigma = _filling_map(chain, w, J)
            images.add(_sorted_columns(sigma.columns, rank.__getitem__))
            try:
                if _inverse_filling_map(chain, sigma, memo) != (w, J):
                    failures.append(f"mu={mu}: round trip fails at {w},{J}")
            except ValidationError as exc:
                failures.append(f"mu={mu}: the image of {w},{J} is rejected: {exc}")
        target = {f.columns for f in enumerate_bmu(lt, mu)}
        pairs_total += pairs
        if len(images) != pairs:
            failures.append(f"mu={mu}: sorted filling map not injective")
        if images != target:
            failures.append(f"mu={mu}: image has {len(images)} fillings, target {len(target)}")
    return _result(f"{lt.variant}-bijection",
                   f"{lt.variant} n={lt.n}: {len(weights)} weights, {pairs_total} pairs", failures)


def check_statistics(lt: LieType, weights, edge_test=None) -> VerifyResult:
    """For every admissible pair: carried level = level_of = charge of the
    filling = arm sum over descents, and carried weight = content of
    the filling, equal to weight_of. The walk's pairs are valid, so the
    trusted cores of filling_map, level_of and weight_of run on them. Each
    element's length is computed once per call, and each charge word is
    charged once per call (_charge), since many fillings share a word.

    Each image's columns are ranked once, by a letter->rank table local to
    the call, and the cores of charge, arm_statistic and content read the
    ranks, with the column labels and descent cells of each mu's shape
    computed once. A statistic that refuses an image (a charge word outside
    its domain, an odd arm sum or count difference) fails that pair."""
    _check_bmu_sum(lt, "statistics", weights)
    rank = {x: k for k, x in enumerate(letters(lt))}
    split = lt.variant == "C"
    mismatches = []
    total = 0
    lengths, charges = {}, {}
    for mu in weights:
        chain = mu_chain(lt, mu)
        labels = _column_labels(len(chain.parts), split)
        cells = _descent_cells([height for height, _, _ in chain.parts], split)
        for w, J, level, weight in enumerate_admissible(chain, edge_test=edge_test):
            total += 1
            ranks = [[rank[x] for x in c] for c in _filling_map(chain, w, J).columns]
            try:
                charged, arms, cont = (_charge(ranks, labels, charges),
                                       _arm_sum(ranks, cells, split), _content(lt, ranks))
            except ValidationError as exc:
                mismatches.append(f"mu={mu} {w} {J}: a statistic refuses the image: {exc}")
                continue
            levels = (level, _level_of(chain, w, J, lengths), charged, arms)
            if len(set(levels)) != 1:
                mismatches.append(f"mu={mu} {w} {J}: level/level_of/charge/arm = {levels}")
            ref = _weight_of(chain, w, J)
            if not weight == cont == ref:
                mismatches.append(f"mu={mu} {w} {J}: weight/content/weight_of = "
                                  f"{(weight, cont, ref)}")
    return _result(f"{lt.variant}-statistics",
                   f"{lt.variant} n={lt.n}: {total} pairs, {len(mismatches)} mismatches",
                   mismatches)


def check_poly(lt: LieType, weights) -> VerifyResult:
    """The two polynomial constructions agree termwise; q=0 gives the
    character; the result is Weyl-invariant with nonnegative coefficients
    and total mass |B_mu| at q=1, x=1."""
    _check_bmu_sum(lt, "poly", weights)
    failures = []
    for mu in weights:
        p = ram_yip_t0(lt, mu)
        if p != charge_formula_t0(lt, mu):
            failures.append(f"mu={mu}: formulas disagree")
            continue
        if specialize_q(p, 0) != weyl_character(lt, mu):
            failures.append(f"mu={mu}: q=0 is not the character")
        if not is_invariant(lt, p):
            failures.append(f"mu={mu}: not Weyl-invariant")
        if any(c <= 0 for c in p.values()):
            failures.append(f"mu={mu}: nonpositive coefficient")
        if sum(p.values()) != bmu_size(lt, mu):
            failures.append(f"mu={mu}: total mass differs from the index set size")
    return _result(f"{lt.variant}-poly", f"{lt.variant} n={lt.n}: {len(weights)} weights", failures)


def distinct_abs_columns(lt: LieType):
    """Sorted columns over the signed alphabet with distinct absolute values."""
    key = lambda x: letter_key(lt, x)
    out = []
    for k in range(1, lt.n + 1):
        for absv in combinations(range(1, lt.n + 1), k):
            for signs in product((1, -1), repeat=k):
                out.append(tuple(sorted((s * a for s, a in zip(signs, absv)), key=key)))
    return out


def maxcol_decomposition_holds(A, B):
    """maxcol(A, B) = (A \\ B) joined with maxcol(A n B, A u B), whenever the
    left side stays positive; returns None outside that domain."""
    A, B = set(A), set(B)
    lhs = maxcol(sorted(A), B)
    if not lhs or min(lhs) < 1:
        return None
    rhs = tuple(sorted(list(A - B) + list(maxcol(sorted(A & B), A | B))))
    return lhs == rhs


def check_kn(lt: LieType) -> VerifyResult:
    """KN-column machinery: the two column definitions coincide, the maxcol
    decomposition holds, and the three splitting characterizations agree on
    columns with distinct absolute values."""
    check_domain_size(f"kn at n={lt.n}: the number of column pairs",
                      sum((comb(lt.n, k) * 2**k) ** 2 for k in range(1, lt.n + 1)))
    failures = []
    for c in (c for k in range(1, lt.n + 1) for c in combinations(letters(lt), k)):
        try:
            split_column(lt, c)
            splittable = True
        except ValidationError:
            splittable = False
        if splittable != is_kn_column(lt, c):
            failures.append(f"column definitions disagree at {c}")
    universe = range(1, lt.n + 1)
    subsets = [set(s) for r in range(lt.n + 1) for s in combinations(universe, r)]
    for A in subsets:
        if not A:
            continue
        for B in subsets:
            if maxcol_decomposition_holds(A, B) is False:
                failures.append(f"maxcol decomposition fails at {sorted(A)}, {sorted(B)}")
    cols = distinct_abs_columns(lt)
    pairs = 0
    for Dp in cols:
        for D in cols:
            if len(D) != len(Dp):
                continue
            pairs += 1
            e1 = condition_r1(lt, D, Dp) and condition_r2(lt, D, Dp) and condition_r3(lt, D, Dp)
            e2 = maxcol_formulas_hold(lt, Dp, D)
            e3 = split_candidates_equal(lt, Dp, D)
            if not e1 == e2 == e3:
                failures.append(f"splitting characterizations disagree at {Dp}, {D}")
    return _result("kn", f"C n={lt.n}: {pairs} column pairs", failures)


def run_scope(scope: str, n: int | None = None, edge_test=None) -> list[VerifyResult]:
    """Run one named suite, or the full default set for scope 'all'."""
    if scope == "all":
        if n is not None:
            # rank n is S_n in type A but C_n in type C
            raise ValidationError("--n needs a single --scope")
        out = []
        for name in ("A-qbg", "C-qbg", "A-bijection", "C-bijection",
                     "A-statistics", "C-statistics", "A-poly", "C-poly", "kn"):
            out.extend(run_scope(name, edge_test=edge_test))
        return out
    if scope in ("A-qbg", "C-qbg"):
        lt = LieType(scope[0], n if n is not None else (4 if scope[0] == "A" else 3))
        return [check_qbg(lt, edge_test=edge_test)]
    if scope == "kn":
        return [check_kn(LieType("C", n if n is not None else 3))]
    kind, _, suite = scope.partition("-")
    if kind in ("A", "C") and suite in ("bijection", "statistics", "poly"):
        lt = LieType(kind, n if n is not None else (3 if kind == "A" else 2))
        weights = scope_weights(lt, 4 if kind == "A" else 3)
        if suite == "bijection":
            return [check_bijection(lt, weights, edge_test=edge_test)]
        if suite == "statistics":
            return [check_statistics(lt, weights, edge_test=edge_test)]
        return [check_poly(lt, weights)]
    raise ValidationError(f"unknown verification scope {scope!r}")
