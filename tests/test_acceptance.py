"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and enforcing its time budget."""

import time
from itertools import combinations

from charge_lab.chains import _gamma_ki, chain_from_roots, chain_str, mu_chain
from charge_lab.charge import charge, charge_word, label_str, ls_charge
from charge_lab.fillings import (
    Filling,
    filling_map,
    path_A,
    path_C,
)
from charge_lab.foldings import fold_chain, weight_of
from charge_lab.kn import maxcol, split_column
from charge_lab.qbg import edge_by_criterion
from charge_lab.verify import (
    check_bijection,
    check_kn,
    check_poly,
    check_qbg,
    check_statistics,
    scope_weights,
)
from charge_lab.weyl import (
    LieType,
    all_elements,
    apply_root,
    letter_str,
    letters,
    root_for_positions,
    value_at,
)
from references import weights_equal


# verdict lines, echoed in the terminal summary by conftest.py
REPORT_LINES = []


class Criterion:
    """Context manager that times a criterion and records its verdict."""

    def __init__(self, number, label, budget):
        self.number, self.label, self.budget = number, label, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"[criterion {self.number}] {verdict} {self.label} ({dt:.2f}s, budget {self.budget}s)"
        REPORT_LINES.append(line)
        print(line)
        if exc_type is None:
            assert dt < self.budget, f"criterion {self.number} over budget: {dt:.2f}s"
        return False


def test_criterion_1_worked_examples_bit_exact():
    with Criterion(1, "worked examples bit-exact", 1):
        A4, C3 = LieType("A", 4), LieType("C", 3)
        chain_a = mu_chain(A4, (3, 2, 1, 0))
        assert chain_str(chain_a) == (
            "(1,4),(1,3),(1,2) | (1,4),(1,3),(2,4),(2,3) | (1,4),(2,4),(3,4)"
        )
        chain_c = mu_chain(C3, (2, 1, 0))
        assert chain_str(chain_c) == (
            " | (1,2~),(1,3~),(1,1~),(1,3),(1,2)"
            " || (1,2~) | (1,3~),(1,1~),(1,3),(1,2~),(2,3~),(2,2~),(2,3)"
        )

        folded_a = fold_chain(chain_a, (2, 1, 3, 4), (3, 6, 7, 9, 10))
        assert (folded_a.J_plus, folded_a.J_minus) == ((3, 7, 9, 10), (6,))
        folded_c = fold_chain(chain_c, (1, 2, 3), (3, 5, 6, 11, 12, 13))
        assert (folded_c.J_plus, folded_c.J_minus) == ((5, 6, 11, 12, 13), (3,))

        fa = filling_map(chain_a, (2, 1, 3, 4), (3, 6, 7, 9, 10))
        assert fa.columns == ((2,), (1, 2), (1, 3, 4))
        fc = filling_map(chain_c, (1, 2, 3), (3, 5, 6, 11, 12, 13))
        assert fc.columns == ((1,), (1,), (2, -1), (1, -2))

        walk = chain_from_roots(
            LieType("A", 3), (3, 1, 0),
            [(1, 3), (1, 2), (1, 3), (2, 3), (1, 3), (1, 2)],
        )
        assert weights_equal(LieType("A", 3), weight_of(walk, (1, 2, 3), (1, 2)), (0, 1, 0))
        folded_w = fold_chain(walk, (1, 2, 3), (1, 2))
        assert (folded_w.J_plus, folded_w.J_minus) == ((2,), (1,))


def test_criterion_2_charge_values_and_biwords():
    with Criterion(2, "charge values and traced biwords", 1):
        assert ls_charge([1, 1, 3, 2, 2, 1, 4, 3, 2, 3]) == 6

        tau_a = Filling(LieType("A", 6), ((2,), (1, 2, 4), (2, 3, 4), (3, 5, 6)))
        biword_a = charge_word(tau_a)
        assert [k for k, _ in biword_a] == [6, 5, 4, 4, 3, 3, 2, 2, 2, 1]
        assert [j for _, (j, _) in biword_a] == [1, 1, 3, 2, 2, 1, 4, 3, 2, 3]
        total_a, passes_a = charge(tau_a, trace=True)
        assert total_a == 6
        index_a = {pos: it for it, ps in enumerate(passes_a, 1) for pos, _ in ps["selected"]}
        assert [index_a[i] for i in range(10)] == [3, 2, 1, 3, 1, 1, 1, 2, 2, 3]

        tau_c = Filling(
            LieType("C", 5),
            ((1, 3, -2), (1, 2, -3), (3, -4, -2), (2, -4, -3),
             (-5, -3, -2, -1), (-5, -3, -2, -1)),
        )
        biword_c = charge_word(tau_c)
        assert " ".join(letter_str(k) for k, _ in biword_c) == (
            "1~ 1~ 2~ 2~ 2~ 2~ 3~ 3~ 3~ 3~ 4~ 4~ 5~ 5~ 3 3 2 2 1 1"
        )
        assert " ".join(label_str(lab) for _, lab in biword_c) == (
            "1' 1 3' 2' 1' 1 3 2 1' 1 2' 2 1' 1 3' 2' 3 2 3' 3"
        )
        total_c, passes_c = charge(tau_c, trace=True)
        assert total_c == 4
        index_c = {pos: it for it, ps in enumerate(passes_c, 1) for pos, _ in ps["selected"]}
        assert [index_c[i] for i in range(20)] == [
            4, 4, 1, 2, 3, 3, 1, 2, 2, 2, 1, 1, 1, 1, 3, 3, 3, 3, 2, 2,
        ]


def test_criterion_3_kn_machinery():
    with Criterion(3, "KN splitting, maxcol, exhaustive equivalences", 10):
        assert split_column(LieType("C", 5), (4, 5, -5, -4, -3)) == (
            (4, 5, -3, -2, -1),
            (1, 2, -5, -4, -3),
        )
        assert maxcol((3, 4, 5), (4, 5)) == (1, 2, 3)
        result = check_kn(LieType("C", 3))
        assert result.ok, result.detail


def test_criterion_4_qbg_criterion_soundness():
    with Criterion(4, "edge criterion equals length test", 5):
        for n in (2, 3, 4, 5, 6):
            result = check_qbg(LieType("A", n))
            assert result.ok, result.detail
        for n in (1, 2, 3, 4):
            result = check_qbg(LieType("C", n))
            assert result.ok, result.detail


def test_criterion_5_bijection_round_trip():
    with Criterion(5, "bijection cardinalities, injectivity, round trip", 60):
        for n in (2, 3, 4, 5):
            lt = LieType("A", n)
            result = check_bijection(lt, scope_weights(lt, 5))
            assert result.ok, result.detail
        for n in (1, 2, 3, 4):
            lt = LieType("C", n)
            result = check_bijection(lt, scope_weights(lt, 4))
            assert result.ok, result.detail


def test_criterion_6_statistic_transport():
    with Criterion(6, "carried level = level_of = charge = arm sum; carried weight = content", 60):
        for n in (2, 3, 4, 5):
            lt = LieType("A", n)
            result = check_statistics(lt, scope_weights(lt, 5))
            assert result.ok, result.detail
        for n in (1, 2, 3, 4):
            lt = LieType("C", n)
            result = check_statistics(lt, scope_weights(lt, 4))
            assert result.ok, result.detail


def test_criterion_7_polynomial_identities():
    with Criterion(7, "both formulas, q=0 character, invariance", 120):
        for n in (2, 3, 4, 5, 6):
            lt = LieType("A", n)
            result = check_poly(lt, scope_weights(lt, 5))
            assert result.ok, result.detail
        for n in (1, 2, 3, 4):
            lt = LieType("C", n)
            result = check_poly(lt, scope_weights(lt, 4))
            assert result.ok, result.detail


def _valid_path_subsequences(lt, u, i, c, roots):
    """All subsequences of the given reflection list that trace a graph path
    from u and finish with value c in position i."""
    found = []
    for r in range(len(roots) + 1):
        for sub in combinations(range(len(roots)), r):
            v = u
            ok = True
            for t in sub:
                if edge_by_criterion(lt, v, roots[t]) is None:
                    ok = False
                    break
                v = apply_root(lt, v, roots[t])
            if ok and value_at(v, i) == c:
                found.append(tuple(roots[t] for t in sub))
    return found


def test_criterion_8_path_uniqueness():
    with Criterion(8, "greedy paths are the unique valid subsequences", 60):
        for n in (2, 3):
            lt = LieType("A", n)
            for u in all_elements(lt):
                for k in range(1, n + 1):
                    L = list(range(k + 1, n + 1))
                    for i in range(1, k + 1):
                        roots = [root_for_positions(lt, i, m) for m in L]
                        for c in letters(lt):
                            valid = _valid_path_subsequences(lt, u, i, c, roots)
                            assert len(valid) <= 1, (u, i, c)
                            if valid:
                                S, _ = path_A(lt, u, i, c, L)
                                assert tuple(S) == valid[0], (u, i, c)
        for n in (2, 3):
            lt = LieType("C", n)
            for u in all_elements(lt):
                for k in range(1, n + 1):
                    for i in range(1, k + 1):
                        gamma = _gamma_ki(lt, k, i)[::-1]
                        for c in letters(lt):
                            valid = _valid_path_subsequences(lt, u, i, c, gamma)
                            assert len(valid) <= 1, (u, i, c)
                            if valid:
                                target = tuple([0] * (i - 1) + [c] + [0] * (k - i))
                                S, _ = path_C(lt, u, i, target)
                                assert S == valid[0], (u, i, c)
