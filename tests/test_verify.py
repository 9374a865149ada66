"""The verification harness itself: scopes, results, mutation sensitivity."""

import ast
import importlib
import inspect
import textwrap
import time
from math import comb

import pytest

from charge_lab import fillings, foldings, kn, poly, qbg, verify
from charge_lab.chains import mu_chain
from charge_lab.charge import _charge, _column_labels, charge
from charge_lab.fillings import (
    Filling,
    _arm_sum,
    _content,
    _descent_cells,
    _sorted_columns,
    arm_statistic,
    bmu_size,
    content,
    enumerate_bmu,
    ord_filling,
)
from charge_lab.poly import poly_term
from charge_lab.qbg import EdgeKind, edge_by_criterion, graph_dot, graph_json_str
from charge_lab.verify import (
    check_bijection,
    check_kn,
    check_poly,
    check_qbg,
    check_statistics,
    partitions_up_to,
    run_scope,
    scope_weights,
)
from charge_lab.weyl import LieType, ValidationError, check_dominant, group_order, letters


def test_partitions_up_to():
    assert set(partitions_up_to(2, 2)) == {(), (1,), (2,), (1, 1)}
    assert partitions_up_to(3, 0) == [()]
    assert all(p == tuple(sorted(p, reverse=True)) for p in partitions_up_to(4, 3))


def test_scope_weights_respects_type():
    # type A drops the all-parts case since weights live modulo (1,...,1)
    assert (1, 1) not in scope_weights(LieType("A", 2), 4)
    assert (1, 1) in scope_weights(LieType("C", 2), 4)


def test_run_scope_all_passes():
    for result in run_scope("all"):
        assert result.ok, result


def test_unknown_scope():
    with pytest.raises(ValidationError):
        run_scope("no-such-suite")


def test_rank_needs_a_single_scope():
    with pytest.raises(ValidationError, match="single"):
        run_scope("all", n=2)


def mutated_edge_test(lt, w, r):
    """Drop one genuine edge of the graph."""
    if w == tuple([2, 1] + list(range(3, lt.n + 1))) and r == (1, 2):
        return None
    return edge_by_criterion(lt, w, r)


def test_mutation_is_detected():
    assert not run_scope("A-qbg", edge_test=mutated_edge_test)[0].ok
    lt = LieType("A", 3)
    weights = scope_weights(lt, 3)
    result = check_bijection(lt, weights, edge_test=mutated_edge_test)
    assert not result.ok
    assert "mu=(3,): image has 22 fillings, target 27" in result.detail


def level_on_up_edges(lt, w, r):
    """Swap the edge kinds, so the enumerator counts level on up edges."""
    kind = edge_by_criterion(lt, w, r)
    swap = {EdgeKind.UP: EdgeKind.QUANTUM, EdgeKind.QUANTUM: EdgeKind.UP}
    return swap.get(kind)


def kinds_swapped_on_long_roots(lt, w, r):
    """Swap up and quantum only on the roots 2e_i."""
    kind = edge_by_criterion(lt, w, r)
    if r[1] != -r[0]:
        return kind
    return {EdgeKind.UP: EdgeKind.QUANTUM, EdgeKind.QUANTUM: EdgeKind.UP}.get(kind)


def test_kinds_swapped_on_long_roots_are_detected_by_check_qbg():
    result = check_qbg(LieType("C", 3), edge_test=kinds_swapped_on_long_roots)
    assert not result.ok
    # 88 of the 48 * 3 (element, 2e_i) pairs carry an edge, each now of the wrong kind
    assert result.detail.startswith("C n=3: 432 pairs, 88 disagreements; "
                                    "edge kinds disagree at (1, 2, 3), (3, -3); ")
    assert check_qbg(LieType("A", 4), edge_test=kinds_swapped_on_long_roots).ok


@pytest.mark.parametrize("old,new", [
    ("(x > 0) != (y > 0)", "False"),  # e_i + e_j without its sign rule
    ("w[i:] + tuple([-b for b in w[: -j - 1 : -1]])", "w[i:]"),  # no barred positions
])
def test_broken_circular_criterion_is_detected_by_check_qbg(monkeypatch, old, new):
    # dropping the barred positions still passes C2, so the check runs at C3
    install(monkeypatch, qbg, "edge_by_criterion", mutant(qbg, "edge_by_criterion", old, new))
    result = check_qbg(LieType("C", 3))
    assert not result.ok
    assert "edge kinds disagree at" in result.detail


@pytest.mark.parametrize("variant,n,size", [("A", 3, 4), ("C", 2, 3)])
def test_level_counted_on_up_edges_is_detected(variant, n, size):
    lt = LieType(variant, n)
    result = check_statistics(lt, scope_weights(lt, size), edge_test=level_on_up_edges)
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail


def test_broken_character_oracle_is_detected(monkeypatch):
    # a character that is only the highest-weight monomial x^mu
    monkeypatch.setattr(
        verify, "weyl_character", lambda lt, mu: poly_term(1, 0, check_dominant(lt, mu))
    )
    lt = LieType("C", 2)
    result = check_poly(lt, scope_weights(lt, 3))
    assert not result.ok
    assert "q=0 is not the character" in result.detail


# the package's `charge` attribute is the function, so fetch the module
charge_module = importlib.import_module("charge_lab.charge")
REAL_CHARGE_OF_WORD = charge_module.charge_of_word


def short_wraps(word, trace=False):
    """charge_of_word with each wrap scoring k - m instead of k - m + 1."""
    total, passes = REAL_CHARGE_OF_WORD(word, trace=True)
    total -= sum(len(ps["wraps"]) for ps in passes)
    return (total, passes) if trace else total


def test_wrong_wrap_score_in_charge_is_detected(monkeypatch):
    monkeypatch.setattr(charge_module, "charge_of_word", short_wraps)
    A3, C2 = LieType("A", 3), LieType("C", 2)
    result = check_statistics(A3, scope_weights(A3, 4))
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail
    result = check_poly(C2, scope_weights(C2, 3))
    assert not result.ok
    assert "formulas disagree" in result.detail


def test_charge_table_keyed_by_the_sorted_word_is_detected(monkeypatch):
    # fillings whose words hold the same labels in another order share the
    # charge of whichever came first
    install(monkeypatch, charge_module, "_charge",
            mutant(charge_module, "_charge", "memo.get(word)", "memo.get(tuple(sorted(word)))",
                   ("memo[word]", "memo[tuple(sorted(word))]")))
    for lt, size in ((LieType("A", 3), 4), (LieType("C", 2), 3)):
        result = check_statistics(lt, scope_weights(lt, size))
        assert not result.ok
        assert "level/level_of/charge/arm" in result.detail


def test_charge_table_lives_for_one_call(monkeypatch):
    # a table that outlived the call would answer the second run from the
    # first and hide a broken charge_of_word
    A3 = LieType("A", 3)
    weights = scope_weights(A3, 4)
    assert check_statistics(A3, weights).ok
    monkeypatch.setattr(charge_module, "charge_of_word", short_wraps)
    result = check_statistics(A3, weights)
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail


@pytest.mark.parametrize(
    "scope,n,what",
    [
        ("A-poly", 100, "the sum of |B_mu| is"),
        ("C-statistics", 60, "the sum of |B_mu| is"),
        ("A-qbg", 9, "(element, root) pairs is"),
        ("kn", 7, "column pairs is 1,067,924"),
    ],
)
def test_oversized_suite_is_refused_before_it_runs(scope, n, what):
    with pytest.raises(ValidationError, match="over the limit") as exc:
        run_scope(scope, n=n)
    assert what in str(exc.value)


@pytest.mark.parametrize(
    "call,what",
    [
        (lambda: graph_dot(LieType("C", 7)),
         "qbg for C7: the number of (element, root) pairs is 31,610,880"),
        (lambda: graph_json_str(LieType("A", 9)),
         "qbg for A9: the number of (element, root) pairs is 13,063,680"),
        (lambda: check_qbg(LieType("C", 7)),
         "C-qbg at n=7: the number of (element, root) pairs is 31,610,880"),
        (lambda: check_kn(LieType("C", 7)),
         "kn at n=7: the number of column pairs is 1,067,924"),
        (lambda: check_bijection(LieType("A", 10), [(4, 3, 2, 1)]),
         "A-bijection at n=10: the sum of |B_mu| is 11,340,000"),
        (lambda: check_statistics(LieType("A", 10), [(4, 3, 2, 1)]),
         "A-statistics at n=10: the sum of |B_mu| is 11,340,000"),
        (lambda: check_poly(LieType("A", 10), [(4, 3, 2, 1)]),
         "A-poly at n=10: the sum of |B_mu| is 11,340,000"),
    ],
    ids=["graph_dot", "graph_json_str", "check_qbg", "check_kn",
         "check_bijection", "check_statistics", "check_poly"],
)
def test_oversized_library_sweep_is_refused_before_it_runs(call, what):
    # the guards live in the sweeps themselves, not only in run_scope and the CLI
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="over the limit of 1,000,000") as exc:
        call()
    assert time.perf_counter() - start < 1
    assert str(exc.value).startswith(what)


def test_statistics_suite_counts_pairs():
    lt = LieType("C", 2)
    result = check_statistics(lt, [(1,), (1, 1)])
    assert result.ok
    assert "pairs" in result.detail


def test_rank_zero_is_not_the_default_rank():
    for scope in ("A-qbg", "kn", "C-poly"):
        with pytest.raises(ValidationError, match="rank 0 too small"):
            run_scope(scope, n=0)


@pytest.mark.parametrize(
    "scope,detail",
    [("A-qbg", "A n=4:"), ("C-qbg", "C n=3:"), ("kn", "C n=3:"),
     ("A-poly", "A n=3:"), ("C-poly", "C n=2:")],
)
def test_omitted_rank_runs_the_default_rank(scope, detail):
    [result] = run_scope(scope)
    assert result.ok
    assert result.detail.startswith(detail)


def mutant(module, name, old, new, *more):
    """A copy of module.name whose source has `old` replaced by `new` once,
    and likewise each further (old, new) pair in `more`, compiled against
    the module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    for a, b in ((old, new),) + more:
        assert source.count(a) == 1, (name, a)
        source = source.replace(a, b)
    local = {}
    exec(compile(source, module.__file__, "exec"), vars(module), local)
    return local[name]


def install(monkeypatch, module, name, fn):
    """Bind fn wherever the package's modules bind module.name."""
    original = getattr(module, name)
    for mod in (fillings, foldings, kn, poly, verify):
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, fn)


def test_off_by_one_segment_in_filling_map_is_detected(monkeypatch):
    # each part leaves the fold at its last position to the next part
    install(monkeypatch, fillings, "_filling_map",
            mutant(fillings, "_filling_map", "J[t] <= hi", "J[t] < hi"))
    A3, C2 = LieType("A", 3), LieType("C", 2)
    for lt, size in ((A3, 4), (C2, 3)):
        result = check_statistics(lt, scope_weights(lt, size))
        assert not result.ok
        assert "weight/content/weight_of" in result.detail


def test_swapped_right_and_left_rows_are_detected(monkeypatch):
    # the inverse map looks for the folds of each type C right column's
    # rows in the left part of its pair, and the other way round
    install(monkeypatch, fillings, "_replay_column",
            mutant(fillings, "_replay_column", "chain.parts[d]", "chain.parts[d ^ 1]"))
    C2 = LieType("C", 2)
    result = check_bijection(C2, scope_weights(C2, 3))
    assert not result.ok
    assert "falls outside its chain segment" in result.detail


def test_replay_key_without_its_element_is_detected(monkeypatch):
    # the inverse keeps the replay of column d from the element u under
    # (d, column) alone, so an image that reaches column d at another
    # element takes the stored element and folds
    install(monkeypatch, fillings, "_inverse_filling_map",
            mutant(fillings, "_inverse_filling_map", "(d, u, cols[d])", "(d, cols[d])"))
    for lt, size, first in ((LieType("A", 3), 4, "mu=(4,): round trip fails at (2, 1, 3),(4,)"),
                            (LieType("C", 2), 3, "mu=(3,): round trip fails at (2, 1),(6,)")):
        result = check_bijection(lt, scope_weights(lt, size))
        assert not result.ok
        assert result.detail.split("; ")[1] == first
        assert "is rejected" not in result.detail


def replay_tables(monkeypatch):
    """The replay tables check_bijection passes the inverse's core, in the
    order it first passes each."""
    tables = []
    core = verify._inverse_filling_map

    def spy(chain, sigma, memo):
        if not any(memo is table for table in tables):
            tables.append(memo)
        return core(chain, sigma, memo)

    monkeypatch.setattr(verify, "_inverse_filling_map", spy)
    return tables


def test_replay_table_is_bounded_by_parts_elements_and_columns(monkeypatch):
    # a replay entry is keyed by its part d, an element u of W and a column
    # whose arrangement u fixes (its right neighbour fills u's first rows),
    # so part d holds at most |W| times the KN columns of its height: for
    # C3 (3,2,1), 48 * 6 or 48 * 14, while its 1,176 fillings replay 6
    # columns each
    tables = replay_tables(monkeypatch)
    C3, mu = LieType("C", 3), (3, 2, 1)
    assert check_bijection(C3, [mu]).ok
    [table] = tables
    options = {k: comb(2 * C3.n, k) - (comb(2 * C3.n, k - 2) if k >= 2 else 0)
               for k in (1, 2, 3)}
    replays = [key for key in table if type(key[0]) is int]
    for d, (k, _, _) in enumerate(mu_chain(C3, mu).parts):
        assert sum(key[0] == d for key in replays) <= group_order(C3) * options[k]
    assert len(replays) < bmu_size(C3, mu)


def test_one_replay_table_per_weight(monkeypatch):
    tables = replay_tables(monkeypatch)
    A3 = LieType("A", 3)
    weights = [(2, 1), (1, 1), (2, 1)]
    assert check_bijection(A3, weights).ok
    assert len(tables) == len(weights)


def test_wrong_substitution_in_split_column_is_detected(monkeypatch):
    # the KN substitution takes the smallest absent letter, not the largest
    install(monkeypatch, kn, "split_column",
            mutant(kn, "split_column", "max(cands)", "min(cands)"))
    result = check_kn(LieType("C", 3))
    assert not result.ok
    assert "splitting characterizations disagree" in result.detail


@pytest.mark.parametrize("lt", [LieType("A", 3), LieType("C", 2)])
def test_sorted_column_order_in_the_image_key_is_detected(lt):
    # sorting the columns themselves as well merges distinct images
    image_key = "_sorted_columns(sigma.columns, rank.__getitem__)"
    broken = mutant(verify, "check_bijection", image_key, f"tuple(sorted({image_key}))")
    result = broken(lt, scope_weights(lt, 3))
    assert not result.ok
    assert "sorted filling map not injective" in result.detail


# each suite's letter -> rank table with n-bar, ..., 1-bar in reverse order
BARRED_REVERSED = ("enumerate(letters(lt))",
                   "enumerate(sorted(letters(lt), key=lambda x: (x < 0, abs(x))))")


@pytest.mark.parametrize("check,message", [("check_bijection", "image has 20 fillings, target 20"),
                                           ("check_statistics", "weight/content/weight_of")])
def test_barred_letters_ranked_in_reverse_are_detected(check, message):
    C2 = LieType("C", 2)
    result = mutant(verify, check, *BARRED_REVERSED)(C2, scope_weights(C2, 3))
    assert not result.ok
    assert message in result.detail


@pytest.mark.parametrize("lt,size,message", [
    (LieType("A", 3), 4, "level/level_of/charge/arm"),
    (LieType("C", 2), 3, "a statistic refuses the image: odd arm sum on a doubled shape"),
])
def test_arm_of_one_column_too_many_is_detected(monkeypatch, lt, size, message):
    # each descent cell's arm also counts the cell's own column
    install(monkeypatch, fillings, "_descent_cells",
            mutant(fillings, "_descent_cells", "heights[:d]", "heights[:d + 1]"))
    result = check_statistics(lt, scope_weights(lt, size))
    assert not result.ok
    assert message in result.detail


def outcome(fn, *args):
    """fn(*args), or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("lt,size", [(LieType("A", 4), 4), (LieType("C", 3), 3)])
def test_cores_on_table_ranks_equal_the_public_statistics(lt, size):
    # each filling of B_mu as it is and with each column reversed, so that
    # sorting and descents see unsorted columns too
    rank = {x: k for k, x in enumerate(letters(lt))}
    split = lt.variant == "C"
    memo, seen = {}, 0
    for mu in scope_weights(lt, size):
        heights = [height for height, _, _ in mu_chain(lt, mu).parts]
        labels, cells = _column_labels(len(heights), split), _descent_cells(heights, split)
        for tau in enumerate_bmu(lt, mu):
            for f in (tau, Filling(lt, tuple(c[::-1] for c in tau.columns))):
                seen += 1
                ranks = [[rank[x] for x in c] for c in f.columns]
                assert outcome(_charge, ranks, labels, memo) == outcome(charge, f)
                assert outcome(_content, lt, ranks) == outcome(content, f)
                assert outcome(_arm_sum, ranks, cells, split) == outcome(arm_statistic, f)
                assert _sorted_columns(f.columns, rank.__getitem__) == ord_filling(f).columns
    assert seen == 2 * sum(bmu_size(lt, mu) for mu in scope_weights(lt, size))


def non_edges_as_up_edges(lt, w, r):
    """Call every non-edge an up edge, so the walk yields pairs that are
    not admissible."""
    kind = edge_by_criterion(lt, w, r)
    return EdgeKind.UP if kind is None else kind


def test_statistic_refusing_an_image_is_a_failed_pair():
    # the image's charge word wraps at a primed label, outside the domain
    # of charge; the suite reports the pair and goes on
    C2, A3 = LieType("C", 2), LieType("A", 3)
    result = check_statistics(C2, scope_weights(C2, 3), edge_test=non_edges_as_up_edges)
    assert not result.ok
    assert result.detail.startswith("C n=2: 729 pairs, 482 mismatches; ")
    result = check_statistics(C2, [(1, 1)], edge_test=non_edges_as_up_edges)
    assert result.detail.split("; ")[1] == (
        "mu=(1, 1) (-2, 1) (1, 2): a statistic refuses the image: "
        "charge undefined: wrap at a primed label")
    result = check_statistics(A3, scope_weights(A3, 4), edge_test=non_edges_as_up_edges)
    assert result.detail.startswith("A n=3: 441 pairs, 178 mismatches; ")
    results = run_scope("all", edge_test=non_edges_as_up_edges)
    assert [(r.name, r.ok) for r in results] == [
        ("A-qbg", False), ("C-qbg", False), ("A-bijection", False), ("C-bijection", False),
        ("A-statistics", False), ("C-statistics", False), ("A-poly", True), ("C-poly", True),
        ("kn", True)]


def test_strict_kn_column_condition_is_detected(monkeypatch):
    # a column with exactly k - z letters between z and z-bar is refused
    install(monkeypatch, kn, "is_kn_column",
            mutant(kn, "is_kn_column", "pos[z] <= k - z", "pos[z] < k - z"))
    result = check_kn(LieType("C", 3))
    assert not result.ok
    assert "column definitions disagree at" in result.detail


def test_maxcol_bound_off_by_one_is_detected(monkeypatch):
    # each maxcol entry may equal the one below it
    install(monkeypatch, kn, "maxcol",
            mutant(kn, "maxcol", "min(A[i], bound - 1)", "min(A[i], bound)"))
    result = check_kn(LieType("C", 3))
    assert not result.ok
    assert "maxcol decomposition fails at" in result.detail


@pytest.mark.parametrize("lt,mu", [(LieType("A", 5), (3, 2, 1)), (LieType("A", 2), (2,))])
def test_highest_weight_search_reading_right_to_left_is_detected(monkeypatch, lt, mu):
    # the search reads the columns rightmost first, so it finds the highest
    # weight elements of the other tensor order, on which charge differs
    monkeypatch.setattr(poly, "highest_weight_fillings", mutant(
        poly, "highest_weight_fillings", "[::-1]", "", ("cols + option", "option + cols")))
    result = check_poly(lt, [mu])
    assert not result.ok
    assert "formulas disagree" in result.detail


@pytest.mark.parametrize("lt,mu", [(LieType("C", 3), (2, 2, 1)), (LieType("C", 1), (1,))])
def test_highest_weight_search_without_arrow_n_is_detected(monkeypatch, lt, mu):
    # without type C's arrow n -> n-bar the search keeps fillings that are
    # highest weight only for the Levi subalgebra of type A
    monkeypatch.setattr(poly, "_arrows",
                        mutant(poly, "_arrows", 'if lt.variant == "C"', "if False"))
    result = check_poly(lt, [mu])
    assert not result.ok
    assert "formulas disagree" in result.detail


# each failure message of verify.py, by a literal piece of its text, and
# the test above that forces the failure and asserts on that piece
VERIFY_FAILURES = {
    "round trip fails": "test_skipped_position_in_path_a_is_a_failed_pair",
    "is rejected: ": "test_skipped_position_in_path_a_is_a_failed_pair",
    "sorted filling map not injective": "test_sorted_column_order_in_the_image_key_is_detected",
    "a statistic refuses the image: ": "test_statistic_refusing_an_image_is_a_failed_pair",
    "image has ": "test_mutation_is_detected",
    "level/level_of/charge/arm": "test_level_counted_on_up_edges_is_detected",
    "weight/content/weight_of": "test_weight_of_shifted_by_the_all_ones_vector_is_detected",
    "formulas disagree": "test_wrong_wrap_score_in_charge_is_detected",
    "q=0 is not the character": "test_broken_character_oracle_is_detected",
    "not Weyl-invariant": "test_fault_shared_by_both_constructions_is_detected",
    "nonpositive coefficient": "test_fault_shared_by_both_constructions_is_detected",
    "total mass differs from the index set size":
        "test_fault_shared_by_both_constructions_is_detected",
    "column definitions disagree at": "test_strict_kn_column_condition_is_detected",
    "maxcol decomposition fails at": "test_maxcol_bound_off_by_one_is_detected",
    "splitting characterizations disagree": "test_wrong_substitution_in_split_column_is_detected",
    "edge kinds disagree at": "test_kinds_swapped_on_long_roots_are_detected_by_check_qbg",
}


def test_every_failure_of_verify_has_a_witness():
    # a suite branch whose message names no test here is never shown to
    # catch a broken component
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(verify))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and getattr(node.func.value, "id", None) in ("failures", "mismatches")):
            message = node.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            pieces = [p.value for p in parts if isinstance(p, ast.Constant)]
            keys = [key for key in VERIFY_FAILURES if any(key in p for p in pieces)]
            assert len(keys) == 1, pieces
            used.update(keys)
    assert used == set(VERIFY_FAILURES)
    for key, name in VERIFY_FAILURES.items():
        assert key in inspect.getsource(globals()[name]), (key, name)


def test_skipped_position_in_path_a_is_a_failed_pair(monkeypatch):
    # the greedy scan never looks at the first position of its list, so
    # some images of the filling map are rejected by the inverse map
    real = fillings.path_A
    monkeypatch.setattr(fillings, "path_A", lambda lt, u, i, c, L: real(lt, u, i, c, L[1:]))
    A3 = LieType("A", 3)
    result = check_bijection(A3, scope_weights(A3, 4))
    assert not result.ok
    assert "is rejected: value 2 not reachable into position 1" in result.detail
    assert "round trip fails" in result.detail
    results = run_scope("all")
    assert len(results) == 9
    assert [r.name for r in results if not r.ok] == ["A-bijection", "C-bijection"]


def test_circular_maximum_in_reconstruct_sigma_is_detected(monkeypatch):
    # the reconstruction takes the circularly maximal entry, so the inverse
    # map refuses images of the filling map at their first check, the
    # rightmost column against the identity window
    install(monkeypatch, fillings, "_circular_minima",
            mutant(fillings, "_circular_minima", "x = min(", "x = max("))
    for lt, size in ((LieType("A", 3), 4), (LieType("C", 2), 3)):
        result = check_bijection(lt, scope_weights(lt, size))
        assert not result.ok
        assert "is rejected: rightmost column must be increasing" in result.detail


@pytest.mark.parametrize("old,new", [("1 if x > 0 else -1", "1"), ("1 if y > 0 else -1", "1")],
                         ids=["e_i", "e_j"])
def test_wrong_sign_on_a_barred_value_in_the_walk_is_detected(monkeypatch, old, new):
    # the walk's edge memo takes v(e_i) (or v(e_j)) to be +e_x, not -e_x,
    # when that value of v is the barred letter x-bar
    install(monkeypatch, foldings, "enumerate_admissible",
            mutant(foldings, "enumerate_admissible", old, new))
    C2 = LieType("C", 2)
    weights = scope_weights(C2, 3)
    result = check_statistics(C2, weights)
    assert not result.ok
    assert "weight/content/weight_of" in result.detail
    result = check_poly(C2, weights)
    assert not result.ok
    assert "formulas disagree" in result.detail


@pytest.mark.parametrize("old,new", [("-1 if j > 0 else 1", "1 if j > 0 else -1"),
                                     ("(1 if y > 0 else -1) * s", "0")],
                         ids=["sign_of_e_j", "no_e_j_term"])
@pytest.mark.parametrize("lt,size", [(LieType("A", 3), 4), (LieType("C", 2), 3)], ids=["A3", "C2"])
def test_wrong_root_vector_in_the_walk_is_detected(monkeypatch, old, new, lt, size):
    # the walk takes beta = e_i + s e_j with s of the wrong sign, or drops
    # the e_j term from v(beta), so a take moves omega by the wrong vector
    install(monkeypatch, foldings, "enumerate_admissible",
            mutant(foldings, "enumerate_admissible", old, new))
    weights = scope_weights(lt, size)
    result = check_statistics(lt, weights)
    assert not result.ok
    assert "weight/content/weight_of" in result.detail
    result = check_poly(lt, weights)
    assert not result.ok
    assert "formulas disagree" in result.detail


def test_up_edge_stored_as_quantum_in_the_walk_is_detected(monkeypatch):
    # the walk's edge memo flags the up edges as quantum, so the level sums
    # l_j over the positive folds instead of the negative ones
    install(monkeypatch, foldings, "enumerate_admissible",
            mutant(foldings, "enumerate_admissible",
                   "kind is EdgeKind.QUANTUM", "kind is EdgeKind.UP"))
    C2 = LieType("C", 2)
    weights = scope_weights(C2, 3)
    result = check_statistics(C2, weights)
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail
    result = check_poly(C2, weights)
    assert not result.ok
    assert "formulas disagree" in result.detail


def test_weight_of_shifted_by_the_all_ones_vector_is_detected(monkeypatch):
    # equal to the true weight modulo (1,...,1), so only an exact
    # comparison tells them apart in type A
    real = verify._weight_of
    monkeypatch.setattr(verify, "_weight_of",
                        lambda chain, w, J: tuple(x + 1 for x in real(chain, w, J)))
    A3 = LieType("A", 3)
    result = check_statistics(A3, scope_weights(A3, 4))
    assert not result.ok
    assert "weight/content/weight_of" in result.detail


@pytest.mark.parametrize("lt,size", [(LieType("A", 3), 4), (LieType("C", 2), 3)])
def test_fold_drop_of_one_signed_as_a_rise_is_detected(monkeypatch, lt, size):
    # a reflection changes the length by an odd amount, so "ln <= lv"
    # would sign every fold as "ln < lv" does; this mutant signs a drop
    # of exactly 1 as a negative fold
    install(monkeypatch, foldings, "_fold_chain",
            mutant(foldings, "_fold_chain", "ln < lv", "ln < lv - 1"))
    result = check_statistics(lt, scope_weights(lt, size))
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail


def test_length_table_lives_for_one_call(monkeypatch):
    # a table that outlived the call would answer the second run from the
    # first and hide a patched length
    A3 = LieType("A", 3)
    weights = scope_weights(A3, 4)
    assert check_statistics(A3, weights).ok
    real = foldings.length
    monkeypatch.setattr(foldings, "length", lambda lt, w: real(lt, w) + (w[0] == 1))
    result = check_statistics(A3, weights)
    assert not result.ok
    assert "level/level_of/charge/arm" in result.detail


def drop_one_term(p):
    return {key: c for key, c in p.items() if key != min(p)}


def negate_one_coefficient(p):
    return {key: -c if key == min(p) else c for key, c in p.items()}


def double_every_coefficient(p):
    return {key: 2 * c for key, c in p.items()}


@pytest.mark.parametrize("lt", [LieType("A", 3), LieType("C", 2)])
@pytest.mark.parametrize(
    "fault,message",
    [(drop_one_term, "not Weyl-invariant"),
     (negate_one_coefficient, "nonpositive coefficient"),
     (double_every_coefficient, "total mass differs from the index set size")],
)
def test_fault_shared_by_both_constructions_is_detected(monkeypatch, lt, fault, message):
    # the constructions agree, so only the oracle checks can see the fault
    real = verify.ram_yip_t0
    broken = lambda t, mu: fault(real(t, mu))
    monkeypatch.setattr(verify, "ram_yip_t0", broken)
    monkeypatch.setattr(verify, "charge_formula_t0", broken)
    result = check_poly(lt, [(2, 1)])
    assert not result.ok
    assert message in result.detail


# recorded before the suites ranked each image through a per-call table:
# run_scope("all"), then check_bijection, check_statistics and check_poly
# on the benchmark's sweeps, A4 |mu| <= 5 and C3 |mu| <= 4
PINNED_RESULTS = [
    ("A-qbg", True, "A n=4: 144 pairs, 0 disagreements"),
    ("C-qbg", True, "C n=3: 432 pairs, 0 disagreements"),
    ("A-bijection", True, "A n=3: 9 weights, 169 pairs"),
    ("C-bijection", True, "C n=2: 6 weights, 110 pairs"),
    ("A-statistics", True, "A n=3: 169 pairs, 0 mismatches"),
    ("C-statistics", True, "C n=2: 110 pairs, 0 mismatches"),
    ("A-poly", True, "A n=3: 9 weights"),
    ("C-poly", True, "C n=2: 6 weights"),
    ("kn", True, "C n=3: 244 column pairs"),
    ("A-bijection", True, "A n=4: 16 weights, 2163 pairs"),
    ("A-statistics", True, "A n=4: 2163 pairs, 0 mismatches"),
    ("A-poly", True, "A n=4: 16 weights"),
    ("C-bijection", True, "C n=3: 11 weights, 2451 pairs"),
    ("C-statistics", True, "C n=3: 2451 pairs, 0 mismatches"),
    ("C-poly", True, "C n=3: 11 weights"),
]


def test_suite_results_are_pinned():
    results = run_scope("all")
    for lt, size in ((LieType("A", 4), 5), (LieType("C", 3), 4)):
        weights = scope_weights(lt, size)
        results += [check(lt, weights) for check in (check_bijection, check_statistics, check_poly)]
    assert [(r.name, r.ok, r.detail) for r in results] == PINNED_RESULTS


# recorded likewise: the first mismatches, in their order, under two
# broken edge tests
PINNED_FAILURES = [
    ("A", 3, 4, level_on_up_edges,
     "A n=3: 169 pairs, 160 mismatches; "
     "mu=(4,) (2, 1, 3) (2,): level/level_of/charge/arm = (1, 0, 0, 0); "
     "mu=(4,) (3, 1, 2) (1, 2): level/level_of/charge/arm = (2, 0, 0, 0); "
     "mu=(4,) (2, 1, 3) (4,): level/level_of/charge/arm = (2, 0, 0, 0); "
     "mu=(4,) (3, 1, 2) (1, 4): level/level_of/charge/arm = (3, 0, 0, 0); "
     "mu=(4,) (1, 2, 3) (2, 4): level/level_of/charge/arm = (2, 1, 1, 1)"),
    ("C", 2, 3, level_on_up_edges,
     "C n=2: 110 pairs, 104 mismatches; "
     "mu=(3,) (2, 1) (3,): level/level_of/charge/arm = (1, 0, 0, 0); "
     "mu=(3,) (-2, 1) (2, 3): level/level_of/charge/arm = (2, 0, 0, 0); "
     "mu=(3,) (-1, 2) (1, 2, 3): level/level_of/charge/arm = (3, 0, 0, 0); "
     "mu=(3,) (2, 1) (6,): level/level_of/charge/arm = (2, 0, 0, 0); "
     "mu=(3,) (-2, 1) (2, 6): level/level_of/charge/arm = (3, 0, 0, 0)"),
    ("A", 3, 4, non_edges_as_up_edges,
     "A n=3: 441 pairs, 178 mismatches; "
     "mu=(4,) (1, 3, 2) (1, 2, 3): level/level_of/charge/arm = (1, 2, 1, 1); "
     "mu=(4,) (3, 2, 1) (1, 2, 4): level/level_of/charge/arm = (1, 1, 0, 0); "
     "mu=(4,) (2, 1, 3) (1, 3, 4): level/level_of/charge/arm = (0, 1, 1, 1); "
     "mu=(4,) (1, 3, 2) (1, 2, 5): level/level_of/charge/arm = (1, 2, 1, 1); "
     "mu=(4,) (1, 3, 2) (1, 4, 5): level/level_of/charge/arm = (2, 3, 3, 3)"),
]


@pytest.mark.parametrize("variant,n,size,edge_test,detail", PINNED_FAILURES)
def test_statistics_failure_details_are_pinned(variant, n, size, edge_test, detail):
    lt = LieType(variant, n)
    result = check_statistics(lt, scope_weights(lt, size), edge_test=edge_test)
    assert (result.ok, result.detail) == (False, detail)
