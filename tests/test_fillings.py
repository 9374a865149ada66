"""Filling map, its inverse, sorting, reconstruction, and descent arms."""

import ast
import hashlib
import inspect
import pickle
import random
import re
import textwrap
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from charge_lab import fillings
from charge_lab.chains import MuChain, chain_from_roots, mu_chain
from charge_lab.charge import charge
from charge_lab.fillings import (
    Filling,
    _arm_sum,
    _circular_minima,
    _descent_cells,
    _inverse_filling_map,
    _replay_column,
    arm_statistic,
    bmu_size,
    check_filling,
    check_split_pairs,
    content,
    descents,
    enumerate_bmu,
    filling_from_json,
    filling_map,
    filling_str,
    inverse_filling_map,
    ord_filling,
    path_A,
    reconstruct_sigma,
)
from charge_lab.foldings import enumerate_admissible
from charge_lab.kn import split_candidates_equal
from charge_lab.verify import scope_weights
from charge_lab.weyl import (
    LieType,
    ValidationError,
    all_elements,
    conjugate,
    identity,
    letter_key,
    letters,
    value_at,
)
from references import circ_max, condition_1

A3 = LieType("A", 3)
A4 = LieType("A", 4)
C2 = LieType("C", 2)
C3 = LieType("C", 3)


def test_filling_map_type_a_example():
    chain = mu_chain(A4, (3, 2, 1, 0))
    f = filling_map(chain, (2, 1, 3, 4), (3, 6, 7, 9, 10))
    assert f.columns == ((2,), (1, 2), (1, 3, 4))
    assert not f.split
    assert content(f) == (2, 2, 1, 1)


def test_filling_map_type_c_example():
    chain = mu_chain(C3, (2, 1, 0))
    f = filling_map(chain, (1, 2, 3), (3, 5, 6, 11, 12, 13))
    assert f.columns == ((1,), (1,), (2, -1), (1, -2))
    assert f.split
    assert content(f) == (1, 0, 0)


@pytest.mark.parametrize("J", [(0, 3), (3, 11), (3, 1), (1, 1, 3)])
def test_filling_map_refuses_a_position_outside_the_chain(J):
    chain = mu_chain(A4, (3, 2, 1, 0))
    with pytest.raises(ValidationError, match="bad position set"):
        filling_map(chain, (2, 1, 3, 4), J)


def test_filling_map_refuses_a_chain_without_segment_structure():
    chain = chain_from_roots(A3, (1,), [(1, 3), (1, 2)])
    with pytest.raises(ValidationError, match="chain carries no segment structure"):
        filling_map(chain, identity(A3), ())


def test_inverse_round_trip_on_examples():
    chain = mu_chain(A4, (3, 2, 1, 0))
    f = filling_map(chain, (2, 1, 3, 4), (3, 6, 7, 9, 10))
    assert inverse_filling_map(chain, f) == ((2, 1, 3, 4), (3, 6, 7, 9, 10))

    chainc = mu_chain(C3, (2, 1, 0))
    fc = filling_map(chainc, (1, 2, 3), (3, 5, 6, 11, 12, 13))
    assert inverse_filling_map(chainc, fc) == ((1, 2, 3), (3, 5, 6, 11, 12, 13))


def test_reconstruct_sigma_type_a():
    lt = LieType("A", 6)
    tau = Filling(lt, ((2,), (1, 2, 4), (2, 3, 4), (3, 5, 6)))
    sigma = reconstruct_sigma(tau)
    assert sigma.columns == ((2,), (4, 2, 1), (3, 2, 4), (3, 5, 6))
    assert ord_filling(sigma).columns == tau.columns
    for d in range(3):
        assert condition_1(lt, sigma.columns[d], sigma.columns[d + 1])


def test_reconstruct_sigma_type_c():
    lt = LieType("C", 5)
    tau = Filling(
        lt,
        ((1, 3, -2), (1, 2, -3), (3, -4, -2), (2, -4, -3),
         (-5, -3, -2, -1), (-5, -3, -2, -1)),
    )
    sigma = reconstruct_sigma(tau)
    assert sigma.columns == (
        (-2, 1, 3), (-3, 1, 2), (-4, -2, 3), (-4, -3, 2),
        (-5, -3, -2, -1), (-5, -3, -2, -1),
    )
    assert {(j, i) for j, i, _ in descents(sigma)} == {(2, 2), (2, 3), (1, 3)}
    assert arm_statistic(sigma) == 4


def test_reconstruct_sigma_of_the_empty_filling_is_itself():
    assert reconstruct_sigma(Filling(A3, ())) == Filling(A3, ())


def test_arm_statistic_refuses_an_odd_arm_sum_on_a_doubled_shape():
    # the first pair has unequal heights, which the public statistics
    # refuse; on its ranks the core finds one descent, in row 2 of the
    # second pair's right column, with arm 1
    sigma = Filling(LieType("C", 2), ((1,), (2, 1), (1, 2), (2, 1)))
    for statistic in (descents, arm_statistic):
        with pytest.raises(ValidationError, match="paired columns must have equal heights"):
            statistic(sigma)
    ranks = [[letter_key(sigma.lt, x) for x in c] for c in sigma.columns]
    cells = _descent_cells(sigma.heights, True)
    assert [arm for _, _, arm in fillings._descents(ranks, cells)] == [1]
    with pytest.raises(ValidationError, match="odd arm sum on a doubled shape"):
        _arm_sum(ranks, cells, True)


# a filling of each malformed shape, with the refusal check_filling gives it
MALFORMED_SHAPES = [
    (Filling(C3, ((2, -2),)), "split fillings are type C with paired columns"),
    (Filling(A3, ((1, 2), (1,))), "column heights must weakly increase left to right"),
    (Filling(LieType("C", 2), ((1,), (2, 1), (1, 2), (2, 1))),
     "paired columns must have equal heights"),
    (Filling(A3, ((), (1,))), "filling columns must not be empty"),
]


@pytest.mark.parametrize("f,message", MALFORMED_SHAPES)
@pytest.mark.parametrize("statistic", [content, charge, arm_statistic, descents, ord_filling])
def test_statistics_refuse_a_malformed_shape(statistic, f, message):
    with pytest.raises(ValidationError) as refused:
        check_filling(f)
    assert str(refused.value) == message
    with pytest.raises(ValidationError) as refused:
        statistic(f)
    assert str(refused.value) == message


def test_descents_type_a():
    lt = LieType("A", 6)
    sigma = Filling(lt, ((2,), (4, 2, 1), (3, 2, 4), (3, 5, 6)))
    cells = {(j, i) for j, i, _ in descents(sigma)}
    assert cells == {(3, 1), (2, 3), (1, 2), (1, 3)}


def test_content_odd_difference_rejected():
    f = Filling(C3, ((1,), (2,)))
    with pytest.raises(ValidationError):
        content(f)


@pytest.mark.parametrize(
    "lt,letter",
    [(A3, -1), (A3, 0), (A3, 4), (A3, 7), (A3, -4),
     (C3, 0), (C3, 4), (C3, -4), (C3, 7), (C3, -7)],
)
def test_content_rejects_a_letter_outside_the_alphabet_like_charge(lt, letter):
    # -4 in A3 and 4, -4 in C3 would land on the count of a letter of the
    # alphabet in a list indexed by the letter
    f = Filling(lt, ((letter,),) * (2 if lt.variant == "C" else 1))
    with pytest.raises(ValidationError, match="out of range") as exc:
        content(f)
    with pytest.raises(ValidationError) as ref:
        charge(f)
    assert str(exc.value) == str(ref.value)


def test_check_filling_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        check_filling(Filling(A4, ((1, 2), (1,))))  # heights must increase
    with pytest.raises(ValidationError):
        check_filling(Filling(A4, ((1, 1),)))  # repeated value
    with pytest.raises(ValidationError):
        check_filling(Filling(C3, ((1,), (1, 2))))
    with pytest.raises(ValidationError, match="split fillings are type C with paired columns"):
        check_filling(Filling(C3, ((1,), (1,), (2,))))


@pytest.mark.parametrize(
    "lt,columns,split",
    [(A4, ((1,), (0, 2)), False), (A4, ((5,),), False), (A4, ((1, -1),), False),
     (C3, ((1,), (1,), (2, 0), (2, 0)), True), (C3, ((4,), (4,)), True),
     (C3, ((-4,), (-4,)), True), (A3, ((1.5,),), False), (A3, (("a",),), False)],
)
def test_check_filling_rejects_a_letter_outside_the_alphabet(lt, columns, split):
    bad = next(x for c in columns for x in c if x not in letters(lt))
    with pytest.raises(ValidationError) as exc:
        check_filling(Filling(lt, columns))
    assert Filling(lt, columns).split == split
    with pytest.raises(ValidationError) as expected:
        letter_key(lt, bad)
    assert str(exc.value) == str(expected.value)
    with pytest.raises(ValidationError) as counted:
        content(Filling(lt, columns))
    assert str(counted.value) == str(expected.value)


@pytest.mark.parametrize("lt,letter", [(A3, True), (A3, 1.0), (C2, True)])
def test_content_refuses_a_letter_equal_to_1_that_is_not_an_int(lt, letter):
    # True == 1.0 == 1, so an alphabet lookup by equality would count them as 1
    f = Filling(lt, ((letter,),) * (2 if lt.variant == "C" else 1))
    with pytest.raises(ValidationError, match=re.escape(f"letter {letter!r} is not an integer")):
        content(f)


@pytest.mark.parametrize(
    "lt", [LieType("A", n) for n in range(2, 7)] + [LieType("C", n) for n in range(1, 5)])
def test_circular_minima_from_the_identity_sort_a_column(lt):
    # reconstruct_sigma arranges its rightmost column against the identity
    # window; every column of B_mu is a column of some B^{k,1} = B_(1^k)
    key = lambda x: letter_key(lt, x)
    for k in range(1, lt.n if lt.variant == "A" else lt.n + 1):
        for f in enumerate_bmu(lt, (1,) * k):
            for c in f.columns:
                expected = tuple(sorted(c, key=key))
                assert fillings._circular_minima(lt, c, identity(lt)) == expected, c
                assert fillings._circular_minima(lt, c[::-1], identity(lt)) == expected, c


@pytest.mark.parametrize(
    "lt", [LieType("A", n) for n in range(2, 5)] + [LieType("C", n) for n in range(1, 4)])
def test_greedy_scan_toward_c_ends_at_the_circular_maximum(lt):
    # path_C's first stage scans the positions above the column height
    # toward C'(i) itself: the value at i only rises, so the scan ends at
    # M(u, i, C'), and on the same roots as a scan toward M
    for u in all_elements(lt):
        for k in range(1, lt.n + 1):
            tail = list(range(k + 1, lt.n + 1))
            for i in range(1, k + 1):
                for c in letters(lt):
                    Cp = (0,) * (i - 1) + (c,) + (0,) * (k - i)
                    M = circ_max(lt, u, i, Cp)
                    S, v = path_A(lt, u, i, c, tail)
                    assert (S, v) == path_A(lt, u, i, M, tail), (u, k, i, c)
                    assert value_at(v, i) == M, (u, k, i, c)


def test_bmu_sizes():
    import math

    # type A columns are plain subsets
    assert len(enumerate_bmu(LieType("A", 3), (2, 1))) == 3 * 3
    # type C columns of height k number C(2n,k) - C(2n,k-2)
    lt = LieType("C", 2)
    assert len(enumerate_bmu(lt, (1,))) == 4
    assert len(enumerate_bmu(lt, (1, 1))) == math.comb(4, 2) - math.comb(4, 0)
    assert len(enumerate_bmu(lt, (2, 1))) == 4 * 5


@pytest.mark.parametrize(
    "lt,mu,builder",
    [(C3, (2, 2, 2), "enumerate_kn_columns"), (A4, (2, 2), "combinations")],
)
def test_enumerate_bmu_builds_each_column_height_once(monkeypatch, lt, mu, builder):
    # mu has two columns of one height; their options are built once and shared
    real = getattr(fillings, builder)
    calls = []
    monkeypatch.setattr(fillings, builder, lambda *args: calls.append(args) or real(*args))
    assert len(enumerate_bmu(lt, mu)) == bmu_size(lt, mu)
    assert len(calls) == 1


def filling_json(f):
    """The JSON object filling_from_json reads, with the shape it implies."""
    return {
        "schema": "charge-lab/filling/1",
        "type": f.lt.variant,
        "n": f.lt.n,
        "shape": list(conjugate(f.heights[::-2 if f.split else -1])),
        "columns": [list(c) for c in f.columns],
        "split": f.split,
    }


def test_filling_json_round_trip():
    chain = mu_chain(C3, (2, 1, 0))
    f = filling_map(chain, (1, 2, 3), (3, 5, 6, 11, 12, 13))
    data = filling_json(f)
    assert data["schema"] == "charge-lab/filling/1"
    assert data["shape"] == [2, 1]
    assert filling_from_json(data) == f
    assert "2 1~" in filling_str(f) or "1~" in filling_str(f)


@pytest.mark.parametrize("lt,mu", [(A3, (2, 1)), (A4, (3, 1)), (C2, (2, 1)), (C3, (2, 2))])
def test_every_filling_reads_back_from_its_json(lt, mu):
    for f in enumerate_bmu(lt, mu):
        assert filling_from_json(filling_json(f)) == f


@pytest.mark.parametrize("shape", [[2, 1, 0], [True, 1], "2,1", None])
def test_filling_from_json_refuses_a_shape_in_another_form(shape):
    data = {**filling_json(enumerate_bmu(C2, (2, 1))[0]), "shape": shape}
    with pytest.raises(ValidationError, match="does not match the columns' shape"):
        filling_from_json(data)


MISTYPED_RANK_OR_SPLIT = [
    ({"type": "A", "n": "3", "columns": [[1]]}, "filling rank n must be an integer, not '3'"),
    ({"type": "C", "n": 2, "columns": [[1], [1]], "split": 1},
     "filling split must be true or false, not 1"),
]


@pytest.mark.parametrize("data,message", MISTYPED_RANK_OR_SPLIT)
def test_filling_from_json_refuses_a_mistyped_rank_or_split(data, message):
    with pytest.raises(ValidationError, match=message):
        filling_from_json(data)


# with MISTYPED_RANK_OR_SPLIT, one witness per refusal of filling_from_json
# and check_filling: (filling JSON, the refusal it meets first)
FILLING_REFUSALS = [
    ([1], "a filling must be a JSON object"),
    ({"type": "A", "n": 3}, "filling lacks columns"),
    ({"type": "A", "n": 3, "columns": [[1, "x"]]}, "filling columns must be lists of integers"),
    ({"type": "A", "n": 3, "columns": [[1]], "split": None},
     "filling split must be true or false, not None"),
    ({"type": "C", "n": 2, "columns": [[1], [2, -1]], "split": False},
     "filling split must be true for type C"),
    ({"type": "A", "n": 3, "columns": [[1], [2]], "split": True},
     "filling split must be false for type A"),
    ({"type": "A", "n": 3, "columns": [[1, 2], [1]]},
     "column heights must weakly increase left to right"),
    ({"type": "C", "n": 3, "columns": [[1], [1], [2]]},
     "split fillings are type C with paired columns"),
    ({"type": "C", "n": 2, "columns": [[-1], [2, -1]]}, "paired columns must have equal heights"),
    ({"type": "A", "n": 3, "columns": [[1, 1]]}, "column (1, 1) repeats a value"),
    ({"type": "C", "n": 2, "columns": [[1, -1], [1, -1]]}, "column (1, -1) repeats a value"),
    ({"type": "A", "n": 3, "columns": [[1]], "rows": [[1]], "x": 1},
     "filling has unknown keys 'rows', 'x'"),
    ({"type": "A", "n": 3, "columns": [[1], [2]], "shape": [7, 7], "schema": "nonsense/9"},
     "filling schema must be 'charge-lab/filling/1', not 'nonsense/9'"),
    ({"type": "A", "n": 3, "columns": [[1], [2]], "shape": [7, 7]},
     "filling shape [7, 7] does not match the columns' shape [2]"),
    ({"type": "C", "n": 2, "columns": [[2], [1]]},
     "column pair 1 does not sort to a split KN column"),
    ({"type": "A", "n": 3, "columns": [[], [], [2], [1]], "shape": [2]},
     "filling columns must not be empty"),
]


@pytest.mark.parametrize("data,message", FILLING_REFUSALS)
def test_filling_from_json_refuses_a_malformed_filling(data, message):
    with pytest.raises(ValidationError) as exc:
        filling_from_json(data)
    assert str(exc.value) == message


def refusal_patterns(*functions):
    """A regex for each ValidationError message the functions raise
    themselves: the message's literal text, any value formatted into it
    matching anything."""
    out = []
    for fn in functions:
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
            if isinstance(node, ast.Raise) and node.exc.func.id == "ValidationError":
                message = node.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                out.append("".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".*"
                                   for p in parts))
    return out


def test_every_refusal_of_a_filling_has_a_witness():
    # a refusal with no witness is unreachable or untested; a witness that
    # matches no refusal names a message the code no longer gives
    patterns = refusal_patterns(filling_from_json, check_filling, check_split_pairs)
    witnessed = [message for _, message in MISTYPED_RANK_OR_SPLIT + FILLING_REFUSALS]
    for pattern in patterns:
        assert any(re.fullmatch(pattern, message) for message in witnessed), pattern
    for message in witnessed:
        assert any(re.fullmatch(pattern, message) for pattern in patterns), message


# one witness per refusal a filling can trigger in inverse_filling_map:
# (chain, filling, the refusal it meets first)
INVERSE_REFUSALS = [
    (mu_chain(LieType("A", 4), (1,)), Filling(A3, ((2,),)),
     "filling is for A3 but the chain is for A4"),
    (mu_chain(C2, (2, 1)), Filling(C2, ((1,), (1, 2))),
     "paired columns must have equal heights"),
    (mu_chain(A3, (2, 1)), Filling(A3, ((1, 2),)),
     "filling shape does not match the chain's weight"),
    (mu_chain(A3, (2, 1)), Filling(A3, ((1,), (2, 1))),
     "rightmost column must be increasing"),
    # both pairs fail the adjacency condition; the rightmost is named
    (mu_chain(A3, (3, 3)), Filling(A3, ((1, 3), (2, 1), (1, 2))),
     "adjacency condition fails between columns 1 and 2"),
    (mu_chain(C2, (2, 1)), Filling(C2, ((1,), (1,), (1, 2), (1, -2))),
     "column pair 1 does not sort to a split KN column"),
]
# the replay's own refusals, "falls outside its chain segment" and "not
# reachable into position", are met only by a broken chain layout or path:
# see test_swapped_right_and_left_rows_are_detected and
# test_skipped_position_in_path_a_is_a_failed_pair in test_verify.py.


def test_inverse_rejects_fillings_outside_the_image():
    for chain, sigma, message in INVERSE_REFUSALS:
        with pytest.raises(ValidationError) as exc:
            inverse_filling_map(chain, sigma)
        assert str(exc.value) == message, sigma


def images(chain):
    """(sigma, (w, J)) for every admissible pair of the chain."""
    return [(filling_map(chain, w, J), (w, J)) for w, J, _, _ in enumerate_admissible(chain)]


def distinct_fillings(chain):
    """Every filling of the chain's shape whose columns repeat no value."""
    lt = chain.lt
    signed = lt.variant == "C"
    heights = filling_map(chain, identity(lt), ()).heights
    options = {h: [c for c in permutations(letters(lt), h)
                   if len({abs(x) for x in c} if signed else set(c)) == h]
               for h in set(heights)}
    return [Filling(lt, columns) for columns in product(*(options[h] for h in heights))]


def outcome(chain, sigma, memo=None):
    """The pair the inverse maps sigma to, or the message it refuses sigma
    with: the public inverse, or its core through the given replay table."""
    try:
        if memo is None:
            return inverse_filling_map(chain, sigma)
        return _inverse_filling_map(chain, sigma, memo)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("lt,size", [(A3, 4), (C2, 3), (A4, 5)])
def test_inverse_through_a_warm_chain_equals_a_cold_one(lt, size):
    # one replay table per chain serves every image in shuffled order, so
    # most calls find checks and replays that earlier images left in it; for
    # C2 (2,1) and A4 (2,2,1) it serves every filling whose columns repeat
    # no value, and each is accepted or refused as the public inverse does
    rng = random.Random(1)
    for mu in scope_weights(lt, size):
        chain = mu_chain(lt, mu)
        memo = {}
        cases = images(chain)
        if (lt, mu) in ((C2, (2, 1)), (A4, (2, 2, 1))):
            cases += [(sigma, None) for sigma in distinct_fillings(chain)]
        rng.shuffle(cases)
        for sigma, pair in cases:
            got = outcome(chain, sigma, memo)
            assert got == outcome(chain, sigma), sigma
            assert pair in (None, got)


def cold_entry(chain, key):
    """What the inverse's replay table holds under key, computed afresh:
    a pair's split test, a column's replay, or a column's check against
    its right neighbour."""
    lt = chain.lt
    ordered = lambda c: tuple(sorted(c, key=lambda x: letter_key(lt, x)))
    if key[0] == "KN":
        return split_candidates_equal(lt, ordered(key[1]), ordered(key[2]))
    if len(key) == 3:
        return _replay_column(chain, *key)
    col, right = key
    return col == _circular_minima(lt, col, right)


@pytest.mark.parametrize("lt,mu", [(C2, (2, 1)), (A4, (2, 2, 1))])
def test_every_table_entry_is_a_cold_computation_of_its_key(lt, mu):
    # the table holds each check and each column's replay under what it
    # reads, so an entry is right whichever filling met it first; a
    # filling that fails a check adds no replay
    chain = mu_chain(lt, mu)
    memo = {}
    candidates = [sigma for sigma, _ in images(chain)] + distinct_fillings(chain)
    random.Random(2).shuffle(candidates)
    refused = 0
    for sigma in candidates:
        replays = {key for key in memo if type(key[0]) is int}
        if isinstance(outcome(chain, sigma, memo), str):
            refused += 1
            assert replays == {key for key in memo if type(key[0]) is int}, sigma
    assert 0 < refused < len(candidates)
    kinds = {"KN" if key[0] == "KN" else len(key) for key in memo}
    assert kinds == ({"KN", 2, 3} if lt.variant == "C" else {2, 3})
    for key, value in memo.items():
        assert value == cold_entry(chain, key), key


# the public inverse on every filling of the shape whose columns repeat no
# value, at the commit before the replay table was keyed by column: how
# many it accepts or refuses with each message, and the SHA-256 of the
# lines "<columns> <pair or ! message>" in distinct_fillings order
INVERSE_OUTCOMES = {
    (C2, (2, 1)): (
        {"accepted": 20,
         "rightmost column must be increasing": 512,
         "adjacency condition fails between columns 2 and 3": 256,
         "column pair 1 does not sort to a split KN column": 176,
         "column pair 2 does not sort to a split KN column": 60},
        "4fed01f94376256463c3fa52d3f1639447d44502599ddeb23a4f990562f600cc"),
    (A4, (2, 2, 1)): (
        {"accepted": 24,
         "rightmost column must be increasing": 240,
         "adjacency condition fails between columns 0 and 1": 24},
        "cba7c7d8a92eed82218001049f0a0d819d06bd4a1e2b74582969870e2ed18d7c"),
}


@pytest.mark.parametrize("lt,mu", INVERSE_OUTCOMES)
def test_the_public_inverse_accepts_and_refuses_as_pinned(lt, mu):
    chain = mu_chain(lt, mu)
    counts, digest = INVERSE_OUTCOMES[lt, mu]
    lines, seen = [], {}
    for sigma in distinct_fillings(chain):
        got = outcome(chain, sigma)
        message = got if isinstance(got, str) else "accepted"
        seen[message] = seen.get(message, 0) + 1
        lines.append(f"{sigma.columns} {'! ' + got if isinstance(got, str) else repr(got)}")
    assert seen == counts
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("chain,sigma,message", INVERSE_REFUSALS)
def test_inverse_refuses_the_same_way_through_a_warm_chain(chain, sigma, message, monkeypatch):
    # the public inverse runs its core through a table that every image of
    # the chain has warmed, so each refusal of the wrapper and of the core
    # is met as with a fresh table
    memo = {}
    core = _inverse_filling_map
    monkeypatch.setattr(fillings, "_inverse_filling_map", lambda c, s, _: core(c, s, memo))
    for image, pair in images(chain):
        assert inverse_filling_map(chain, image) == pair
    with pytest.raises(ValidationError) as exc:
        inverse_filling_map(chain, sigma)
    assert str(exc.value) == message


@pytest.mark.parametrize("lt,mu", [(C2, (2, 1)), (A4, (2, 2, 1))])
def test_the_public_inverse_leaves_its_chain_as_it_was(lt, mu):
    # the replay table lives for one call: inverting every image changes
    # nothing a chain pickles, compares or hashes
    chain = mu_chain(lt, mu)
    before = pickle.dumps(chain)
    for sigma, pair in images(chain):
        assert inverse_filling_map(chain, sigma) == pair
    assert pickle.dumps(chain) == before
    assert MuChain.__slots__ == ("lt", "mu", "roots", "levels", "parts")


def test_every_refusal_of_the_inverse_has_a_witness():
    # a refusal inverse_filling_map or its core raises itself or through
    # check_split_pairs with no witness in INVERSE_REFUSALS (or, for the
    # chain's own refusal, in
    # test_inverse_refuses_a_chain_without_segment_structure) is
    # unreachable or untested; a witness may also meet the refusal of
    # check_filling that the inverse validates its filling with
    patterns = refusal_patterns(inverse_filling_map, _inverse_filling_map, check_split_pairs)
    witnessed = [message for _, _, message in INVERSE_REFUSALS]
    witnessed.append("chain carries no segment structure")
    for pattern in patterns:
        assert any(re.fullmatch(pattern, message) for message in witnessed), pattern
    known = patterns + refusal_patterns(check_filling)
    for message in witnessed:
        assert any(re.fullmatch(pattern, message) for pattern in known), message


@pytest.mark.parametrize(
    "columns,pair",
    [(((1,), (2,), (1, 2), (1, 2)), 2),
     (((1,), (1,), (1, 2), (1, -2)), 1),
     (((1,), (2,), (1, 2), (1, -2)), 1)],  # both pairs fail; the rightmost is named
)
def test_inverse_names_the_column_pair_that_is_not_a_split_kn_column(columns, pair):
    lt = LieType("C", 2)
    with pytest.raises(ValidationError,
                       match=f"column pair {pair} does not sort to a split KN column"):
        inverse_filling_map(mu_chain(lt, (2, 1)), Filling(lt, columns))


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 3), (2, 1)), (LieType("A", 4), (2, 2, 1)), (LieType("C", 2), (2, 1)),
     (LieType("C", 2), (2,)), (LieType("C", 2), (2, 2))],
)
def test_inverse_accepts_exactly_the_images(lt, mu):
    # every filling of the shape whose columns repeat no value: the inverse
    # returns a pair mapped back onto it or refuses it, and it accepts one
    # filling per admissible pair
    chain = mu_chain(lt, mu)
    accepted = 0
    for sigma in distinct_fillings(chain):
        try:
            w, J = inverse_filling_map(chain, sigma)
        except ValidationError:
            continue
        assert filling_map(chain, w, J) == sigma, sigma.columns
        accepted += 1
    assert accepted == len(list(enumerate_admissible(chain)))


def test_inverse_refuses_a_chain_without_segment_structure():
    lt = LieType("A", 3)
    chain = chain_from_roots(lt, (1,), [(1, 3), (1, 2)])
    with pytest.raises(ValidationError, match="chain carries no segment structure"):
        inverse_filling_map(chain, Filling(lt, ((2,),)))


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 3), (2, 2, 0)), (LieType("A", 3), (3, 1, 0)), (LieType("C", 2), (2, 1))],
)
def test_round_trip_over_all_admissible_pairs(lt, mu):
    chain = mu_chain(lt, mu)
    seen = set()
    for w, J, _, _ in enumerate_admissible(chain):
        sigma = filling_map(chain, w, J)
        assert inverse_filling_map(chain, sigma) == (w, J)
        tau = ord_filling(sigma)
        assert reconstruct_sigma(tau).columns == sigma.columns
        seen.add(tau.columns)
    assert seen == {f.columns for f in enumerate_bmu(lt, mu)}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=19))
def test_reconstruction_round_trips_on_bmu(index):
    lt = LieType("C", 2)
    pool = enumerate_bmu(lt, (2, 1))
    tau = pool[index % len(pool)]
    sigma = reconstruct_sigma(tau)
    assert ord_filling(sigma).columns == tau.columns
    for d in range(len(sigma.columns) - 1):
        assert condition_1(lt, sigma.columns[d], sigma.columns[d + 1])


@pytest.mark.parametrize(
    "lt,size",
    [(LieType("A", n), 5) for n in range(2, 6)] + [(LieType("C", n), 4) for n in range(1, 5)],
)
def test_bmu_size_counts_enumerate_bmu(lt, size):
    for mu in scope_weights(lt, size):
        assert bmu_size(lt, mu) == len(enumerate_bmu(lt, mu)), mu


@pytest.mark.parametrize(
    "lt,mu,power",
    [(LieType("A", 2), (99999999,), 99999999), (C3, (99999999, 5), 99999994),
     (LieType("C", 1), (20,), 20)],
)
def test_bmu_size_refuses_a_repeated_height_before_the_power(lt, mu, power):
    with pytest.raises(ValidationError, match=rf"at least 2\^{power}, over the limit"):
        bmu_size(lt, mu)


def test_bmu_size_just_under_the_repeat_bound_is_exact():
    assert bmu_size(LieType("C", 1), (19,)) == 2**19


def test_enumerate_bmu_refuses_an_oversized_bmu_before_building_it():
    # two columns of height 10 in A20: C(20, 10)^2 = 184756^2 fillings
    with pytest.raises(ValidationError, match=r"\|B_mu\| for A20 mu=2,2,2,2,2,2,2,2,2,2 is "
                                              r"34,134,779,536, over the limit"):
        enumerate_bmu(LieType("A", 20), (2,) * 10)
