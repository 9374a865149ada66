"""Charge statistics: plain words, biwords, and the primed alphabet."""

import random

import pytest

from charge_lab.charge import (
    alphabet,
    charge,
    charge_of_word,
    charge_word,
    column_labels,
    label_str,
    ls_charge,
)
from charge_lab.fillings import Filling, enumerate_bmu
from charge_lab.weyl import LieType, ValidationError, letter_key, letter_str

TAU_A = Filling(LieType("A", 6), ((2,), (1, 2, 4), (2, 3, 4), (3, 5, 6)))
TAU_C = Filling(
    LieType("C", 5),
    ((1, 3, -2), (1, 2, -3), (3, -4, -2), (2, -4, -3),
     (-5, -3, -2, -1), (-5, -3, -2, -1)),
)


def test_ls_charge_values():
    assert ls_charge([1, 1, 3, 2, 2, 1, 4, 3, 2, 3]) == 6
    assert ls_charge([1, 2, 3]) == 3
    assert ls_charge([1, 1, 1]) == 0
    assert ls_charge([]) == 0


def test_type_a_charge_word_order():
    biword = charge_word(TAU_A)
    assert [k for k, _ in biword] == [6, 5, 4, 4, 3, 3, 2, 2, 2, 1]
    assert [j for _, (j, _) in biword] == [1, 1, 3, 2, 2, 1, 4, 3, 2, 3]
    assert charge(TAU_A) == 6


def test_type_a_iteration_indices():
    _, passes = charge(TAU_A, trace=True)
    by_pos = {}
    for it, ps in enumerate(passes, start=1):
        for pos, _ in ps["selected"]:
            by_pos[pos] = it
    assert [by_pos[i] for i in range(10)] == [3, 2, 1, 3, 1, 1, 1, 2, 2, 3]


def test_type_c_charge_word_order():
    biword = charge_word(TAU_C)
    tops = " ".join(letter_str(k) for k, _ in biword)
    assert tops == "1~ 1~ 2~ 2~ 2~ 2~ 3~ 3~ 3~ 3~ 4~ 4~ 5~ 5~ 3 3 2 2 1 1"
    bottoms = " ".join(label_str(lab) for _, lab in biword)
    assert bottoms == "1' 1 3' 2' 1' 1 3 2 1' 1 2' 2 1' 1 3' 2' 3 2 3' 3"


def test_type_c_charge_and_indices():
    total, passes = charge(TAU_C, trace=True)
    assert total == 4
    by_pos = {}
    for it, ps in enumerate(passes, start=1):
        for pos, _ in ps["selected"]:
            by_pos[pos] = it
    expected = [4, 4, 1, 2, 3, 3, 1, 2, 2, 2, 1, 1, 1, 1, 3, 3, 3, 3, 2, 2]
    assert [by_pos[i] for i in range(20)] == expected
    # the scored wraps: one in pass two, two in pass three
    assert [ps["contribution"] for ps in passes] == [0, 1, 3, 0]


def test_wrap_at_primed_label_is_rejected():
    word = [(1, 0), (1, 1)]
    with pytest.raises(ValidationError):
        charge_of_word(word, alphabet(1, primed=True))


def test_word_must_contain_smallest_label():
    with pytest.raises(ValidationError):
        charge_of_word([(2, 0)], alphabet(2, primed=False))


def test_label_rendering():
    assert label_str((3, 1)) == "3'"
    assert label_str((2, 0)) == "2"


def reference_charge_of_word(word, labels):
    """The cycle statistic by rescanning the remaining word for every label
    of every pass; returns (total, passes) like charge_of_word(trace=True)."""
    remaining = list(enumerate(word))
    total = 0
    passes = []
    while remaining:
        have = {lab for _, lab in remaining}
        if labels[0] not in have:
            raise ValidationError("word does not start its label alphabet")
        pos = max(p for p, lab in remaining if lab == labels[0])
        selected = [(pos, labels[0])]
        wraps = []
        for lab in labels[1:]:
            if lab not in have:
                break
            left = [p for p, l in remaining if l == lab and p < pos]
            if left:
                pos = max(left)
            else:
                pos = max(p for p, l in remaining if l == lab)
                if lab[1]:
                    raise ValidationError("charge undefined: wrap at a primed label")
                wraps.append(lab)
            selected.append((pos, lab))
        k = max(j for (_, (j, primed)) in selected if not primed)
        contribution = sum(k - j + 1 for (j, _) in wraps)
        total += contribution
        passes.append(
            {"selected": selected, "wraps": list(wraps), "k": k, "contribution": contribution}
        )
        chosen = {p for p, _ in selected}
        remaining = [(p, lab) for p, lab in remaining if p not in chosen]
    return total, passes


def outcome(fn, word, labels):
    try:
        return fn(word, labels)
    except ValidationError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize(
    "lt,mu",
    [(LieType("A", 5), (3, 2, 1)), (LieType("C", 3), (3, 2, 1)), (LieType("C", 4), (2, 2, 1))],
)
def test_charge_matches_rescanning_reference_on_bmu(lt, mu):
    for f in enumerate_bmu(lt, mu):
        word = [lab for _, lab in charge_word(f)]
        labels = alphabet(f.mu1, primed=f.split)
        assert charge_of_word(word, labels, trace=True) == reference_charge_of_word(word, labels)


def random_word(rng, labels):
    """Mostly shuffled words whose label counts weakly decrease along the
    alphabet, as in charge words; sometimes uniform words, or words missing
    the first label, which reach the error paths."""
    if rng.random() < 0.25:
        pool = labels[1:] if len(labels) > 1 and rng.random() < 0.3 else labels
        return [rng.choice(pool) for _ in range(rng.randint(0, 12))]
    counts = sorted((rng.randint(0, 4) for _ in labels), reverse=True)
    word = [lab for lab, c in zip(labels, counts) for _ in range(c)]
    rng.shuffle(word)
    return word


def test_charge_matches_rescanning_reference_on_random_words():
    rng = random.Random(20111)
    seen = {}
    for _ in range(6000):
        labels = alphabet(rng.randint(1, 4), primed=rng.random() < 0.5)
        word = random_word(rng, labels)
        new = outcome(lambda w, l: charge_of_word(w, l, trace=True), word, labels)
        assert new == outcome(reference_charge_of_word, word, labels), (word, labels)
        kind = new[1] if new[0] == "error" else "positive" if new[0] else "zero"
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {
        "positive",
        "zero",
        "word does not start its label alphabet",
        "charge undefined: wrap at a primed label",
    }
    assert seen["positive"] >= 1000, seen


def reference_charge_word(f):
    """The biword by a stable sort on the entry rank, decreasing; labels
    decrease left to right, so equal entries keep decreasing labels."""
    biword = [(x, lab) for c, lab in zip(f.columns, column_labels(f)) for x in c]
    biword.sort(key=lambda b: letter_key(f.lt, b[0]), reverse=True)
    return biword


@pytest.mark.parametrize("lt,mu", [(LieType("A", 4), (2, 1)), (LieType("A", 5), (3, 2, 1)),
                                   (LieType("C", 3), (3, 2, 1)), (LieType("C", 4), (2, 2, 1))])
def test_charge_word_matches_sorting_reference_on_bmu(lt, mu):
    for f in enumerate_bmu(lt, mu):
        assert charge_word(f) == reference_charge_word(f)


@pytest.mark.parametrize("letter", [-1, 0, 5])
def test_charge_rejects_bad_letters_like_the_sorting_reference(letter):
    f = Filling(LieType("A", 3), ((2,), (1, letter)))
    with pytest.raises(ValidationError) as ref:
        reference_charge_word(f)
    with pytest.raises(ValidationError) as exc:
        charge(f)
    assert str(exc.value) == str(ref.value)
    assert "out of range" in str(exc.value)
