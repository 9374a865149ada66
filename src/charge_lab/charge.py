"""Charge statistics on tensor products of columns.

The charge of a filling is computed from its charge word: the
biletters (entry, column label), by decreasing entry and then decreasing
label. Column labels run from mu_1 (leftmost column) down to 1; in the
doubled type C shape the right column of pair j is labeled j-primed, which
sits between j and j+1 in the label alphabet. Charge itself is a cycle
count: repeatedly sweep the word selecting one occurrence of each label in
alphabet order, moving leftward and wrapping around when stuck, and score
each wrap.

The word is sorted on letter ranks (_ranked_word): charge_word takes them
from check_filling, and _charge, which verify calls, takes the ranks
from its caller.
"""

from bisect import bisect_left

from .fillings import Filling, check_filling
from .weyl import ValidationError, is_int, letters

# a label is (j, primed) with primed in {0, 1}; (1,0) < (1,1) < (2,0) < ...
Label = tuple[int, int]


def label_str(lab: Label) -> str:
    j, primed = lab
    return f"{j}'" if primed else f"{j}"


def column_labels(f: Filling) -> list[Label]:
    """The label of each displayed column, left to right."""
    return _column_labels(len(f.columns), f.split)


def _column_labels(count: int, split: bool) -> list[Label]:
    """column_labels of a filling with count displayed columns."""
    if split:
        return [(count // 2 - d // 2, 1 - d % 2) for d in range(count)]
    return [(count - d, 0) for d in range(count)]


def charge_word(f: Filling) -> list[tuple[int, Label]]:
    """Biletters (entry, column label), sorted by decreasing entry and,
    among equal entries, decreasing label. The filling is checked by
    check_filling, and each entry sorted on the rank it returns."""
    alpha = letters(f.lt)
    return [(alpha[k], lab) for k, lab in _ranked_word(check_filling(f), column_labels(f))]


def _ranked_word(ranks, labels) -> list[tuple[int, Label]]:
    """The biletters (rank, label) of columns given as letter ranks, by
    decreasing rank and then decreasing label, in one sort with no key."""
    return sorted([(k, lab) for c, lab in zip(ranks, labels) for k in c], reverse=True)


def alphabet(mu1: int, primed: bool) -> list[Label]:
    if primed:
        return [(j, p) for j in range(1, mu1 + 1) for p in (0, 1)]
    return [(j, 0) for j in range(1, mu1 + 1)]


def charge_of_word(word, trace: bool = False):
    """The cycle statistic of a word of labels (j, 0) or (j, 1), integer
    j >= 1.

    The label alphabet is read off the word: (j, 0) for j = 1 up to the
    largest j in the word, each followed by (j, 1) exactly when the word
    holds a primed label. Each pass starts at the rightmost occurrence of
    the first label and picks, for each subsequent label, the nearest
    occurrence strictly to the left, wrapping to the rightmost occurrence
    when none remains. A wrap at a plain label m scores k - m + 1 where k
    is the largest plain label selected in the pass; a wrap at a primed
    label means the word is not in the statistic's domain. Trusts its
    labels.
    """
    labels = alphabet(max((j for j, _ in word), default=0), any(p for _, p in word))
    # the unselected positions of each label, ascending
    where: dict[Label, list[int]] = {lab: [] for lab in labels}
    for p, lab in enumerate(word):
        where[lab].append(p)
    remaining = len(word)
    total = 0
    passes = []
    while remaining:
        first = labels[0]
        if not where[first]:
            raise ValidationError("word does not start its label alphabet")
        pos = where[first].pop()
        selected = [(pos, first)]
        wraps = []
        for lab in labels[1:]:
            left = where[lab]
            if not left:
                break
            i = bisect_left(left, pos)
            if i:
                pos = left.pop(i - 1)
            else:
                if lab[1]:
                    raise ValidationError("charge undefined: wrap at a primed label")
                pos = left.pop()
                wraps.append(lab)
            selected.append((pos, lab))
        k = max(j for (_, (j, primed)) in selected if not primed)
        contribution = sum(k - j + 1 for (j, _) in wraps)
        total += contribution
        remaining -= len(selected)
        if trace:
            passes.append({"selected": selected, "wraps": wraps, "contribution": contribution})
    return (total, passes) if trace else total


def ls_charge(word) -> int:
    """Charge, an int, of a plain word of positive integers (no primed
    labels); any other letter, a bool included, is refused."""
    word = list(word)
    for x in word:
        if not (is_int(x) and x >= 1):
            raise ValidationError(f"ls_charge takes positive integers, not {x!r}")
    return charge_of_word([(x, 0) for x in word])


def charge(f: Filling, trace: bool = False):
    """Charge of a filling via its charge word; the order of the entries
    inside a column does not matter, since the word sorts them all."""
    return charge_of_word([lab for _, lab in charge_word(f)], trace=trace)


def _charge(ranks, labels, memo: dict) -> int:
    """The charge of columns given as letter ranks under their column
    labels, through memo, which maps each label word met to its charge:
    many fillings share a word, which is charged once."""
    word = tuple([lab for _, lab in _ranked_word(ranks, labels)])
    total = memo.get(word)
    if total is None:
        total = memo[word] = charge_of_word(word)
    return total
