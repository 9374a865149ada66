"""Charge statistics on tensor products of columns.

The charge of a sorted filling is computed from its charge word: the
biletters (entry, column label), by decreasing entry and then decreasing
label. Column labels run from mu_1 (leftmost column) down to 1; in the
doubled type C shape the right column of pair j is labeled j-primed, which
sits between j and j+1 in the label alphabet. Charge itself is a cycle
count: repeatedly sweep the word selecting one occurrence of each label in
alphabet order, moving leftward and wrapping around when stuck, and score
each wrap.
"""

from bisect import bisect_left

from .fillings import Filling
from .weyl import ValidationError, letter_key

# a label is (j, primed) with primed in {0, 1}; (1,0) < (1,1) < (2,0) < ...
Label = tuple[int, int]


def label_str(lab: Label) -> str:
    j, primed = lab
    return f"{j}'" if primed else f"{j}"


def column_labels(f: Filling) -> list[Label]:
    """The label of each displayed column, left to right."""
    mu1 = f.mu1
    if f.split:
        return [(mu1 - d // 2, 1 - d % 2) for d in range(len(f.columns))]
    return [(mu1 - d, 0) for d in range(len(f.columns))]


def charge_word(f: Filling) -> list[tuple[int, Label]]:
    """Biletters (entry, column label), sorted by decreasing entry and,
    among equal entries, decreasing label. Every entry is ranked by
    letter_key, so a letter outside the alphabet is refused."""
    lt = f.lt
    biword = [(x, lab) for c, lab in zip(f.columns, column_labels(f)) for x in c]
    return sorted(biword, key=lambda b: (letter_key(lt, b[0]), b[1]), reverse=True)


def alphabet(mu1: int, primed: bool) -> list[Label]:
    if primed:
        return [(j, p) for j in range(1, mu1 + 1) for p in (0, 1)]
    return [(j, 0) for j in range(1, mu1 + 1)]


def charge_of_word(word, labels: list[Label], trace: bool = False):
    """The cycle statistic of a word over the given label alphabet.

    Each pass starts at the rightmost occurrence of the first label and
    picks, for each subsequent label, the nearest occurrence strictly to
    the left, wrapping to the rightmost occurrence when none remains. A
    wrap at a plain label m scores k - m + 1 where k is the largest plain
    label selected in the pass; a wrap at a primed label means the word is
    not in the statistic's domain.
    """
    # the unselected positions of each label, ascending
    where: dict[Label, list[int]] = {lab: [] for lab in labels}
    for p, lab in enumerate(word):
        if lab in where:
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
            passes.append(
                {
                    "selected": selected,
                    "wraps": wraps,
                    "k": k,
                    "contribution": contribution,
                }
            )
    return (total, passes) if trace else total


def ls_charge(word) -> int:
    """Charge, an int, of a plain word of positive integers (no primed labels)."""
    word = list(word)
    labeled = [(x, 0) for x in word]
    mu1 = max(word, default=0)
    return charge_of_word(labeled, alphabet(mu1, primed=False))


def charge(f: Filling, trace: bool = False):
    """Charge of a (sorted) filling via its charge word."""
    biword = charge_word(f)
    cw2 = [lab for _, lab in biword]
    return charge_of_word(cw2, alphabet(f.mu1, primed=f.split), trace=trace)
