"""Fillings of Young diagrams attached to folding pairs, and the inverse
algorithms realizing the bijection with tensor products of columns.

Columns are displayed left to right from shortest to tallest; the column
labels run from mu_1 (leftmost) down to 1 (rightmost). In type C every
logical column is a pair (right column, left column) and the diagram has
shape 2*mu, the right column of each pair sitting to the LEFT of its left
column in the display, mirroring the order in which the chain segments
act.

inverse_filling_map checks each column against its right neighbour; its
core keeps each check and each column's replay in its caller's table,
under the columns and the element that step reads.

content, arm_statistic, descents and ord_filling run check_filling, which
refuses a malformed shape or a letter outside the alphabet and returns
each letter's rank, and call one private core each on the ranks
(_content, _arm_sum and _descents over the shape's _descent_cells,
_sorted_columns); verify calls the same cores on ranks from its own
table.
"""

from itertools import combinations, product
from math import comb

from .chains import MuChain
from .foldings import check_pair
from .kn import enumerate_kn_columns, split_candidates_equal, split_column
from .weyl import (
    MAX_DOMAIN,
    Frozen,
    LieType,
    ValidationError,
    Window,
    apply_root,
    check_dominant,
    check_domain_size,
    circ_between,
    circ_offset,
    column_counts,
    conjugate,
    identity,
    is_int,
    letter_key,
    letter_str,
    partition_label,
    root_for_positions,
    value_at,
)

Column = tuple[int, ...]


class Filling(Frozen):
    """A list of columns, leftmost first; in type C the shape is doubled,
    a (right, left) pair of columns per logical column."""

    __slots__ = ("lt", "columns")

    def __init__(self, lt: LieType, columns: tuple[Column, ...]):
        object.__setattr__(self, "lt", lt)
        object.__setattr__(self, "columns", columns)

    @property
    def split(self) -> bool:
        return self.lt.variant == "C"

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.columns)

    @property
    def mu1(self) -> int:
        return len(self.columns) // 2 if self.split else len(self.columns)


def check_filling(f: Filling) -> list[list[int]]:
    """Refuse a malformed filling; return the letter_key rank of each
    entry, column by column, leftmost first."""
    hs = f.heights
    if any(a > b for a, b in zip(hs, hs[1:])):
        raise ValidationError("column heights must weakly increase left to right")
    if hs and not hs[0]:
        raise ValidationError("filling columns must not be empty")
    if f.split:
        if len(f.columns) % 2:
            raise ValidationError("split fillings are type C with paired columns")
        if any(hs[d] != hs[d + 1] for d in range(0, len(hs), 2)):
            raise ValidationError("paired columns must have equal heights")
    lt, ranks = f.lt, []
    for c in f.columns:
        # letter_key raises on the first letter outside the alphabet
        ranks.append([letter_key(lt, x) for x in c])
        if len({abs(x) for x in c} if f.split else set(c)) != len(c):
            raise ValidationError(f"column {c} repeats a value")
    return ranks


def check_split_pairs(lt: LieType, cols, memo: dict) -> None:
    """Refuse the columns of a type C filling if a (right, left) pair does
    not sort to the split of a KN column. The pairs are labeled 1, 2, ...
    from the filling's rightmost; the rightmost failing is named. memo
    keeps each pair's answer under ("KN", right, left)."""
    key = lambda x: letter_key(lt, x)
    for d in range(len(cols) - 2, -1, -2):
        pair = ("KN", cols[d], cols[d + 1])
        splits = memo.get(pair)
        if splits is None:
            splits = memo[pair] = split_candidates_equal(
                lt, tuple(sorted(cols[d], key=key)), tuple(sorted(cols[d + 1], key=key)))
        if not splits:
            raise ValidationError(
                f"column pair {len(cols) // 2 - d // 2} does not sort to a split KN column")


def filling_str(f: Filling) -> str:
    """Row-by-row tableau rendering."""
    height = max(f.heights, default=0)
    width = [max((len(letter_str(x)) for x in c), default=1) for c in f.columns]
    rows = []
    for i in range(height):
        cells = [
            (letter_str(c[i]) if i < len(c) else "").rjust(w)
            for c, w in zip(f.columns, width)
        ]
        rows.append(" ".join(cells).rstrip())
    return "\n".join(rows)


def filling_from_json(data) -> Filling:
    """The filling a JSON object describes: `type`, `n` and `columns`, and
    optionally `split`, `shape` and `schema`. An optional key must agree
    with the filling: `split` with its type, `shape` with the partition
    its column heights give, and `schema` must be charge-lab/filling/1.
    In type C each sorted (right, left) pair must be a split KN column."""
    if not isinstance(data, dict):
        raise ValidationError("a filling must be a JSON object")
    missing = [k for k in ("type", "n", "columns") if k not in data]
    if missing:
        raise ValidationError(f"filling lacks {', '.join(missing)}")
    unknown = [k for k in data if k not in ("type", "n", "columns", "split", "shape", "schema")]
    if unknown:
        raise ValidationError(f"filling has unknown keys {', '.join(map(repr, unknown))}")
    if data.get("schema", "charge-lab/filling/1") != "charge-lab/filling/1":
        raise ValidationError(f"filling schema must be 'charge-lab/filling/1', "
                              f"not {data['schema']!r}")
    n, cols, split = data["n"], data["columns"], data.get("split")
    if not is_int(n):
        raise ValidationError(f"filling rank n must be an integer, not {n!r}")
    if not isinstance(cols, list) or not all(
        isinstance(c, list) and all(is_int(x) for x in c) for c in cols
    ):
        raise ValidationError("filling columns must be lists of integers")
    if "split" in data and not isinstance(split, bool):
        raise ValidationError(f"filling split must be true or false, not {split!r}")
    f = Filling(LieType(data["type"], n), tuple(tuple(c) for c in cols))
    if split not in (None, f.split):
        raise ValidationError(f"filling split must be {str(f.split).lower()} "
                              f"for type {f.lt.variant}")
    check_filling(f)
    if "shape" in data:
        shape = list(conjugate(f.heights[::-2 if f.split else -1]))
        given = data["shape"]
        if not (isinstance(given, list) and all(map(is_int, given)) and given == shape):
            raise ValidationError(f"filling shape {given!r} does not match "
                                  f"the columns' shape {shape}")
    if f.split:
        check_split_pairs(f.lt, f.columns, {})
    return f


def filling_map(chain: MuChain, w: Window, J) -> Filling:
    """The filling of shape mu (type A) or 2*mu (type C) read off from the
    window prefixes of the intermediate elements: each column before the
    folds of its part act."""
    if chain.mu1 and not chain.parts:
        raise ValidationError("chain carries no segment structure")
    return _filling_map(chain, *check_pair(chain, w, J))


def _filling_map(chain: MuChain, v: Window, J) -> Filling:
    """filling_map on a checked pair of a chain with segment structure."""
    lt, roots = chain.lt, chain.roots
    cols = []
    t = 0
    for height, _, hi in chain.parts:
        cols.append(v[:height])
        while t < len(J) and J[t] <= hi:
            v = apply_root(lt, v, roots[J[t] - 1])
            t += 1
    return Filling(lt, tuple(cols))


def content(f: Filling) -> tuple[int, ...]:
    """The weight of a filling: per letter i, its count in type A, and half
    the count of i less that of i-bar in type C. Letters are counted at
    the ranks check_filling returns."""
    return _content(f.lt, check_filling(f))


def _content(lt: LieType, ranks) -> tuple[int, ...]:
    """content of columns given as letter ranks."""
    n = lt.n
    counts = [0] * (2 * n)
    for c in ranks:
        for k in c:
            counts[k] += 1
    if lt.variant == "A":
        return tuple(counts[:n])
    out = []
    for i in range(1, n + 1):
        diff = counts[i - 1] - counts[2 * n - i]  # the ranks of i and i-bar
        if diff % 2:
            raise ValidationError(f"odd count difference for letter {i}")
        out.append(diff // 2)
    return tuple(out)


def ord_filling(f: Filling) -> Filling:
    check_filling(f)
    return Filling(f.lt, _sorted_columns(f.columns, lambda x: letter_key(f.lt, x)))


def _sorted_columns(columns, rank) -> tuple[Column, ...]:
    """Each column sorted on rank, a function from a letter to its rank."""
    return tuple(tuple(sorted(c, key=rank)) for c in columns)


def descents(f: Filling) -> list[tuple[int, int, int]]:
    """Descent cells of an image filling as (column label j, row i, arm):
    the cells of _descent_cells where the letter rank rises."""
    ranks = check_filling(f)
    step = 2 if f.split else 1
    cells = _descent_cells(f.heights, f.split)
    return [(f.mu1 - d // step, i, arm) for d, i, arm in _descents(ranks, cells)]


def _descent_cells(heights, split: bool) -> list[tuple[int, int, int]]:
    """The cells of a shape that can host a descent, as (column index d,
    row i, arm): row i of column d against row i of column d - 1.

    Arm counts the cells strictly to the left in the displayed row. In
    type C only the right column of each pair can host a descent,
    against the left column of the next pair.
    """
    step = 2 if split else 1
    return [(d, i, sum(1 for h in heights[:d] if h >= i))
            for d in range(step, len(heights), step) for i in range(1, heights[d - 1] + 1)]


def _descents(ranks, cells) -> list[tuple[int, int, int]]:
    """The cells of _descent_cells where the rank in column d exceeds the
    rank in column d - 1, for columns given as letter ranks."""
    return [(d, i, arm) for d, i, arm in cells if ranks[d][i - 1] > ranks[d - 1][i - 1]]


def arm_statistic(f: Filling) -> int:
    """Sum of arms over descents; halved in type C (arms there are even)."""
    return _arm_sum(check_filling(f), _descent_cells(f.heights, f.split), f.split)


def _arm_sum(ranks, cells, split: bool) -> int:
    """arm_statistic of columns given as letter ranks, with the descent
    cells of their shape."""
    total = sum(arm for _, _, arm in _descents(ranks, cells))
    if split:
        if total % 2:
            raise ValidationError("odd arm sum on a doubled shape")
        return total // 2
    return total


def reconstruct_sigma(tau: Filling) -> Filling:
    """The unique preimage of a sorted filling under per-column sorting,
    subject to the adjacency condition.

    Built right to left from the identity window: each column takes, row
    by row, the remaining entry circularly minimal from its right
    neighbour's entry in that row. Row i of the rightmost column starts
    from the letter i, ranked at most its i-th smallest entry, so that
    column comes out increasing. A column repeats no value, so a filling
    satisfies the adjacency condition between two neighbors exactly when
    its left column is the one built here from its right column.
    """
    check_filling(tau)
    lt = tau.lt
    out = [identity(lt)]
    for col in reversed(tau.columns):
        out.insert(0, _circular_minima(lt, col, out[0]))
    return Filling(lt, tuple(out[:-1]))


def _circular_minima(lt: LieType, col: Column, right: Column) -> Column:
    """The entries of col arranged, row by row, as the remaining entry that
    is circularly minimal from right's entry in that row."""
    remaining = list(col)
    built = []
    for a in right[:len(col)]:
        x = min(remaining, key=lambda y: circ_offset(lt, a, y))
        remaining.remove(x)
        built.append(x)
    return tuple(built)


def path_A(lt: LieType, u: Window, i: int, c: int, L) -> tuple[tuple, Window]:
    """Greedy transposition path moving the value c into position i.

    Scans the positions in L once; takes (i, m) whenever the current value
    there sits circularly between the value at i and c, and stops on c
    itself. The value at position i strictly increases in the circular
    order, so a scan that misses c ends at the circular maximum below c
    (M(u, i, C') when c = C'(i)). Trusts its letters, like circ_between.
    """
    if value_at(u, i) == c:
        return (), u
    S = []
    v = u
    for m in L:
        vm = value_at(v, m)
        take_final = vm == c
        if take_final or circ_between(lt, value_at(v, i), vm, c):
            r = root_for_positions(lt, i, m)
            S.append(r)
            v = apply_root(lt, v, r)
            if take_final:
                break
    return tuple(S), v


def path_C(lt: LieType, u: Window, i: int, Cp: Column):
    """Signed analogue of the greedy path, in up to four stages.

    Stage I walks the unbarred tail positions toward C'(i) and so ends at
    M(u, i, C') (path_A); a sign flip at i is inserted exactly on sign
    mismatch with the target; the remaining stages walk the barred
    positions. Returns the roots of all stages in order, and the end element.
    """
    k = len(Cp)
    n = lt.n
    S, v = path_A(lt, u, i, Cp[i - 1], list(range(k + 1, n + 1)))
    if (value_at(v, i) > 0) != (Cp[i - 1] > 0):
        S += ((i, -i),)
        v = apply_root(lt, v, (i, -i))
    L2 = [-m for m in range(n, k, -1)] + [-m for m in range(i - 1, 0, -1)]
    T, v = path_A(lt, v, i, Cp[i - 1], L2)
    return S + T, v


def _positions_for(chain: MuChain, lo: int, hi: int, roots) -> tuple[int, ...]:
    """The chain positions of the given roots within the part at 0-based
    indices lo..hi-1. No root repeats inside a part (see MuChain), so each
    root has at most one position there."""
    out = []
    for r in roots:
        try:
            out.append(chain.roots.index(r, lo, hi) + 1)
        except ValueError:
            raise ValidationError(f"reflection {r} falls outside its chain segment") from None
    return tuple(out)


def inverse_filling_map(chain: MuChain, sigma: Filling) -> tuple[Window, tuple[int, ...]]:
    """The unique folding pair mapped to sigma by the filling map.

    Checks the chain's segment structure and sigma's type and shape, then
    runs _inverse_filling_map with a fresh replay table."""
    lt = chain.lt
    if chain.mu1 and not chain.parts:
        raise ValidationError("chain carries no segment structure")
    check_filling(sigma)
    if sigma.lt != lt:
        raise ValidationError(f"filling is for {sigma.lt.variant}{sigma.lt.n} "
                              f"but the chain is for {lt.variant}{lt.n}")
    if sigma.heights != tuple(height for height, _, _ in chain.parts):
        raise ValidationError("filling shape does not match the chain's weight")
    return _inverse_filling_map(chain, sigma, {})


def _inverse_filling_map(chain: MuChain, sigma: Filling, memo: dict):
    """inverse_filling_map on a checked filling of the chain's type and shape.

    Tests the image characterization first: each column is the one
    _circular_minima arranges from its right neighbour, the rightmost
    column from identity(lt), as in reconstruct_sigma (the adjacency
    condition; the rightmost column that fails is named), and in type C
    each sorted pair is a split KN column (check_split_pairs). Then it
    replays the greedy paths column by column, right to left, from
    identity(lt) (_replay_column).

    Each step reads a column or two and one element, so memo keeps it
    under what it reads: (column, right) holds whether column passes its
    check against its right neighbour (identity(lt) for the rightmost);
    ("KN", right, left) whether a type C pair sorts to a split KN column;
    and (d, u, column) holds _replay_column(chain, d, u, column), where u
    is the element after the columns to the right of d. An entry is the
    same whichever filling met it first, so the refusals and their order
    are those of a fresh memo; a refused filling may leave checks, but no
    replay. The replay entries are bounded by parts x |W| x columns of a
    height, not by the number of fillings. Their folds are positions in
    this chain, so a caller shares one memo only among fillings of one
    chain.
    """
    lt = chain.lt
    cols = sigma.columns
    right = identity(lt)
    for d in range(len(cols) - 1, -1, -1):
        col = cols[d]
        arranged = memo.get((col, right))
        if arranged is None:
            arranged = memo[col, right] = col == _circular_minima(lt, col, right)
        if not arranged:
            if d == len(cols) - 1:
                raise ValidationError("rightmost column must be increasing")
            raise ValidationError(f"adjacency condition fails between columns {d} and {d + 1}")
        right = col
    if sigma.split:
        check_split_pairs(lt, cols, memo)

    u, folds = identity(lt), []
    for d in range(len(cols) - 1, -1, -1):
        key = (d, u, cols[d])
        step = memo.get(key)
        if step is None:
            step = memo[key] = _replay_column(chain, d, u, cols[d])
        u, at = step
        folds += at
    return u, tuple(sorted(folds))


def _replay_column(chain: MuChain, d: int, u: Window, col: Column):
    """The greedy paths that move col's entries into the rows of column d,
    from the bottom row up, starting at u: the element they end at, with
    col in its first rows, and the chain positions of their roots, found
    in the part of column d. Refuses a path that ends short of its entry."""
    lt = chain.lt
    k, lo, hi = chain.parts[d]
    at = ()
    for i in range(k, 0, -1):
        if lt.variant == "C":
            S, u = path_C(lt, u, i, col)
        else:
            S, u = path_A(lt, u, i, col[i - 1], list(range(k + 1, lt.n + 1)))
        if u[i - 1] != col[i - 1]:
            raise ValidationError(f"value {letter_str(col[i - 1])} "
                                  f"not reachable into position {i}")
        at += _positions_for(chain, lo, hi, S)
    return u, at


def bmu_size(lt: LieType, mu) -> int:
    """|B_mu| without enumerating it: the product over the column heights k
    of N_k ** m_k, where m_k columns have height k and N_k column fillings
    of that height exist, C(n, k) subsets in type A and C(2n, k) - C(2n, k-2)
    KN columns in type C.

    N_k >= 2, so a height repeated m >= MAX_DOMAIN.bit_length() times makes
    |B_mu| at least 2^m > MAX_DOMAIN. That is refused before the power,
    which can have millions of digits, is computed.
    """
    return _bmu_size(lt, check_dominant(lt, mu))


def _bmu_size(lt: LieType, mu) -> int:
    """bmu_size on a checked, padded mu."""
    n = lt.n
    size = 1
    for k, m in column_counts(mu):
        if m >= MAX_DOMAIN.bit_length():
            raise ValidationError(f"|B_mu| for {lt.variant}{n} mu={partition_label(mu)} "
                                  f"is at least 2^{m}, "
                                  f"over the limit of {MAX_DOMAIN:,}")
        if lt.variant == "A":
            per_column = comb(n, k)
        else:
            per_column = comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
        size *= pow(per_column, m)
    return size


def check_bmu_size(lt: LieType, mu) -> tuple[int, ...]:
    """Refuse a |B_mu| over MAX_DOMAIN before anything is built; return mu padded."""
    mu = check_dominant(lt, mu)
    check_domain_size(f"|B_mu| for {lt.variant}{lt.n} mu={partition_label(mu)}",
                      _bmu_size(lt, mu))
    return mu


def enumerate_bmu(lt: LieType, mu) -> list[Filling]:
    """All tensor products of columns for the shape mu, shortest column
    first: sorted column fillings in type A, split KN column pairs in type
    C. The options of each distinct column height are built once."""
    heights = conjugate(check_bmu_size(lt, mu))[::-1]
    if lt.variant == "A":
        options = {k: [(c,) for c in combinations(range(1, lt.n + 1), k)] for k in set(heights)}
    else:
        options = {k: [split_column(lt, c) for c in enumerate_kn_columns(lt, k)]
                   for k in set(heights)}
    return [Filling(lt, sum(combo, ())) for combo in product(*(options[k] for k in heights))]
