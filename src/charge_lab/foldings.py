"""Folding pairs (w, J) over a fixed mu-chain: the folded element chain,
fold signs, weight, level, and enumeration of all admissible pairs.

A pair is admissible when its reversed fold sequence traces a path in the
quantum Bruhat graph from the identity back to w. These pairs index the
surviving terms of the Ram-Yip formula at t=0.

fold_chain, level_of, weight_of and filling_map check their pair once, by
check_pair, then call a trusted core; verify runs the cores on walk pairs.
"""

from .chains import MuChain
from .qbg import EdgeKind, edge_by_criterion
from .weyl import (
    Frozen,
    ValidationError,
    Window,
    act_on_weight,
    apply_root,
    check_window,
    coroot_pairing,
    identity,
    is_int,
    length,
)


# a memo slot whose edge has not been tested yet (None means "no edge")
_UNTESTED = object()


def check_pair(chain: MuChain, w: Window, J) -> tuple[Window, tuple[int, ...]]:
    """The one check of a folding pair: w a window of the chain's type,
    then J increasing positions of the chain, each an int."""
    w, J = check_window(chain.lt, w), tuple(J)
    if (not all(map(is_int, J)) or list(J) != sorted(set(J))
            or (J and not (1 <= J[0] and J[-1] <= len(chain)))):
        raise ValidationError(f"bad position set {J} for a chain of length {len(chain)}")
    return w, J


class FoldedChain(Frozen):
    __slots__ = ("elements", "J_plus", "J_minus")

    def __init__(self, elements: tuple[Window, ...], J_plus: tuple[int, ...],
                 J_minus: tuple[int, ...]):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "J_plus", J_plus)
        object.__setattr__(self, "J_minus", J_minus)

    @property
    def end(self) -> Window:
        return self.elements[-1]


def fold_chain(chain: MuChain, w: Window, J) -> FoldedChain:
    """The element chain (w_0, ..., w_s) with each fold signed.

    A fold at position j is positive when the length drops there (the step
    goes down in Bruhat order), negative when it rises.
    """
    return _fold_chain(chain, *check_pair(chain, w, J), {})


def _fold_chain(chain: MuChain, w: Window, J, lengths: dict) -> FoldedChain:
    """fold_chain on a checked pair. lengths maps each element met so far to
    its length, so a caller that keeps it computes each length once."""
    lt = chain.lt
    elems = [w]
    plus, minus = [], []
    lv = lengths.get(w)
    if lv is None:
        lv = lengths[w] = length(lt, w)
    for j in J:
        nxt = apply_root(lt, elems[-1], chain.root_at(j))
        ln = lengths.get(nxt)
        if ln is None:
            ln = lengths[nxt] = length(lt, nxt)
        (plus if ln < lv else minus).append(j)
        elems.append(nxt)
        lv = ln
    return FoldedChain(tuple(elems), tuple(plus), tuple(minus))


def weight_of(chain: MuChain, w: Window, J) -> tuple[int, ...]:
    """weight(w, J): push mu through the affine reflections, then w."""
    return _weight_of(chain, *check_pair(chain, w, J))


def _weight_of(chain: MuChain, w: Window, J) -> tuple[int, ...]:
    """weight_of on a checked pair.

    The reflection at the innermost (largest) position acts first;
    s_{beta, l} sends lam to lam - (<lam, beta-check> - l) beta, which
    moves the coordinates of lam that beta has: beta is e_i - e_k, or
    e_i + e_{-k} when k < 0, which is 2 e_i when -k = i.
    """
    lt = chain.lt
    lam = list(chain.mu)
    for j in reversed(J):
        beta = i, k = chain.root_at(j)
        c = coroot_pairing(lt, lam, beta) - chain.level_at(j)
        lam[i - 1] -= c
        if k > 0:
            lam[k - 1] += c
        else:
            lam[-k - 1] -= c
    return act_on_weight(lt, w, lam)


def level_of(chain: MuChain, w: Window, J) -> int:
    """Sum of affine levels over the negative folds."""
    return _level_of(chain, *check_pair(chain, w, J), {})


def _level_of(chain: MuChain, w: Window, J, lengths: dict) -> int:
    """level_of on a checked pair, with _fold_chain's length table."""
    return sum(chain.level_at(j) for j in _fold_chain(chain, w, J, lengths).J_minus)


def enumerate_admissible(chain: MuChain, edge_test=None):
    """Yield every admissible (w, J, level, weight), duplicate-free.

    Walks positions from the end of the chain down to 1 in a depth-first
    search starting at the identity; taking position j means following the
    graph edge v -> v * r_j. Each completed scan is one admissible pair.

    The statistics ride along. A quantum edge of this reversed walk is
    exactly a negative fold, so level sums l_j over the quantum edges taken.
    The walk reaches positions innermost first, the order in which
    weight_of applies the affine reflections s_{beta_j, l_j} to mu. Since
    s_{beta, l} lam = s_beta lam + l beta,

        (v s_beta)(s_{beta, l} lam) = v(lam) - l v(beta),

    so each frame carries omega = v(lam) rather than lam: omega starts at
    mu, a take subtracts l v(beta), and a leaf yields omega as it is, the
    content of the pair's filling. l beta is stored as a e_i + b e_j:

        root      (a, b)
        (i, j)    (l, -l)
        (i, j~)   (l, l)
        (i, i~)   (2l, 0)

    and v(e_i) is e_x when x = v(i) > 0, -e_{-x} when x < 0, so a take
    changes at most two coordinates of omega.

    The edge v -> v * r depends on (v, r) alone, so each (element, root)
    the walk reaches is tested once per call; an injected edge_test must
    be a function of (lt, w, r). The memo entry of an edge holds its
    target v * r, whether it is quantum, and v(e_i), v(e_j) as (0-based
    index, sign), so a take only shifts those two coordinates of omega by
    the step's a and b.
    """
    lt = chain.lt
    test = edge_test if edge_test is not None else edge_by_criterion
    # slot[r]: the index of root r among the chain's distinct roots
    slot = {r: k for k, r in enumerate(dict.fromkeys(chain.roots))}
    # step[pos]: the root, level, slot, and l * beta as a e_i + b e_j
    # (0-based i, j) of chain position pos
    step = [None]
    for r, l in zip(chain.roots, chain.levels):
        i, j = r
        if j > 0:
            step.append((r, l, slot[r], i - 1, l, j - 1, -l))
        elif j == -i:
            step.append((r, l, slot[r], i - 1, 2 * l, i - 1, 0))
        else:
            step.append((r, l, slot[r], i - 1, l, -j - 1, l))
    # edges[v][slot[r]]: the edge v -> v * r, filled when first needed:
    # None, or (v * r, quantum, x, sx, y, sy) with v(e_i) = sx e_x and
    # v(e_j) = sy e_y, x and y 0-based
    edges = {}

    # each frame: (next position, element, positions taken, level, omega);
    # walk down the skip branch and push each take branch, so the frames
    # pop in the order of the depth-first search, skip before take
    stack = [(len(chain), identity(lt), (), 0, chain.mu)]
    while stack:
        pos, v, taken, level, omega = stack.pop()
        row = edges.get(v)
        if row is None:
            row = edges[v] = [_UNTESTED] * len(slot)
        while pos:
            r, l, k, i, a, j, b = step[pos]
            edge = row[k]
            if edge is _UNTESTED:
                kind = test(lt, v, r)
                x, y = v[i], v[j]
                edge = row[k] = None if kind is None else (
                    apply_root(lt, v, r), kind is EdgeKind.QUANTUM,
                    abs(x) - 1, 1 if x > 0 else -1, abs(y) - 1, 1 if y > 0 else -1)
            if edge is not None:
                # omega - l v(beta), one coordinate for each of e_i, e_j
                u, quantum, x, sx, y, sy = edge
                moved = list(omega)
                moved[x] -= sx * a
                moved[y] -= sy * b
                stack.append((pos - 1, u, (pos,) + taken,
                              level + l if quantum else level, tuple(moved)))
            pos -= 1
        yield v, taken, level, omega
