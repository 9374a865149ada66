"""Folding pairs (w, J) over a fixed mu-chain: the folded element chain,
fold signs, weight, level, admissibility, and enumeration of all
admissible pairs.

A pair is admissible when its reversed fold sequence traces a path in the
quantum Bruhat graph from the identity back to w. These pairs index the
surviving terms of the Ram-Yip formula at t=0.
"""

from dataclasses import dataclass

from .chains import MuChain
from .qbg import EdgeKind, edge_by_criterion
from .weyl import (
    ValidationError,
    Window,
    act_on_weight,
    apply_root,
    check_window,
    coroot_pairing,
    identity,
    length,
    rho_pairing,
    root_vector,
)


def check_positions(chain: MuChain, J) -> tuple[int, ...]:
    J = tuple(J)
    if list(J) != sorted(set(J)) or (J and not (1 <= J[0] and J[-1] <= len(chain))):
        raise ValidationError(f"bad position set {J} for a chain of length {len(chain)}")
    return J


@dataclass(frozen=True)
class FoldedChain:
    elements: tuple[Window, ...]
    J_plus: tuple[int, ...]
    J_minus: tuple[int, ...]

    @property
    def end(self) -> Window:
        return self.elements[-1]


def fold_chain(chain: MuChain, w: Window, J) -> FoldedChain:
    """The element chain (w_0, ..., w_s) with each fold signed.

    A fold at position j is positive when the length drops there (the step
    goes down in Bruhat order), negative when it rises.
    """
    lt = chain.lt
    w = check_window(lt, w)
    J = check_positions(chain, J)
    elems = [w]
    plus, minus = [], []
    v = w
    for j in J:
        nxt = apply_root(lt, v, chain.root_at(j))
        (plus if length(lt, nxt) < length(lt, v) else minus).append(j)
        elems.append(nxt)
        v = nxt
    return FoldedChain(tuple(elems), tuple(plus), tuple(minus))


def weight_of(chain: MuChain, w: Window, J) -> tuple[int, ...]:
    """weight(w, J): push mu through the affine reflections, then w.

    The reflection at the innermost (largest) position acts first;
    s_{beta, l} sends lam to lam - (<lam, beta-check> - l) beta.
    """
    lt = chain.lt
    J = check_positions(chain, J)
    lam = chain.mu
    for j in reversed(J):
        beta = chain.root_at(j)
        coeff = coroot_pairing(lt, lam, beta) - chain.level_at(j)
        vec = root_vector(lt, beta)
        lam = tuple(a - coeff * b for a, b in zip(lam, vec))
    return act_on_weight(lt, check_window(lt, w), lam)


def level_of(chain: MuChain, w: Window, J) -> int:
    """Sum of affine levels over the negative folds."""
    folded = fold_chain(chain, w, J)
    return sum(chain.level_at(j) for j in folded.J_minus)


def is_admissible(chain: MuChain, w: Window, J, method: str = "identity") -> bool:
    """Membership test for the surviving Ram-Yip index set.

    'identity' evaluates the defining arithmetic identity (every summand
    of which is non-negative); 'path' checks that the reversed folds make
    a quantum Bruhat graph path ending at the identity element.
    """
    lt = chain.lt
    w = check_window(lt, w)
    J = check_positions(chain, J)
    if method == "identity":
        folded = fold_chain(chain, w, J)
        total = length(lt, w) + length(lt, folded.end) - len(J)
        total += 2 * sum(rho_pairing(lt, chain.root_at(j)) for j in folded.J_minus)
        return total == 0
    if method == "path":
        folded = fold_chain(chain, w, J)
        if folded.end != identity(lt):
            return False
        elems = folded.elements
        for i, j in enumerate(J):
            # the backward step w_i -> w_{i-1} must be a graph edge
            if edge_by_criterion(lt, elems[i + 1], chain.root_at(j)) is None:
                return False
        return True
    raise ValidationError(f"unknown admissibility method {method!r}")


def enumerate_admissible(chain: MuChain, edge_test=None):
    """Yield every admissible (w, J, level, weight), duplicate-free.

    Walks positions from the end of the chain down to 1 in a depth-first
    search starting at the identity; taking position j means following the
    graph edge v -> v * r_j. Each completed scan is one admissible pair.

    The statistics ride along. A quantum edge of this reversed walk is
    exactly a negative fold, so level sums l_j over the quantum edges taken.
    The walk reaches positions innermost first, the order in which
    weight_of applies the affine reflections s_{beta_j, l_j} to mu, so
    lambda is reflected at each position taken and weight = w(lambda) at
    the leaf; it equals the content of the pair's filling.
    """
    lt = chain.lt
    test = edge_test if edge_test is not None else edge_by_criterion

    def descend(pos: int, v: Window, taken: list[int], level: int, lam):
        if pos == 0:
            yield v, tuple(reversed(taken)), level, act_on_weight(lt, v, lam)
            return
        yield from descend(pos - 1, v, taken, level, lam)
        r = chain.root_at(pos)
        kind = test(lt, v, r)
        if kind is not None:
            l = chain.level_at(pos)
            coeff = coroot_pairing(lt, lam, r) - l
            lam_r = tuple(a - coeff * b for a, b in zip(lam, root_vector(lt, r)))
            taken.append(pos)
            yield from descend(pos - 1, apply_root(lt, v, r), taken,
                               level + l if kind is EdgeKind.QUANTUM else level, lam_r)
            taken.pop()

    yield from descend(len(chain), identity(lt), [], 0, chain.mu)
