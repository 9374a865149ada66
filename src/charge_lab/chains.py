"""Explicit alcove chains: the omega_k root sequences and their
concatenation into mu-chains.

The omega_k-chain is mu_chain(lt, (1,) * k).

A mu-chain lists the positive roots crossed by a minimal alcove path from
the fundamental alcove to its translate by mu. We build it segment by
segment, one omega_k-chain per column of the Young diagram of mu, from the
tallest-indexed segment down to segment 1. Each position i carries an
affine level l_i, the number of occurrences of the i-th root among
positions 1..i.
"""

from .weyl import (
    Frozen,
    LieType,
    Root,
    check_dominant,
    check_domain_size,
    check_root,
    column_counts,
    conjugate,
    partition_label,
    root_str,
)


def _gamma_i(i: int) -> list[Root]:
    # ((1, i-bar), (2, i-bar), ..., (i-1, i-bar))
    return [(m, -i) for m in range(1, i)]


def _gamma_ki(lt: LieType, k: int, i: int) -> list[Root]:
    n = lt.n
    seg = _gamma_i(i)
    seg += [(i, -m) for m in range(k + 1, n + 1)]
    seg += [(i, -i)]
    seg += [(i, m) for m in range(n, k, -1)]
    return seg


def _omega_parts(lt: LieType, k: int) -> list[list[Root]]:
    """The omega_k-chain of a column of height k as its parts, in chain
    order: one part in type A, rows 1..k with row i running (i,n), ...,
    (i,k+1); in type C the right part, rows Gamma_1..Gamma_k, then the
    left part, rows Gamma_{k1}..Gamma_{kk}. mu_chain passes only column
    heights of a dominant mu, so 1 <= k < n in type A and 1 <= k <= n in
    type C."""
    n = lt.n
    rows = range(1, k + 1)
    if lt.variant == "A":
        return [[(i, j) for i in rows for j in range(n, k, -1)]]
    return [[r for i in rows for r in _gamma_i(i)],
            [r for i in rows for r in _gamma_ki(lt, k, i)]]


class MuChain(Frozen):
    """A mu-chain with its layout.

    Positions are 1-based; ranges are half-open 0-based index ranges.
    parts holds one (height, lo, hi) per displayed filling column, leftmost
    first: the column read before the chain range lo..hi-1 acts. That is
    one part per omega-chain in type A, and its right part then its left
    part in type C.

    No root repeats inside a part of height k. Its row i (1 <= i <= k)
    holds (i, j) with j > k in type A. In type C the right part's row i
    holds (m, i-bar) with m < i, and the left part's row i adds (i, m-bar)
    with m > k, then (i, i-bar), then (i, m) with m > k. Distinct rows
    differ in the entry that carries their index, and m > k >= i, so a
    root is found by its part alone.
    """

    __slots__ = ("lt", "mu", "roots", "levels", "parts")

    def __init__(self, lt: LieType, mu: tuple[int, ...], roots: tuple[Root, ...],
                 levels: tuple[int, ...], parts: tuple[tuple[int, int, int], ...] = ()):
        object.__setattr__(self, "lt", lt)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.roots)

    @property
    def mu1(self) -> int:
        return self.mu[0] if self.mu else 0

    def root_at(self, pos: int) -> Root:
        return self.roots[pos - 1]

    def level_at(self, pos: int) -> int:
        return self.levels[pos - 1]


def _levels(roots) -> tuple[int, ...]:
    seen: dict[Root, int] = {}
    out = []
    for r in roots:
        seen[r] = seen.get(r, 0) + 1
        out.append(seen[r])
    return tuple(out)


def mu_chain(lt: LieType, mu) -> MuChain:
    """The mu-chain Gamma^{mu_1}...Gamma^1 with Gamma^j = Gamma(mu'_j);
    one longer than MAX_DOMAIN roots is refused before it is built."""
    mu = check_dominant(lt, mu)
    check_domain_size(f"the chain length for {lt.variant}{lt.n} mu={partition_label(mu)}",
                      _chain_length(lt, mu))
    roots: list[Root] = []
    parts = []
    for k in reversed(conjugate(mu)):
        for part in _omega_parts(lt, k):
            lo = len(roots)
            roots.extend(check_root(lt, r) for r in part)
            parts.append((k, lo, len(roots)))
    return MuChain(lt=lt, mu=mu, roots=tuple(roots), levels=_levels(roots),
                   parts=tuple(parts))


def chain_length(lt: LieType, mu) -> int:
    """len(mu_chain(lt, mu)) without building it: each of the m_k columns
    of height k adds an omega_k-chain of k(n - k) roots in type A and
    k(2n - k) roots in type C."""
    return _chain_length(lt, check_dominant(lt, mu))


def _chain_length(lt: LieType, mu) -> int:
    """chain_length on a checked, padded mu."""
    span = lt.n if lt.variant == "A" else 2 * lt.n
    return sum(m * k * (span - k) for k, m in column_counts(mu))


def chain_from_roots(lt: LieType, mu, roots) -> MuChain:
    """Wrap an explicitly given root sequence as a chain.

    No layout is recorded, so the filling map and its inverse do not
    apply; folding, weight, level and enumeration all work. Each root is
    validated here, since the Weyl helpers downstream trust their roots.
    """
    mu = check_dominant(lt, mu)
    roots = tuple(tuple(check_root(lt, r)) for r in roots)
    return MuChain(lt=lt, mu=mu, roots=roots, levels=_levels(roots))


def chain_str(chain: MuChain) -> str:
    """Bar-separated rendering, one group per part; in type C the parts of
    one column are joined by | and the columns by ||."""
    if not chain.parts:
        return ",".join(root_str(r) for r in chain.roots)
    texts = [",".join(root_str(r) for r in chain.roots[lo:hi]) for _, lo, hi in chain.parts]
    step = len(texts) // chain.mu1  # parts per column
    columns = [" | ".join(texts[d : d + step]) for d in range(0, len(texts), step)]
    return (" || " if step == 2 else " | ").join(columns)
