"""Explicit alcove chains: the omega_k root sequences and their
concatenation into mu-chains.

A mu-chain lists the positive roots crossed by a minimal alcove path from
the fundamental alcove to its translate by mu. We build it segment by
segment, one omega_k-chain per column of the Young diagram of mu, from the
tallest-indexed segment down to segment 1. Each position i carries an
affine level l_i, the number of occurrences of the i-th root among
positions 1..i.
"""

from dataclasses import dataclass, field

from .weyl import (
    LieType,
    Root,
    ValidationError,
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


def _omega_parts(lt: LieType, k: int) -> list[list[list[Root]]]:
    """The omega_k-chain as rows grouped into parts, in chain order: one
    part in type A, whose row i runs (i,n), ..., (i,k+1); in type C the
    right part, rows Gamma_1..Gamma_k, then the left part, rows
    Gamma_{k1}..Gamma_{kk}."""
    n = lt.n
    if lt.variant == "A":
        if not 1 <= k <= n - 1:
            raise ValidationError(f"column height {k} out of range for A, n={n}")
        return [[[(i, j) for j in range(n, k, -1)] for i in range(1, k + 1)]]
    if not 1 <= k <= n:
        raise ValidationError(f"column height {k} out of range for C, n={n}")
    rows = range(1, k + 1)
    return [[_gamma_i(i) for i in rows], [_gamma_ki(lt, k, i) for i in rows]]


def omega_chain(lt: LieType, k: int) -> list[Root]:
    """The fixed omega_k-chain for the given type and rank."""
    return [r for part in _omega_parts(lt, k) for row in part for r in row]


@dataclass(frozen=True)
class MuChain:
    """A mu-chain with its layout.

    Positions are 1-based; ranges are half-open 0-based index ranges.
    parts holds one (height, lo, hi) per displayed filling column, leftmost
    first: the column read before the chain range lo..hi-1 acts. That is
    one part per omega-chain in type A, and its right part then its left
    part in type C. rows[(d, i)] is the range of row i of part d.
    """

    lt: LieType
    mu: tuple[int, ...]
    roots: tuple[Root, ...]
    levels: tuple[int, ...]
    parts: tuple[tuple[int, int, int], ...] = ()
    rows: dict = field(default_factory=dict)

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
                      chain_length(lt, mu))
    roots: list[Root] = []
    parts, rows = [], {}
    for k in reversed(conjugate(mu)):
        for part in _omega_parts(lt, k):
            lo = len(roots)
            for i, row in enumerate(part, start=1):
                rows[(len(parts), i)] = (len(roots), len(roots) + len(row))
                roots.extend(check_root(lt, r) for r in row)
            parts.append((k, lo, len(roots)))
    return MuChain(lt=lt, mu=mu, roots=tuple(roots), levels=_levels(roots),
                   parts=tuple(parts), rows=rows)


def chain_length(lt: LieType, mu) -> int:
    """len(mu_chain(lt, mu)) without building it: each of the m_k columns
    of height k adds an omega_k-chain of k(n - k) roots in type A and
    k(2n - k) roots in type C."""
    span = lt.n if lt.variant == "A" else 2 * lt.n
    return sum(m * k * (span - k) for k, m in column_counts(check_dominant(lt, mu)))


def chain_from_roots(lt: LieType, mu, roots) -> MuChain:
    """Wrap an explicitly given root sequence as a chain.

    No layout is recorded, so the filling map and its inverse do not
    apply; folding, weight, level and enumeration all work. Each root is
    validated here, since the Weyl helpers downstream trust their roots.
    """
    mu = check_dominant(lt, mu)
    roots = tuple(check_root(lt, tuple(r)) for r in roots)
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
