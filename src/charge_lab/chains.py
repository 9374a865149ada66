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
from functools import cached_property

from .weyl import (
    LieType,
    Root,
    ValidationError,
    check_dominant,
    check_root,
    column_counts,
    conjugate,
    root_str,
)


def omega_chain(lt: LieType, k: int) -> list[Root]:
    """The fixed omega_k-chain for the given type and rank."""
    n = lt.n
    if lt.variant == "A":
        if not 1 <= k <= n - 1:
            raise ValidationError(f"column height {k} out of range for A, n={n}")
        return [(i, j) for i in range(1, k + 1) for j in range(n, k, -1)]
    if not 1 <= k <= n:
        raise ValidationError(f"column height {k} out of range for C, n={n}")
    return omega_chain_r(lt, k) + omega_chain_l(lt, k)


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


def omega_chain_r(lt: LieType, k: int) -> list[Root]:
    return [r for i in range(2, k + 1) for r in _gamma_i(i)]


def omega_chain_l(lt: LieType, k: int) -> list[Root]:
    return [r for i in range(1, k + 1) for r in _gamma_ki(lt, k, i)]


@dataclass(frozen=True)
class MuChain:
    """A mu-chain with its segment bookkeeping.

    Positions are 1-based. seg_of_j maps the segment label j (from mu_1
    down to 1) to a half-open 0-based index range. For type A, a_rows maps
    (j, i) to the range of row i inside segment j. For type C, r_sub and
    l_sub map (j, i) to the Gamma_i and Gamma_{ki} subranges, and
    rl_split[j] is the index where the left part of segment j starts.
    """

    lt: LieType
    mu: tuple[int, ...]
    roots: tuple[Root, ...]
    levels: tuple[int, ...]
    seg_of_j: dict = field(default_factory=dict)
    a_rows: dict = field(default_factory=dict)
    r_sub: dict = field(default_factory=dict)
    l_sub: dict = field(default_factory=dict)
    rl_split: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.roots)

    @property
    def mu1(self) -> int:
        return self.mu[0] if self.mu else 0

    @cached_property
    def mu_conj(self) -> tuple[int, ...]:
        return conjugate(self.mu)

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
    """The mu-chain Gamma^{mu_1}...Gamma^1 with Gamma^j = Gamma(mu'_j)."""
    mu = check_dominant(lt, mu)
    mup = conjugate(mu)
    mu1 = mu[0]
    roots: list[Root] = []
    seg_of_j, a_rows, r_sub, l_sub, rl_split = {}, {}, {}, {}, {}
    n = lt.n
    for j in range(mu1, 0, -1):
        k = mup[j - 1]
        start = len(roots)
        if lt.variant == "A":
            seg = omega_chain(lt, k)
            for i in range(1, k + 1):
                s = start + (i - 1) * (n - k)
                a_rows[(j, i)] = (s, s + (n - k))
        else:
            right = omega_chain_r(lt, k)
            left = omega_chain_l(lt, k)
            seg = right + left
            pos = start
            for i in range(1, k + 1):
                r_sub[(j, i)] = (pos, pos + (i - 1))
                pos += i - 1
            rl_split[j] = pos
            for i in range(1, k + 1):
                width = (i - 1) + 2 * (n - k) + 1
                l_sub[(j, i)] = (pos, pos + width)
                pos += width
        roots.extend(check_root(lt, r) for r in seg)
        seg_of_j[j] = (start, len(roots))
    return MuChain(
        lt=lt,
        mu=mu,
        roots=tuple(roots),
        levels=_levels(roots),
        seg_of_j=seg_of_j,
        a_rows=a_rows,
        r_sub=r_sub,
        l_sub=l_sub,
        rl_split=rl_split,
    )


def chain_length(lt: LieType, mu) -> int:
    """len(mu_chain(lt, mu)) without building it: each of the m_k columns
    of height k adds an omega_k-chain of k(n - k) roots in type A and
    k(2n - k) roots in type C."""
    span = lt.n if lt.variant == "A" else 2 * lt.n
    return sum(m * k * (span - k) for k, m in column_counts(check_dominant(lt, mu)))


def chain_from_roots(lt: LieType, mu, roots) -> MuChain:
    """Wrap an explicitly given root sequence as a chain.

    No segment structure is recorded, so the filling map does not apply;
    folding, weight, level and admissibility all work. Each root is
    validated here, since the Weyl helpers downstream trust their roots.
    """
    mu = check_dominant(lt, mu)
    roots = tuple(check_root(lt, tuple(r)) for r in roots)
    return MuChain(lt=lt, mu=mu, roots=roots, levels=_levels(roots))


def chain_str(chain: MuChain) -> str:
    """Bar-separated rendering; type C marks the right/left split."""
    if not chain.seg_of_j:
        return ",".join(root_str(r) for r in chain.roots)
    parts = []
    for j in range(chain.mu1, 0, -1):
        start, end = chain.seg_of_j[j]
        if chain.lt.variant == "A":
            parts.append(",".join(root_str(r) for r in chain.roots[start:end]))
        else:
            mid = chain.rl_split[j]
            right = ",".join(root_str(r) for r in chain.roots[start:mid])
            left = ",".join(root_str(r) for r in chain.roots[mid:end])
            parts.append(f"{right} | {left}")
    sep = " || " if chain.lt.variant == "C" else " | "
    return sep.join(parts)
