"""Root-system constants and Weyl-group arithmetic for types A and C.

Elements are plain tuples (window notation): a permutation of 1..n in
type A, or signed integers with distinct absolute values 1..n in type C,
where -i stands for the barred letter i-bar.  The full alphabet in type C
is ordered 1 < 2 < ... < n < n-bar < ... < 1-bar, i.e. barred letters sit
above the unbarred ones, with n-bar smallest among them.

Positive roots are encoded as pairs (i, j):

    (i, j)  with 0 < i < j <= n   -> e_i - e_j   (both types)
    (i, -j) with 0 < i < j <= n   -> e_i + e_j   (type C)
    (i, -i)                       -> 2 e_i       (type C)

The same pair also names the corresponding reflection.

Frozen is the base of the package's immutable records (LieType here,
MuChain, Filling, FoldedChain and VerifyResult elsewhere): slotted fields,
equality and hashing by field tuple within one class, and a dataclass-style
repr, built from __slots__ alone.
"""

from itertools import permutations, product
from math import factorial
from operator import attrgetter

Window = tuple[int, ...]
Root = tuple[int, int]

# the largest domain (elements, fillings, pairs) one command or suite sweeps
MAX_DOMAIN = 10**6
# the largest rank; it bounds what a rank alone allocates (windows, weights
# and alphabets have n or 2n entries), and every Weyl group past it is far
# over MAX_DOMAIN
MAX_RANK = 100


class ValidationError(ValueError):
    """Malformed input (bad weight, bad filling, bad element)."""


def check_domain_size(what: str, size: int) -> None:
    """Refuse, before it starts, a sweep over more than MAX_DOMAIN items."""
    if size > MAX_DOMAIN:
        raise ValidationError(f"{what} is {size:,}, over the limit of {MAX_DOMAIN:,}")


class Frozen:
    """An immutable record whose fields are its class's __slots__.

    Each subclass sets its fields in its own __init__, one
    object.__setattr__ per field. Records are equal when they are of the
    same class with equal fields, hash as the tuple of their fields, and
    pickle and copy back through __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LieType(Frozen):
    """Type A_{n-1} on S_n (variant 'A') or type C_n on B_n (variant 'C')."""

    __slots__ = ("variant", "n")

    def __init__(self, variant: str, n: int):
        if not is_int(n):
            raise ValidationError(f"rank must be an integer, not {n!r}")
        if variant not in ("A", "C"):
            raise ValidationError(f"unknown type {variant!r}")
        if n < 1 or (variant == "A" and n < 2):
            raise ValidationError(f"rank {n} too small for type {variant}")
        if n > MAX_RANK:
            raise ValidationError(f"rank {n} is over the limit of {MAX_RANK}")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "n", n)


def letter_key(lt: LieType, x: int) -> int:
    """Rank of a letter in the alphabet order 1 < ... < n < n-bar < ... < 1-bar."""
    if type(x) is not int:
        raise ValidationError(f"letter {x!r} is not an integer")
    n = lt.n
    if x > 0:
        if x > n:
            raise ValidationError(f"letter {x} out of range for n={n}")
        return x - 1
    if lt.variant == "A" or not -n <= x < 0:
        raise ValidationError(f"letter {x} out of range for type {lt.variant}, n={n}")
    return 2 * n + x


def window_ranks(lt: LieType, w: Window) -> list[int]:
    """letter_key of each value of w, for a w trusted to be a window; the
    rank of a barred value -x is 2n - 1 minus the rank of x."""
    n2 = 2 * lt.n
    return [x - 1 if x > 0 else n2 + x for x in w]


def letters(lt: LieType) -> list[int]:
    """The alphabet in increasing order: [n] or [n-bar]."""
    if lt.variant == "A":
        return list(range(1, lt.n + 1))
    return list(range(1, lt.n + 1)) + list(range(-lt.n, 0))


def letter_str(x: int) -> str:
    """Render a letter; barred letters get a trailing tilde, e.g. 2~ for 2-bar."""
    return str(x) if x > 0 else f"{-x}~"


def circ_offset(lt: LieType, a: int, b: int) -> int:
    """Position of b in the circular order starting at a (a itself is 0).

    Trusts both letters to be in the alphabet: the rank of a letter x is
    x - 1, or 2n + x when x is barred, so it is x - (x > 0) modulo the
    alphabet size.
    """
    size = lt.n if lt.variant == "A" else 2 * lt.n
    return (b - (b > 0) - a + (a > 0)) % size


def circ_between(lt: LieType, a: int, b: int, c: int) -> bool:
    """True iff a < b < c strictly in the circular order starting at a.

    The alphabet is arranged clockwise on a circle in its linear order;
    the circular order <_a starts the reading at a. Trusts its letters,
    like circ_offset.
    """
    if a == c:
        raise ValidationError("circ_between requires a != c")
    return 0 < circ_offset(lt, a, b) < circ_offset(lt, a, c)


def identity(lt: LieType) -> Window:
    return tuple(range(1, lt.n + 1))


def check_window(lt: LieType, w: Window) -> Window:
    w = tuple(w)
    if len(w) != lt.n:
        raise ValidationError(f"window {w} has wrong length for n={lt.n}")
    if not all(map(is_int, w)):
        raise ValidationError(f"window {w} has an entry that is not an integer")
    if lt.variant == "A":
        if sorted(w) != list(range(1, lt.n + 1)):
            raise ValidationError(f"{w} is not a permutation of 1..{lt.n}")
    else:
        if sorted(abs(x) for x in w) != list(range(1, lt.n + 1)):
            raise ValidationError(f"{w} is not a signed permutation window")
    return w


def window_str(w: Window) -> str:
    return "".join(letter_str(x) for x in w)


def value_at(w: Window, pos: int) -> int:
    """w(pos) on the full one-line notation; pos < 0 means the barred position."""
    if pos > 0:
        return w[pos - 1]
    return -w[-pos - 1]


def group_order(lt: LieType) -> int:
    """|W|: n! in type A, 2^n n! in type C."""
    return factorial(lt.n) * (2**lt.n if lt.variant == "C" else 1)


def all_elements(lt: LieType) -> list[Window]:
    """Every element of the Weyl group, as windows."""
    if lt.variant == "A":
        return [tuple(p) for p in permutations(range(1, lt.n + 1))]
    out = []
    for p in permutations(range(1, lt.n + 1)):
        for signs in product((1, -1), repeat=lt.n):
            out.append(tuple(s * x for s, x in zip(signs, p)))
    return out


def positive_roots(lt: LieType) -> list[Root]:
    n = lt.n
    roots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if lt.variant == "C":
        roots += [(i, -j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        roots += [(i, -i) for i in range(1, n + 1)]
    return roots


def simple_roots(lt: LieType) -> list[Root]:
    """alpha_1..alpha_n: the roots (i, i+1), then 2e_n in type C."""
    roots = [(i, i + 1) for i in range(1, lt.n)]
    return roots + [(lt.n, -lt.n)] if lt.variant == "C" else roots


def w0_word(lt: LieType) -> list[Root]:
    """A reduced word for the longest element, as simple roots.

    Type A: s_1; s_2 s_1; s_3 s_2 s_1; ...  Type C: (s_1 ... s_n)^n, since
    w0 = -1 is the n-th power of that Coxeter element and has length n^2.
    """
    simple = simple_roots(lt)
    if lt.variant == "C":
        return simple * lt.n
    return [simple[j] for i in range(len(simple)) for j in range(i, -1, -1)]


def check_root(lt: LieType, r: Root) -> Root:
    try:
        i, j = r
    except (TypeError, ValueError):  # not a pair: refused below as a bad label
        i = j = None
    ok = type(i) is type(j) is int and 0 < i <= abs(j) <= lt.n and (abs(j) > i or j == -i)
    if lt.variant == "A":
        ok = ok and j > 0
    if not ok:
        raise ValidationError(f"bad root label {r} for type {lt.variant}, n={lt.n}")
    return r


def root_str(r: Root) -> str:
    i, j = r
    return f"({i},{j})" if j > 0 else f"({i},{-j}~)"


def apply_root(lt: LieType, w: Window, r: Root) -> Window:
    """Right multiplication w * s_r; an involution in r. Trusts r to be a
    positive root of lt."""
    i, j = r
    out = list(w)
    if j > 0:
        out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    else:
        # (i, j-bar) swaps positions i <-> j-bar and j <-> i-bar; at j = i
        # that negates position i
        out[i - 1], out[-j - 1] = -out[-j - 1], -out[i - 1]
    return tuple(out)


def root_for_positions(lt: LieType, i: int, m: int) -> Root:
    """The root whose reflection transposes one-line positions i and m (i in [n],
    m != i); trusts the positions to be in range."""
    if m > 0:
        return (i, m)
    a = -m
    if a > i:
        return (i, -a)
    return (a, -i)


def root_vector(lt: LieType, r: Root) -> tuple[int, ...]:
    """The root as a coordinate vector in Z^n, e_i - e_j or e_i + e_j (2 e_i
    at j = i); trusts r to be a positive root."""
    i, j = r
    v = [0] * lt.n
    v[i - 1] += 1
    v[abs(j) - 1] += 1 if j < 0 else -1
    return tuple(v)


def coroot_pairing(lt: LieType, lam: tuple[int, ...], r: Root) -> int:
    """<lam, alpha-check> for the root labelled r; trusts r to be a positive root."""
    i, j = r
    if j > 0:
        return lam[i - 1] - lam[j - 1]
    if j == -i:  # the coroot of 2 e_i is e_i, not 2 e_i
        return lam[i - 1]
    return lam[i - 1] + lam[-j - 1]


def rho(lt: LieType) -> tuple[int, ...]:
    n = lt.n
    if lt.variant == "A":
        return tuple(range(n - 1, -1, -1))
    return tuple(range(n, 0, -1))


def rho_pairing(lt: LieType, r: Root) -> int:
    """<rho, alpha-check>; positive for every positive root."""
    return coroot_pairing(lt, rho(lt), r)


def length(lt: LieType, w: Window) -> int:
    """Coxeter length: inversions (type A) or the signed-inversion count
    (type C). Trusts w to be a window of lt."""
    n = lt.n
    if lt.variant == "A":  # type C's count below holds here too, but is slower
        return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    # pairs (k, l) with k <= |l| and w(k) above w(l) in the alphabet order
    top = 2 * n - 1
    ranks = window_ranks(lt, w)
    return sum(
        (a > b) + (a > top - b)
        for k, a in enumerate(ranks)
        for b in ranks[k:]
    )


def act_on_weight(lt: LieType, w: Window, lam: tuple[int, ...]) -> tuple[int, ...]:
    """w(lam): permute coordinates (with sign changes in type C)."""
    out = [0] * lt.n
    for pos, x in enumerate(w):
        out[abs(x) - 1] = lam[pos] if x > 0 else -lam[pos]
    return tuple(out)


def is_int(x) -> bool:
    """The one rule for an integer read from input: exactly an int, not a bool."""
    return type(x) is int


def check_dominant(lt: LieType, mu) -> tuple[int, ...]:
    """Validate and pad a partition to a length-n dominant weight; in type A
    the last part is taken from every part, which is no change when it is 0."""
    mu = tuple(mu)
    if not all(map(is_int, mu)):
        raise ValidationError(f"partition {mu} has a part that is not an integer")
    if any(m < 0 for m in mu) or any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValidationError(f"{mu} is not a partition")
    if len(mu) > lt.n:
        raise ValidationError(f"partition {mu} longer than rank {lt.n}")
    mu = mu + (0,) * (lt.n - len(mu))
    if lt.variant == "A":
        mu = tuple(m - mu[-1] for m in mu)
    return mu


def partition_label(mu) -> str:
    """A partition as comma-separated nonzero parts, for messages."""
    return ",".join(str(p) for p in mu if p)


def conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition (column heights of the Young diagram); zero parts add none."""
    return tuple(sum(1 for m in mu if m >= i) for i in range(1, max(mu, default=0) + 1))


def column_counts(mu: tuple[int, ...]) -> list[tuple[int, int]]:
    """(k, m_k) for each column height k of the Young diagram of mu: the
    m_k = mu_k - mu_{k+1} columns of height k. It has at most len(mu)
    entries however large the parts are, unlike the conjugate partition."""
    mu = tuple(mu) + (0,)
    return [(k, mu[k - 1] - mu[k]) for k in range(1, len(mu)) if mu[k - 1] > mu[k]]
