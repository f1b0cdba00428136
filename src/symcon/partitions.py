"""Integer partitions and partition families.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty tuple is the unique partition of 0.  `partition` is the one rule
that reads a partition from a caller: every shape, class and power-sum index
of the library goes through it, with the size it must have where there is
one, and a key already canonical comes back as itself, so keys stay shared.

Enumeration follows the reverse-lexicographic order in which (n) comes
first and (1^n) last: of two distinct partitions, the one with the larger
part at the first index where they differ comes earlier.  `partitions_of`
walks it once per degree with Zoghbi and Stojmenovic's ZS1 (1998), which
turns one list into the next partition in place.

Family membership reads masks, not parts: each shape of a degree is cached
once as (lam, parts mask, repeated-parts mask, sign parity), with bit p set
for a part p, and each family kind is one rule on them (see `_rule`).

No tableau is enumerated: `syt_count` reads the hook-length formula, and
`maj_residues` (which `maj_multiplicity` reads) its q-analogue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import ParameterError, integer, string
from .numbertheory import factorize

Partition = tuple[int, ...]


def partition(parts, n: int | None = None, lo: int = 0) -> Partition:
    """The parts sorted decreasingly, or parts itself when it is already that tuple.

    Each part goes through `integer` with lowest part lo: 0 for shapes and
    classes, whose zero parts are dropped, 1 for power-sum indices.  Given n,
    a key of another size raises "{key} is not a partition of {n}".
    """
    try:  # the filter drops zero parts
        key = tuple(sorted((p for p in parts if integer(p, "partition part", lo)), reverse=True))
    except TypeError:  # parts is not iterable
        raise ParameterError(f"not a partition: {parts!r}") from None
    if n is not None and sum(key) != integer(n, "partition size", 0):
        raise ParameterError(f"{key} is not a partition of {n}")
    return parts if key == parts else key


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, exactly once, in reverse-lexicographic order (ZS1); n checked first."""
    return _partitions_of(integer(n, "partition size", 0))


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    x = [1] * n  # x[:m] is the current partition; x[h] its last part above 1
    x[0], m, h = n, 1, 0
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:  # 2 becomes 1 + 1
            x[h], m, h = 1, m + 1, h - 1
        else:  # lower x[h] to r; the freed t = 1 + (ones after it) follows in parts r, then t % r
            r = x[h] - 1
            t, x[h] = m - h, r
            while t >= r:
                h += 1
                x[h], t = r, t - r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        out.append(tuple(x[:m]))
    return tuple(out)


def partition_index(n: int) -> dict[Partition, int]:
    """{lam: position of lam in partitions_of(n)}, shared read-only; n checked first."""
    return _partition_index(integer(n, "partition size", 0))


@lru_cache(maxsize=None)
def _partition_index(n: int) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(partitions_of(n))}


def partition_position(lam, n: int) -> int:
    """The position of lam in partitions_of(n)."""
    return partition_index(n)[partition(lam, n)]


def _multiplicities(lam: Partition) -> dict[int, int]:
    """Map part value -> multiplicity m_i(lam), keyed in decreasing part order; lam canonical."""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def z_lambda(lam: Partition) -> int:
    """Centralizer order prod_i i^{m_i} * m_i! of a permutation of cycle type lam."""
    z = 1
    for i, m in _multiplicities(partition(lam)).items():
        z *= i**m * factorial(m)
    return z


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    lam = partition(lam)
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def _sign_exponent(lam: Partition) -> int:
    """|lam| - length(lam), lam canonical; a permutation of type lam has sign (-1)**this."""
    return sum(lam) - len(lam)


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all cells of the diagram, row by row."""
    lam = partition(lam)
    t = conjugate(lam)
    return [
        lam[i] - j + t[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    ]


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook-length formula)."""
    hooks = hook_lengths(lam)  # one per cell
    num = factorial(len(hooks))
    for h in hooks:
        num //= h
    return num


def maj_residues(lam: Partition) -> tuple[int, ...]:
    """Standard Young tableaux of shape lam counted by maj mod n = |lam|:
    entry r is the number with maj congruent to r, and the n entries sum to
    syt_count(lam).

    Over all of them, sum_T q^maj(T) = q^b prod_{j<=n} (1 - q^j) / prod_h (1 - q^h)
    (q-hook-length formula, Stanley EC2 7.21.5), h over the hooks, b = sum_i i*lam_i
    with rows from 0; entry r sums the polynomial's coefficients at e + b = r mod n.
    """
    lam = partition(lam)
    n = sum(lam)
    top = n * (n + 1) // 2
    poly = [1] + [0] * top
    for j in range(1, n + 1):  # times 1 - q^j
        for e in range(top, j - 1, -1):
            poly[e] -= poly[e - j]
    for h in hook_lengths(lam):  # over 1 - q^h: a running sum with stride h
        for e in range(h, top + 1):
            poly[e] += poly[e - h]
    b = sum(i * p for i, p in enumerate(lam))
    return tuple(sum(poly[(r - b) % n :: n]) for r in range(n))


def maj_multiplicity(lam: Partition, n: int, r: int) -> int:
    """Number of standard Young tableaux of shape lam with maj congruent to r mod n:
    entry r of maj_residues(lam)."""
    integer(n, "maj modulus")
    integer(r, "maj residue")
    lam = partition(lam, n)
    if not 0 <= r < n:
        raise ParameterError(f"residue {r} out of range for modulus {n}")
    return maj_residues(lam)[r]


# ---------------------------------------------------------------------------
# Partition families


FAMILY_KINDS = (
    "all",
    "odd-parts",
    "even-sign",
    "odd-sign",
    "not-do",
    "not-do-even-sign",
    "do",
    "distinct",
    "one-or-k",
    "divides-k",
    "thm59",
    "prime-family",
    "lex-from",
    "explicit",
)

_PARAM_K = ("one-or-k", "divides-k", "thm59")


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic description of a subset of the partitions of n.

    `kind` is one of FAMILY_KINDS; `k`/`p` hold the integer parameter of
    the parameterized kinds, `mu` the starting partition of a lex segment,
    and `items` the explicit member list.
    """

    kind: str
    k: int | None = None
    p: int | None = None
    mu: Partition | None = None
    items: tuple[Partition, ...] | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        if self.kind in _PARAM_K:
            integer(self.k, f"family {self.kind!r} parameter k", 1)
        if self.kind == "prime-family":
            p = integer(self.p, "prime-family parameter p")
            if not (p >= 3 and p % 2 and factorize(p) == ((p, 1),)):
                raise ParameterError("prime-family needs an odd prime p")
        # mu and each explicit item must equal their own `partition`, so be tuples
        if self.kind == "lex-from" and partition(self.mu) != self.mu:
            raise ParameterError("lex-from needs a partition mu")
        if self.kind == "explicit":
            if not isinstance(self.items, tuple):
                raise ParameterError("explicit family needs a tuple of partitions")
            for lam in self.items:
                if partition(lam) != lam:
                    raise ParameterError(f"explicit member {lam!r} is not a partition")


def _mask(lam: Partition) -> tuple[int, int, int]:
    """(parts mask, repeated-parts mask, sign parity) of a canonical lam."""
    parts = repeated = 0
    for p in lam:
        repeated |= parts & (1 << p)
        parts |= 1 << p
    return parts, repeated, (sum(lam) - len(lam)) & 1


@lru_cache(maxsize=64)
def _masks(n: int) -> tuple[tuple[Partition, int, int, int], ...]:
    """(lam, *_mask(lam)) for every lam of partitions_of(n), in order; n checked by the caller."""
    return tuple((lam, *_mask(lam)) for lam in partitions_of(n))


@lru_cache(maxsize=1024)
def _rule(spec: FamilySpec, n: int) -> tuple[int, int, bool, tuple[int, ...]]:
    """(forbidden parts, forbidden repeated parts, negate, allowed sign parities) at degree n.

    A shape is a member when (no forbidden part and no forbidden repeated part)
    != negate and its sign parity is allowed.
    """
    k, p = spec.k, spec.p
    even, every = (lambda q: q % 2 == 0), (lambda q: True)
    bad, twice = {  # which parts a member may not have, and which not twice
        "odd-parts": (even, None),
        "do": (even, every),
        "not-do": (even, every),
        "not-do-even-sign": (even, every),
        "distinct": (None, every),
        "one-or-k": (lambda q: q not in (1, k), None),
        "divides-k": (lambda q: k % q, None),
        # odd parts divide k; an even part 2j, at most once, has j | k but not 2j | k
        "thm59": (lambda q: k % q if q % 2 else k % q == 0 or k % (q // 2), even),
        "prime-family": (lambda q: q not in (1, 2, p, 2 * p), even),
    }.get(spec.kind, (None, None))
    forbid, repeat = (sum(1 << q for q in range(1, n + 1) if f and f(q)) for f in (bad, twice))
    signs = {"even-sign": (0,), "odd-sign": (1,), "not-do-even-sign": (0,)}.get(spec.kind, (0, 1))
    return forbid, repeat, spec.kind.startswith("not-do"), signs


def in_family(lam, spec: FamilySpec) -> bool:
    """Whether lam lies in the family: `members`' rule, read on the masks of lam alone.

    lam goes through `partition`; lex-from and explicit ask `members` at |lam|.
    """
    lam = partition(lam)
    if not isinstance(spec, FamilySpec):
        raise ParameterError(f"not a FamilySpec: {spec!r}")
    if spec.kind in ("lex-from", "explicit"):
        return lam in members(spec, sum(lam))
    forbid, repeat, negate, signs = _rule(spec, sum(lam))
    parts, repeated, sign = _mask(lam)
    return (not (parts & forbid or repeated & repeat)) != negate and sign in signs


def members(spec: FamilySpec, n: int) -> tuple[Partition, ...]:
    """Members of the family among partitions of n, in reverse-lex order.

    One filter over the cached masks of degree n; lex-from is the suffix of
    partitions_of(n) from mu, and explicit a filter on the items.
    """
    if not isinstance(spec, FamilySpec):
        raise ParameterError(f"not a FamilySpec: {spec!r}")
    masks = _masks(integer(n, "partition size", 0))  # n checked before a cache reads it
    if spec.kind == "lex-from":
        return partitions_of(n)[partition_position(spec.mu, n):]
    if spec.kind == "explicit":
        return tuple(lam for lam, *_ in masks if lam in spec.items)
    return _shapes(n, *_rule(spec, n))


def _shapes(n: int, forbid: int, repeat: int = 0, negate: bool = False, signs=(0, 1)):
    """The shapes of n, in reverse-lex order, that `_rule`'s fields admit; forbid is
    a parts mask, ~allowed for a caller that admits only the parts in allowed."""
    return tuple(
        lam for lam, parts, repeated, sign in _masks(n)
        if (not (parts & forbid or repeated & repeat)) != negate and sign in signs
    )


def parse_family(text: str) -> FamilySpec:
    """Parse a CLI family string such as 'odd-parts', 'one-or-k:3', 'lex-from:[2,1]'.

    'explicit:<path>' loads a JSON list of partitions from the file.
    """
    kind, sep, arg = string(text, "family").partition(":")
    if kind in _PARAM_K:
        if not sep:
            raise ParameterError(f"family {kind!r} needs a parameter, e.g. {kind}:2")
        return FamilySpec(kind, k=_parse_int(arg))
    if kind == "prime-family":
        if not sep:
            raise ParameterError("prime-family needs an odd prime, e.g. prime-family:3")
        return FamilySpec(kind, p=_parse_int(arg))
    if kind == "lex-from":
        if not sep:
            raise ParameterError("lex-from needs a partition, e.g. lex-from:[2,1,1]")
        return FamilySpec(kind, mu=partition_from_json(arg))
    if kind == "explicit":
        if not sep:
            raise ParameterError("explicit needs a file of JSON partitions")
        return FamilySpec(kind, items=_load_partitions(arg))
    if sep:
        raise ParameterError(f"family {kind!r} takes no parameter")
    return FamilySpec(kind)


def _load_partitions(path: str) -> tuple[Partition, ...]:
    """The JSON list of partitions in the file at path; errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read family file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"family file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(item, list) for item in data):
        raise ParameterError(f"family file {path} must hold a JSON list of partitions")
    return tuple(partition(item) for item in data)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(f"expected an integer parameter, got {text!r}") from exc


def partition_from_json(text: str) -> Partition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"not a JSON partition: {text!r}") from exc
    if not isinstance(data, list):
        raise ParameterError(f"not a JSON partition: {text!r}")
    lam = partition(data)
    if list(lam) != data:
        raise ParameterError(f"partition not in canonical decreasing form: {text!r}")
    return lam


def pretty(lam: Partition) -> str:
    """Compact display form: (3,1,1); the empty partition prints as ()."""
    return "(" + ",".join(str(p) for p in lam) + ")"
