"""Integer partitions and partition families.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty tuple is the unique partition of 0.  Enumeration follows the
reverse-lexicographic order in which (n) comes first and (1^n) last: of
two distinct partitions, the one with the larger part at the first index
where they differ comes earlier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import ParameterError, integer

Partition = tuple[int, ...]


def partition(parts) -> Partition:
    """Canonicalize an iterable of parts into a partition tuple.

    Parts are sorted decreasingly; zero parts are dropped; negative or
    non-integer parts raise ParameterError.
    """
    out = [p for p in parts if integer(p, "partition part", 0)]  # drops zero parts
    out.sort(reverse=True)
    return tuple(out)


def is_partition(parts) -> bool:
    """True if `parts` is already a canonical partition tuple."""
    if not isinstance(parts, tuple):
        return False
    return all(type(p) is int and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, exactly once, in reverse-lexicographic order.

    The check runs on a cache miss only; lru_cache keys 2.0 and True apart
    from 2 and 1, so they always reach it.
    """
    return tuple(_gen_partitions(integer(n, "partition size", 0), n))


@lru_cache(maxsize=None)
def partition_index(n: int) -> dict[Partition, int]:
    """{lam: position of lam in partitions_of(n)}, shared read-only."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


def partition_position(lam, n: int) -> int:
    """The position of lam in partitions_of(n), canonicalising lam only on a miss."""
    index = partition_index(n)
    i = index.get(tuple(lam))
    if i is None and (i := index.get(partition(lam))) is None:
        raise ParameterError(f"{partition(lam)} is not a partition of {n}")
    return i


def _gen_partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part value -> multiplicity m_i(lam), keyed in decreasing part order."""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def z_lambda(lam: Partition) -> int:
    """Centralizer order prod_i i^{m_i} * m_i! of a permutation of cycle type lam."""
    z = 1
    for i, m in multiplicities(partition(lam)).items():
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


def sign_exponent(lam: Partition) -> int:
    """|lam| - length(lam); the sign of a permutation of type lam is (-1)**this."""
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


def _iter_syt_descents(lam: Partition):
    """Yield the descent set of every standard Young tableau of shape lam.

    Entries 1..n are placed in increasing order; i is a descent when i+1
    lands in a strictly lower row.
    """
    n = sum(lam)
    rows = len(lam)
    filled = [0] * rows  # cells used so far in each row
    row_of = [0] * (n + 2)

    def place(i: int):
        if i > n:
            yield frozenset(
                d for d in range(1, n) if row_of[d + 1] > row_of[d]
            )
            return
        for r in range(rows):
            if filled[r] < lam[r] and (r == 0 or filled[r] < filled[r - 1]):
                filled[r] += 1
                row_of[i] = r
                yield from place(i + 1)
                filled[r] -= 1

    yield from place(1)


def maj_multiplicity(lam: Partition, n: int, r: int) -> int:
    """Number of standard Young tableaux of shape lam with maj congruent to r mod n."""
    integer(n, "maj modulus")
    integer(r, "maj residue")
    lam = partition(lam)
    if sum(lam) != n:
        raise ParameterError(f"shape {lam} is not a partition of {n}")
    if not 0 <= r < n:
        raise ParameterError(f"residue {r} out of range for modulus {n}")
    count = 0
    for descents in _iter_syt_descents(lam):
        if sum(descents) % n == r:
            count += 1
    return count


def revlex_follows(lam: Partition, mu: Partition) -> bool:
    """True if lam equals mu or comes after mu in reverse-lexicographic order."""
    la = list(lam) + [0] * max(0, len(mu) - len(lam))
    mb = list(mu) + [0] * max(0, len(lam) - len(mu))
    for a, b in zip(la, mb):
        if a != b:
            return a < b
    return True


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


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


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
            if not _is_odd_prime(integer(self.p, "prime-family parameter p")):
                raise ParameterError("prime-family needs an odd prime p")
        if self.kind == "lex-from":
            if self.mu is None or not is_partition(self.mu):
                raise ParameterError("lex-from needs a partition mu")
        if self.kind == "explicit":
            if self.items is None:
                raise ParameterError("explicit family needs a list of partitions")
            for lam in self.items:
                if not is_partition(lam):
                    raise ParameterError(f"explicit member {lam!r} is not a partition")


def in_family(lam: Partition, spec: FamilySpec) -> bool:
    """Membership predicate; lam is assumed canonical."""
    kind = spec.kind
    if kind == "all":
        return True
    if kind == "odd-parts":
        return all(p % 2 == 1 for p in lam)
    if kind == "even-sign":
        return sign_exponent(lam) % 2 == 0
    if kind == "odd-sign":
        return sign_exponent(lam) % 2 == 1
    if kind == "do":
        return len(set(lam)) == len(lam) and all(p % 2 == 1 for p in lam)
    if kind == "not-do":
        return not in_family(lam, FamilySpec("do"))
    if kind == "not-do-even-sign":
        return sign_exponent(lam) % 2 == 0 and not in_family(lam, FamilySpec("do"))
    if kind == "distinct":
        return len(set(lam)) == len(lam)
    if kind == "one-or-k":
        return all(p in (1, spec.k) for p in lam)
    if kind == "divides-k":
        return all(spec.k % p == 0 for p in lam)
    if kind == "thm59":
        k = spec.k
        mults = multiplicities(lam)
        for part, m in mults.items():
            if part % 2 == 1:
                if k % part != 0:
                    return False
            else:
                if m > 1 or k % part == 0 or k % (part // 2) != 0:
                    return False
        return True
    if kind == "prime-family":
        allowed = {1, 2, spec.p, 2 * spec.p}
        mults = multiplicities(lam)
        for part, m in mults.items():
            if part not in allowed:
                return False
            if part % 2 == 0 and m > 1:
                return False
        return True
    if kind == "lex-from":
        if sum(spec.mu) != sum(lam):
            raise ParameterError(
                f"lex segment start {spec.mu} is not a partition of {sum(lam)}"
            )
        return revlex_follows(lam, spec.mu)
    if kind == "explicit":
        return lam in spec.items
    raise ParameterError(f"unknown family kind {kind!r}")


def members(spec: FamilySpec, n: int) -> tuple[Partition, ...]:
    """Members of the family among partitions of n, in reverse-lex order."""
    if spec.kind == "lex-from" and sum(spec.mu) != n:
        raise ParameterError(f"lex segment start {spec.mu} is not a partition of {n}")
    return tuple(lam for lam in partitions_of(n) if in_family(lam, spec))


def parse_family(text: str) -> FamilySpec:
    """Parse a CLI family string such as 'odd-parts', 'one-or-k:3', 'lex-from:[2,1]'.

    'explicit:<path>' loads a JSON list of partitions from the file.
    """
    kind, sep, arg = text.partition(":")
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
