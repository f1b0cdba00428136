"""Reference partition enumeration and family membership for the tests.

These are the straightforward forms that `symcon.partitions` replaced with
its single pass per degree and its closed formulas: a recursive generator in
reverse-lexicographic order, a pairwise order comparator, one predicate per
family kind that reads the parts of one shape, and a walk over the standard
Young tableaux of a shape for the major index.  The tests check the library
against them.
"""

from __future__ import annotations


def gen_partitions(n: int, max_part: int | None = None):
    """The partitions of n with parts at most max_part, in reverse-lex order."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in gen_partitions(n - first, first):
            yield (first,) + rest


def revlex_follows(lam, mu) -> bool:
    """True if lam equals mu or comes after mu in reverse-lexicographic order."""
    la = list(lam) + [0] * max(0, len(mu) - len(lam))
    mb = list(mu) + [0] * max(0, len(lam) - len(mu))
    for a, b in zip(la, mb):
        if a != b:
            return a < b
    return True


def _multiplicities(lam) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def in_family(lam, spec) -> bool:
    """Whether the canonical shape lam lies in the family `spec`, kind by kind."""
    kind = spec.kind
    sign = (sum(lam) - len(lam)) % 2
    distinct = len(set(lam)) == len(lam)
    odd = all(p % 2 == 1 for p in lam)
    if kind == "all":
        return True
    if kind == "odd-parts":
        return odd
    if kind == "even-sign":
        return sign == 0
    if kind == "odd-sign":
        return sign == 1
    if kind == "do":
        return distinct and odd
    if kind == "not-do":
        return not (distinct and odd)
    if kind == "not-do-even-sign":
        return sign == 0 and not (distinct and odd)
    if kind == "distinct":
        return distinct
    if kind == "one-or-k":
        return all(p in (1, spec.k) for p in lam)
    if kind == "divides-k":
        return all(spec.k % p == 0 for p in lam)
    if kind == "thm59":
        k = spec.k
        for part, m in _multiplicities(lam).items():
            if part % 2 == 1:
                if k % part != 0:
                    return False
            elif m > 1 or k % part == 0 or k % (part // 2) != 0:
                return False
        return True
    if kind == "prime-family":
        allowed = {1, 2, spec.p, 2 * spec.p}
        for part, m in _multiplicities(lam).items():
            if part not in allowed or (part % 2 == 0 and m > 1):
                return False
        return True
    if kind == "lex-from":
        return revlex_follows(lam, spec.mu)
    if kind == "explicit":
        return lam in spec.items
    raise ValueError(f"unknown family kind {kind!r}")


def members(spec, n: int) -> tuple:
    """The reference filter: every partition of n in reverse-lex order that lies in spec."""
    return tuple(lam for lam in gen_partitions(n) if in_family(lam, spec))


def iter_syt_descents(lam):
    """Yield the descent set of every standard Young tableau of the canonical shape lam.

    Entries 1..n are placed in increasing order; i is a descent when i+1
    lands in a strictly lower row.
    """
    n = sum(lam)
    rows = len(lam)
    filled = [0] * rows  # cells used so far in each row
    row_of = [0] * (n + 2)

    def place(i: int):
        if i > n:
            yield frozenset(d for d in range(1, n) if row_of[d + 1] > row_of[d])
            return
        for r in range(rows):
            if filled[r] < lam[r] and (r == 0 or filled[r] < filled[r - 1]):
                filled[r] += 1
                row_of[i] = r
                yield from place(i + 1)
                filled[r] -= 1

    yield from place(1)


def maj_multiplicity(lam, n: int, r: int) -> int:
    """The number of standard Young tableaux of shape lam with maj congruent to r mod n."""
    return sum(1 for descents in iter_syt_descents(lam) if sum(descents) % n == r)
