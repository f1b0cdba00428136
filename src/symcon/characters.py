"""Symmetric-group characters and Schur expansions.

Character values follow the Murnaghan-Nakayama rule on beta-numbers
(first-column hook lengths): removing a border strip of size k is moving a
bead from b to b-k, with sign (-1)^(beads jumped over).

The full table of degree n is built by the rule read additively
(Macdonald, Symmetric Functions and Hall Polynomials, I.7): a depth-first
walk over class prefixes rho, parts in decreasing order, carries the
vector chi^lam(rho) over all lam |- |rho|, and appending a part k sets
chi^mu(rho + k) to the signed sum of chi^lam(rho) over the lam left by
removing a k-strip from mu.  The prefixes of size n are the columns.

`mn_character` evaluates one value by the same rule as a recursion,
removing strips for the largest remaining part of mu first, with values
memoized on (remaining shape, remaining class); the tests hold the table
to it.  A small alternant oracle recomputes chi^nu(mu) for n <= 6 from the
bialternant definition, fully independently of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import lcm
from operator import mul, neg, sub

from .errors import CapacityError, DegreeError, ParameterError
from .partitions import Partition, partition, partitions_of, pretty, z_lambda
from .symfunc import PExpr

ALTERNANT_MAX_N = 6


def _strip_removals(lam: Partition, k: int):
    """All ways to remove a border strip of size k: (smaller shape, height)."""
    length = len(lam)
    beta = [p + (length - 1 - i) for i, p in enumerate(lam)]
    bset = set(beta)
    out = []
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0:
            break
        if nb in bset:
            continue
        # The bead jumps over beta[i+1:j]; those rows move up one and lose
        # a box, and the bead lands in row j-1.
        j = i + 1
        while j < length and beta[j] > nb:
            j += 1
        landed = nb - (length - j)
        shape = (
            lam[:i]
            + tuple(p - 1 for p in lam[i + 1 : j] if p > 1)
            + ((landed,) if landed else ())
            + lam[j:]
        )
        out.append((shape, j - i - 1))
    return out


@lru_cache(maxsize=None)
def _mn(nu: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not nu else 0
    k, rest = mu[0], mu[1:]
    total = 0
    for smaller, height in _strip_removals(nu, k):
        val = _mn(smaller, rest)
        total += -val if height % 2 else val
    return total


def mn_character(nu: Partition, mu: Partition) -> int:
    """chi^nu evaluated on the class of cycle type mu."""
    nu, mu = partition(nu), partition(mu)
    if sum(nu) != sum(mu):
        raise ParameterError(
            f"shape {nu} and class {mu} have different sizes"
        )
    return _mn(nu, mu)


@dataclass(frozen=True)
class CharacterTable:
    """Full matrix chi^nu(mu), rows and columns in reverse-lex order."""

    n: int
    parts: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]
    index: dict[Partition, int] = field(repr=False, default=None)

    def chi(self, nu: Partition, mu: Partition) -> int:
        index = self.index
        try:
            return self.rows[index[tuple(nu)]][index[tuple(mu)]]
        except KeyError:  # canonicalise only on a miss, so canonical keys stay fast
            nu, mu = partition(nu), partition(mu)
            if nu not in index or mu not in index:
                raise ParameterError(
                    f"shape {nu} and class {mu} must be partitions of {self.n}"
                ) from None
            return self.rows[index[nu]][index[mu]]


@lru_cache(maxsize=None)
def _build_table(n: int) -> CharacterTable:
    parts = partitions_of(n)
    positions = [
        {lam: i for i, lam in enumerate(partitions_of(m))} for m in range(n + 1)
    ]
    strips: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    columns: list[list[int]] = []

    def strip_indices(size: int, k: int) -> tuple[list[int], list[int]]:
        """The k-strip removals from every mu |- size+k, as flat index runs.

        An index points into the signed vector, chi(rho) over lam |- size
        followed by its negation, so a strip of odd height reads the second
        half.  The removals from the i-th mu are flat[ends[i-1]:ends[i]].
        """
        key = (size, k)
        if key not in strips:
            pos = positions[size]
            shift = len(pos)
            flat: list[int] = []
            ends: list[int] = []
            for mu in partitions_of(size + k):
                flat.extend(
                    pos[lam] + shift * (height % 2)
                    for lam, height in _strip_removals(mu, k)
                )
                ends.append(len(flat))
            strips[key] = flat, ends
        return strips[key]

    def walk(size: int, last: int, values: list[int]) -> None:
        # values[i] = chi^lam(rho) for the i-th lam |- size.  Parts are added
        # largest first, so the leaves arrive in partitions_of(n) order.
        if size == n:
            columns.append(values)
            return
        get = (values + list(map(neg, values))).__getitem__
        for k in range(min(last, n - size), 0, -1):
            flat, ends = strip_indices(size, k)
            # Differences of running sums give each mu's sum without a
            # Python-level loop per entry.
            totals = list(accumulate(map(get, flat), initial=0))
            at_ends = list(map(totals.__getitem__, ends))
            walk(size + k, k, list(map(sub, at_ends, [0] + at_ends)))

    walk(0, n, [1])
    rows = tuple(zip(*columns))
    index = {lam: i for i, lam in enumerate(parts)}
    return CharacterTable(n, parts, rows, index)


def character_table(n: int, max_n: int = 20) -> CharacterTable:
    """Character table of degree n, built once per process and shared read-only."""
    if n < 0:
        raise ParameterError(f"character table needs n >= 0, got {n}")
    if n > max_n:
        raise CapacityError(f"character table degree {n} beyond cap {max_n}")
    return _build_table(n)


# ---------------------------------------------------------------------------
# Schur expansions


@dataclass(frozen=True)
class SchurExpansion:
    """Sparse map nu -> multiplicity with a positivity verdict.

    POSITIVE: every nu |- n occurs with multiplicity >= 1.
    NONNEGATIVE: all multiplicities are integers >= 0.
    MIXED: integral but some multiplicity is negative.
    NON_INTEGRAL: some multiplicity is not an integer.
    """

    n: int
    mults: dict[Partition, Fraction]
    verdict: str

    def mult(self, nu: Partition) -> Fraction:
        return self.mults.get(tuple(nu), Fraction(0))

    def to_json_dict(self) -> dict:
        out = {}
        for nu in partitions_of(self.n):
            m = self.mults.get(nu)
            if m:
                key = "[" + ",".join(str(p) for p in nu) + "]"
                out[key] = int(m) if m.denominator == 1 else str(m)
        return {"n": self.n, "mults": out, "verdict": self.verdict}

    def pretty(self) -> str:
        bits = []
        for nu in partitions_of(self.n):
            m = self.mults.get(nu)
            if m:
                c = str(int(m)) if m.denominator == 1 else str(m)
                bits.append(f"{c}·{pretty(nu)}")
        return " + ".join(bits) if bits else "0"


def _verdict(n: int, mults: dict[Partition, Fraction]) -> str:
    if any(m.denominator != 1 for m in mults.values()):
        return "NON_INTEGRAL"
    if any(m < 0 for m in mults.values()):
        return "MIXED"
    if all(mults.get(nu, 0) >= 1 for nu in partitions_of(n)):
        return "POSITIVE"
    return "NONNEGATIVE"


def to_schur(f: PExpr, n: int | None = None, max_n: int = 20) -> SchurExpansion:
    """Expand a homogeneous power-sum expression in the Schur basis.

    mult(nu) = sum_lam c_lam * chi^nu(lam).
    """
    deg = f.homogeneous_degree()
    if deg is None:
        if n is None:
            raise DegreeError("degree of the zero expression must be supplied")
        deg = n
    elif n is not None and n != deg:
        raise DegreeError(f"expression has degree {deg}, expected {n}")
    table = character_table(deg, max_n)
    # One common denominator turns each multiplicity into an integer dot product.
    denom = lcm(*(c.denominator for c in f.terms.values()))
    idx = [table.index[lam] for lam in f.terms]
    nums = [c.numerator * (denom // c.denominator) for c in f.terms.values()]
    mults: dict[Partition, Fraction] = {}
    for nu, row in zip(table.parts, table.rows):
        m = sum(map(mul, map(row.__getitem__, idx), nums))
        if m:
            mults[nu] = Fraction(m, denom)
    return SchurExpansion(deg, mults, _verdict(deg, mults))


def schur_to_power(nu: Partition) -> PExpr:
    """s_nu as a power-sum expression: sum_lam chi^nu(lam)/z_lam * p_lam."""
    n = sum(nu)
    table = character_table(n)
    i = table.index[tuple(nu)]
    return PExpr(
        {
            lam: Fraction(table.rows[i][j], z_lambda(lam))
            for j, lam in enumerate(table.parts)
            if table.rows[i][j]
        }
    )


# ---------------------------------------------------------------------------
# Alternant oracle (n <= 6)


@lru_cache(maxsize=None)
def _powersum_poly(mu: Partition, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomial expansion of p_mu in nvars variables, as (exponents, coeff)."""
    poly = {(0,) * nvars: 1}
    for part in mu:
        new: dict[tuple[int, ...], int] = {}
        for expo, coeff in poly.items():
            for i in range(nvars):
                key = expo[:i] + (expo[i] + part,) + expo[i + 1 :]
                new[key] = new.get(key, 0) + coeff
        poly = new
    return tuple(poly.items())


def alternant_oracle(nu: Partition, mu: Partition) -> int:
    """chi^nu(mu) as the coefficient of x^(nu+delta) in p_mu * a_delta, n <= 6.

    Read from the monomial side: every monomial x^e of p_mu meets the one
    term sign(sigma) * x^(sigma(delta)) of the alternant a_delta with
    sigma(delta) = nu + delta - e, if there is one.
    """
    nu, mu = partition(nu), partition(mu)
    n = sum(nu)
    if sum(mu) != n:
        raise ParameterError(f"shape {nu} and class {mu} have different sizes")
    if n > ALTERNANT_MAX_N:
        raise CapacityError(f"alternant oracle capped at n={ALTERNANT_MAX_N}")
    if n == 0:
        return 1
    target = [p + n - 1 - i for i, p in enumerate(nu + (0,) * (n - len(nu)))]
    alternant = _alternant_terms(n)
    total = 0
    for expo, coeff in _powersum_poly(mu, n):
        total += coeff * alternant.get(tuple(map(sub, target, expo)), 0)
    return total


@lru_cache(maxsize=ALTERNANT_MAX_N + 1)
def _alternant_terms(n: int) -> dict[tuple[int, ...], int]:
    """The alternant a_delta in n variables, delta = (n-1, ..., 0), as {sigma(delta): sign sigma}."""
    delta = tuple(range(n - 1, -1, -1))
    return {tuple(delta[p] for p in perm): _parity(perm) for perm in permutations(range(n))}


def _parity(perm: tuple[int, ...]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1
