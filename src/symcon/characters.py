"""Symmetric-group characters and Schur expansions.

Character values follow the Murnaghan-Nakayama rule on beta-numbers
(first-column hook lengths): removing a border strip of size k is moving a
bead from b to b-k, with sign (-1)^(beads jumped over).

The full table of degree n is built by the rule read additively
(Macdonald, Symmetric Functions and Hall Polynomials, I.7), one level
m = 1..n at a time, in packed integer lanes.  Level m holds one int V_m[lam]
per lam |- m, packing chi^lam(rho) over every class prefix rho |- m (parts
added largest first) as sum_i v_i 2^(w i), one signed lane per prefix.
Lanes are ordered by the prefix's last part, descending, so the prefixes
that may take a next part k are the lowest c(m, k) lanes, c(m, k) counting
the partitions of m with no part below k.  Appending k to all of them at once,

    V_m[mu] = sum_k low_{c(m-k,k)}(sum_{k-strips mu -> lam} (-1)^ht V_{m-k}[lam]) << w*off(m, k),

is one big-int addition per strip removal (40,260 at n = 20), not one
operation per table entry.  The strips of (mu, k) are read off the bead
bitmask of mu: each free slot e with a bead at e + k, the height being the
popcount of the beads between them.  The lanes are 32 bits wide while the
bound |chi^lam| <= f^lam <= sqrt(n!) fits a signed 32-bit lane (n <= 20), 64
bits above, and past that the build raises CapacityError before enumerating
anything.  Low lanes are cut off by a mask and one sign fix; lanes are
decoded by adding and XOR-ing the top bit of every lane and reading the
bytes into an `array`, or one at a time by lifting the lanes up to it.
Level n is transposed once into packed columns: `CharacterTable.columns[j]`
packs chi^nu(mu_j) over nu in `partitions_of(n)` order in signed 64-bit
lanes, and `to_schur` is one multiply-add of integer numerators against
those columns per class; the Conjecture 1.5 scan
(`CharacterTable.negative_segments`) is the same with every numerator 1.
No other module reads the lanes.

A `SchurExpansion` keeps what `to_schur` computes: one integer numerator per
nu |- n, in `partitions_of(n)` order, over one denominator, divided out to 1
when every multiplicity is an integer.  The verdict and the positivity checks
read those integers; a `Fraction` is made only where a caller asks for one
(`mult`, `mults`).  `SchurExpansion.terms()` is the one place that decides
how a multiplicity is rendered (an int, or a "p/q" string), and the JSON,
pretty and CSV renderings all read it.

`mn_character` evaluates one value by the same rule as a recursion,
removing strips for the largest remaining part of mu first, with values
memoized on (remaining shape, remaining class); the tests hold the table
to it.  A small alternant oracle recomputes chi^nu(mu) for n <= 6 from the
bialternant definition, fully independently of both.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, isqrt
from operator import mul, sub

from .errors import CapacityError, DegreeError, integer
from .partitions import (
    Partition, partition, partition_index, partition_position, partitions_of, pretty, z_lambda
)
from .symfunc import PExpr

ALTERNANT_MAX_N = 6
COLUMN_WIDTH = 64  # bits per lane of a packed column
_TYPECODES = {32: "i", 64: "q"}  # array typecodes of signed 4- and 8-byte integers


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
    nu = partition(nu)
    return _mn(nu, partition(mu, sum(nu)))


# ---------------------------------------------------------------------------
# Packed lanes


def _bias(count: int, width: int) -> int:
    """The top bit of each of `count` lanes of `width` bits."""
    return int.from_bytes((1 << width - 1).to_bytes(width // 8, "little") * count, "little")


def _lanes(x: int, count: int, width: int) -> array:
    """The signed lanes v_0..v_{count-1} of x = sum_i v_i 2^(width i).

    Adding the bias makes every lane nonnegative without carries; the XOR
    then leaves each lane in two's complement.
    """
    bias = _bias(count, width)
    out = array(_TYPECODES[width], ((x + bias) ^ bias).to_bytes(count * width // 8, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _lane(x: int, i: int, width: int) -> int:
    """The signed lane v_i of x = sum_j v_j 2^(width j), alone: with lanes 0..i
    lifted by the bias, bits width*i .. width*(i+1)-1 hold v_i lifted."""
    return ((x + _bias(i + 1, width)) >> width * i & (1 << width) - 1) - (1 << width - 1)


def _beads(lam: Partition, count: int) -> int:
    """The bead bitmask of lam on `count` beads: bit lam_i + count-1-i for each row i."""
    mask = (1 << count - len(lam)) - 1  # the zero rows fill the lowest slots
    for i, p in enumerate(lam):
        mask |= 1 << p + count - 1 - i
    return mask


# ---------------------------------------------------------------------------
# The character table


@dataclass(frozen=True)
class CharacterTable:
    """The matrix chi^nu(mu), rows and columns in reverse-lex order (`parts`).

    columns[j] packs the column of parts[j]: sum_i chi^parts[i](parts[j]) *
    2^(64 i).  `chi` reads one lane, `negative_segments` scans their running
    sums; `index` is `partition_index(n)`; `peak` is the largest |chi|.
    """

    n: int
    parts: tuple[Partition, ...]
    columns: tuple[int, ...] = field(repr=False)
    index: dict[Partition, int] = field(repr=False)
    peak: int

    def chi(self, nu: Partition, mu: Partition) -> int:
        i, j = partition_position(nu, self.n), partition_position(mu, self.n)
        return _lane(self.columns[j], i, COLUMN_WIDTH)

    def negative_segments(self) -> list[tuple[Partition, tuple[Partition, ...]]]:
        """(mu, the shapes nu of negative multiplicity) for each final segment
        sum_{lam >= mu} p_lam that is not Schur-nonnegative, mu from (1^n) upward.

        Lane nu of the running sum S of the columns from (1^n) is negative exactly
        when its top bit in S + bias is clear, so only a segment with
        ~(S + bias) & bias nonzero is decoded.  No lane of S exceeds p(n) * peak
        in size; past 2^62 the scan raises CapacityError rather than wrap."""
        count = len(self.parts)
        if self.peak.bit_length() + count.bit_length() >= COLUMN_WIDTH - 1:
            raise CapacityError(f"segment sums of degree {self.n} overflow 64-bit lanes")
        bias, total, out = _bias(count, COLUMN_WIDTH), 0, []
        for mu, column in zip(reversed(self.parts), reversed(self.columns)):
            total += column
            if ~(total + bias) & bias:
                lanes = _lanes(total, count, COLUMN_WIDTH)
                out.append((mu, tuple(nu for nu, m in zip(self.parts, lanes) if m < 0)))
        return out


@lru_cache(maxsize=None)
def _build_table(n: int) -> CharacterTable:
    bound = isqrt(factorial(n)).bit_length()  # |chi| <= f^lam <= sqrt(n!)
    width = next((w for w in (32, 64) if bound < w), None)
    if width is None:
        raise CapacityError(f"character values of degree {n} overflow 64-bit lanes")
    # prefixes[m]: the class prefixes of level m in lane order; ends[m][k]:
    # how many of them have no part below k (the lowest lanes).
    prefixes: list[list[Partition]] = [[()]]
    ends = [[1] * (n + 1)]
    values = [[1]]  # values[m][i] = V_m[partitions_of(m)[i]]
    where = [{_beads((), n): 0}]  # bead mask -> position, per level
    for m in range(1, n + 1):
        level: list[Partition] = []
        end = [0] * (n + 1)
        blocks = []
        for k in range(m, 0, -1):
            lanes = ends[m - k][k]
            if lanes:
                # the low `lanes` lanes of level m-k, moved up to this block's offset
                cut = lanes < len(prefixes[m - k])
                blocks.append((
                    k, values[m - k], where[m - k], width * len(level),
                    (1 << width * lanes) - 1 if cut else 0, width * lanes - 1,
                ))
                level += [rho + (k,) for rho in prefixes[m - k][:lanes]]
            end[k] = len(level)
        prefixes.append(level)
        ends.append(end)
        row: list[int] = []
        positions: dict[int, int] = {}
        for mu in partitions_of(m):
            beads = _beads(mu, n)
            positions[beads] = len(row)
            total = 0
            for k, prev, at, shift, low, sign_bit in blocks:
                free = (beads >> k) & ~beads  # slots e with a bead at e + k
                strip = 0
                while free:
                    e = free & -free
                    free ^= e
                    v = prev[at[beads ^ e ^ (e << k)]]
                    if (beads & ((e << k) - (e << 1))).bit_count() & 1:
                        strip -= v
                    else:
                        strip += v
                if strip:
                    if low:
                        strip &= low
                        if strip >> sign_bit:
                            strip -= low + 1
                    total += strip << shift
            row.append(total)
        values.append(row)
        where.append(positions)
    parts, index = partitions_of(n), partition_index(n)
    count = len(parts)
    # Transpose level n once, as bytes: with every lane lifted by 2^(width-1)
    # the lanes are unsigned, so lane j of shape i is copied to 64-bit lane i
    # of column j byte by byte, and each column drops the lift again.
    step, size = width // 8, COLUMN_WIDTH // 8
    lift = _bias(count, width)
    grid = bytearray(size * count * count)
    for i, v in enumerate(values[n]):
        lifted = (v + lift).to_bytes(step * count, "little")
        for r in range(step):
            grid[size * i + r :: size * count] = lifted[r::step]
    drop = int.from_bytes((1 << width - 1).to_bytes(size, "little") * count, "little")
    columns = [0] * count
    for j, rho in enumerate(prefixes[n]):
        block = grid[size * count * j : size * count * (j + 1)]
        columns[index[rho]] = int.from_bytes(block, "little") - drop
    peak = max(_lanes(columns[-1], count, COLUMN_WIDTH))  # chi^lam(1^n) = f^lam
    return CharacterTable(n, parts, tuple(columns), index, peak)


def character_table(n: int, max_n: int = 20) -> CharacterTable:
    """Character table of degree n, built once per process and shared read-only."""
    integer(n, "character table degree", 0)
    if n > integer(max_n, "character table cap"):
        raise CapacityError(f"character table degree {n} beyond cap {max_n}")
    return _build_table(n)


# ---------------------------------------------------------------------------
# Schur expansions


@dataclass(frozen=True)
class SchurExpansion:
    """Schur multiplicities as integer numerators over one denominator, with a
    positivity verdict.

    numerators[i] / denominator is the multiplicity of partitions_of(n)[i];
    the denominator is 1 whenever every multiplicity is an integer.

    POSITIVE: every nu |- n occurs with multiplicity >= 1.
    NONNEGATIVE: all multiplicities are integers >= 0.
    MIXED: integral but some multiplicity is negative.
    NON_INTEGRAL: some multiplicity is not an integer.
    """

    n: int
    numerators: tuple[int, ...]
    denominator: int
    verdict: str

    @property
    def mults(self) -> dict[Partition, Fraction]:
        """{nu: multiplicity} over the shapes that occur, built on each read."""
        d = self.denominator
        return {nu: Fraction(m, d) for nu, m in zip(partitions_of(self.n), self.numerators) if m}

    def mult(self, nu: Partition) -> Fraction:
        return Fraction(self.numerators[partition_position(nu, self.n)], self.denominator)

    def terms(self):
        """(nu, m) for every shape that occurs, in partitions_of(n) order: m is
        the multiplicity as an int, or as its "p/q" string if it is not one."""
        d = self.denominator
        for nu, m in zip(partitions_of(self.n), self.numerators):
            if m:
                yield nu, m // d if m % d == 0 else str(Fraction(m, d))

    def to_json_dict(self) -> dict:
        mults = {"[" + ",".join(map(str, nu)) + "]": m for nu, m in self.terms()}
        return {"n": self.n, "mults": mults, "verdict": self.verdict}

    def pretty(self) -> str:
        return " + ".join(f"{m}·{pretty(nu)}" for nu, m in self.terms()) or "0"


def to_schur(f: PExpr, n: int | None = None, max_n: int = 20) -> SchurExpansion:
    """Expand a homogeneous power-sum expression in the Schur basis.

    mult(nu) = sum_lam c_lam * chi^nu(lam).
    """
    if n is not None:
        integer(n, "Schur expansion degree")
    deg = f.homogeneous_degree()
    if deg is None:
        if n is None:
            raise DegreeError("degree of the zero expression must be supplied")
        deg = n
    elif n is not None and n != deg:
        raise DegreeError(f"expression has degree {deg}, expected {n}")
    table = character_table(deg, max_n)
    count = len(table.parts)
    denom, nums = f.denominator, list(f.numerators.values())
    columns = [table.columns[table.index[lam]] for lam in f.numerators]
    # A lane of sum_mu d_mu * columns[mu] stays below 2^62 in size while every
    # |d_mu| < 2^limb, so the numerators are taken limb by limb, top limb first.
    limb = 62 - table.peak.bit_length() - len(nums).bit_length()
    if limb < 1:
        raise CapacityError(f"Schur expansion of degree {deg} overflows 64-bit lanes")
    digit = (1 << limb) - 1
    top = max(map(abs, nums), default=0).bit_length()
    sums = None
    for shift in reversed(range(0, top, limb)):
        digits = [a >> shift & digit if a >= 0 else -(-a >> shift & digit) for a in nums]
        lanes = _lanes(sum(map(mul, digits, columns)), count, COLUMN_WIDTH)
        sums = lanes if sums is None else [(s << limb) + v for s, v in zip(sums, lanes)]
    sums = sums or (0,) * count
    if any(m % denom for m in sums):
        verdict = "NON_INTEGRAL"
    else:  # integral: divide the denominator out once
        sums, denom = [m // denom for m in sums], 1
        verdict = "MIXED" if min(sums) < 0 else "POSITIVE" if all(sums) else "NONNEGATIVE"
    return SchurExpansion(deg, tuple(sums), denom, verdict)


def schur_to_power(nu: Partition) -> PExpr:
    """s_nu as a power-sum expression: sum_lam chi^nu(lam)/z_lam * p_lam, each
    chi^nu(lam) read as lane nu of the column of lam."""
    nu = partition(nu)
    table = character_table(sum(nu))
    i = table.index[nu]
    values = (_lane(column, i, COLUMN_WIDTH) for column in table.columns)
    return PExpr({lam: Fraction(v, z_lambda(lam)) for lam, v in zip(table.parts, values) if v})


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
    nu = partition(nu)
    n = sum(nu)
    mu = partition(mu, n)
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
