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

    V_m[mu] = sum_k (sum_{k-strips mu -> lam} (-1)^ht low_{c(m-k,k)}(V_{m-k}[lam])) << w*off(m, k),

is one big-int addition per strip removal, not one operation per table entry.
Each value of level m-k is cut to its low c(m-k, k) lanes once per level m (a
mask and a sign fix), before any strip reads it.  The strips of (mu, k) are
read off the bead bitmask of mu: each free slot e with a bead at e + k, the
height being the popcount of the beads between them.  Half the rows walk no
strips: chi^{mu'}(rho) = sgn(rho) chi^mu(rho), so a shape whose conjugate came
first at its level is that row with the lanes of odd |rho| - l(rho) negated,
V - 2(((V + bias) & odd) - (bias & odd)) for the mask `odd` of those lanes.  The
conjugate's bead mask is the complement of mu's within 2n slots, read
backwards.  At n = 20 this derives 1,329 of the 2,713 rows and walks 20,504
strip removals (40,260 when every row walks them).  Level j is read by level
j + k through its low c(j, k) lanes, fewer for each later reader, so each
read stores the cut copy back as level j, and level j is dropped once the
next level would read none of it (after level 2j).  Level n is never held:
each of its rows, with the row of its conjugate, is copied into the
transpose as soon as it is made.  The lanes are 32 bits wide while the bound
|chi^lam| <= f^lam <= sqrt(n!) fits a signed 32-bit lane (n <= 20), 64 bits
above, and past that the build raises CapacityError before enumerating
anything.  Lanes are decoded by adding and XOR-ing the top bit of every lane
and reading the bytes into an `array`, or one at a time by lifting the lanes
up to it.
The transpose is one bytearray of packed columns: `CharacterTable.columns[j]`
packs chi^nu(mu_j) over nu in `partitions_of(n)` order in signed 64-bit
lanes.  The columns are read from the last one down, cutting the bytearray
after each, so it gives its memory back while the columns grow.  At n = 26
the bytearray (47.5 MB) and level 25 (31 MB) are what a `symcon expand psi
26` process holds at its peak RSS of about 122 MB.  `to_schur` is one
multiply-add of integer numerators against those columns per class; the
Conjecture 1.5 scan (`CharacterTable.negative_segments`) is the same with
every numerator 1.
No other module reads the lanes.

A `SchurExpansion` keeps what `to_schur` computes: one integer numerator per
nu |- n, in `partitions_of(n)` order, over one denominator, divided out to 1
when every multiplicity is an integer.  The verdict and the positivity checks
read those integers; a `Fraction` is made only where a caller asks for one
(`mult`, `mults`).  `SchurExpansion.terms()` is the one place that decides
how a multiplicity is rendered (an int, or a "p/q" string), and the JSON,
pretty and CSV renderings all read it; the JSON keys "[a,b,...]" of a degree
are rendered once (`_json_keys`, one tuple per degree, 64 degrees kept).

`mn_character` evaluates one value by the same rule as a recursion,
removing strips for the largest remaining part of mu first, with values
memoized on (remaining shape, remaining class); the tests hold the table
to it.  A small alternant oracle recomputes chi^nu(mu) for n <= 6 from the
bialternant definition, fully independently of both, one class column at a
time: chi^nu(mu) is the coefficient of x^(nu+delta) in a_delta p_mu, and as
p_mu is symmetric each of its monomials c_e x^e adds sign(sort) c_e to the nu
whose nu + delta is e + delta sorted, when the entries of e + delta are
distinct.  Each exponent vector e is classified once per degree, as None
(e + delta repeats an entry) or (sign of the sort, nu), in a map every column
of that degree reads, which keeps the classifications that are not None:
637 classifications for n <= 6, where classifying per column made 2,680.
The maps are kept for the degrees <= 6 and the columns in a cache bounded by
the 30 classes of those degrees; `alternant_oracle(nu, mu)` reads one value
of a column.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from operator import mul

from .errors import CapacityError, DegreeError, instance, integer
from .partitions import (
    Partition, partition, partition_index, partition_position, partitions_of, pretty, z_lambda
)
from .symfunc import PExpr, _hook_sums

ALTERNANT_MAX_N = 6
TABLE_CAP = 20  # the highest table degree built unless a caller raises the cap
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


def _conjugate_beads(beads: int, count: int) -> int:
    """The bead bitmask of lam' from that of lam, both on `count` beads with
    |lam| <= count: the complement within 2*count slots, read backwards."""
    return int(format(beads ^ (1 << 2 * count) - 1, f"0{2 * count}b")[::-1], 2)


# ---------------------------------------------------------------------------
# The character table


@dataclass(frozen=True)
class CharacterTable:
    """The matrix chi^nu(mu), rows and columns in reverse-lex order (`parts`).

    columns[j] packs the column of parts[j]: sum_i chi^parts[i](parts[j]) *
    2^(64 i).  `chi` reads one lane, `column` decodes a whole column,
    `negative_segments` scans their running sums; `index` is
    `partition_index(n)`; `peak` is the largest |chi|.
    """

    n: int
    parts: tuple[Partition, ...]
    columns: tuple[int, ...] = field(repr=False)
    index: dict[Partition, int] = field(repr=False)
    peak: int

    def chi(self, nu: Partition, mu: Partition) -> int:
        i, j = partition_position(nu, self.n), partition_position(mu, self.n)
        return _lane(self.columns[j], i, COLUMN_WIDTH)

    def column(self, mu: Partition) -> array:
        """chi^nu(mu) for every nu, in `parts` order: one column decoded whole."""
        j = partition_position(mu, self.n)
        return _lanes(self.columns[j], len(self.parts), COLUMN_WIDTH)

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


def _top_level(n: int, width: int, scatter) -> list[Partition]:
    """Build level n in `width`-bit lanes, level by level, handing each of its
    rows to scatter(i, V_n[partitions_of(n)[i]]) as soon as it is made; return
    the class prefixes of its lanes in lane order.  No row of level n is kept."""
    if not n:
        scatter(0, 1)  # chi^() = 1
        return [()]
    # prefixes[m]: the class prefixes of level m in lane order; ends[m][k]:
    # how many of them have no part below k (the lowest lanes), k up to n + 1.
    prefixes: list[list[Partition] | None] = [[()]]
    ends = [[1] * (n + 2)]
    values = [[1]]  # values[m][i] = V_m[partitions_of(m)[i]], in the lanes still read
    where = [{_beads((), n): 0}]  # bead mask -> position, per level
    ones, zeros = b"\xff" * (width // 8), bytes(width // 8)
    for m in range(1, n + 1):
        level: list[Partition] = []
        end = [0] * (n + 2)
        blocks = []
        for k in range(m, 0, -1):
            j = m - k
            lanes = ends[j][k]
            if lanes:
                prev = values[j]
                if lanes < len(prefixes[j]):  # later levels read fewer: keep these, signed
                    low, half = (1 << width * lanes) - 1, 1 << width * lanes - 1
                    prev = values[j] = [((v & low) ^ half) - half for v in prev]
                    prefixes[j] = prefixes[j][:lanes]
                blocks.append((k, prev, where[j], width * len(level)))
                level += [rho + (k,) for rho in prefixes[j]]
                if not ends[j][k + 1]:  # level m + 1 would read no lane of level j
                    prefixes[j] = values[j] = where[j] = None
            end[k] = len(level)
        prefixes.append(level)
        ends.append(end)
        # chi^{mu'}(rho) = sgn(rho) chi^mu(rho): odd has every bit of the lanes of odd rho
        odd = int.from_bytes(
            b"".join(ones if (m - len(rho)) & 1 else zeros for rho in level), "little"
        )
        bias = _bias(len(level), width)
        odd_bias = bias & odd
        masks = [_beads(mu, n) for mu in partitions_of(m)]
        positions = {beads: i for i, beads in enumerate(masks)}
        row = [0] * len(masks)
        emit = scatter if m == n else row.__setitem__
        for i, beads in enumerate(masks):
            twin = positions[_conjugate_beads(beads, n)]
            if twin < i:  # made with mu', which came first
                continue
            total = 0
            for k, prev, at, shift in blocks:
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
                    total += strip << shift
            emit(i, total)
            if twin > i:  # mu' comes later: its row is this one with the odd lanes negated
                emit(twin, total - 2 * (((total + bias) & odd) - odd_bias))
        values.append(row)
        where.append(positions)
    return level


@lru_cache(maxsize=None)
def _build_table(n: int) -> CharacterTable:
    bound = isqrt(factorial(n)).bit_length()  # |chi| <= f^lam <= sqrt(n!)
    width = next((w for w in (32, 64) if bound < w), None)
    if width is None:
        raise CapacityError(f"character values of degree {n} overflow 64-bit lanes")
    parts, index = partitions_of(n), partition_index(n)
    count = len(parts)
    # Transpose level n as it is built, as bytes: with every lane lifted by
    # 2^(width-1) the lanes are unsigned, so the little-endian lanes of shape i
    # are copied to the low bytes of 64-bit lane i of every column in one
    # strided copy, and each column drops the lift again.
    step, size = width // 8, COLUMN_WIDTH // 8
    code, ratio = _TYPECODES[width], COLUMN_WIDTH // width
    lift = _bias(count, width)
    grid = bytearray(size * count * count)
    cells = memoryview(grid).cast(code)

    def scatter(i: int, v: int) -> None:
        lifted = (v + lift).to_bytes(step * count, "little")
        cells[ratio * i :: ratio * count] = memoryview(lifted).cast(code)

    order = _top_level(n, width, scatter)  # every lower level is freed on return
    cells.release()  # a bytearray with a view on it cannot shrink
    drop = int.from_bytes((1 << width - 1).to_bytes(size, "little") * count, "little")
    columns = [0] * count
    for j in reversed(range(count)):  # last column first, giving the grid back as it goes
        start = size * count * j
        columns[index[order[j]]] = int.from_bytes(grid[start:], "little") - drop
        del grid[start:]  # CPython reallocates a bytearray down once it is under half full
    peak = max(_lanes(columns[-1], count, COLUMN_WIDTH))  # chi^lam(1^n) = f^lam
    return CharacterTable(n, parts, tuple(columns), index, peak)


def character_table(n: int, max_n: int = TABLE_CAP) -> CharacterTable:
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

    def terms(self, names=None):
        """(nu, m) for every shape that occurs, in partitions_of(n) order: m is
        the multiplicity as an int, or as its "p/q" string if it is not one.
        `names`, one per shape in that order, stand in for the shapes."""
        d = self.denominator
        for nu, m in zip(partitions_of(self.n) if names is None else names, self.numerators):
            if m:
                yield nu, m // d if m % d == 0 else str(Fraction(m, d))

    def to_json_dict(self) -> dict:
        mults = dict(self.terms(_json_keys(self.n)))
        return {"n": self.n, "mults": mults, "verdict": self.verdict}

    def pretty(self) -> str:
        return " + ".join(f"{m}·{pretty(nu)}" for nu, m in self.terms()) or "0"


@lru_cache(maxsize=64)
def _json_keys(n: int) -> tuple[str, ...]:
    """The JSON key "[a,b,...]" of every shape of n, in partitions_of(n) order."""
    return tuple("[" + ",".join(map(str, nu)) + "]" for nu in partitions_of(n))


def to_schur(f: PExpr, n: int | None = None, max_n: int = TABLE_CAP) -> SchurExpansion:
    """Expand a homogeneous power-sum expression in the Schur basis.

    mult(nu) = sum_lam c_lam * chi^nu(lam).
    """
    instance(f, PExpr, "to_schur argument")
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


def _hook_numerators(f: PExpr, n: int) -> tuple[int, int, int, int]:
    """The multiplicities of s_(n), s_(1^n), s_(n-1,1) and s_(2,1^(n-2)) in
    f = sum_mu c_mu p_mu of degree n (the first two only at n = 1), over f.denominator, read
    from the coefficients alone: the trivial, sign and standard characters and
    the sign twist of the standard are 1, sgn(mu), m_1(mu) - 1 and
    sgn(mu) (m_1(mu) - 1) on the class mu, with sgn(mu) = (-1)^(n - l(mu)) and
    m_1(mu) its number of parts 1 (Macdonald I.7)."""
    trivial, sign, fixed, signed_fixed = _hook_sums(f, n)
    return trivial, sign, fixed - trivial, signed_fixed - sign


# ---------------------------------------------------------------------------
# Alternant oracle (n <= 6)


def alternant_oracle(nu: Partition, mu: Partition) -> int:
    """chi^nu(mu) as the coefficient of x^(nu+delta) in a_delta * p_mu, n <= 6:
    one value of the column of mu, which is built on the first read and kept
    while it is one of the 30 most recently read."""
    nu = partition(nu)
    n = sum(nu)
    mu = partition(mu, n)
    if n > ALTERNANT_MAX_N:
        raise CapacityError(f"alternant oracle capped at n={ALTERNANT_MAX_N}")
    return _alternant_column(mu).get(nu, 0)


@lru_cache(maxsize=30)  # every class of degree <= ALTERNANT_MAX_N
def _alternant_column(mu: Partition) -> dict[Partition, int]:
    """{nu: chi^nu(mu)} for nu |- n = |mu|; a shape it does not hold has value 0.

    p_mu is symmetric, so a_delta * p_mu = sum_e c_e a_(e+delta) over its
    monomials c_e x^e in n variables, and each a_(e+delta) is read off the
    classification of e (_alternant_classes), shared by every column of degree n.
    """
    n = sum(mu)
    bits = n.bit_length()
    poly = {0: 1}  # p_mu in n variables, x^e keyed sum_i e_i 2^(bits i): no e_i exceeds n
    for part in mu:
        shifts = [part << bits * i for i in range(n)]  # x_i^part, one per variable
        new: dict[int, int] = {}
        get = new.get
        for key, coeff in poly.items():
            for shift in shifts:
                k = key + shift
                new[k] = get(k, 0) + coeff
        poly = new
    classes = _alternant_classes(n)
    column: dict[Partition, int] = {}
    for key, coeff in poly.items():
        hit = classes.get(key)
        if hit is not None:
            sign, nu = hit
            column[nu] = column.get(nu, 0) + sign * coeff
    return column


@lru_cache(maxsize=ALTERNANT_MAX_N + 1)  # every degree <= ALTERNANT_MAX_N
def _alternant_classes(n: int) -> dict[int, tuple[int, Partition]]:
    """The classification of every exponent vector e of degree n in n variables, keyed
    as in _alternant_column: a_(e+delta) is 0 when e + delta repeats an entry (None,
    left out of the map), and else sign(sort) a_(nu+delta) for e + delta sorted
    decreasing into nu + delta, whose coefficient of x^(nu+delta) is 1 ((sign, nu))."""
    bits = n.bit_length()
    keys = {0}
    for _ in range(n):  # the exponents of p_1^n: every e with sum n
        keys = {key + (1 << bits * i) for key in keys for i in range(n)}
    mask = (1 << bits) - 1
    shapes: dict[Partition, Partition] = {}  # one tuple per nu
    out: dict[int, tuple[int, Partition]] = {}
    for key in keys:
        w = [(key >> bits * i & mask) + n - 1 - i for i in range(n)]  # e + delta
        if len(set(w)) == n:
            sign = -1 if sum(a < b for i, a in enumerate(w) for b in w[i + 1 :]) & 1 else 1
            nu = tuple(p for p in (v - n + 1 + i for i, v in enumerate(sorted(w, reverse=True))) if p)
            out[key] = sign, shapes.setdefault(nu, nu)
    return out
