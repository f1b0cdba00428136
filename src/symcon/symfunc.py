"""Exact symmetric-function arithmetic in the power-sum basis.

An expression is a finite sum  sum_lam c_lam * p_lam  with rational
coefficients c_lam = numerators[lam] / denominator, integers kept reduced
(no zero numerator, denominator >= 1, gcd 1), so equal expressions have
equal fields.  Conventions:

  * p_lam has degree |lam| and p_lam * p_mu = p_{lam union mu}
    (multiset union of parts);
  * omega(p_lam) = (-1)^(|lam| - len(lam)) * p_lam;
  * the Hall pairing is <p_lam, p_mu> = z_lam * delta_{lam, mu};
  * plethysm by a power sum replaces each part i of every key by a*i,
    leaving coefficients untouched.

Every weighted sum runs through one helper, _sum, over one denominator,
and every product through one integer kernel on packed values.  A
packed value is (denominator, {code: numerator}), an expression with each
key replaced by its code; the code of lam in width w is  sum over its parts
p of 2^(w*(p-1)), one w-bit field per part value holding its multiplicity,
so p_lam * p_mu = p_{lam union mu} is code(lam) + code(mu).  Fields never
carry while every multiplicity stays below 2^w.  PExpr products pack both
factors with w read from the longest keys, run the kernel, and unpack.

Graded series (class Series) collect one homogeneous expression per
degree up to a truncation bound; the formal variable t is never
materialized because every t-power equals the degree it multiplies.
The plethystic sum  sum_{lam |- n} prod_i h_{m_i}[f_i]  is the degree-n
part G_n of H[F] = exp(sum_k p_k[F]/k) (Macdonald I.2, I.8).  Every
parity and sign option of the sum is (a*G_n + b*S_n)/2 for integer
weights a, b, S the sum signed by (-1)^(n - len(lam)): one kernel call.
G_n is built one of two ways, chosen by the input:

  * when every key of every component f_d is a pure power p_e^b, as in
    each Foulkes character f_d = (1/d) sum_{e|d} c_e(k) p_e^(d/e), the log
    of H[F] is sum_{a,b} C_{a,b} p_a^b, so H[F] = prod_a g_a(p_a) with one
    univariate series g_a(x) = exp(sum_b C_{a,b} x^b) per part value a:
    the coefficient of p_lam in G_n is the product of g_a[m_a(lam)];
  * otherwise n*G_n = sum_j A_j*G_{n-j}, A_j = sum_{d*k=j} d*p_k[f_d]: one
    Newton recurrence per kind and sign.

Both are cached on the series and extended on demand (the cache kinds are
listed under Series).  h_m[f_i] is the Newton recurrence on f_i alone.
All of it stays packed in the width trunc.bit_length(); no degree up to
trunc has a multiplicity above trunc.  (H_lambda and E_lambda with |lam|
above trunc run that recurrence for the one call, in the width
|lam|.bit_length().)  Series products, inverses and plethysm_into pack
each component once, in that width too; plethysm_into keeps the powers of
its inner series for one call only.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from numbers import Rational

from .errors import DegreeError, ParameterError, TruncationError, instance, integer
from .partitions import (
    Partition, _multiplicities, _shapes, _sign_exponent, partition, partitions_of, z_lambda
)

Packed = tuple[int, dict[int, int]]  # (denominator, {code: numerator})


def _rational(x, what: str) -> Rational:
    """x itself if it is an int or a Fraction, else Fraction(x); ParameterError if that
    fails, and for a float, whose binary value is not the number it was written as."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, float):
        raise ParameterError(f"not an exact {what}: {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"not a {what}: {x!r}") from exc


def _reduce(denom: int, nums: dict) -> tuple[int, dict]:
    """nums / denom, denom > 0, with zero numerators dropped and the gcd divided out.

    The one reduction of every value: keys may be partitions or codes.
    """
    if 0 in nums.values():
        nums = {k: v for k, v in nums.items() if v}
    g = gcd(denom, *nums.values())
    if g > 1:
        denom //= g
        nums = {k: v // g for k, v in nums.items()}
    return denom, nums


def _sum(pairs, divisor: int = 1) -> tuple[int, dict]:
    """(1/divisor) * sum of c * value over the (c, value) pairs, c an int or a Fraction and
    each value a (denominator, numerators) pair keyed by partitions or codes alike: the
    weights are divided by their gcd with divisor, every value is added into one dict over
    one lcm denominator, and _reduce runs once."""
    pairs = [(c, value) for c, value in pairs if c and value[1]]
    g = gcd(divisor, *(c.numerator for c, _ in pairs))
    denom = lcm(*(d * c.denominator for c, (d, _) in pairs))
    out: dict = {}
    get = out.get
    for c, (d, nums) in pairs:
        scale = c.numerator // g * (denom // (d * c.denominator))
        for k, v in nums.items():
            out[k] = get(k, 0) + v * scale
    return _reduce(denom * (divisor // g), out)


class PExpr:
    """Sparse symmetric function in the power-sum basis: numerators[lam] / denominator
    is the coefficient of p_lam, and `terms` the same as {lam: Fraction}, built on read."""

    __slots__ = ("denominator", "numerators")

    def __init__(self, terms=None):
        """sum of c * p_key over the terms; each key is read by `partition` with
        lowest part 1 (there is no p_0), so its parts may come in any order."""
        if not isinstance(terms, Mapping | None):
            raise ParameterError(f"power-sum terms must be a mapping, got {terms!r}")
        self.denominator, self.numerators = _sum(
            (_rational(val, "power-sum coefficient"), (1, {partition(key, lo=1): 1}))
            for key, val in (terms or {}).items()
        )

    @property
    def terms(self) -> dict[Partition, Fraction]:
        """{lam: coefficient of p_lam} over the keys that occur, built on each read."""
        d = self.denominator
        return {k: Fraction(v, d) for k, v in self.numerators.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PExpr":
        return _expr((1, {}))

    @staticmethod
    def one() -> "PExpr":
        return _expr((1, {(): 1}))

    @staticmethod
    def p(*parts: int) -> "PExpr":
        """p_{(parts)}; PExpr.p(2,1) is the monomial p_2 p_1."""
        return PExpr.term(parts)

    @staticmethod
    def term(lam, c: Rational = 1) -> "PExpr":
        """c * p_lam; the parts of lam may come in any order."""
        return PExpr({partition(lam, lo=1): c})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, PExpr):
            return self.denominator == other.denominator and self.numerators == other.numerators
        if other == 0:
            return not self.numerators
        return NotImplemented

    def __hash__(self):
        return hash((self.denominator, frozenset(self.numerators.items())))

    def __add__(self, other: "PExpr") -> "PExpr":
        if not isinstance(other, PExpr):
            return self if other == 0 else NotImplemented  # 0 permits sum()
        return _sum_exprs(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "PExpr":
        return _expr((self.denominator, {k: -v for k, v in self.numerators.items()}))

    def __sub__(self, other: "PExpr") -> "PExpr":
        return self + (-other)

    def __mul__(self, other) -> "PExpr":
        if isinstance(other, PExpr):
            return _products(((1, self, other),))
        c = _rational(other, "scalar")
        return -self if c == -1 else _sum_exprs(((c, self),))  # 1 * self is self itself

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "PExpr":
        integer(exp, "power exponent", 0)
        out = PExpr.one()
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return out

    # -- inspection --------------------------------------------------------

    def coefficient(self, lam) -> Fraction:
        """The coefficient of p_lam; the parts of lam may come in any order."""
        return Fraction(self.numerators.get(partition(lam, lo=1), 0), self.denominator)

    def degrees(self) -> set[int]:
        return {sum(k) for k in self.numerators}

    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous, None for the zero expression; DegreeError if mixed."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"expression mixes degrees {sorted(degs)}")
        return degs.pop()

    def component(self, d: int) -> "PExpr":
        integer(d, "component degree", 0)
        nums = {k: v for k, v in self.numerators.items() if sum(k) == d}
        return _expr(_reduce(self.denominator, nums))

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        # degree ascending, then the keys of one degree in descending order (as partitions_of)
        keys = sorted(terms, key=lambda k: (-sum(k), k), reverse=True)
        return " + ".join(f"{terms[key]}*p{list(key)}" for key in keys)

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict[str, str]:
        """{"[2,1]": "1/2", ...} with exact rational strings."""
        terms = self.terms
        out = {}
        for key in sorted(terms, key=lambda k: (sum(k), k), reverse=True):
            out["[" + ",".join(str(p) for p in key) + "]"] = str(terms[key])
        return out

    @staticmethod
    def from_json_dict(data: dict[str, str]) -> "PExpr":
        if not (isinstance(data, dict) and all(isinstance(key, str) for key in data)):
            raise ParameterError(f"not a power-sum JSON object: {data!r}")
        terms = {}
        for key, val in data.items():
            try:
                parts = tuple(int(x) for x in key.strip("[]").split(",") if x.strip())
                coeff = _rational(val, "power-sum coefficient")  # a float is refused
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"not a power-sum term: {key!r}: {val!r}") from exc
            terms[parts] = terms.get(parts, 0) + coeff
        return PExpr(terms)


def _expr(value: tuple[int, dict[Partition, int]]) -> PExpr:
    """The PExpr whose fields are value, a reduced (denominator, numerators) pair."""
    res = PExpr.__new__(PExpr)
    res.denominator, res.numerators = value
    return res


def _sum_exprs(pairs) -> PExpr:
    """sum of c * f over the (c, f) pairs, c rational and f a PExpr, by _sum; a lone
    term of weight 1 is f itself, already reduced."""
    pairs = [(c, f) for c, f in pairs if c]
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    return _expr(_sum((c, (f.denominator, f.numerators)) for c, f in pairs))


# ---------------------------------------------------------------------------
# Packed values and the product kernel

_ONE: Packed = (1, {0: 1})
_ZERO: Packed = (1, {})


def _width(bound: int) -> int:
    """The field width that holds every multiplicity up to bound without a carry."""
    return bound.bit_length() or 1


def _longest(f: PExpr) -> int:
    return max(map(len, f.numerators), default=0)


def _pack(f: PExpr, w: int) -> Packed:
    """f's two fields with every key replaced by its code in width w."""
    return f.denominator, {sum(1 << (w * (p - 1)) for p in k): v for k, v in f.numerators.items()}


def _decode(code: int, w: int) -> Partition:
    """The partition whose code in width w is `code`."""
    mask = (1 << w) - 1
    parts: list[int] = []
    p = 0
    while code:
        p += 1
        m = code & mask
        if m:
            parts += [p] * m
        code >>= w
    parts.reverse()
    return tuple(parts)


def _unpack(value: Packed, w: int, keys: dict[int, Partition]) -> PExpr:
    """The PExpr of a packed value; `keys` maps codes to key tuples and is filled on a miss.

    Equal codes share one key tuple, which keeps cached results small.
    """
    denom, nums = value
    out = {}
    for code, v in nums.items():
        key = keys.get(code)
        if key is None:
            key = keys[code] = _decode(code, w)
        out[key] = v
    return _expr((denom, out))


def _kernel(triples, divisor: int = 1) -> Packed:
    """(1/divisor) * sum of c * a * b over (c, a, b), c an integer and a, b packed alike.

    The products are summed as integers over one denominator, then reduced.
    """
    triples = [t for t in triples if t[0] and t[1][1] and t[2][1]]
    denom = lcm(*(a[0] * b[0] for _, a, b in triples))
    out: dict[int, int] = {}
    get = out.get
    for c, (da, a), (db, b) in triples:
        scale = c * (denom // (da * db))
        if len(a) > len(b):  # the longer factor runs in the inner loop
            a, b = b, a
        b_items = b.items()
        for k1, v1 in a.items():
            x = v1 * scale
            for k2, y in b_items:
                k = k1 + k2
                out[k] = get(k, 0) + x * y
    return _reduce(denom * divisor, out)


def _products(triples) -> PExpr:
    """sum of c * f * g over the (c, f, g) triples, c an integer and f, g PExprs: one kernel
    call, in the width of the longest pair of keys, which no part multiplicity can exceed."""
    triples = [(c, f, g) for c, f, g in triples if c and f and g]
    w = _width(max((_longest(f) + _longest(g) for _, f, g in triples), default=0))
    return _unpack(_kernel([(c, _pack(f, w), _pack(g, w)) for c, f, g in triples]), w, {})


def _series_product(a: dict[int, Packed], b: dict[int, Packed], top: int) -> dict[int, Packed]:
    """The product of two packed series, {degree: value}, through degree top.

    One kernel call per output degree; zero degrees are left out.
    """
    out = {}
    for e in range(top + 1):
        triples = [(1, x, b[e - d]) for d, x in a.items() if e - d in b]
        if triples:
            value = _kernel(triples)
            if value[1]:
                out[e] = value
    return out


# ---------------------------------------------------------------------------
# Basic operators


def omega(f: PExpr) -> PExpr:
    """The involution with omega(p_i) = (-1)^(i-1) p_i."""
    instance(f, PExpr, "omega argument")
    nums = {k: (v if _sign_exponent(k) % 2 == 0 else -v) for k, v in f.numerators.items()}
    return _expr((f.denominator, nums))


def inner_product(f: PExpr, g: PExpr) -> Fraction:
    """Hall pairing; requires both arguments homogeneous of equal degree."""
    instance(f, PExpr, "inner_product argument")
    instance(g, PExpr, "inner_product argument")
    df, dg = f.homogeneous_degree(), g.homogeneous_degree()
    if df is not None and dg is not None and df != dg:
        raise DegreeError(f"inner product of degrees {df} and {dg}")
    total = 0
    small, big = sorted((f.numerators, g.numerators), key=len)
    for key, val in small.items():
        other = big.get(key)
        if other is not None:
            total += val * other * z_lambda(key)
    return Fraction(total, f.denominator * g.denominator)


def p1_derivative(f: PExpr) -> PExpr:
    """d/dp_1: each key loses one part equal to 1, scaled by its multiplicity."""
    instance(f, PExpr, "p1_derivative argument")
    out: dict[Partition, int] = {}
    for key, val in f.numerators.items():
        m1 = 0
        for p in reversed(key):
            if p == 1:
                m1 += 1
            else:
                break
        if m1:
            nk = key[:-1]
            out[nk] = out.get(nk, 0) + val * m1
    return _expr(_reduce(f.denominator, out))


def dimension(f: PExpr, n: int | None = None) -> Fraction:
    """n! times the coefficient of p_(1^n); the degree of the (virtual) module."""
    instance(f, PExpr, "dimension argument")
    if n is None:
        n = f.homogeneous_degree()
        if n is None:
            return Fraction(0)
    else:
        integer(n, "dimension degree", 0)
    return factorial(n) * f.coefficient((1,) * n)


# ---------------------------------------------------------------------------
# Complete homogeneous and elementary functions in the p basis


def h_n(n: int) -> PExpr:
    """h_n = sum_{lam |- n} p_lam / z_lam, over the denominator n! (z_lam divides n!)."""
    lams = partitions_of(integer(n, "degree", 0))
    size = factorial(n)
    return _expr(_reduce(size, {lam: size // z_lambda(lam) for lam in lams}))


def e_n(n: int) -> PExpr:
    """e_n = omega(h_n) = sum_{lam |- n} (-1)^(n - len(lam)) p_lam / z_lam."""
    return omega(h_n(n))


# ---------------------------------------------------------------------------
# Plethysm


def plethysm_p(a: int, g: PExpr) -> PExpr:
    """p_a[g]: replace every key part i by a*i; coefficients unchanged."""
    instance(g, PExpr, "plethysm_p argument")
    if integer(a, "plethysm_p index a", 1) == 1:
        return g
    return _expr((g.denominator, {tuple(a * p for p in k): v for k, v in g.numerators.items()}))


def _sigma(kind: str, signed: bool, d: int, k: int) -> int:
    """(-1)^([e](k-1) + signed*(d-1)*k): the sign of p_k[f_d] in the log of H[F] or E[F]."""
    return (-1) ** ((kind == "e") * (k - 1) + signed * (d - 1) * k)


def _newton(cache: dict, key, comps: dict[int, PExpr], kind: str, signed: bool, m: int, w: int):
    """G_0..G_m, packed in width w: G_n is the degree-n part of prod_d H(f_d) ("h") or
    prod_d E(f_d) ("e") over the components f_d of comps, each term weighted by
    (-1)^(n - len(lam)) if signed; that is, the sum over lam |- n of H_lambda (E_lambda).

    H[F] = exp(sum_k p_k[F]/k) and E[F] = exp(sum_k (-1)^(k-1) p_k[F]/k) (Macdonald
    I.2, I.8), so n*G_n = sum_{j=1..n} A_j*G_{n-j} with A_j the sum over d*k = j of
    sigma*d*p_k[f_d], sigma = _sigma(kind, signed, d, k).  The pair (A, G) is cached under
    key and extended on demand; w must hold every part multiplicity of the keys of G_m.
    """
    A, G = cache.setdefault(key, ([_ZERO], [_ONE]))
    for j in range(len(A), m + 1):
        dk = [(d, j // d) for d in comps if d and j % d == 0]
        A.append(_sum((_sigma(kind, signed, d, k) * d, _pack(plethysm_p(k, comps[d]), w))
                      for d, k in dk))
    for n in range(len(G), m + 1):
        G.append(_kernel([(1, A[j], G[n - j]) for j in range(1, n + 1)], n))
    return G


def _part_sequence(N: list, B: list, comps: dict[int, PExpr], kind: str, signed: bool, a: int,
                   m: int) -> list:
    """N, extended in place so that N[j] / N[0] = g_a[j] for j <= m, where g_a(x) =
    exp(sum_b C_b x^b) is the factor of p_a in H[F] or E[F] when every key of F is a
    pure power (a,)*b.

    The log of _newton's product is sum over d, k of sigma*p_k[f_d]/k, the same sigma,
    and p_k[p_e^b] = p_{ke}^b, so C_b = sum over e | a of sigma(d = e*b, k = a/e) *
    [p_e^b]f_{e*b} / (a/e), and j*g_a[j] = sum_{b=1..j} b*C_b*g_a[j-b].  B, extended
    alongside, holds B[b] / B[0] = b*C_b.  Both start as [1]: the first entry is the
    denominator, grown only when a new term needs it, and the list is rescaled then.
    """
    for j in range(len(N), m + 1):
        c = 0  # j*C_j times B[0]: the term of e is sigma * j * [p_e^j]f_{e*j} / k
        for k in range(1, a + 1):
            if a % k:
                continue
            e = a // k
            f = comps.get(e * j)
            v = f.numerators.get((e,) * j) if f else 0
            if v:
                v *= j
                den = f.denominator * k
                g = gcd(v, den)
                v, den = v // g, den // g
                if B[0] % den:
                    scale = lcm(B[0], den) // B[0]
                    c *= scale
                    B[:] = [x * scale for x in B]
                c += _sigma(kind, signed, e * j, k) * v * (B[0] // den)
        B.append(c)
        total = 0
        for b in range(1, j + 1):
            total += B[b] * N[j - b]
        den = j * B[0] * N[0]
        g = gcd(total, den)
        num, den = total // g, den // g
        if N[0] % den:
            scale = lcm(N[0], den) // N[0]
            N[:] = [x * scale for x in N]
        N.append(num * (N[0] // den))
    return N


def _pure_exp(cache: dict, comps: dict[int, PExpr], kind: str, signed: bool, n: int, w: int):
    """G_n of _newton, packed in width w, for F whose keys are all pure powers: the
    coefficient of p_lam is the product over the part values a <= n of g_a[m_a(lam)].

    The triple (Ns, Bs, G) is cached under ("parts", kind, signed): the sequences N
    and B of each part value a at index a of Ns and Bs, and G = {n: G_n}.  G_n is a
    walk over the part values from n down, the multiplicity of 1 forced last, over
    the denominator prod_{a <= n} D_a, D_a = N[0] of part a, left unreduced.
    """
    Ns, Bs, G = cache.setdefault(("parts", kind, signed), ([None], [None], {0: _ONE}))
    value = G.get(n)
    if value is not None:
        return value
    for _ in range(len(Ns), n + 1):
        Ns.append([1])
        Bs.append([1])
    seqs = [[1]]
    seqs += (_part_sequence(Ns[a], Bs[a], comps, kind, signed, a, n // a) for a in range(1, n + 1))
    P = [1]  # P[a]: the product of D_1..D_a, the factor of the parts up to a left out
    for seq in seqs[1:]:
        P.append(P[-1] * seq[0])
    ones = seqs[1]
    out: dict[int, int] = {}
    stack = [(n, n, 1, 0)]  # (largest part left, degree left, numerator, code)
    while stack:
        a, r, num, code = stack.pop()
        if a == 1:
            x = ones[r]
            if x:
                out[code + r] = num * x
            continue
        seq = seqs[a]
        shift = 1 << (w * (a - 1))
        for j in range(r // a + 1):
            x = seq[j]
            if x:
                left = r - a * j
                b = a - 1 if left >= a else left
                x *= num * (P[a - 1] // P[b])
                if b:
                    stack.append((b, left, x, code + j * shift))
                else:
                    out[code + j * shift] = x
    value = G[n] = P[n], out
    return value


def _plethysm(kind: str, m: int, g: PExpr) -> PExpr:
    instance(g, PExpr, f"plethysm_{kind} argument")
    w = _width(integer(m, "plethysm order", 0) * _longest(g))
    return _unpack(_newton({}, None, {1: g}, kind, False, m, w)[m], w, {})


def plethysm_h(m: int, g: PExpr) -> PExpr:
    """h_m[g] via the Newton recurrence m*h_m[g] = sum_r p_r[g]*h_{m-r}[g]."""
    return _plethysm("h", m, g)


def plethysm_e(m: int, g: PExpr) -> PExpr:
    """e_m[g] via m*e_m[g] = sum_r (-1)^(r-1) p_r[g]*e_{m-r}[g]."""
    return _plethysm("e", m, g)


# ---------------------------------------------------------------------------
# Graded series


class Series:
    """Graded series sum_d f_d with f_d homogeneous of degree d, d <= trunc.

    Components beyond the truncation degree are unknown (not zero);
    reading one raises TruncationError.  Instances memoize in
    _pleth_cache, for as long as they live:

      * ("pure",): whether every key of f_1, f_2, ... is a pure power
        (a,)*b, which selects the route of the plethystic exponential;
      * ("exp", kind, signed): the pair (A, G) of the Newton recurrence
        on the plethystic exponential H[F] or E[F], plain or signed,
        packed in width trunc.bit_length() (see _newton), for a series
        with a key that is not a pure power;
      * ("parts", kind, signed), for a series of pure powers: the factor
        g_a(p_a) of that exponential for each part value a, as an integer
        sequence over one denominator (see _part_sequence), and its
        degree-n parts G_n, packed (see _pure_exp);
      * (kind, i): the Newton pair for f_i alone, whose G is the plethysms
        h_0..h_M[f_i] / e_0..e_M[f_i];
      * ("sum", kind, n, a, b): the plethystic sum (a*G_n + b*S_n)/2,
        G and S the plain and signed sequences, of every option it was
        asked for (see plethystic_sum);
      * ("hooks", kind, i): for each multiplicity m so far, the four
        integer scalars of h_m[f_i] / e_m[f_i] and their denominator,
        from which the hook multiplicities of H_lambda / E_lambda are
        combined without building either (see _factor_hooks).

    The cached PExprs take their keys from one per-series map of codes
    to key tuples, so they share one tuple per partition.
    """

    __slots__ = ("components", "trunc", "_pleth_cache", "_keys")

    def __init__(self, components: dict[int, PExpr], trunc: int):
        self.trunc = integer(trunc, "series truncation", 0)
        self.components: dict[int, PExpr] = {}
        if not isinstance(components, Mapping):
            raise ParameterError(f"series components must be a mapping, got {components!r}")
        for d, f in components.items():
            if integer(d, "series degree") > trunc or not instance(f, PExpr, "series component"):
                continue
            fd = f.homogeneous_degree()
            if fd is not None and fd != d:
                raise DegreeError(f"component at degree {d} has degree {fd}")
            self.components[d] = f
        self._pleth_cache: dict[tuple, tuple | PExpr] = {}
        # code -> key tuple, shared by the expressions the series hands out
        self._keys: dict[int, Partition] = {}

    @staticmethod
    def from_function(fn, trunc: int) -> "Series":
        """The series of fn(d) for 1 <= d <= trunc; trunc is checked before fn runs."""
        integer(trunc, "series truncation", 0)
        return Series({d: fn(d) for d in range(1, trunc + 1)}, trunc)

    def component(self, d: int) -> PExpr:
        if integer(d, "series degree") > self.trunc:
            raise TruncationError(
                f"degree {d} beyond series truncation {self.trunc}"
            )
        return self.components.get(d, PExpr.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        return all(self.component(d) == other.component(d) for d in range(n + 1))

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        w = _width(n)  # no degree up to n has a multiplicity above n
        mine = {a: _pack(f, w) for a, f in self.components.items() if a <= n}
        theirs = {b: _pack(g, w) for b, g in other.components.items() if b <= n}
        keys: dict[int, Partition] = {}
        out = _series_product(mine, theirs, n)
        return Series({d: _unpack(v, w, keys) for d, v in out.items()}, n)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires constant term exactly 1."""
        if self.component(0) != PExpr.one():
            raise ParameterError("series inverse needs constant term 1")
        w = _width(self.trunc)
        comps = [_pack(self.component(k), w) for k in range(self.trunc + 1)]
        inv = [_ONE]
        for d in range(1, self.trunc + 1):
            inv.append(_kernel([(-1, comps[k], inv[d - k]) for k in range(1, d + 1)]))
        keys: dict[int, Partition] = {}
        return Series({d: _unpack(f, w, keys) for d, f in enumerate(inv)}, self.trunc)

    def omega(self) -> "Series":
        return Series({d: omega(f) for d, f in self.components.items()}, self.trunc)

    def alternate(self) -> "Series":
        """Flip the sign of every even-degree component (Q -> Q^alt)."""
        return Series(
            {d: (f if d % 2 == 1 else -f) for d, f in self.components.items() if d >= 1},
            self.trunc,
        )

    def restrict(self, keep) -> "Series":
        """Zero out every component whose degree fails the predicate."""
        return Series(
            {d: f for d, f in self.components.items() if keep(d)}, self.trunc
        )

    def _unpack(self, value: Packed) -> PExpr:
        return _unpack(value, _width(self.trunc), self._keys)


def _lambda_product(kind: str, lam, F: Series) -> PExpr:
    """prod over distinct parts i of h_{m_i}[f_i] ("h") or e_{m_i}[f_i] ("e").

    Each factor is the recurrence of _newton on f_i alone, at degree 1.  While
    |lam| <= F.trunc it runs in F's width and is cached on F under (kind, i);
    beyond that it runs in the width of |lam|, which bounds the multiplicities,
    and is kept for this call only.
    """
    instance(F, Series, f"{kind.upper()}_lambda series")
    lam = partition(lam, lo=1)
    if sum(lam) <= F.trunc:
        cache, w, keys = F._pleth_cache, _width(F.trunc), F._keys
    else:
        cache, w, keys = {}, _width(sum(lam)), {}
    out = None
    for i, m in _multiplicities(lam).items():
        value = _newton(cache, (kind, i), {1: F.component(i)}, kind, False, m, w)[m]
        out = value if out is None else _kernel([(1, out, value)])
    return _unpack(out or _ONE, w, keys)


def _hook_sums(f: PExpr, n: int) -> tuple[int, int, int, int]:
    """T, S, T1 and S1 of f = sum_mu c_mu p_mu of degree n, over f.denominator: sum c_mu,
    sum c_mu sgn(mu), sum c_mu m_1(mu) and sum c_mu m_1(mu) sgn(mu), with
    sgn(mu) = (-1)^(n - l(mu)) and m_1(mu) the number of parts 1 of mu."""
    T = S = T1 = S1 = 0
    for mu, c in f.numerators.items():
        signed, ones = (-c if (n - len(mu)) & 1 else c), mu.count(1)
        T, S, T1, S1 = T + c, S + signed, T1 + c * ones, S1 + signed * ones
    return T, S, T1, S1


def _factor_hooks(kind: str, i: int, m: int, F: Series) -> tuple[int, int, int, int, int]:
    """(D, T, S, T1, S1) of the factor g = h_m[f_i] ("h") or e_m[f_i] ("e") of F, g not built:
    with g = sum_mu c_mu p_mu and sgn(mu) = (-1)^(|mu| - l(mu)), T, S, T1 and S1 over D are
    sum c_mu, sum c_mu sgn(mu), sum c_mu m_1(mu) and sum c_mu m_1(mu) sgn(mu).

    For phi+ : p_j -> 1 and phi- : p_j -> (-1)^(j-1), g -> (phi(g), phi(dg/dp_1)) is a ring
    homomorphism into the dual numbers (Macdonald I.7): (T, T1) under phi+, (S, S1) under
    phi-.  It sends p_1[f_i] = f_i to f_i's own pair (V, V1), and p_r[f_i], r >= 2, which
    has no part 1, to (q^(r-1) V, 0) with q = 1 under phi+ and (-1)^i under phi-.  So the
    generating function sum_m g_m t^m, the exponential of sum_r sigma^(r-1) p_r[f_i] t^r / r
    (sigma = 1 for h, -1 for e), goes to (1 - Q t)^(-Q V) (1 + V1 t), Q = sigma q:
    phi(g_m) = prod_(s<m) (V + Q s) / m! and phi(dg_m/dp_1) = V1 phi(g_(m-1)).  Over
    D = d^m m!, d the denominator of f_i, all four are integers.  The quintuples of every
    m so far are cached on F under ("hooks", kind, i), the one of m = 1 being f_i's own.
    """
    out = F._pleth_cache.get(("hooks", kind, i))
    if out is None:
        f = F.component(i)
        out = F._pleth_cache["hooks", kind, i] = [(1, 1, 1, 0, 0), (f.denominator, *_hook_sums(f, i))]
    d, t, s, t1, s1 = out[1]
    sigma = -1 if kind == "e" else 1
    for j in range(len(out), m + 1):
        D, T, S, _, _ = out[-1]
        steps = (j - 1) * d * sigma  # Q (j - 1) d, Q = sigma under phi+, sigma (-1)^i under phi-
        out.append((D * d * j, T * (t + steps), S * (s + steps * (-1) ** i), t1 * j * T, s1 * j * S))
    return out[m]


def _lambda_hooks(kind: str, lam: Partition, F: Series) -> tuple[tuple[int, int, int, int], int]:
    """_hook_numerators of H_lambda ("h") or E_lambda ("e") at lam, and the denominator they
    are over, with neither the product nor its factors built.

    The sums T and S of a product are the products of its factors' (_factor_hooks), and
    T1 and S1 follow by the Leibniz rule, m_1 being additive; the four multiplicities are
    then T, S, T1 - T and S1 - S."""
    D = T = S = 1
    T1 = S1 = 0
    for i, m in _multiplicities(lam).items():
        d, t, s, t1, s1 = _factor_hooks(kind, i, m, F)
        T1, S1 = T1 * t + T * t1, S1 * s + S * s1
        D, T, S = D * d, T * t, S * s
    return (T, S, T1 - T, S1 - S), D


def H_lambda(lam: Partition, F: Series) -> PExpr:
    """prod over distinct parts i of h_{m_i}[f_i]; 1 for the empty partition.

    lam is read by `partition` as a power-sum index is (lowest part 1), so
    its parts may come in any order.
    """
    return _lambda_product("h", lam, F)


def E_lambda(lam: Partition, F: Series) -> PExpr:
    """prod over distinct parts i of e_{m_i}[f_i]; 1 for the empty partition.

    lam is read by `partition` as a power-sum index is (lowest part 1), so
    its parts may come in any order.
    """
    return _lambda_product("e", lam, F)


def plethystic_sum(
    F: Series,
    n: int,
    kind: str = "h",
    parity: int | None = None,
    signed: str | None = None,
) -> PExpr:
    """sum over lam |- n of (optional sign) * H_lambda or E_lambda.

    parity: keep only lam with (n - len(lam)) % 2 == parity.
    signed: None, or "sign-exponent" to weight by (-1)^(n - len(lam)).

    Every option is (a*G_n + b*S_n)/2 for integer weights (a, b), G_n the
    degree-n part of H[F] or E[F] and S_n its twin signed by
    (-1)^(n - len(lam)): (2, 0) for the whole sum, (1, 1) and (1, -1) for
    parity 0 and 1; the sign swaps the weights.  The input selects how G_n
    and S_n are built: when every key of f_1, f_2, ... is a pure power
    (a,)*b, as in every Foulkes series and each series derived from one,
    the exponential is a product of one series g_a(p_a) per part value a
    (see _pure_exp); otherwise the Newton recurrence (see _newton).  The
    result is cached on the series under ("sum", kind, n, a, b).
    """
    instance(F, Series, "plethystic_sum series")
    integer(n, "degree", 0)
    if kind not in ("h", "e"):
        raise ParameterError(f"kind must be 'h' or 'e', got {kind!r}")
    if not (parity is None or type(parity) is int and parity in (0, 1)):
        raise ParameterError(f"parity must be None, 0 or 1, got {parity!r}")
    if signed not in (None, "sign-exponent"):
        raise ParameterError(f"signed must be None or 'sign-exponent', got {signed!r}")
    F.component(n)  # TruncationError beyond trunc
    a, b = (2, 0) if parity is None else (1, 1 - 2 * parity)
    if signed is not None:
        a, b = b, a
    key = ("sum", kind, n, a, b)
    cache = F._pleth_cache
    total = cache.get(key)
    if total is None:
        w = _width(F.trunc)
        pure = cache.get(("pure",))
        if pure is None:
            pure = cache["pure",] = all(
                lam[0] == lam[-1] for d, f in F.components.items() if d for lam in f.numerators
            )
        pairs = []
        for c, sign in ((a, False), (b, True)):
            if c:  # a zero weight never extends its sequences
                G = (_pure_exp(cache, F.components, kind, sign, n, w) if pure else
                     _newton(cache, ("exp", kind, sign), F.components, kind, sign, n, w)[n])
                pairs.append((c, G))
        total = cache[key] = F._unpack(_sum(pairs, 2))
    return total


def plethysm_into(f: PExpr, R: Series) -> Series:
    """f[R] for a series R with no constant term, truncated at R.trunc.

    Linear in f; on a monomial c * p_lam it is c * prod_i R[p -> p*lam_i],
    that is c times the product over the distinct parts d of lam of
    R[p -> p*d]^(m_d).  Those powers are built packed, {degree: value}
    through R.trunc, once per call and shared by every key of f; with no
    constant term the m-th power starts at degree d*m.  Each key's product
    stays packed and is taken through R.trunc from its first factor on, so
    a key with one distinct part multiplies nothing; a power that vanishes
    through R.trunc leaves the product empty.  The keys are then summed
    with f's numerators, over its denominator, in one _sum per output
    degree and unpacked once.
    """
    instance(f, PExpr, "plethysm_into argument")
    instance(R, Series, "plethysm_into series")
    if R.component(0):
        raise ParameterError("plethysm into a series requires zero constant term")
    n = R.trunc
    w = _width(n)
    powers: dict[int, list[dict[int, Packed]]] = {}  # d -> R[p -> p*d]^0, ^1, ...

    def power(d: int, m: int) -> dict[int, Packed]:
        pows = powers.get(d)
        if pows is None:
            base = {
                d * k: _pack(plethysm_p(d, g), w) for k, g in R.components.items() if d * k <= n
            }
            pows = powers[d] = [{0: _ONE}, base]
        while len(pows) <= m:
            pows.append(_series_product(pows[-1], pows[1], n))
        return pows[m]

    terms: dict[int, list] = {}  # output degree -> (numerator, packed)
    for key, num in f.numerators.items():
        prod, *rest = [power(d, m) for d, m in _multiplicities(key).items()] or [{0: _ONE}]
        for g in rest:
            prod = _series_product(prod, g, n)
        for e, x in prod.items():
            terms.setdefault(e, []).append((num, x))
    return Series({e: R._unpack(_sum(t, f.denominator)) for e, t in terms.items()}, n)


# ---------------------------------------------------------------------------
# Product-form expansions


def _binomial(c: int, j: int) -> int:
    """Generalized binomial C(c, j) for integer c (negative allowed), j >= 0."""
    if j == 0:
        return 1
    if c >= 0:
        return comb(c, j) if j <= c else 0
    return (-1) ** j * comb(-c + j - 1, j)


def product_expansion(factors, n: int) -> PExpr:
    """Coefficient of t^n in prod over (m, c, sign) of (1 + sign*t^m*p_m)^c.

    Exponents c are integers (negative allowed, via the binomial series);
    sign is +1 or -1.  p_m occurs only in the factors at m, so the
    coefficient of p_lam is the product over the parts m of lam of
    [x^(m_m(lam))] prod_{factors at m} (1 + sign*x)^c.
    """
    integer(n, "degree", 0)
    try:
        factors = iter(factors)
    except TypeError:
        raise ParameterError(f"factors must be an iterable, got {factors!r}") from None
    polys: dict[int, list[int]] = {}  # m -> coefficients of x^0..x^(n//m)
    for factor in factors:
        try:
            m, c, sign = factor
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"a factor is (m, c, sign), got {factor!r}") from exc
        integer(m, "factor degree", 1)
        if sign not in (1, -1):
            raise ParameterError(f"factor sign must be +-1, got {sign}")
        if integer(c, "factor exponent") == 0 or m > n:
            continue
        factor = [_binomial(c, j) * sign**j for j in range(n // m + 1)]
        old = polys.get(m)
        polys[m] = factor if old is None else [
            sum(old[i] * factor[j - i] for i in range(j + 1)) for j in range(len(factor))
        ]
    terms = {}
    for lam in _shapes(n, ~sum(1 << m for m in polys)):  # every part has a factor
        coeff = prod(polys[m][j] for m, j in _multiplicities(lam).items())
        if coeff:
            terms[lam] = coeff
    return _expr((1, terms))
