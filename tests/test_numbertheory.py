from math import gcd

import pytest

from symcon.errors import ParameterError
from symcon.numbertheory import (
    divisors,
    factorize,
    moebius,
    ramanujan_sum,
    ramanujan_sum_oracle,
    totient,
)


def test_totient_moebius_basics():
    assert totient(1) == 1
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert [totient(n) for n in (2, 3, 4, 9, 10)] == [1, 2, 2, 6, 4]
    assert [moebius(n) for n in (2, 3, 6, 30)] == [-1, -1, 1, -1]


def test_totient_divisor_sum():
    for n in range(1, 201):
        assert sum(totient(d) for d in divisors(n)) == n


def test_ramanujan_examples():
    assert all(ramanujan_sum(1, k) == 1 for k in range(10))
    assert ramanujan_sum(6, 2) == -1
    assert ramanujan_sum_oracle(4, 2) == -2
    assert ramanujan_sum_oracle(1, 5) == 1


def test_ramanujan_at_one_is_moebius():
    for d in range(1, 61):
        assert ramanujan_sum(d, 1) == moebius(d)


def test_ramanujan_prime_self():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert ramanujan_sum_oracle(p, p) == p - 1


def test_ramanujan_matches_oracle():
    for d in range(1, 61):
        for k in range(0, 61):
            assert ramanujan_sum(d, k) == ramanujan_sum_oracle(d, k)


def test_ramanujan_periodicity_and_zero():
    for d in range(1, 41):
        for k in range(0, 121):
            assert ramanujan_sum(d, k) == ramanujan_sum(d, k % d)
    for d in range(1, 61):
        assert ramanujan_sum(d, 0) == totient(d)


def test_bad_arguments():
    with pytest.raises(ParameterError):
        totient(0)
    with pytest.raises(ParameterError):
        ramanujan_sum(0, 3)


def test_every_value_against_its_definition():
    # phi by counting coprimes, mu by trial division, and c_d(k) as the divisor
    # sum sum_{e | gcd(d, k)} e * mu(d/e), all written out here
    top = 300
    divs = [[]] + [[e for e in range(1, n + 1) if n % e == 0] for n in range(1, top + 1)]
    phi = [0] + [sum(gcd(n, j) == 1 for j in range(1, n + 1)) for n in range(1, top + 1)]
    mu = [0]
    for n in range(1, top + 1):
        m, sign, p = n, 1, 2
        while m > 1 and sign:
            if m % p == 0:
                m //= p
                sign = 0 if m % p == 0 else -sign
            p += 1
        mu.append(sign)
    for d in range(1, top + 1):
        assert (totient(d), moebius(d), divisors(d)) == (phi[d], mu[d], tuple(divs[d])), d
        for k in range(-d, 2 * d + 1):
            want = sum(e * mu[d // e] for e in divs[gcd(d, k)])
            assert ramanujan_sum(d, k) == ramanujan_sum_oracle(d, k) == want, (d, k)


POSITIVE_ARGUMENTS = {  # the functions of one argument >= 1, and that argument's name
    factorize: "factorize argument",
    totient: "totient argument",
    moebius: "moebius argument",
    divisors: "divisors argument",
    lambda d: ramanujan_sum(d, 1): "Ramanujan sum modulus d",
    lambda d: ramanujan_sum_oracle(d, 1): "Ramanujan sum modulus d",
}
K_ARGUMENTS = (lambda k: ramanujan_sum(4, k), lambda k: ramanujan_sum_oracle(4, k))


@pytest.mark.parametrize("x", [2.5, 2.0, True, "2", None, 0, -1])
def test_integer_arguments_are_required(x):
    # warm: every function has read 1 and 2, which 2.0 and True hash equal to;
    # each lookalike still raises with the cold wording
    for fn in (*POSITIVE_ARGUMENTS, *K_ARGUMENTS):
        fn(1), fn(2)
    for fn, what in POSITIVE_ARGUMENTS.items():
        with pytest.raises(ParameterError) as info:
            fn(x)
        assert str(info.value) == f"{what} must be an integer >= 1, got {x!r}"
    if type(x) is not int:  # any int k is a valid argument
        for fn in K_ARGUMENTS:
            with pytest.raises(ParameterError) as info:
                fn(x)
            assert str(info.value) == f"Ramanujan sum argument k must be an integer, got {x!r}"
