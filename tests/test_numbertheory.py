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


@pytest.mark.parametrize("x", [2.5, 2.0, True])
def test_integer_arguments_are_required(x):
    # warm: 2.0 and True compare equal to the cached 2 and 1
    factorize(2), factorize(1)
    for fn in (factorize, totient, moebius, divisors):
        with pytest.raises(ParameterError):
            fn(x)
    for args in ((x, 2), (4, x)):
        with pytest.raises(ParameterError):
            ramanujan_sum(*args)
        with pytest.raises(ParameterError):
            ramanujan_sum_oracle(*args)
