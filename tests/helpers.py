"""Direct reference implementations used as oracles, and test tooling.

The oracles are written against plain integers (sympy for primes), with
no dependency on the combinator library, so the two sides can disagree.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager

import sympy


@contextmanager
def default_recursion_limit():
    """Run the block at Python's default recursion limit, 1000, and restore
    the limit after it.  delta0lab leaves the limit alone, but a test
    runner or a plugin may raise it; under this a walker that recursed
    would fail on deep input whatever raised the limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@contextmanager
def collector_paused():
    """Run the block, or the test it decorates, with the cyclic garbage
    collector off, and restore it after.  A deep-input test keeps about
    100,000 interned nodes alive, which every full collection walks, a
    quarter to a third of such a test's time.  Values left in cycles wait
    for the first collection after the block."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def d_prime(i: int) -> int:
    return sympy.prime(i + 1)


def d_chi_prime(x: int) -> int:
    return int(sympy.isprime(x))


def d_quot(a: int, b: int) -> int:
    return a // b if b else a + 1


def d_divides(d: int, x: int) -> bool:
    return x == 0 if d == 0 else x % d == 0


def d_exponent(k: int, x: int) -> int:
    if x == 0:
        return 1
    p, e = d_prime(k), 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def seq_encode(entries: list[int]) -> int:
    code = 1
    for i, a in enumerate(entries):
        code *= d_prime(i) ** (a + 1)
    return code


def d_len(x: int) -> int:
    if x == 0:
        return 1
    i = 0
    while x % d_prime(i) == 0:
        i += 1
    return i


def d_idx(i: int, x: int) -> int:
    return max(d_exponent(i, x) - 1, 0)


def d_last(x: int) -> int:
    return d_idx(max(d_len(x) - 1, 0), x)


def d_seq_test(x: int) -> bool:
    if x < 1:
        return False
    n = d_len(x)
    return all(not d_divides(d_prime(i), x) or i < n for i in range(x + 1))


def d_replace(z: int, k: int, r: int) -> int:
    p = d_prime(k)
    return z // p ** d_exponent(k, z) * p ** (r + 1)


def d_pair3(i: int, z: int, w: int) -> int:
    return 2 ** i * 3 ** z * 5 ** w


DIRECT = {
    "add": lambda x, y: x + y,
    "mul": lambda x, y: x * y,
    "sg": lambda x: int(x > 0),
    "sgbar": lambda x: int(x == 0),
    "pred": lambda x: max(x - 1, 0),
    "monus": lambda x, y: max(x - y, 0),
    "chi_eq": lambda x, y: int(x == y),
    "chi_le": lambda x, y: int(x <= y),
    "pow": lambda x, y: x ** y,
    "prime": d_prime,
    "len": d_len,
    "idx": d_idx,
    "last": d_last,
    "seq_test": lambda x: int(d_seq_test(x)),
    "replace": d_replace,
    "pair3": d_pair3,
}

ARITIES = {
    "add": 2, "mul": 2, "sg": 1, "sgbar": 1, "pred": 1, "monus": 2,
    "chi_eq": 2, "chi_le": 2, "pow": 2, "prime": 1, "len": 1, "idx": 2,
    "last": 1, "seq_test": 1, "replace": 3, "pair3": 3,
}
