"""Prime tables, order-of-magnitude arithmetic for huge bounds, size limits.

The stated search bounds involve towers like p_x^((x+1)^2) that usually
cannot be written down.  LazyPow keeps them symbolic and answers the two
questions the search wrappers actually ask: is the bound certainly >= a
given integer, and can it be materialized within a bit budget.

Primes are certified without evaluation by p_i >= i + 2 and (Bertrand)
p_i <= 2^(i+1), both for the 0-indexed sequence 2, 3, 5, ...

BITS_CAP bounds each integer built where the output can outgrow its input
(a power, a prime-power product, a subcode listing, a run), SWEEP_CAP the
points of one Python sweep.  Each such site checks a cheap lower bound
(pow_bits) before the work, and raises FeasibilityError naming the limit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import compress

BITS_CAP = 50_000_000
SWEEP_CAP = 10 ** 6


class FeasibilityError(RuntimeError):
    """The work would pass a limit: a PR step budget, BITS_CAP bits or
    SWEEP_CAP points.  The message names it; nothing past it was built."""


def pow_bits(base: int, exp: int) -> int:
    """A lower bound on the bits of base ** exp for naturals base and exp:
    exact for a power of two, at most exp / 2^23 + 1 short below 2^64."""
    if base & (base - 1) and base < 1 << 64:   # log2(base) in units of 2^-24, rounded down
        return (exp * (int(math.log2(base) * (1 << 24)) - 1) >> 24) + 1
    return exp * (base.bit_length() - 1) + 1


def prime_tower(n: int, z: int, lift: Callable[[int], int]) -> LazyPow:
    """p_n ** lift(z ** n), for lift increasing with lift(0) >= 1.  Past
    200,000 bits of z^n the exponent is the lazy power z^n, below lift(z^n),
    so lower-bound queries stay sound."""
    small = z <= 1 or n * z.bit_length() <= 200_000
    return LazyPow(prime_index=n, exp=lift(z ** n) if small else LazyPow(base=z, exp=n))


_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _sieve(bound: int) -> list[int]:
    """The primes <= bound, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = bytes(2)
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p::p] = bytes((bound - p * p) // p + 1)
    return list(compress(range(bound + 1), flags))


def nthprime(i: int) -> int:
    """The i-th prime, 0-indexed: nthprime(0) = 2."""
    if i < 0:
        raise ValueError("prime index must be a natural")
    global _primes
    if i < len(_primes):
        return _primes[i]
    count = i + 1
    bound = max(64, int(count * (math.log(count) + math.log(math.log(count)))) + 16)
    while True:
        found = _sieve(bound)
        if len(found) > i:
            _primes = found
            return _primes[i]
        bound *= 2


def prime_index_bounds(i: int) -> tuple[int, float]:
    """(lower bound for p_i, log2 upper bound for p_i)."""
    hi = float(i + 1) if i.bit_length() < 1000 else math.inf
    return i + 2, hi


class LazyPow:
    """base ** exp, kept symbolic.

    The base is either a known integer >= 2 or the prime with a given
    index; the exponent is an int or another LazyPow (for towers like
    z^u appearing inside an exponent).
    """

    def __init__(self, base: int | None = None, exp: "int | LazyPow" = 1,
                 *, prime_index: int | None = None):
        if (base is None) == (prime_index is None):
            raise ValueError("give exactly one of base, prime_index")
        if base is not None and base < 2:
            raise ValueError("base must be >= 2")
        if isinstance(exp, int) and exp < 1:
            raise ValueError("exponent must be >= 1")
        self.base = base
        self.prime_index = prime_index
        self.exp = exp

    def __repr__(self):
        b = f"p_{self.prime_index}" if self.base is None else str(self.base)
        return f"LazyPow({b} ** {self.exp!r})"

    # -- magnitude certificates -------------------------------------

    def _base_log2_bounds(self) -> tuple[float, float]:
        if self.base is not None:
            l = math.log2(self.base)
            return l, l
        lo, hi = prime_index_bounds(self.prime_index)
        return math.log2(lo), hi

    def _exp_ge(self, k: int) -> bool:
        """Exponent certainly >= k."""
        if isinstance(self.exp, int):
            return self.exp >= k
        return self.exp.ge_int(k) is True

    def ge_int(self, w: int) -> bool | None:
        """True/False when certain, None when the certificates cannot tell."""
        if w <= 1:
            return True
        need = w.bit_length()   # value >= w guaranteed if log2(value) >= need
        blo, bhi = self._base_log2_bounds()
        if self._exp_ge(math.ceil(need / max(blo, 1.0))):
            return True
        if isinstance(self.exp, int):
            # exponent is small here, so try the exact value
            got = self.try_int(max_bits=4 * need + 64)
            if got is not None:
                return got >= w
            if self.exp * bhi < need - 1:
                return False
        return None

    def try_int(self, max_bits: int = BITS_CAP) -> int | None:
        """The exact integer when it fits in max_bits bits, else None."""
        if not isinstance(self.exp, int):
            inner = self.exp.try_int(max_bits=64)
            if inner is None:
                return None
            exp = inner
        else:
            exp = self.exp
        _, bhi = self._base_log2_bounds()
        if exp * bhi >= max_bits:   # base ** exp has at most floor(exp * bhi) + 1 bits
            return None
        base = self.base if self.base is not None else nthprime(self.prime_index)
        return base ** exp


def magnitude_ge(v: int | LazyPow, w: int) -> bool | None:
    """v >= w, three-valued; exact for ints."""
    if isinstance(v, int):
        return v >= w
    return v.ge_int(w)


def magnitude_to_int(v: int | LazyPow, max_bits: int = BITS_CAP) -> int | None:
    if isinstance(v, int):
        return v if v.bit_length() <= max_bits else None
    return v.try_int(max_bits=max_bits)
