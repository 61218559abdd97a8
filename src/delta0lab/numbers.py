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

power is the one exact power of the package: every site that builds or
confirms a prime power, a triple 2^i 3^z 5^w or a POW value calls it.  The
prime-power codes make such powers huge (the paper code of ~(v0 = v0) has
3^3,456,001 as a factor), and CPython squares big operands by Karatsuba
alone, in time n^1.585.  Past _TOOM_CUT result bits, where it is faster
(measured on CPython 3.11), power squares by Toom-Cook in 7 pieces, in time
n^1.318 (Toom, "The complexity of a scheme of functional elements realizing
the multiplication of integers", 1963; Bodrato & Zanoni, "Integer and
polynomial multiplication: towards optimal Toom-Cook matrices", ISSAC
2007).  It stays exact: the square's 13 coefficients are interpolated from
its values at 0, +-1, ..., +-6 in integers, by two Newton plans built once
at import, and each division in them is exact and by one digit (< 2^30).
Newton's form, unlike a Lagrange matrix, lets each coefficient be written
over a value and dropped once it is out, which keeps the squaring's peak
memory near that of builtin **.  Below the cut builtin ** is faster, and
it pays one multiply-compare more.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from itertools import compress

from .nodes import walk

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


# results of at most this many bits are left to builtin **, and squares of
# at most this many to builtin *
_TOOM_CUT = 1 << 17
# pieces per Toom-Cook squaring
_TOOM_K = 7


def _newton_plan(ts: range, odd: bool) -> tuple[list[tuple[int, tuple[int, ...]]],
                                                list[tuple[int, ...]]]:
    """(lower, upper): the plan that turns the values f_t = t^odd h(t^2),
    t in ts, of a polynomial h of degree len(ts) - 1 into its coefficients,
    in integers.

    h's Newton coefficients over the nodes y_j = t_j^2 are
    n_j = sum_(i <= j) row_i f_i / d, for (d, row) = lower[j]: d is the
    least common multiple of the denominators t_i^odd prod_(m <= j, m != i)
    (y_i - y_m).  For h with integer coefficients at integer nodes each n_j
    is an integer, so d divides its sum exactly.  h's coefficient k is
    sum_j upper[k][j - k] n_j over j >= k, the coefficients of y^k in
    prod_(m < j) (y - y_m)."""
    ys = [t * t for t in ts]
    lower = []
    for j in range(len(ys)):
        dens = []
        for i in range(j + 1):
            den = ts[i] if odd else 1
            for m in range(j + 1):
                if m != i:
                    den *= ys[i] - ys[m]
            dens.append(den)
        d = math.lcm(*dens)
        lower.append((d, tuple(d // den for den in dens)))
    upper = [[] for _ in ys]
    poly = [1]   # prod_(m < j) (y - y_m), lowest degree first
    for y in ys:
        for k, c in enumerate(poly):
            upper[k].append(c)
        poly = [a - y * b for a, b in zip([0] + poly, poly + [0])]
    return lower, [tuple(row) for row in upper]


# the square's even and odd coefficients, from its values at 0, +-1, ...
_EVEN_PLAN = _newton_plan(range(_TOOM_K), odd=False)
_ODD_PLAN = _newton_plan(range(1, _TOOM_K), odd=True)


def _squaring(x: int) -> Generator[tuple[int], int, int]:
    """x * x for a natural x, as a step of nodes.walk that asks for its
    sub-squares.

    Past the cut, x is split into _TOOM_K pieces of w bits, a whole number of
    bytes, the coefficients of a polynomial A with x = A(2^w).  Its square
    C = A^2 has coefficients c_k, and x * x = sum c_k 2^(kw).  The values
    C(t) and C(-t), t = 0 .. _TOOM_K - 1, are the squares of A(t) and
    A(-t).  Their half sum and half difference are the values of C's even
    and odd parts, which the two Newton plans interpolate.

    Each Newton coefficient is written over its own value, top down, and
    dropped once the last c_k that needs it is out; the c_k are emitted low
    to high with their carries, w bits at a time into one byte buffer.  So
    no partial sum of the full size is ever built, and the squares, the
    Newton coefficients and the buffer together take about the room of
    the squares alone."""
    n = x.bit_length()
    if 2 * n <= _TOOM_CUT:
        return x * x
    size = -(-n // (8 * _TOOM_K))   # bytes per piece
    w = 8 * size
    raw = x.to_bytes(_TOOM_K * size, "little")
    a = [int.from_bytes(raw[j * size:(j + 1) * size], "little") for j in range(_TOOM_K)]
    del raw
    even, odd = [(yield (a[0],))], []
    for t in range(1, _TOOM_K):
        e = o = 0   # A(t) = e + o and A(-t) = e - o
        for j in range(_TOOM_K - 1, -1, -1):
            if j % 2:
                o = o * (t * t) + a[j]
            else:
                e = e * (t * t) + a[j]
        o *= t
        plus = yield (e + o,)
        minus = yield (abs(e - o),)
        even.append((plus + minus) >> 1)
        odd.append((plus - minus) >> 1)
    del a, e, o, plus, minus   # only the values are held from here on
    for values, (lower, _) in ((even, _EVEN_PLAN), (odd, _ODD_PLAN)):
        for j in range(len(values) - 1, 0, -1):
            d, row = lower[j]
            values[j] = sum(c * v for c, v in zip(row, values)) // d
    out = bytearray()
    carry, mask = 0, (1 << w) - 1
    for k in range(2 * _TOOM_K - 1):
        newton, (_, upper) = (odd, _ODD_PLAN) if k % 2 else (even, _EVEN_PLAN)
        j = k // 2
        carry += sum(c * v for c, v in zip(upper[j], newton[j:]))
        newton[j] = None
        out += (carry & mask).to_bytes(size, "little")
        carry >>= w
    out += carry.to_bytes(size, "little")
    return int.from_bytes(out, "little")


def _square(x: int) -> int:
    """x * x for a natural x."""
    return walk(_squaring, x)


def power(base: int, exp: int) -> int:
    """base ** exp for naturals base and exp, exactly: by builtin ** up to
    _TOOM_CUT bits, by a shift for a power of two, and otherwise left to
    right by square-and-multiply through the Toom-Cook _square."""
    if exp * base.bit_length() <= _TOOM_CUT:
        return base ** exp
    if not base & (base - 1):
        return 1 << (base.bit_length() - 1) * exp
    r = base
    for bit in bin(exp)[3:]:
        r = _square(r)
        if bit == "1":
            r *= base
    return r


def prime_tower(n: int, z: int, lift: Callable[[int], int]) -> LazyPow:
    """p_n ** lift(z ** n), for lift increasing with lift(0) >= 1.  Past
    200,000 bits of z^n the exponent is the lazy power z^n, below lift(z^n),
    so lower-bound queries stay sound."""
    small = z <= 1 or n * z.bit_length() <= 200_000
    return LazyPow(prime_index=n, exp=lift(power(z, n)) if small else LazyPow(base=z, exp=n))


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
        return power(base, exp)


def magnitude_ge(v: int | LazyPow, w: int) -> bool | None:
    """v >= w, three-valued; exact for ints."""
    if isinstance(v, int):
        return v >= w
    return v.ge_int(w)


def magnitude_to_int(v: int | LazyPow, max_bits: int = BITS_CAP) -> int | None:
    if isinstance(v, int):
        return v if v.bit_length() <= max_bits else None
    return v.try_int(max_bits=max_bits)
