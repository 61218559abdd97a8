"""numbers.power, the one exact power, and its Toom-Cook squaring _square,
against builtin ** and *: at the cut between them, at the edges of the
pieces a squaring cuts its operand into, and two levels of recursion deep."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from delta0lab.numbers import _EVEN_PLAN, _ODD_PLAN, _TOOM_CUT, _TOOM_K, _square, power

# a squaring cuts an operand of n bits into _TOOM_K pieces of w bits, w a
# multiple of 8, so the piece width steps at the multiples of STEP bits
STEP = 8 * _TOOM_K
# past this many operand bits the squares of the pieces recurse once more
TWO_LEVELS = _TOOM_K * _TOOM_CUT // 2


def piece_bits(n: int) -> int:
    """w for an operand of n bits."""
    return 8 * -(-n // STEP)


def test_the_plans_divide_by_one_digit():
    # so every division by a plan's denominator is by one 30-bit digit
    for (lower, upper), n in ((_EVEN_PLAN, _TOOM_K), (_ODD_PLAN, _TOOM_K - 1)):
        assert len(lower) == len(upper) == n
        assert all(1 <= d < 1 << 30 for d, _ in lower)
        assert [len(row) for _, row in lower] == list(range(1, n + 1))
        assert [len(row) for row in upper] == list(range(n, 0, -1))


near_the_cuts = st.one_of(
    st.integers(_TOOM_CUT // 2 - 64, _TOOM_CUT // 2 + 64),
    st.integers(_TOOM_CUT - 64, _TOOM_CUT + 64),
    st.builds(lambda m, d: m * STEP + d,
              st.integers(_TOOM_CUT // (2 * STEP), 4 * _TOOM_CUT // STEP), st.integers(-64, 64)))


@given(near_the_cuts, st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_square_near_the_cuts(bits, seed):
    x = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    assert _square(x) == x * x


@given(st.integers(TWO_LEVELS + 1, 3_000_000), st.integers(0, 2 ** 32))
@settings(max_examples=2, deadline=None)
def test_square_two_levels_deep(bits, seed):
    x = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    assert _square(x) == x * x


def from_pieces(pieces: list[int], w: int) -> int:
    return sum(p << (j * w) for j, p in enumerate(pieces))


def test_square_of_structured_operands():
    rng = random.Random(7)
    cases = []
    for n in (_TOOM_CUT // 2 + 1, _TOOM_CUT, 5 * _TOOM_CUT, TWO_LEVELS + STEP):
        cases += [(1 << n) - 1, 1 << (n - 1), (1 << (n - 1)) | 1]
    for n in (2 * _TOOM_CUT, TWO_LEVELS + STEP):
        w = piece_bits(n)
        full = (1 << w) - 1
        # the shortest top piece a split at width w has: one set bit, w - 55 long
        shortest = 1 << (w - STEP)
        for top in (shortest, full):
            for low in ([0] * (_TOOM_K - 1), [full] * (_TOOM_K - 1),
                        [rng.getrandbits(w) if j % 2 else 0 for j in range(_TOOM_K - 1)],
                        [0, 0, full, 0, 0, 1]):
                x = from_pieces(low + [top], w)
                assert piece_bits(x.bit_length()) == w
                cases.append(x)
    for x in cases:
        assert _square(x) == x * x, x.bit_length()


BASES = (0, 1, 2, 4, 3, 5, 7, 10, (1 << 61) - 1, 3 ** 40)


def test_power_matches_builtin_around_the_cut():
    for b in BASES:
        bits = max(b.bit_length(), 1)
        edge = _TOOM_CUT // bits
        for e in (0, 1, 2, edge - 1, edge, edge + 1, edge + 2, 3 * edge + 1, 5 * edge):
            assert power(b, e) == b ** e, (b, e)


def test_power_of_the_paper_code_of_the_diagonal():
    # the factor 3^3,456,001 of the paper code of ~(v0 = v0)
    assert power(3, 3_456_001) == 3 ** 3_456_001
