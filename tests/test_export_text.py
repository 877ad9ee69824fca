"""The numpy text of doubles and vertex numbers that mesh export writes,
against Python's own formatting: format(x, ".17g") and str(k)."""

from decimal import Decimal

import numpy as np
from hypothesis import example, given, settings, strategies as st

from riemann_examples.mesh import FLOAT_WIDTH, _float_text, _int_text


def strings(text) -> list:
    """The rows of a uint8 text array without their zero-byte padding."""
    lines = np.concatenate([text, np.full((len(text), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    text = _float_text(values)
    assert text.shape == (len(values), FLOAT_WIDTH)
    got = strings(text)
    want = [format(v, ".17g") for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(values)} differ, e.g. {bad[:5]}"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("inf"),
          float("-inf"), float("nan"), 1e-4, 9.9999999999999991e-5, 1e17, 99999999999999984.0])
def test_float_text_on_any_double(values):
    assert_formats_like_python(values)


def test_float_text_on_raw_bit_patterns():
    rng = np.random.default_rng(20260419)
    raw = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    # the same count with the exponent field drawn over 1e-6 .. 1e19, which
    # the numpy path covers from 1e-4 to 1e17
    fast = rng.integers(0, 2 ** 52, 100_000, dtype=np.uint64) \
        | (rng.integers(1003, 1087, 100_000, dtype=np.uint64) << np.uint64(52)) \
        | (rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63))
    assert_formats_like_python(np.concatenate([raw, fast]).view(np.float64))


def test_float_text_next_to_powers_of_ten():
    # where floor(log10 |x|) can be one off, and where the 17 digits could
    # round up to the next power
    steps = np.arange(-40, 41)
    bits = np.concatenate([np.float64(f"1e{k}").view(np.int64) + steps for k in range(-5, 18)])
    values = bits.view(np.float64)
    assert_formats_like_python(np.concatenate([values, -values]))


def test_float_text_rounds_exact_ties_half_to_even():
    # m / 2**(p + 1), m odd, has the 18 significant digits of m * 5**(p + 1),
    # the last one a 5: each is a tie between two 17-digit numbers
    rng = np.random.default_rng(7)
    values = []
    for p in range(1, 21):
        lo, hi = -(-10 ** 17 // 5 ** (p + 1)), min(10 ** 18 // 5 ** (p + 1), 2 ** 53)
        m = rng.integers(lo // 2, hi // 2, 1000) * 2 + 1
        values.append(m[(m >= lo) & (m < hi)] / 2.0 ** (p + 1))
    values = np.concatenate(values)
    for v in values[::97].tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert_formats_like_python(np.concatenate([values, -values]))


def test_int_text_at_digit_count_boundaries():
    edges = [0] + [10 ** k + d for k in range(1, 7) for d in (-1, 0)]
    for first in (0, 1):    # PLY numbers vertices from 0, OBJ from 1
        values = np.array(edges) + first
        text = _int_text(values)
        assert text.shape == (len(values), len(str(values.max())))
        assert strings(text) == [str(k) for k in values.tolist()]
        assert strings(_int_text(values[:1])) == [str(first)]
