"""The numpy '%.<p>g' formatter against Python's own, element by element."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftdiff import _gfmt

PRECISIONS = (17, 10)  # result_to_csv's series and time column


def assert_matches(x, p):
    x = np.asarray(x, dtype=np.float64)
    got = _gfmt.csv_text("x", [x], [p]).split("\n")
    assert got[0] == "x" and got[-1] == "" and len(got) == x.size + 2
    want = ["%.*g" % (p, v) for v in x.tolist()]
    bad = [i for i, (a, b) in enumerate(zip(got[1:-1], want)) if a != b]
    assert not bad, [(x[i], got[i + 1], want[i]) for i in bad[:5]]


def _bits(n, seed, mask=2 ** 64 - 1):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64)
    return (bits & np.uint64(mask)).view(np.float64)


def _powers_of_ten():
    tens = np.array([float(f"1e{j}") for j in range(-300, 301)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
            2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 2.0 ** -900, 2.0 ** 990, 0.1, 0.5, 1.0, 9.5, 0.0001,
            1e-05, 123456789012345678.0, 0.30000000000000004, 0.9999999999999999]

CASES = {
    # 200k random bit patterns, more than one block of rows
    "random bits": lambda: _bits(200_000, 1),
    # exact ties of the 17th digit, rounded half to even
    "ties m/4": lambda: (np.random.default_rng(2).integers(4 * 10 ** 15, 9 * 10 ** 15, 20_000)
                         | 1) / 4.0,
    "integers near 1e16": lambda: np.arange(10 ** 16 - 2000, 10 ** 16 + 2000).astype(float),
    "integers near 1e17": lambda: np.arange(10 ** 17 - 40_000, 10 ** 17 + 40_000, 16).astype(float),
    "powers of ten and neighbours": _powers_of_ten,
    "specials": lambda: np.array(SPECIALS),
    "subnormals": lambda: _bits(2000, 3, mask=(1 << 63) | ((1 << 52) - 1)),
    "short decimals": lambda: np.array([float(f"{m}e{e}") for m in (1, 12, 125, 2, 5, 75)
                                        for e in range(-20, 21)]),
}


@pytest.mark.parametrize("p", PRECISIONS)
@pytest.mark.parametrize("case", CASES)
def test_matches_python(case, p):
    assert_matches(CASES[case](), p)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_raw_bit_patterns(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    for p in PRECISIONS:
        assert_matches(x, p)


def test_columns_rows_and_header():
    x = np.array([1.5, -0.0, np.nan, 1e-300])
    y = np.array([2.0, 1e22, -np.inf, 0.1])
    assert _gfmt.csv_text("a,b", [x, y], [10, 17]) == (
        "a,b\n1.5,2\n-0,1e+22\nnan,-inf\n1e-300,0.10000000000000001\n")
    assert _gfmt.csv_text("a,b", [x[:0], y[:0]], [10, 17]) == "a,b\n"
