"""The vectorised %.17g of `emit_csv` against Python's own, byte for byte,
and the tables it rests on against exact rationals and Python's own
formatting."""

import decimal
from fractions import Fraction

import numpy as np
import pytest

from coulombchain import _csvfloat, emit_csv, output


def _emitted(x, tmp_path) -> bytes:
    """The lines `emit_csv` writes for the float column `x`, long enough
    for the vector route."""
    assert len(x) >= output._VECTOR_ROWS
    path = tmp_path / "x.csv"
    emit_csv(["x"], output.Columns(x), str(path))
    data = path.read_bytes()
    assert data.startswith(b"x\n")
    return data[2:]


def _expected(x) -> bytes:
    return "".join("%.17g\n" % float(v) for v in x.tolist()).encode()


def test_random_bit_patterns_cover_every_exponent(tmp_path):
    bits = np.random.default_rng(26).integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    # Every biased exponent, subnormals (0) and inf/nan (2047) included.
    assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048
    x = bits.view(np.float64)
    assert _emitted(x, tmp_path) == _expected(x)


def test_powers_of_ten_their_neighbours_and_specials(tmp_path):
    # The literals 1ek: some lie a hair below 10^k, so their 17 digits
    # round up to the next power of ten.
    k = np.array([float(f"1e{k}") for k in range(-323, 309)]
                 + (10.0 ** np.arange(-323, 309)).tolist())
    x = np.concatenate([k, np.nextafter(k, 0.0), np.nextafter(k, np.inf),
                        -k, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                             2.2250738585072014e-308, 1.7976931348623157e308,
                             1e-280, 1e280, 9.999999999999999e279, 1e16,
                             1e17, 123456789012345678.0, 1e-5, 1e-4, 0.5]])
    assert _emitted(x, tmp_path) == _expected(x)


def test_values_across_scales_and_integers(tmp_path):
    rng = np.random.default_rng(7)
    x = np.concatenate([
        rng.uniform(size=10 ** 5),
        rng.normal(size=10 ** 5) * 10.0 ** rng.integers(-20, 21, 10 ** 5),
        np.arange(-5000, 5000, dtype=float),
        rng.integers(-2 ** 62, 2 ** 62, 10 ** 4).astype(float)])
    assert _emitted(x, tmp_path) == _expected(x)


def test_float32_and_float16_input(tmp_path):
    x = np.random.default_rng(3).normal(size=10 ** 4) * 1e3
    for dtype in (np.float32, np.float16):
        y = x.astype(dtype)
        assert _emitted(y, tmp_path) == _expected(y)


def test_layout_grid_of_exponents_digit_counts_and_signs(tmp_path):
    # Exact decimal strings of 1 to 17 significant digits, the last nonzero,
    # at every E from -6 to 18: both %g layouts and both of their edges.
    rng = np.random.default_rng(27)
    texts = []
    for E in range(-6, 19):
        for k in range(1, 18):
            for _ in range(3):
                digits = rng.integers(0, 10, k)
                digits[0], digits[-1] = rng.integers(1, 10, 2)
                mantissa = "".join(map(str, digits))
                texts.append(f"{mantissa[0]}.{mantissa[1:]}e{E}")
    x = np.array([float(v) for v in texts])
    x = np.concatenate([x, -x])
    assert len(x) >= output._VECTOR_ROWS
    assert _emitted(x, tmp_path) == _expected(x)


def _g17(negative: bool, digits: str, E: int) -> str:
    """The %.17g text of the 17 significant digits `digits` at exponent E:
    the layout of C's %g, written out."""
    digits = digits.rstrip("0")
    if -4 <= E < 17:
        if E < 0:
            text = "0." + "0" * (-E - 1) + digits
        else:
            whole, rest = digits[:E + 1].ljust(E + 1, "0"), digits[E + 1:]
            text = whole + ("." + rest if rest else "")
    else:
        rest = "." + digits[1:] if len(digits) > 1 else ""
        text = digits[0] + rest + "e%+03d" % E
    return "-" * negative + text


def test_g17_reference_is_pythons_formatting():
    bits = np.random.default_rng(5).integers(0, 2 ** 64, 10 ** 4,
                                             dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x) & (x != 0.0)]
    # and values with few significant digits, at E from -8 to 21.
    x = np.concatenate([x, np.arange(1, 3000) * 10.0 ** np.resize(
        np.arange(-8, 20), 2999)])
    for v in x.tolist():
        mantissa, E = ("%.16e" % abs(v)).split("e")
        assert _g17(v < 0, mantissa.replace(".", ""), int(E)) == "%.17g" % v


def test_layout_tables_at_every_exponent_and_trailing_zero_count():
    # Every row of the tables (every E the vector route can meet), 17
    # digits ending in 0 to 16 zeros, both signs, against the reference.
    t = _csvfloat.tables()
    rows = np.arange(_csvfloat._POW_MAX - _csvfloat._POW_MIN + 1)
    digits = ["1" + "2345678923456789"[:16 - z] + "0" * z for z in range(17)]
    s = np.repeat(rows, 2 * len(digits))
    D = np.tile(np.array([int(d) for d in digits] * 2), len(rows))
    negative = np.tile(np.repeat([False, True], len(digits)), len(rows))
    words = np.empty((len(s), _csvfloat._SLOT // 8), _csvfloat._WORD)
    _csvfloat._layout_words(negative, s, _csvfloat._digits(D, t), "\n", t,
                            words)
    lines = words.tobytes().translate(None, bytes([_csvfloat._PAD]))
    expected = [_g17(neg, str(d), 16 - (j + _csvfloat._POW_MIN))
                for j, neg, d in zip(s.tolist(), negative.tolist(),
                                     D.tolist())]
    assert lines.decode().split("\n")[:-1] == expected


def test_group_table_is_percent_04d_and_its_trailing_zeros():
    group = _csvfloat.tables()["group"]
    assert len(group) == 10 ** 4
    for g, entry in enumerate(group.tolist()):
        text = "%04d" % g
        assert (entry & 0xFFFFFFFF).to_bytes(4, "little") == text.encode()
        assert entry >> 32 == len(text) - len(text.rstrip("0")), g


def _ties():
    """Doubles m 2^-e whose exact decimal has 18 significant digits, the
    last a 5: %.17g rounds them half to even."""
    rng = np.random.default_rng(11)
    found = []
    while len(found) < 40:
        x = float(rng.integers(2 ** 40, 2 ** 53) | 1) * 2.0 ** -int(
            rng.integers(1, 80))
        digits = decimal.Decimal(x).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            found.append(x)
    return np.array(found)


def test_exact_and_near_ties_at_the_17th_digit(tmp_path):
    ties = _ties()
    near = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
    x = np.resize(np.concatenate([ties, -ties, near]), output._VECTOR_ROWS)
    assert _emitted(x, tmp_path) == _expected(x)


def test_power_of_ten_table_is_exact():
    t = _csvfloat.tables()
    exponents = range(_csvfloat._POW_MIN, _csvfloat._POW_MAX + 1)
    hi, hi_hi, hi_lo, lo = t["pow"].tolist()
    assert len(hi) == len(lo) == len(exponents)
    for h, h_hi, h_lo, l, s in zip(hi, hi_hi, hi_lo, lo, exponents):
        ten = Fraction(10) ** s
        assert h == float(ten), s
        assert l == float(ten - Fraction(h)), s
        # hi in halves of at most 26 significant bits each, so that
        # Dekker's partial products are exact.
        assert h_hi + h_lo == h, s
        for half in (h_hi, h_lo):
            m = abs(Fraction(half).numerator)
            assert m == 0 or (m // (m & -m)).bit_length() <= 26, s


@pytest.mark.parametrize("sep", [",", "\n"])
def test_float_words_hold_one_separator(sep):
    x = np.array([1.5, -2e-300, np.nan, 0.0, 1e22, -1e-5])
    words = np.empty((len(x), _csvfloat._SLOT // 8), _csvfloat._WORD)
    _csvfloat._float_words(x, sep, _csvfloat.tables(), words)
    text = words.tobytes().translate(None, bytes([_csvfloat._PAD]))
    assert text == "".join("%.17g" % v + sep for v in x).encode()
