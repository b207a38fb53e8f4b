"""The vectorised %.17g of `emit_csv` against Python's own, byte for byte,
and the 10^s table it rests on against exact rationals."""

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
    assert len(t["pow_hi"]) == len(t["pow_lo"]) == len(exponents)
    for hi, lo, s in zip(t["pow_hi"].tolist(), t["pow_lo"].tolist(),
                         exponents):
        ten = Fraction(10) ** s
        assert hi == float(ten), s
        assert lo == float(ten - Fraction(hi)), s


@pytest.mark.parametrize("sep", [",", "\n"])
def test_float_words_hold_one_separator(sep):
    x = np.array([1.5, -2e-300, np.nan, 0.0, 1e22, -1e-5])
    words = np.empty((len(x), _csvfloat._SLOT // 8), _csvfloat._WORD)
    _csvfloat._float_words(x, sep, _csvfloat.tables(), words)
    text = words.tobytes().translate(None, bytes([_csvfloat._PAD]))
    assert text == "".join("%.17g" % v + sep for v in x).encode()
