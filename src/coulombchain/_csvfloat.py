"""The vector route of `output.emit_csv`: float columns of a CSV block
formatted as arrays by an exact %.17g, and the block laid out as one
array of byte slots. `output` imports this module when a table first has
a block of `output._VECTOR_ROWS` rows, so that its code is resident only
in processes that write such tables, not in every one that imports the
package."""

from __future__ import annotations

import struct

import numpy as np

from .output import _cell_texts

# Each cell is laid out in a fixed slot whose unused bytes hold _PAD, a
# byte that UTF-8 text never contains; deleting _PAD from a block's bytes
# leaves its CSV text. A float's slot is _SLOT bytes, separator included.
_PAD = 0xFF
_SLOT = 48
_WORD = np.dtype("<u8")
# Decimal exponents of the 10^s table; a cell goes the vector route only
# when 1e-280 < |x| < 1e280, which needs 10^s for -264 <= s <= 297.
_POW_MIN, _POW_MAX = -300, 300
_VELTKAMP = 134217729.0                # 2^27 + 1 splits a double in halves


def tables() -> dict:
    """The lookup tables of the float route, built for one `emit_csv` call
    as views of one bytes buffer. The build takes about 1.5 ms; kept for
    the life of the process, the tables and their buffer would stay
    resident after the run's tables are written.

    pow_hi, pow_lo: 10^s = hi + lo, a double-double, for s in [_POW_MIN,
        _POW_MAX]: hi is 10^s correctly rounded and lo the remainder
        rounded. Both come from exact integer ratios, which Python divides
        correctly rounded.
    pairs: the ASCII of each two-digit pair, one digit per 16-bit lane.
    pair_zeros: trailing zeros of each pair ("00" has 2).
    drop: by kd, _PAD - "0" at digits j >= kd, which are zeros: added to
        them, it gives _PAD.
    point: by p, the point after digit p and _PAD after the others (p = 17
        puts no point).
    lead: sign and "0.", "0.0", ... of -4 <= E < 0, by 5 neg + (-E or 0).
    exponent: "e+05" and the like by E - _POW_MIN; the last word, for the
        fixed layout, is all _PAD. Byte 7 is left for the separator.
    """
    hi, lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den
        m, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - m * den) / (den * q))
    pad = bytes([_PAD])

    def slot(digit_byte, point_byte) -> bytes:
        """A _SLOT-byte mask row: digit j at byte 6 + 2 j, its point after."""
        row = bytearray(_SLOT)
        for j in range(17):
            row[6 + 2 * j], row[7 + 2 * j] = digit_byte(j), point_byte(j)
        return bytes(row)

    lead = b""
    for sign in (pad, b"-"):
        for z in range(5):
            text = sign + (b"0." + b"0" * (z - 1) if z else b"")
            lead += text.ljust(6, pad) + b"\0\0"
    exponent = b"".join((b"e%+03d" % e).ljust(7, pad) + b"\0"
                        for e in range(_POW_MIN, _POW_MAX + 1))
    parts = [
        ("pow_hi", "<f8", struct.pack(f"<{len(hi)}d", *hi)),
        ("pow_lo", "<f8", struct.pack(f"<{len(lo)}d", *lo)),
        ("pairs", "<u8", struct.pack("<100Q", *(
            48 + p // 10 | (48 + p % 10) << 16 for p in range(100)))),
        ("pair_zeros", "<i8", struct.pack("<100q", *(
            2 if p == 0 else int(p % 10 == 0) for p in range(100)))),
        ("drop", "<u8", b"".join(slot(lambda j: _PAD - 48 if j >= kd else 0,
                                      lambda j: 0) for kd in range(18))),
        ("point", "<u8", b"".join(slot(lambda j: 0,
                                       lambda j: 46 if j == p else _PAD)
                                  for p in range(18))),
        ("lead", "<u8", lead),
        ("exponent", "<u8", exponent + pad * 7 + b"\0")]
    # One buffer: arrays under a kilobyte would stay in numpy's cache.
    blob = b"".join(data for _, _, data in parts)
    out, offset = {}, 0
    for name, dtype, data in parts:
        out[name] = np.frombuffer(blob, dtype, len(data) // 8, offset)
        offset += len(data)
    return out


def _scaled(a, E, t: dict):
    """D = floor(y) and f = y - D for y = a 10^(16-E), each a > 0. y is the
    double-double (a hi + a lo): a hi exactly by Dekker's product, a lo
    rounded. Its error, and so f's, stays below 1e-14 for y < 10^17."""
    s = 16 - E - _POW_MIN
    hi, lo = np.take(t["pow_hi"], s), np.take(t["pow_lo"], s)
    p = a * hi
    c = _VELTKAMP * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _VELTKAMP * hi
    hi_hi = c - (c - hi)
    hi_lo = hi - hi_hi
    err = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi)
           + a_lo * hi_lo + a * lo)
    whole = np.floor(p)
    r = (p - whole) + err
    carry = np.floor(r)
    return whole.astype(np.int64) + carry.astype(np.int64), r - carry


def _decimal(x: np.ndarray, t: dict):
    """E, the 17-digit integer D and the indices of the cells the vector
    route leaves to Python, for the floats `x` (see `_float_words`)."""
    a = np.abs(x)
    vector = (a > 1e-280) & (a < 1e280)
    a[~vector] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    D, f = _scaled(a, E, t)
    shift = (D >= 10 ** 17).astype(np.int64) - (D < 10 ** 16)
    redo = np.flatnonzero(shift)
    if redo.size:
        E[redo] += shift[redo]
        D[redo], f[redo] = _scaled(a[redo], E[redo], t)
    D += f > 0.5
    slow = np.flatnonzero(~vector | (np.abs(f - 0.5) <= 1e-6)
                          | (D < 10 ** 16) | (D >= 10 ** 17))
    return E, D, slow


def _digits(D: np.ndarray, t: dict):
    """The first digit of each D, its other 16 as four 4-digit groups of a
    left and a right pair, and the count of trailing zeros; from the
    halves D // 10^8 < 10^9 and D % 10^8."""
    upper, lower = np.divmod(D, 10 ** 8)
    first, upper = np.divmod(upper, 10 ** 8)
    groups = np.empty((len(D), 4), np.intp)
    groups[:, 0], groups[:, 1] = np.divmod(upper, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(lower, 10 ** 4)
    left, right = np.divmod(groups, 100)
    zeros = np.take(t["pair_zeros"], right)
    zeros += (right == 0) * np.take(t["pair_zeros"], left)
    empty = groups == 0
    trailing = zeros[:, 3] + empty[:, 3] * (
        zeros[:, 2] + empty[:, 2] * (zeros[:, 1] + empty[:, 1] * zeros[:, 0]))
    return first, left, right, trailing


def _float_words(x: np.ndarray, sep: str, t: dict, words: np.ndarray) -> None:
    """Write '%.17g' % x[i] and `sep` into row i of `words`, six
    little-endian words (_SLOT bytes) per row, padded with _PAD; the same
    bytes as formatting each cell in Python. `t` holds `tables()`.

    With E = floor(log10 |x|), the 17 significant digits are the integer
    D = round(|x| 10^(16-E)) in [10^16, 10^17). A cell whose D falls
    outside that range before rounding (E was off by one) is redone once
    with E -/+ 1; D rounds up when the fraction f > 0.5. Cells the vector
    route does not take are formatted one at a time: non-finite cells,
    +-0, |x| outside (1e-280, 1e280), cells with |f - 0.5| <= 1e-6, where
    the rounding would rest on f's error, and cells whose D rounds up to
    10^17 (a double just below a power of ten, such as 1e-14).

    The words hold the sign and "0.000" prefix with the first digit and its
    point; four words of 4 digits, each digit followed by a point or _PAD;
    the exponent or _PAD, then `sep`. Like %g, the layout is fixed for
    -4 <= E < 17 and exponential otherwise, and trailing zeros after the
    point, and a bare point, turn to _PAD. The steps run in helpers so that
    their arrays are freed before the next ones are made.
    """
    x = np.asarray(x, dtype=np.float64)
    E, D, slow = _decimal(x, t)
    first, left, right, trailing = _digits(D, t)
    del D
    # kd digits print: the significant ones, and in the fixed layout every
    # integer digit; the point follows digit p = E there, digit 0 otherwise.
    fixed = (E >= -4) & (E < 17)
    kd = 17 - trailing
    kd = np.where(fixed, np.maximum(kd, E + 1), kd)
    p = np.where(fixed, E, 0)
    p = np.where((p >= 0) & (p < kd - 1), p, 17)
    # Each byte takes one nonzero term, so the words add without carries.
    np.take(t["drop"].reshape(18, 6), kd, axis=0, out=words)
    words += np.take(t["point"].reshape(18, 6), p, axis=0)
    lead = np.where(fixed & (E < 0), -E, 0) + 5 * (x < 0)
    words[:, 0] += np.take(t["lead"], lead) + (first.astype(_WORD) + 48 << 48)
    words[:, 1:5] += np.take(t["pairs"], left) + (np.take(t["pairs"], right)
                                                  << 32)
    exponent = np.where(fixed, len(t["exponent"]) - 1, E - _POW_MIN)
    words[:, 5] += np.take(t["exponent"], exponent) + (ord(sep) << 56)
    # Row by row, so that no small array outlives the call in numpy's cache.
    slots = words.view(np.uint8)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text = ("%.17g" % v + sep).encode()
        slots[i] = _PAD
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)


def _text_slots(texts: list, sep: str) -> np.ndarray:
    """Each str of `texts` and `sep`, UTF-8, in a row padded with _PAD to a
    width that is a multiple of 8 bytes."""
    data = [(s + sep).encode() for s in texts]
    width = -(-max(map(len, data)) // 8) * 8
    pad = bytes([_PAD])
    flat = b"".join(d.ljust(width, pad) for d in data)
    return np.frombuffer(flat, np.uint8).reshape(len(data), width)


def vector_block(columns, header, t: dict) -> bytes:
    """The lines of a block of `output._VECTOR_ROWS` rows or more. Float
    columns, as arrays or as sequences of float cells, take the vector
    route; the others print cell by cell. Every column fills its slots in
    one array, whose rows are the lines once _PAD is deleted."""
    seps = [","] * (len(columns) - 1) + ["\n"]
    parts = []
    for cells, column, sep in zip(columns, header, seps):
        if isinstance(cells, np.ndarray) and cells.dtype.kind != "f":
            cells = cells.tolist()
        if isinstance(cells, np.ndarray) or all(
                isinstance(c, (float, np.floating)) for c in cells):
            parts.append((np.asarray(cells, dtype=np.float64), sep, _SLOT))
        else:
            slots = _text_slots(_cell_texts(cells, column), sep)
            parts.append((slots, None, slots.shape[1]))
    block = np.empty((len(parts[0][0]), sum(w for _, _, w in parts)),
                     np.uint8)
    start = 0
    for values, sep, width in parts:
        if sep is None:
            block[:, start:start + width] = values
        else:
            _float_words(values, sep, t,
                         block[:, start:start + width].view(_WORD))
        start += width
    return block.tobytes().translate(None, bytes([_PAD]))
