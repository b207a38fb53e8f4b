"""The vector route of `output.emit_csv`: float columns of a CSV block
formatted as arrays by an exact %.17g, and the block laid out as one
array of byte slots. `output` imports this module when a table first has
a block of `output._VECTOR_ROWS` rows, so that its code is resident only
in processes that write such tables, not in every one that imports the
package."""

from __future__ import annotations

import math

import numpy as np

from .output import _cell_texts

# Each cell is laid out in a fixed slot whose unused bytes hold _PAD, a
# byte that UTF-8 text never contains; deleting _PAD from a block's bytes
# leaves its CSV text. A float's slot is _SLOT bytes, separator included.
_PAD = 0xFF
_SLOT = 32
_WORD = np.dtype("<u8")
# Decimal exponents of the 10^s table; a cell goes the vector route only
# when 1e-280 < |x| < 1e280, which needs 10^s for -264 <= s <= 298.
_POW_MIN, _POW_MAX = -266, 300
_VELTKAMP = 134217729.0                # 2^27 + 1 splits a double in halves
# The 17 digits D of a cell lie in [_D_MIN, _D_END); the constants are
# typed so that no array operation rests on numpy's promotion rules.
_D_MIN, _D_END = np.int64(10 ** 16), np.int64(10 ** 17)
_D_REDO = np.int64(10 ** 17 - 1)
_E8, _E4 = np.int64(10 ** 8), np.int64(10 ** 4)
_HALF, _LOW = np.uint64(32), np.uint64(2 ** 32 - 1)
_BYTE, _TOP, _D0_SHIFT = np.uint64(8), np.uint64(56), np.uint64(48)
_MINUS = np.uint64(_PAD - ord("-"))
# Layout classes of E: 0-16 fixed with the point after digit E; 17-20
# fixed with the lead "0." to "0.000" of E = -1 to -4; 21 exponential.
_CLASSES = 22
_NO_POINT = 16                         # p: no point among digits 1-16


def tables() -> dict:
    """The lookup tables of the float route, built for one `emit_csv` call
    as views of one buffer of 88 kB, in about 0.8 ms; kept for the life
    of the process, they would stay resident after the run's tables are
    written. The steps build no small numpy array, which numpy would keep
    in its cache. By the row j = s - _POW_MIN of 10^s, s = 16 - E:

    pow: rows hi, hi_hi, hi_lo, lo: 10^s = hi + lo, a double-double, hi
        10^s correctly rounded and lo the remainder rounded, both from
        exact integer ratios, which Python divides correctly rounded;
        hi = hi_hi + hi_lo in halves of 26 bits for Dekker's product.
    exponent: the last word of a slot: "e+05" and the like in the
        exponential layout, else all _PAD; byte 7, the separator's, 0.
    row: 17 times E's layout class, which the count of trailing zeros
        adds to, to give the column of `mark`.
    mark: rows M1, M2, W0, W1, W2. M1 and M2 mask digits 1..p, which move
        down a byte to make room for the point after digit p = E of the
        fixed layout. W0 is the first word of a slot: _PAD for the sign,
        the lead, "0" where the first digit adds, and in byte 7 the point
        after it, _PAD or (p >= 1) 0 for digit 1. W1 and W2 add the point
        after digit p and _PAD - "0" at the trailing zeros dropped, which
        turns them into _PAD.
    group: the ASCII of each 4-digit group "0000"-"9999" in the low 32
        bits, its count of trailing zeros in the high 32.
    """
    n_pow = _POW_MAX - _POW_MIN + 1
    parts = [("pow", "<f8", (4, n_pow)), ("exponent", "<u8", (n_pow,)),
             ("mark", "<u8", (5, 17 * _CLASSES)), ("group", "<u8", (10 ** 4,)),
             ("row", "<i8", (n_pow,))]
    sizes = [np.dtype(d).itemsize * int(np.prod(n)) for _, d, n in parts]
    blob = np.empty(sum(sizes), np.uint8)
    t, offset = {}, 0
    for (name, dtype, shape), size in zip(parts, sizes):
        t[name] = blob[offset:offset + size].view(dtype).reshape(shape)
        offset += size
    _fill_pow(t["pow"])
    t["exponent"][:] = np.frombuffer(_exponents(), "<u8")
    # E by row: 0-16 (class E), -1 to -4 (class 16 - E), else class 21.
    E = np.arange(16 - _POW_MIN, 15 - _POW_MAX, -1)
    row, fixed, lead = t["row"], slice(-_POW_MIN, 17 - _POW_MIN), slice(
        17 - _POW_MIN, 21 - _POW_MIN)
    row[:] = 17 * (_CLASSES - 1)
    np.multiply(E[fixed], 17, out=row[fixed])
    np.multiply(E[lead], -17, out=row[lead])
    row[lead] += 17 * 16
    _fill_mark(t["mark"])
    # "%04d" % (100 a + b) is the pair a, then the pair b; the count of
    # trailing zeros is b's, or 2 + a's when b = 0.
    pairs = [(48 + a // 10, 48 + a % 10) for a in range(100)]
    zeros = [int(a % 10 == 0) + (a == 0) for a in range(100)]
    left = np.frombuffer(b"".join(bytes(p) + bytes(6) for p in pairs), "<u8")
    right = np.frombuffer(b"".join(bytes((0, 0) + p + (z, 0, 0, 0))
                                   for p, z in zip(pairs, zeros)), "<u8")
    group = t["group"].reshape(100, 100)
    np.add(left[:, None], right, out=group)
    group[:, 0] += np.frombuffer(b"".join(bytes((0, 0, 0, 0, z, 0, 0, 0))
                                          for z in zeros), "<u8")
    return t


def _fill_pow(pow_: np.ndarray) -> None:
    """hi, hi_hi, hi_lo, lo of 10^s for s in [_POW_MIN, _POW_MAX]."""
    hi, lo = [0.0] * pow_.shape[1], [0.0] * pow_.shape[1]
    ten = 10 ** -_POW_MIN
    for j, s in enumerate(range(_POW_MIN, _POW_MAX + 1)):
        if s < 0:
            # 10^s = 1 / ten, and lo = (q - m ten) / (q ten) for hi = m / q:
            # divided by ten correctly rounded, then by q = 2^k exactly, as
            # lo is no subnormal for s > -290.
            hi[j] = h = 1 / ten
            m, q = h.as_integer_ratio()
            lo[j] = math.ldexp((q - m * ten) / ten, 1 - q.bit_length())
            ten //= 10
        else:                          # 10^s = ten
            hi[j] = h = float(ten)
            lo[j] = float(ten - int(h))
            ten *= 10
    pow_[0], pow_[3] = hi, lo
    hi, hi_hi, hi_lo = pow_[:3]
    np.multiply(hi, _VELTKAMP, out=hi_hi)
    np.subtract(hi_hi, hi, out=hi_lo)
    np.subtract(hi_hi, hi_lo, out=hi_hi)
    np.subtract(hi, hi_hi, out=hi_lo)


def _exponents() -> bytes:
    """The last word of a slot for each row, E = 16 - s falling: the
    exponent padded with _PAD, or all _PAD for -4 <= E <= 16."""
    top, bottom = 16 - _POW_MIN, 16 - _POW_MAX
    three, two = b"e%+04d\xff\xff\0", b"e%+03d\xff\xff\xff\0"
    runs = [(top, 100, three), (99, 17, two), (16, -4, None),
            (-5, -99, two), (-100, bottom, three)]
    out = []
    for first, last, text in runs:
        E = range(first, last - 1, -1)
        out.append(text * len(E) % tuple(E) if text
                   else (b"\xff" * 7 + b"\0") * len(E))
    return b"".join(out)


def _fill_mark(mark: np.ndarray) -> None:
    """The columns of `mark` (see `tables`), each the sum of three rows of
    `atoms`: those of the point after digit p, of the trailing zeros from
    digit kd on, and of the layout class."""
    pad = bytes([_PAD])
    atoms = []
    for p in range(17):                # M1 M2, then W0 W1 W2 from byte 7
        if p == _NO_POINT:
            mask, add = bytes(16), pad + bytes(16)
        else:
            mask, add = (pad * p).ljust(16, b"\0"), bytes(p) + b"." + bytes(
                16 - p)
        atoms.append(mask + bytes(7) + add)
    for kd in range(1, 18):            # digit j >= kd (slot byte 7 + j) drops
        atoms.append(bytes(23 + kd) + bytes([_PAD - 48]) * (17 - kd))
    for c in range(_CLASSES):
        lead = b"0." + b"0" * (c - 17) if 17 <= c <= 20 else b""
        atoms.append(bytes(16) + (pad + lead).ljust(6, pad) + b"0" + bytes(17))
    atoms = np.frombuffer(b"".join(atoms), "<u8").reshape(-1, 5)
    point, digits, layout = [], [], []
    for c in range(_CLASSES):
        # Digits printed: the significant ones, and every integer digit of
        # the fixed layout; the point follows digit p if any digit does.
        p = c if c <= 16 else 0 if c == _CLASSES - 1 else _NO_POINT
        for trailing in range(17):
            kd = max(17 - trailing, c + 1) if c <= 16 else 17 - trailing
            point.append(p if p < kd - 1 else _NO_POINT)
            digits.append(16 + kd)
            layout.append(34 + c)
    point, digits, layout = map(np.array, (point, digits, layout))
    np.add(atoms.take(point, axis=0), atoms.take(digits, axis=0), out=mark.T)
    mark.T[:] += atoms.take(layout, axis=0)


def _scaled(a, s, t: dict):
    """D = floor(y) and f = y - D for y = a 10^(16-E), each a > 0, s the
    row j of 10^(16-E). y is p + e + a lo: p = fl(a hi) and its error e
    exactly by Dekker's product, a lo rounded; f's error stays below 1e-14
    for y < 10^17. When y >= 2^53, p is an integer; below, D may come out
    one low, which only matters to cells out of range anyway. The terms
    are summed in place, in the rows of the table lookup."""
    hi, hi_hi, hi_lo, lo = t["pow"].take(s, axis=1)
    p = a * hi
    a_hi = a * _VELTKAMP
    a_lo = a_hi - a
    a_hi -= a_lo                       # c - (c - a), c = (2^27 + 1) a
    np.subtract(a, a_hi, out=a_lo)
    # e = ((a_hi hi_hi - p) + a_hi hi_lo + a_lo hi_hi) + a_lo hi_lo
    r = a_hi * hi_hi
    r -= p
    r += np.multiply(a_hi, hi_lo, out=a_hi)
    r += np.multiply(a_lo, hi_hi, out=hi_hi)
    r += np.multiply(a_lo, hi_lo, out=hi_lo)
    r += np.multiply(a, lo, out=lo)
    D = p.astype(np.int64)
    carry = np.floor(r, out=p)
    D += carry.astype(np.int64)
    r -= carry
    return D, r


def _decimal(x: np.ndarray, t: dict):
    """The row j of 10^(16-E) in the tables, the 17-digit integer D and
    the indices of the cells the vector route leaves to Python, for the
    floats `x` (see `_float_words`)."""
    a = np.abs(x)
    vector = (a > 1e-280) & (a < 1e280)
    a = np.where(vector, a, 1.0)
    s = (16 - _POW_MIN - np.floor(np.log10(a))).astype(np.intp)
    D, f = _scaled(a, s, t)
    # Cells whose floor lies outside [10^16, 10^17 - 1) are redone: with
    # E -/+ 1 when it lies outside [10^16, 10^17), else unchanged.
    redo = np.flatnonzero((D < _D_MIN) | (D >= _D_REDO))
    if redo.size:
        Dr = D[redo]
        s[redo] += (Dr < _D_MIN).astype(np.intp) - (Dr >= _D_END)
        D[redo], f[redo] = _scaled(a[redo], s[redo], t)
    D += f > 0.5
    if redo.size:
        Dr = D[redo]
        vector[redo[(Dr < _D_MIN) | (Dr >= _D_END)]] = False
    slow = np.flatnonzero(~vector | (np.abs(f - 0.5) <= 1e-6))
    return s, D, slow


def _digits(D: np.ndarray, t: dict):
    """The first digit of each D and its other 16 as ASCII, words 1 and 2
    of the slot, with the count of their trailing zeros. The halves
    D // 10^8 and D % 10^8 of the 16 digits split into 4-digit groups,
    each looked up once in `group`."""
    first = D // _D_MIN
    rest = D - first * _D_MIN
    halves = np.empty((2, len(D)), np.int64)
    np.floor_divide(rest, _E8, out=halves[0])
    np.subtract(rest, halves[0] * _E8, out=halves[1])
    groups = np.empty((2, 2, len(D)), np.intp)
    np.floor_divide(halves, _E4, out=groups[:, 0])
    np.subtract(halves, groups[:, 0] * _E4, out=groups[:, 1])
    entries = t["group"].take(groups)
    text = entries[:, 0] & _LOW
    text += entries[:, 1] << _HALF
    # Trailing zeros of each 8-digit half, then of the 16 digits.
    zeros = (entries >> _HALF).view(np.int64)
    half = zeros[:, 1] + (zeros[:, 1] == 4) * zeros[:, 0]
    trailing = half[1] + (half[1] == 8) * half[0]
    return first, text, trailing


def _float_words(x: np.ndarray, sep: str, t: dict, words: np.ndarray) -> None:
    """Write '%.17g' % x[i] and `sep` into row i of `words`, four
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

    Byte b of a slot holds: b = 0 the sign; 1-5 the "0." to "0.000" lead
    of -4 <= E < 0; 6 the first digit; 7 the point after it; 8-23 the
    other 16 digits; 24-30 the exponent; 31 `sep`. Like %g, the layout is
    fixed for -4 <= E < 17 and exponential otherwise, and trailing zeros
    after the point, and a bare point, turn to _PAD. In the fixed layout,
    digits 1..E move down a byte, so that the point after digit E takes
    the byte that digit E left. The steps run in helpers so that their
    arrays are freed before the next ones are made.
    """
    x = np.asarray(x, dtype=np.float64)
    s, D, slow = _decimal(x, t)
    digits = _digits(D, t)
    del D
    _layout_words(x < 0, s, digits, sep, t, words)
    # Row by row, so that no small array outlives the call in numpy's cache.
    slots = words.view(np.uint8)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text = ("%.17g" % v + sep).encode()
        slots[i] = _PAD
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)


def _layout_words(negative, s, digits, sep: str, t: dict, words) -> None:
    """Lay out in `words` the sign `negative`, the digits (see `_digits`)
    and `sep` of cells whose E is that of row s of the tables."""
    first, text, trailing = digits
    mark = t["mark"].take(t["row"].take(s) + trailing, axis=1)
    # Move digits 1..p down a byte: digit 1 into byte 7 of word 0.
    low = text & mark[0:2]
    text -= low
    text += low >> _BYTE
    text[0] += low[1] << _TOP
    np.add(text[0], mark[3], out=words[:, 1])
    np.add(text[1], mark[4], out=words[:, 2])
    first = first.view(np.uint64) << _D0_SHIFT
    first += low[0] << _TOP
    first += mark[2]
    # The sign: _PAD - "-" off byte 0 of negative cells.
    np.subtract(first, negative * _MINUS, out=words[:, 0])
    np.add(t["exponent"].take(s), np.uint64(ord(sep)) << _TOP,
           out=words[:, 3])


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
