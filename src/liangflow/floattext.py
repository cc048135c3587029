"""Decimal text <-> float64 arrays: every value as ``repr`` writes it and
``float`` reads it.

``read_rows`` reads CSV text and ``join`` writes arrays through orjson,
which reads the correctly rounded value of a decimal and writes the
shortest round-trip digits (Ryu). Where its values or its text could
differ from Python's, ``read_rows`` gives up and ``join`` uses the
kernel below. The kernel gives each value the shortest decimal digits
that read back as the same float, and the closest such digits to it, by
Giulietti's Schubfach algorithm ("The Schubfach way to render doubles",
2020), the digits Ryu (Adams, PLDI 2018) and ``repr`` give too. It runs
on ``uint64`` arrays, with each 64 x 64 -> 128-bit product taken from
four products of 32-bit halves. Two rules of the Java reference code
differ from Python's and are left out: the two-digit rule for the three
smallest subnormals (Java prints ``4.9E-324``), and the lower bound of
100 on the digits for the one-digit-shorter test (10 here, so ``8e-323``
is not ``7.9e-323``).

The digits are laid out as ``repr`` lays them out: fixed notation when
the decimal point falls at -4 < decpt <= 16 (``.0`` after an integer),
``d.ddde±XX`` otherwise, and ``nan``, ``inf``, ``-inf``, ``-0.0``. Every
value has the same 24 slots (sign, ``0.000``, 17 digits and a point),
held as one row of bytes per slot across the values, zero where a value
has no character; one boolean mask over the transposed rows takes the
zeros out.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np
import orjson

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_FRAC57 = _U64((1 << 57) - 1)
_ONE = _U64(0x3FF << 52)  # the bits of 1.0
_INF = _U64(0x7FF << 52)
_K_MIN = -324  # the smallest decimal exponent k of Schubfach's digits; the largest is 292
_CHUNK = 1 << 14  # values laid out at once: their arrays stay in a core's cache
_SLOTS = 24
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_POW10 = 10 ** np.arange(18, dtype=_U64)


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38  # floor(e log2 10) for |e| <= 5456


@functools.cache
def _table() -> np.ndarray:
    """Rows g1, g0, k and h + 2 of Schubfach for each float exponent, at 2 * the
    biased exponent, + 1 for a power of two (whose float below is nearer).

    10**k is the largest power of ten not above the float's spacing 2**q,
    and g = g1 * 2**63 + g0 = floor(10**-k / 2**r) + 1 holds the top 126
    bits of 10**-k, exact from Python ints; h lines up the products.
    """
    g = []
    for k in range(_K_MIN, 293):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // 10 ** k + 1)
        else:
            g.append((10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1)
    g = np.array([(x >> 63, x & ((1 << 63) - 1)) for x in g], dtype=_U64)
    index = np.arange(4096)
    q = np.maximum(index >> 1, 1) - 1075  # the float is c * 2**q
    k = (q * 661_971_961_083 - (index & 1) * 274_743_187_321) >> 41
    h = q + _flog2pow10(-k) + 2
    table = np.stack([g[k - _K_MIN, 0], g[k - _K_MIN, 1], k.view(_U64), (h + 2).view(_U64)])
    table.setflags(write=False)  # one array for every caller
    return table


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of a * b, each given by its 32-bit halves."""
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _round_to_odd(x1, y1, y0):
    """Schubfach's rop: g * cp / 2**127 with a sticky last bit, from the high
    word x1 of g0 * cp and the words y1, y0 of g1 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _moved(x1, x0, g, shift, sign: int):
    """The words of (x1 x0) + sign * (g << shift), for 0 < shift < 64."""
    lo = g << shift
    hi = g >> (_U64(64) - shift)
    if sign > 0:
        x0 = x0 + lo
        return x1 + hi + (x0 < lo), x0
    return x1 - hi - (x0 < lo), x0 - lo


def _digits(magnitude):
    """Schubfach's (digits, k) of the bits of finite positive floats: digits *
    10**k is the value to the fewest digits that read back as it, the
    nearest such, and of two such the even one."""
    biased = magnitude >> 52
    t = magnitude & _U64((1 << 52) - 1)
    power = (t == 0) & (biased > 1)
    g1, g0, k, shift = np.take(_table(), ((biased << 1) | power).astype(np.intp), axis=1)
    c = t | (biased > 0) * _U64(1 << 52)
    # Java's rop of g with the value and its interval's bounds, (4c -+ 2) << h, or
    # 4c - 1 below a power of two; the bounds' products by exact carries
    cp = c << shift
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1, x0 = _mulhi(g0 >> 32, g0 & _M32, cp_hi, cp_lo), g0 * cp
    y1, y0 = _mulhi(g1 >> 32, g1 & _M32, cp_hi, cp_lo), g1 * cp
    vb = _round_to_odd(x1, y1, y0)
    shift = shift - _U64(1)
    vbr = _round_to_odd(_moved(x1, x0, g0, shift, 1)[0], *_moved(y1, y0, g1, shift, 1))
    shift = shift - power
    vbl = _round_to_odd(_moved(x1, x0, g0, shift, -1)[0], *_moved(y1, y0, g1, shift, -1))
    odd = c & _U64(1)  # an odd significand leaves out its interval's ends
    s = vb >> _U64(2)
    # one digit fewer, if exactly one of the two neighbouring multiples of 10 reads back
    tp10 = s // _U64(10) * _U64(10) + _U64(10)
    upin = vbl + odd <= (tp10 - _U64(10)) << _U64(2)
    wpin = (tp10 << _U64(2)) + odd <= vbr
    shorter = (s >= _U64(10)) & (upin != wpin)
    # otherwise s or s + 1: the one that reads back, else the nearer, else the even one
    uin = vbl + odd <= s << _U64(2)
    win = (s << _U64(2)) + _U64(4) + odd <= vbr
    below = vb & _U64(3)  # 4 (value - s), rounded to odd
    tie = (below < 2) | ((below == 2) & ((s & _U64(1)) == 0))
    longer = s + ~((uin & ~win) | ((uin == win) & tie))
    return longer + shorter * (tp10 - _U64(10) * upin - longer), k.view(np.int64)


def _digit_rows(digits):
    """The 17 digit characters of each positive ``digits`` < 10**17, left-aligned
    with trailing zeros, one row per place, and the number of digits.

    Each place is the integer part of a fixed-point product with 57 bits
    of fraction, exact for 9 and 8 places (10**17 < 2**57).
    """
    size = 17 - (digits < _U64(10 ** 16)).astype(np.int64)
    short = digits < _U64(10 ** 15)  # only subnormals
    if short.any():
        size[short] = np.searchsorted(_POW10[1:], digits[short], side="right") + 1
    left = digits * _POW10[17 - size]
    upper = left // _U64(10 ** 8)
    rows = np.empty((17, len(digits)), dtype=np.uint8)
    for first, places, part in ((0, 9, upper), (9, 8, left - upper * _U64(10 ** 8))):
        y = part * _U64(-(-(1 << 57) // 10 ** (places - 1)))
        rows[first] = y >> 57
        for row in range(first + 1, first + places):
            y = (y & _FRAC57) * _U64(10)
            rows[row] = y >> 57
    rows += ord("0")
    return rows, size


def _scientific(rows, significant, e):
    """Slots 1 to 23 of values written d.ddde±XX: their digit rows, significant
    digits and decimal exponents."""
    text = np.zeros((_SLOTS - 1, len(e)), dtype=np.uint8)
    text[0] = rows[0]
    text[1] = (significant > 1) * np.uint8(ord("."))
    text[2:18] = rows[1:] * (_SLOT[1:17] < significant)
    text[18] = ord("e")
    text[19] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    text[20] = (e >= 100) * (ord("0") + e // 100)
    text[21] = ord("0") + e // 10 % 10
    text[22] = ord("0") + e % 10
    return text


def _slots(values: np.ndarray, nan: str, tail: int) -> np.ndarray:
    """The text of each value of the flat array ``values`` as ``repr`` writes it
    (``nan`` for a NaN), one row per slot and ``tail`` zero rows after them."""
    bits = values.view(_U64)
    magnitude = bits & _M63
    regular = (magnitude > 0) & (magnitude < _INF)
    # a zero, an infinity and a NaN are laid out as 1.0, then changed
    digits, k = _digits(np.where(regular, magnitude, _ONE))
    rows, size = _digit_rows(digits)
    rows[0][magnitude == 0] = ord("0")
    decpt = k + size  # the value is 0.d1d2...d17 * 10**decpt
    significant = np.ones(len(values), dtype=np.uint8)
    for i in range(1, 17):
        np.maximum(significant, (rows[i] != ord("0")) * np.uint8(i + 1), out=significant)
    whole = (decpt >= 1) & (decpt <= 16)
    point = np.where(whole, decpt, 255).astype(np.uint8)  # the slot before digit decpt
    kept = np.maximum(significant, whole * (point + np.uint8(1)))  # with "0" after the point
    zeros = np.where((decpt > -4) & (decpt < 1), 2 - decpt, 0).astype(np.uint8)
    out = np.zeros((_SLOTS + tail, len(values)), dtype=np.uint8)
    out[0] = (bits > _M63) * np.uint8(ord("-"))
    out[1:6] = _ZEROS * (_SLOT[:5] < zeros)
    held = np.zeros((19, len(values)), dtype=np.uint8)
    held[1:18] = rows * (_SLOT[:17] < kept)
    before, after = held[1:], held[:18]  # per slot j, digit j and digit j - 1
    body = after + (_SLOT < point) * (before - after)
    body += (_SLOT == point) * (np.uint8(ord(".")) - body)
    out[6:_SLOTS] = body
    sci = np.flatnonzero((decpt <= -4) | (decpt > 16))
    if sci.size:
        out[1:_SLOTS, sci] = _scientific(rows[:, sci], significant[sci], decpt[sci] - 1)
    specials = ((magnitude > _INF, nan), (bits == _INF, "inf"), (bits == _INF | ~_M63, "-inf"))
    for at, text in specials:
        at = np.flatnonzero(at)
        out[:_SLOTS, at] = 0
        out[:len(text), at] = np.array(list(text.encode()), dtype=np.uint8)[:, None]
    return out


def _kernel_join(values: np.ndarray, sep: bytes, end: bytes, nan: str) -> bytes:
    """``join`` of a C-contiguous float64 array by the kernel alone."""
    n_cols = values.shape[1]
    tail = max(len(sep), len(end))
    ends = [list(text.ljust(tail, b"\0")) for text in (sep, end)]
    ends = np.array(ends[:1] * (n_cols - 1) + ends[1:], dtype=np.uint8).reshape(n_cols, tail).T
    step = max(1, _CHUNK // n_cols)
    parts = []
    for start in range(0, len(values), step):
        block = values[start:start + step]
        out = _slots(block.reshape(-1), nan, tail)
        out[_SLOTS:] = np.tile(ends, len(block))
        text = out.T.reshape(-1)
        parts.append(text[text != 0].tobytes())
    return b"".join(parts)


# The largest share of odd values at which join writes through orjson. Above
# it, splicing in the odd values' text costs more than the kernel saves.
_ODD_SHARE = 0.1
_MARK = b"1e300"  # orjson's text of 1e300, which stands in for each odd value


def join(values, sep: str, end: str, nan: str = "nan") -> str:
    """The rows of the 2-D float array ``values`` as text: each value as ``repr``
    writes it, followed by ``sep``, or by ``end`` after the last of a row,
    and a NaN as ``nan``, which must hold no comma or line end, where the
    text below is cut. The rows must not be empty; the text is ASCII.

    orjson writes the shortest round-trip digits in ``repr``'s layout for
    every value but the odd ones (non-finite, nonzero below 1e-4 or at least
    1e16 in magnitude), so it writes the array with 1e300 for each odd value,
    its text is cut into rows once, and the kernel's text of the odd values
    replaces those, in order, in the rows that hold them, before any
    separator is written. With more than ``_ODD_SHARE`` of the values odd,
    or one column, the kernel writes them all.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return ""
    magnitude = np.abs(values)
    odd = ((magnitude < 1e-4) & (values != 0)) | ~(magnitude < 1e16)
    n_odd = np.count_nonzero(odd)
    sep, end = sep.encode(), end.encode()
    # one value a row costs orjson more in brackets than it saves
    if n_odd > _ODD_SHARE * values.size or values.shape[1] == 1:
        return _kernel_join(values, sep, end, nan).decode("ascii")
    text = orjson.dumps(np.where(odd, 1e300, values), option=orjson.OPT_SERIALIZE_NUMPY)
    rows = text[2:-2].split(b"],[")
    held = np.flatnonzero(odd.any(axis=1)).tolist()  # the rows that hold an odd value
    if held:  # those rows one a line, each marker replaced by the kernel's text of its value
        # one text a line, and after the last line b"", which follows the last piece
        texts = _kernel_join(values[odd][:, None], b"", b"\n", nan).split(b"\n")
        pieces = b"\n".join([rows[i] for i in held]).split(_MARK)
        spliced = b"".join(itertools.chain.from_iterable(zip(pieces, texts)))
        for i, row in zip(held, spliced.split(b"\n")):
            rows[i] = row
    if sep != b",":
        rows = [row.replace(b",", sep) for row in rows]
    rows.append(b"")  # for the last row's end
    return end.join(rows).decode("ascii")


_NUMBER_BYTES = b"0123456789+-.eE, \t\n"
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![.0-9eE])")


def read_rows(parts, width: int):
    """The CSV text ``parts``, each of whole lines, as an N x ``width`` float
    array, each cell as ``float`` reads it and an empty cell as NaN, or None.

    orjson reads each part as one JSON array of rows, in memory that the
    part before freed. Where that gives None, for any reason, it reads the
    part once more with each empty cell written ``null``, which numpy reads
    as ``np.nan``'s bits, and without its empty lines, which the row loop
    skips too. A cell that is neither empty nor a JSON number (``+1``,
    ``.5``, ``01``, ``nan``, a blank), a ragged line, a line of only
    spaces or tabs, a lone CR and a number too large for a float give
    None. So does ``-0``, which orjson reads as the integer 0; it is
    looked for only where a zero was read.
    """
    pieces = []
    for part in parts:
        values = _read_piece(part, width)
        if values is None:
            return None
        pieces.append(values)
    return np.concatenate(pieces) if pieces else None


def _read_piece(piece: str, width: int):
    try:
        text = piece.encode("ascii")
    except UnicodeEncodeError:
        return None
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n")
    if text.translate(None, _NUMBER_BYTES):  # a lone CR too: it ends a line, JSON skips it
        return None
    values = _read_lines(text, width)
    if values is None:  # once more, with empty cells and empty lines as the row loop reads them
        values = _read_lines(b"\n".join(filter(None, map(_nulled, text.split(b"\n")))), width)
    return values


def _read_lines(text: bytes, width: int):
    """The checked ASCII ``text``, LF line ends, as orjson reads it, or None."""
    if not text:
        return np.empty((0, width))
    wrapped = b"[[" + text.rstrip(b"\n").replace(b"\n", b"],[") + b"]]"
    try:
        values = np.array(orjson.loads(wrapped), dtype=float)
    except ValueError:  # orjson's JSONDecodeError, or numpy's on ragged rows
        return None
    if values.shape[1:] != (width,):
        return None
    if not values.all() and _INTEGER_MINUS_ZERO.search(text):
        return None
    return values


def _nulled(line: bytes) -> bytes:
    """The CSV line ``line``, without its line end, with ``null`` in each empty cell.

    Per line, not on a part's joined text, where finding a comma beside a
    line end costs two more full scans of the text.
    """
    if b",," in line:
        line = line.replace(b",,", b",null,").replace(b",,", b",null,")  # once leaves ",,,"
    if line.startswith(b","):
        line = b"null" + line
    if line.endswith(b","):
        line += b"null"
    return line
