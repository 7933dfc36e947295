"""CSV rows of float64 and integer columns, each float as Python ``repr``
writes it: the shortest decimal that reads back to the same float.

``csv_rows`` renders a table at numpy speed, byte for byte as
``",".join(map(repr, row))`` per row would.  A float's digits come from
its value scaled by 10^(16 - k), k = floor(log10 |v|), in double-double
arithmetic (Dekker 1971): products of |v| with a table of 10^j held as
(hi, lo) pairs, split by Veltkamp's method, so no fused multiply-add is
needed.  That gives the 17-digit integer D and a fraction f in [0, 1),
accurate to about 1e-15.  Half the spacing of the floats at |v|, scaled the
same way, bounds the interval of decimals that read back to v: more than
0.55 on each side (its lower side half as wide at a power of two) and at
most 11.1.  The nearest integer to D + f is always inside.  For t = 1 and
2 the multiples of 10^t nearest D + f below and above are tested against
the interval; the nearer one inside gives the digits ``repr`` picks
(Steele & White 1990), and a shorter decimal is also a longer one, so the
search ends at the first t with none inside.  From t = 3 on no test is
needed: a multiple of 10^t inside is a multiple of 100 inside, which the
interval holds at most one of, so the digits are the t = 2 candidate's
without its trailing zeros.

The arithmetic is not exact, so like Grisu3 (Loitsch 2010) it detects
where its answer could be wrong: a value whose scaled distance to an end
of the interval, or to a tie between two candidates, is within 1e-9, or
that lies outside 1e-270 < |v| < 1e270, or that is not finite, is rendered
by ``repr`` itself.  That is none of a million standard normal values and
about 0.2% of values spread over every exponent, nearly all between 1e11
and 1e21, where the interval's ends can fall on a candidate exactly and
the float's parity decides.

The text follows ``repr``'s notation: fixed when the first digit's
decimal exponent is from -4 to 15, with at least one digit after the
point, else d[.ddd]e+XX with at least two exponent digits.  Each field is
laid out in whole 64-bit words of one row buffer, padded with NUL bytes:
one or two words that end with the sign, the integer digits and the point,
two words of fraction digits, and a word with the last fraction digit at
its start and the exponent and the separator at its end.  Integer columns
take each row's words from a table of their distinct values.  One pass
that drops every NUL byte joins the fields into rows.
"""

from __future__ import annotations

import numpy as np

# Scaled distance to an interval end or a tie below which the digits go to repr.
_MARGIN = 1e-9
# |v| outside (_LOW, _HIGH) goes to repr: the table of 10^j covers the rest.
_LOW, _HIGH = 1e-270, 1e270
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for float64

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MANTISSA = (1 << 52) - 1
_WORD = np.dtype("<u8")


def _powers_of_ten():
    """10^j for j = -254 ... 287 as double-double, hi and lo."""
    js = range(-254, 288)
    hi, lo = [], []
    for j in js:
        if j >= 0:
            h = float(10**j)
            hi.append(h)
            lo.append(float(10**j - int(h)))
        else:
            den = 10**-j
            h = 1 / den  # int / int is correctly rounded
            num, pow2 = h.as_integer_ratio()
            hi.append(h)
            lo.append((pow2 - num * den) / (pow2 * den))
    return -js.start, np.array(hi), np.array(lo)


_TEN_OFFSET, _TEN_HI, _TEN_LO = _powers_of_ten()


def _words(strings, top: bool = False) -> np.ndarray:
    """Each byte string (at most 8 bytes) as a little-endian word, NUL padded
    after it, or before it when ``top``."""
    return np.array(
        [int.from_bytes(s.rjust(8, b"\0") if top else s, "little") for s in strings], dtype=_WORD
    )


# Four digits, zero padded, per number below 10^4: in the low half of a
# word, the first digit in byte 0, and in the high half.
_GROUPS = sum(
    ((np.arange(10**4) // 10 ** (3 - i) % 10 + ord("0")) << 8 * i).astype(_WORD) for i in range(4)
)
_GROUPS_HIGH = _GROUPS << np.uint64(32)
# Masks of a word's bytes below m, m = 0 ... 8.
_BELOW = _words(b"\xff" * m for m in range(9))

# Layouts: 0 ... 19 for fixed notation with the first digit's exponent
# E = -4 ... 15, 20 for exponent notation.  Per layout: the first digit's
# place ``lead`` (E, or 0), and for a 17-digit D the divisor that leaves
# the integer part and the factor that turns the rest into the fraction
# digits as a 17-digit integer, leading zeros included.
_EXP_SPAN = 400  # exponents -400 ... 400 index the tables by exponent
_LAYOUT = np.array([e + 4 if -4 <= e <= 15 else 20 for e in range(-_EXP_SPAN, _EXP_SPAN + 1)])
_LEAD = np.append(np.arange(-4, 16), 0)
_STEP = _POW10[np.minimum(16 - _LEAD, 17)]
_SCALE = _POW10[np.maximum(_LEAD + 1, 0)]


def _kind_tables():
    """Per kind = 18 layout + number of digits, the fraction digits kept;
    per 2 kind + negative, the sign, zero and point bytes that end the
    integer words; and per layout, the mask of the integer digits there.
    The integer words' tables are (2, ...): bytes 0-7 and 8-15 of 16."""
    kept, marks, digit_masks = [], [], []
    for layout, lead in enumerate(_LEAD.tolist()):
        fixed = layout < 20
        ahead = max(lead, 0)
        mask = b"\xff" * (ahead + 1) + b"\0" if lead >= 0 else b"\0"
        digit_masks.append(int.from_bytes(mask.rjust(16, b"\0")[-16:], "little"))
        for count in range(18):
            if fixed:
                kept.append(max(count - lead - 1, 1) if lead >= 0 else count)
            else:
                kept.append(count - 1)
            for neg in (0, 1):
                if lead < 0:
                    text = b"0." + b"0" * (-lead - 1)
                else:
                    text = b"\0" * (ahead + 1) + (b"." if fixed or count > 1 else b"\0")
                text = (b"-" if neg else b"") + text
                marks.append(int.from_bytes(text.rjust(16, b"\0")[-16:], "little"))
    split = lambda values: np.array(
        [[v & (2**64 - 1), v >> 64] for v in values], dtype=_WORD
    ).T.copy()
    return np.array(kept), split(marks), split(digit_masks)


_KEPT, _MARKS, _DIGIT_MASKS = _kind_tables()
# The fraction words' masks for 0 ... 17 kept digits; the third keeps the
# exponent and separator bytes from byte 2 on.
_FRACTION_MASKS = np.stack([
    _BELOW[np.clip(np.arange(18) - 8 * j, 0, 8)] for j in range(3)
])
_FRACTION_MASKS[2] |= ~_BELOW[2]


def csv_rows(columns) -> bytes:
    """The rows of ``columns`` (equal-length 1-D arrays) as CSV text.

    A float column is written as ``repr`` writes each value; an integer or
    boolean column as ``str`` of each value as an integer.  Fields are
    separated by commas and each row ends with a newline.
    """
    n = len(columns[0])
    if n == 0:
        return b""
    fields = []
    for i, column in enumerate(columns):
        sep = b"\n" if i == len(columns) - 1 else b","
        column = np.asarray(column)
        if column.dtype.kind == "f":
            fields.extend(_float_words(column.astype(float), sep))
        else:
            fields.extend(_int_words(column.astype(np.int64), sep))
    text = np.stack(fields, axis=1).view(np.uint8)
    return text[text != 0].tobytes()


def _int_words(values: np.ndarray, sep: bytes) -> list:
    """Word columns of each value's decimal and ``sep``, from one string per
    distinct value."""
    distinct, index = np.unique(values, return_inverse=True)
    strings = [str(v).encode() + sep for v in distinct.tolist()]
    width = -(-max(map(len, strings)) // 8)
    table = np.frombuffer(b"".join(s.ljust(8 * width, b"\0") for s in strings), dtype=_WORD)
    table = table.reshape(-1, width).T.copy()
    return [t[index.ravel()] for t in table]


def _float_words(v: np.ndarray, sep: bytes) -> list:
    """Word columns of each value's ``repr`` and ``sep``: one or two words
    ending with the sign, the integer digits and the point, two of fraction
    digits, and one of the last fraction digit, the exponent and ``sep``."""
    a = np.abs(v)
    fast = (a > _LOW) & (a < _HIGH)
    zero = a == 0.0
    # The rest take 1.0's layout, one digit at exponent 0; zero's digit is 0.
    digits, exp10, count, slow = _shortest(np.where(fast, a, 1.0))
    digits[zero] = 0
    slow |= ~(fast | zero)
    neg = np.signbit(v)

    layout = _LAYOUT[exp10 + _EXP_SPAN]
    kind = layout * 18 + count
    step = _STEP[layout]
    integer = digits // step
    fraction = (digits - integer * step) * _SCALE[layout]
    top = fraction // 10**9
    rest = fraction - top * 10**9
    mid = rest // 10
    kept = _KEPT[kind]
    words = [
        _digits8(top) & _FRACTION_MASKS[0][kept],
        _digits8(mid) & _FRACTION_MASKS[1][kept],
        ((rest - mid * 10).astype(_WORD) + np.uint64(ord("0"))) & _FRACTION_MASKS[2][kept]
        | _EXPONENTS[sep][exp10 + _EXP_SPAN],
    ]

    # The integer words: sign, integer digits and point, ending at byte 7
    # where they fit one word, else at byte 15.  An integer part from 1e14
    # on may not fit two, and goes to repr.
    slow |= integer >= 10**14
    marks = 2 * kind + neg
    if int((_LEAD[layout] + neg).max()) < 7:
        whole = _digits8(integer) >> np.uint64(8)
        words[:0] = [(whole & _DIGIT_MASKS[1][layout]) | _MARKS[1][marks]]
    else:
        high = integer // 10**8
        w0, w1 = _digits8(high), _digits8(integer - high * 10**8)
        w0 = (w0 >> np.uint64(8)) | (w1 << np.uint64(56))
        w1 = w1 >> np.uint64(8)
        words[:0] = [
            (w0 & _DIGIT_MASKS[0][layout]) | _MARKS[0][marks],
            (w1 & _DIGIT_MASKS[1][layout]) | _MARKS[1][marks],
        ]

    # repr's text, at most 24 bytes: its first byte ends the integer words
    # and the rest fills the fraction words before ``sep``.
    *whole, w0, w1, w2 = words
    for i in np.flatnonzero(slow).tolist():
        text = repr(float(v[i])).encode()
        for word in whole:
            word[i] = 0
        whole[-1][i] = text[0] << 56
        rest = text[1:].ljust(23, b"\0") + sep
        for j, word in enumerate((w0, w1, w2)):
            word[i] = int.from_bytes(rest[8 * j : 8 * j + 8], "little")
    return words


def _digits8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10^8, zero padded, as one word."""
    high = x // 10**4
    return _GROUPS[high] | _GROUPS_HIGH[x - high * 10**4]


def _exponent_words(sep: bytes) -> np.ndarray:
    """Per exponent E from -400 to 400, the word that ends with E's e+XX
    text and ``sep``, or with ``sep`` alone where repr writes fixed notation."""
    exponents = range(-_EXP_SPAN, _EXP_SPAN + 1)
    return _words((sep if -4 <= e <= 15 else f"e{e:+03d}".encode() + sep for e in exponents), top=True)


_EXPONENTS = {sep: _exponent_words(sep) for sep in (b",", b"\n")}


def _shortest(a: np.ndarray):
    """The shortest digits of each positive a in (1e-270, 1e270) that read
    back to a, as (17-digit integer, decimal exponent of its first digit,
    number of significant digits, whether repr must decide)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    digits, frac, scale = _scaled(a, k)
    # log10 can round across a power of ten: move k where D left [1e16, 1e17).
    for _ in range(2):
        off = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
        redo = np.flatnonzero(off)
        if not redo.size:
            break
        k[redo] += off[redo]
        digits[redo], frac[redo], scale[redo] = _scaled(a[redo], k[redo])

    bits = a.view(np.int64)
    half_ulp = (((bits >> 52) - 53) << 52).view(float)
    above = half_ulp * scale
    below = above.copy()
    np.multiply(above, 0.5, out=below, where=bits & _MANTISSA == 0)  # a power of two
    # Distances surely inside, and inside or too near to tell, per side.
    bounds = (below - _MARGIN, below + _MARGIN, above - _MARGIN, above + _MARGIN)

    # t = 0: the nearest integer is inside, for each side of the interval
    # is more than 0.55 wide, unless D + f is a tie.
    slow = np.abs(frac - 0.5) <= _MARGIN
    best = digits + (frac > 0.5)
    places = np.zeros(len(a), dtype=np.int64)
    # t = 1 and 2: up to three multiples of 10 may be inside, and one of 100.
    alive = ~slow
    for t in (1, 2):
        inside, unsure, candidate = _nearest(digits, frac, bounds, int(_POW10[t]))
        slow |= unsure & alive
        alive &= inside & ~unsure
        best = np.where(alive, candidate, best)
        places += alive
    # t >= 3: a multiple of 10^t inside is a multiple of 100 inside, and the
    # interval, at most 22.2 wide, holds one at most, so the digits are those
    # of the candidate for t = 2 with its trailing zeros dropped.
    rows = np.flatnonzero(alive)
    rest = best[rows] // 100
    zeros = np.zeros(len(rows), dtype=np.int64)
    for j in (8, 4, 2, 1):
        step = int(_POW10[j])
        cut = rest % step == 0
        rest = np.where(cut, rest // step, rest)
        zeros += j * cut
    places[rows] += zeros

    carry = best == 10**17
    best[carry] = 10**16
    count = np.where(carry, 1, 17 - places)
    return best, k + carry, count, slow


def _nearest(digits, frac, bounds, step: int):
    """Whether a multiple of ``step`` (10 or 100) is inside the interval
    around D + f, whether that is too near to tell, and the nearer such
    multiple."""
    below_in, below_out, above_in, above_out = bounds
    high = digits // step
    rem = digits - high * step
    down = rem + frac
    up = step - down
    in_down, in_up = down < below_in, up < above_in
    near_down, near_up = down <= below_out, up <= above_out
    tie = (np.abs(down - 0.5 * step) <= _MARGIN) & near_down & near_up
    unsure = (in_down ^ near_down) | (in_up ^ near_up) | tie
    take_up = in_up & (~in_down | (up < down))
    return in_down | in_up, unsure, (high + take_up) * step


def _scaled(a: np.ndarray, k: np.ndarray):
    """a 10^(16 - k) as the integer D and the fraction in [0, 1), and the
    high part of 10^(16 - k)."""
    j = 16 - k + _TEN_OFFSET
    hi, lo = _TEN_HI[j], _TEN_LO[j]
    big = hi * _SPLIT
    hh = big - (big - hi)
    hl = hi - hh
    p = a * hi
    big = a * _SPLIT
    ah = big - (big - a)
    al = a - ah
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a hi - p, exactly
    rest = err + a * lo
    floor = np.floor(rest)
    # p is an integer where the product is at least 2^53; where it is not,
    # k is off by one and the caller moves it.
    digits = p.astype(np.int64) + floor.astype(np.int64)
    return digits, rest - floor, hi
