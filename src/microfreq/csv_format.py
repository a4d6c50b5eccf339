"""CSV rows of ``%.15e`` floats and one-digit ``%d`` flags, formatted a block
of rows at a time with numpy and byte for byte equal to Python's ``%``.

``%.15e`` prints 16 significant digits, correctly rounded (half to even) from
the double's exact value. For each finite nonzero cell x the digit step
(after Loitsch, "Printing floating-point numbers quickly and accurately with
integers", PLDI 2010) takes e = floor(log10|x|) and m = |x| * 10**(15 - e)
in double-double arithmetic: the power of ten comes from a table of
double-double powers built exactly from Python integers, the product from
Dekker's exact two-product ("A floating-point technique for extending the
available precision", 1971). The digits are m rounded to a 16-digit
integer; where log10 put e one off, m is recomputed with the neighbouring e.
m is then within about 1e-15 of the exact product, so its rounding is
decided unless m lies within ``_TIE_MARGIN`` of a tie.

Each float then fills a fixed 24-byte slot: sign, ``d.ddddddddddddddd``,
``e±dd`` (the fast path's exponents have two digits), separator and a spare
byte, which turns into the line end's ``\n`` in a row's last slot. Each flag
fills a 2-byte slot (``d,``). The sign byte of a non-negative float and the
spare bytes are 0, so the bytes in use are the nonzero ones.

A block holding a cell the fast path cannot decide -- a non-finite value, a
magnitude outside ``1e-40 <= |x| < 1e41`` (subnormals included), an m near
a tie, a flag outside 0..9 -- is formatted whole with ``%``.
"""

from itertools import groupby

import numpy as np

FLOAT = "%.15e"
DIGIT = "%d"

_E_MIN, _E_MAX = -40, 40  # decimal exponents the fast path takes from log10
# Distance from a rounding tie, in units of the 16th digit, below which m's
# error (about 1e-15) could decide the rounding wrongly.
_TIE_MARGIN = 1e-6
# Rows gathered, formatted and written at a time, so that memory stays
# bounded by the chunk, not the file.
_WRITE_CHUNK = 64
_SPLITTER = 2.0**27 + 1.0  # Dekker's split of a double into two 26-bit halves
_M_MIN, _M_MAX = 10**15, 10**16  # the 16-digit mantissas


def _power_of_ten(k):
    """10**k as an unevaluated sum hi + lo of two doubles, both correctly
    rounded from exact integer arithmetic (int / int rounds correctly)."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    n = 10**-k
    hi = 1 / n
    num, den = hi.as_integer_ratio()
    return hi, (den - num * n) / (den * n)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


# 10**(15 - e) for e one beyond the fast-path range on either side, for the
# second pass; the high parts are kept pre-split for the two-product.
_K_MIN = 15 - _E_MAX - 1
_POW_HI, _POW_LO = np.array([_power_of_ten(k) for k in range(_K_MIN, 15 - _E_MIN + 2)]).T
_POW_HI_HI, _POW_HI_LO = _split(_POW_HI)


def _words(texts):
    """A read-only table of 4-byte ASCII words as uint32, one per text."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint8).view(np.uint32)


_PAIRS = [f"{i:02d}" for i in range(100)]
_PAIR_BYTES = np.frombuffer("".join(_PAIRS).encode("ascii"), np.uint8).reshape(100, 2)
# A float's slot is six words, each gathered from a table (0 marks a byte not
# in use): [sign, d0, ".", d1] at 100 * negative + d0d1; [d2..d5], [d6..d9]
# and [d10..d13] at the four digits; [d14, d15, "e", exponent sign] at
# 100 * (e < 0) + d14d15; [e1, e2, ",", spare] at |e|.
_HEAD = _words(sign + p[0] + "." + p[1] for sign in ("\0", "-") for p in _PAIRS)
_QUAD = np.hstack([np.repeat(_PAIR_BYTES, 100, axis=0), np.tile(_PAIR_BYTES, (100, 1))])
_QUAD = _QUAD.view(np.uint32).ravel()
_TAIL = _words(p + "e" + sign for sign in "+-" for p in _PAIRS)
_EXPONENT = _words(p + ",\0" for p in _PAIRS)
_SLOT = 24  # bytes
# A flag's slot: [d, ","] at d.
_FLAG = np.frombuffer(b"0,1,2,3,4,5,6,7,8,9,", np.uint16)


def _scaled(a, e):
    """|x| * 10**(15 - e) as a double-double (p, q)."""
    i = 15 - e - _K_MIN
    hi, hh, hl = _POW_HI[i], _POW_HI_HI[i], _POW_HI_LO[i]
    ah, al = _split(a)
    p = a * hi
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * _POW_LO[i]


def _floor_and_fraction(p, q):
    """floor(p + q) as int64 and the fraction left, for p >= 1."""
    r = np.floor(p)
    f = (p - r) + q  # p - r is exact
    g = np.floor(f)
    return r.astype(np.int64) + g.astype(np.int64), f - g


def _mantissas(x):
    """(n, e) with ``'%.15e' % x`` = n's 16 digits times 10**e, n = 0 for
    zeros; None when some cell is not decided exactly."""
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0
    e = np.floor(np.log10(a))
    if not ((e >= _E_MIN) & (e <= _E_MAX)).all():  # also nan, inf and subnormals
        return None
    e = e.astype(np.int64)
    n, frac = _floor_and_fraction(*_scaled(a, e))
    off = np.flatnonzero((n < _M_MIN) | (n >= _M_MAX))
    if off.size:
        e[off] += np.where(n[off] < _M_MIN, -1, 1)
        n[off], frac[off] = _floor_and_fraction(*_scaled(a[off], e[off]))
        if ((n[off] < _M_MIN) | (n[off] >= _M_MAX)).any():
            return None
    if (np.abs(frac - 0.5) < _TIE_MARGIN).any():
        return None
    n += frac > 0.5
    carry = n == _M_MAX  # 9.999...95 rounds up to 1.000...0 at the next exponent
    n[carry] = _M_MIN
    e[carry] += 1
    n[zero] = 0
    e[zero] = 0
    return n, e


def _divmod(a, d):
    """np.divmod for a >= 0, without the slower remainder."""
    q = a // d
    return q, a - q * d


def _float_slots(x):
    """(*x.shape, _SLOT) bytes of the cells x, or None."""
    found = _mantissas(x.ravel())
    if found is None:
        return None
    n, e = found
    high, low = _divmod(n, 10**8)  # d0..d7, d8..d15
    head, mid = _divmod(high, 10**6)  # d0d1, d2..d7
    quad1, d6d7 = _divmod(mid, 100)
    d8d9, rest = _divmod(low, 10**6)
    quad3, d14d15 = _divmod(rest, 100)
    words = np.empty((n.size, _SLOT // 4), np.uint32)
    words[:, 0] = _HEAD[np.signbit(x.ravel()) * 100 + head]
    words[:, 1] = _QUAD[quad1]
    words[:, 2] = _QUAD[d6d7 * 100 + d8d9]
    words[:, 3] = _QUAD[quad3]
    words[:, 4] = _TAIL[(e < 0) * 100 + d14d15]
    words[:, 5] = _EXPONENT[np.abs(e)]
    return words.view(np.uint8).reshape(*x.shape, _SLOT)


class CsvRows:
    """One CSV row layout: each column ``FLOAT`` or ``DIGIT``, joined by
    ``,``, rows ending in CRLF (csv's default dialect; no cell needs quoting)."""

    def __init__(self, cells):
        if cells[-1] != FLOAT:
            raise ValueError("a row must end in a float cell")
        self.template = ",".join(cells) + "\r\n"
        self._floats = [j for j, c in enumerate(cells) if c == FLOAT]
        self._digits = [j for j, c in enumerate(cells) if c == DIGIT]
        # Runs of equal cells, as (kind, start, stop) in that kind's columns.
        self._runs = []
        seen = {FLOAT: 0, DIGIT: 0}
        for kind, run in groupby(cells):
            width = len(list(run))
            self._runs.append((kind, seen[kind], seen[kind] + width))
            seen[kind] += width

    def format(self, block):
        """The bytes of the rows of ``block``, a 2-d float array with one
        column per cell, as ``self.template % row`` for every row."""
        rows = block.shape[0]
        floats = _float_slots(block[:, self._floats])
        flags = block[:, self._digits]
        if floats is None or not ((flags >= 0) & (flags <= 9) & (flags == np.floor(flags))).all():
            return self._format_exactly(block)
        flags = _FLAG[flags.astype(np.intp, order="C")].view(np.uint8).reshape(rows, -1, 2)
        slots = {FLOAT: floats, DIGIT: flags}
        line = np.concatenate(
            [slots[kind][:, start:stop].reshape(rows, -1) for kind, start, stop in self._runs],
            axis=1,
        )
        line[:, -2:] = np.frombuffer(b"\r\n", np.uint8)  # the last slot's "," and spare byte
        return line[line != 0].tobytes()

    def _format_exactly(self, block):
        """The rows through ``%``, one at a time: the fallback."""
        return "".join([self.template % tuple(r) for r in block.tolist()]).encode()


def write_csv(path, header, layout, columns):
    """Write the header line, then the rows of ``columns`` (arrays sharing
    their first axis, each one or more cells wide) formatted by ``layout``,
    a ``CsvRows``, ``_WRITE_CHUNK`` rows at a time."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), _WRITE_CHUNK):
            block = np.column_stack([c[start:start + _WRITE_CHUNK] for c in columns])
            fh.write(layout.format(block))
