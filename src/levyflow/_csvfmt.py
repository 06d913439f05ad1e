"""``'%.17g' % x`` for a whole float array at once: the CSV writer's cells.

``format_rows`` gives, byte for byte, the lines that formatting each cell
with ``'%.17g'`` and joining them by ',' and '\\n' would give, without one
dtoa call per cell.

For |x| in [1e-200, 1e200], with k = floor(log10 |x|), the 17 significant
digits are D = round(|x| 10^(16 - k)).  The product is taken with Dekker's
split product ("A floating-point technique for extending the available
precision", Numer. Math. 18, 1971) against a double-double table of powers
of ten, so its error is below 1e-14 and its rounding is certain unless the
fraction lies within 1e-9 of one half.  Just below 10^k, log10 can round
up to k, which puts D below 10^16; those cells take a second pass at k - 1.
D goes to ASCII four digits at a time through a table.

Each cell is laid out in 48 fixed bytes, 8-byte words built from tables:

    sign "0.000" d0 .  d1 . d2 . ... d16 .  e +hto sep

with every digit followed by a point.  This holds the ``%g`` form of every
layout: fixed notation for -4 <= X < 17 (X the decimal exponent after
rounding), exponent notation otherwise.  A mask per (layout, number of
digits up to the last nonzero one), also a table, keeps the bytes of the
cell's form and zeroes the rest: the other points, the unused prefix or
exponent, trailing zeros of the fraction and a point with nothing after it.
The zero bytes of a whole chunk are then removed at once.

A cell the kernel cannot certify is formatted by ``'%.17g'`` itself: 0,
+-inf and nan, |x| outside [1e-200, 1e200], a rounding within 1e-9 of a tie,
and a D still outside [10^16, 10^17) after the second pass.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows"]

_P_MIN, _P_MAX = -185, 217  # 16 - k over the range, with one to spare each way
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_TIE = 1e-9
_EXPONENT = 21  # the layout of exponent notation; X + 4 is fixed notation's
_E_OFF = 256  # exponent-word index of X = 0


def _words(cells) -> np.ndarray:
    """Byte strings of 8 bytes each, as native uint64 words."""
    return np.frombuffer(b"".join(cells), np.uint64)


def _masks() -> np.ndarray:
    """The 48-byte masks, 255 on the bytes kept, of a cell in layout c whose
    digits up to the last nonzero one number q, at row 18 c + q."""
    c = np.arange(_EXPONENT + 1)[:, None, None]
    x, q, j = c - 4, np.arange(18)[:, None], np.arange(48)
    i = (j - 6) // 2  # digit i is byte 6 + 2 i, and its point follows it
    digit = (j >= 6) & (j < 40) & (j % 2 == 0)
    point = (j >= 7) & (j < 40) & (j % 2 == 1)
    expo, fixed = c == _EXPONENT, (x >= 0) & (c != _EXPONENT)
    on = (j == 0) | (j == 45) | digit & ((i < q) | fixed & (i <= x))
    on |= point & (fixed & (i == x) | expo & (i == 0)) & (q > i + 1)
    on |= expo & (j >= 40) & (j < 45)
    on |= (x < 0) & ((j == 1) | (j == 2) | (j >= 3) & (j < 2 - x))
    return np.where(on, 255, 0).astype(np.uint8).view(np.uint64).reshape(-1, 6)


@functools.cache
def _powers():
    """10^p for _P_MIN <= p <= _P_MAX as double-doubles hi + lo, with hi's
    two halves for Dekker's product, built from Python ints on first use."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            h = float(10 ** p)
            lo.append(float(10 ** p - int(h)))
        else:
            n = 10 ** -p
            h = 1 / n  # int true division rounds correctly
            a, b = h.as_integer_ratio()
            lo.append((b - a * n) / (b * n))
        hi.append(h)
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, lo


@functools.cache
def _tables():
    """The word tables of the cell layout and its masks, built on first use:
    4 digits and their points, D's trailing zeros in 4 digits, the sign,
    prefix and first digit, the exponent by X, the two separators, and the
    mask row of each X's layout for no trailing zero."""
    i = np.arange(10000)
    digits4 = np.full((10000, 8), ord("."), np.uint8)
    digits4[:, 0::2] = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], 1) + 48
    trailing = sum((i % 10 ** m == 0).astype(np.int8) for m in range(1, 5))
    lead = _words(bytes([s, 48, 46, 48, 48, 48, 48 + f, 46]) for s in (0, 45) for f in range(10))
    expo = [b"e%+03d" % x for x in range(-_E_OFF, _E_OFF)]
    expo = _words(e[:2] + e[2:].rjust(3, b"\0") + bytes(3) for e in expo)
    seps = _words([bytes(5) + b",\0\0", bytes(5) + b"\n\0\0"])
    x = np.arange(-_E_OFF, _E_OFF)
    layout = 18 * np.where((x >= -4) & (x < 17), x + 4, _EXPONENT) + 17
    return digits4.view(np.uint64).ravel(), trailing, lead, expo, seps, _masks(), layout


def _scaled(ax: np.ndarray, k: np.ndarray):
    """(D, frac) of ax 10^(16 - k) for positive ax: its integer part D and
    its fraction in [0, 1), to the error of the double-double product."""
    hi, hi_hi, hi_lo, lo = _powers()
    p = 16 - k - _P_MIN
    # ax * hi = prod + err exactly (Dekker), and D = prod + err + ax * lo
    prod = ax * hi[p]
    c = _SPLIT * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    b_hi, b_lo = hi_hi[p], hi_lo[p]
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    low = err + ax * lo[p]
    whole = np.floor(low)
    frac = low - whole
    up = frac == 1.0  # a low just below 0 rounds to it
    return prod.astype(np.int64) + whole.astype(np.int64) + up, np.where(up, 0.0, frac)


def _digits(x: np.ndarray):
    """(ok, D, X) for the float array x: where ok, D is |x| rounded to 17
    significant digits, 10^16 <= D < 10^17, and X its decimal exponent, so
    that |x| = D 10^(X - 16) to 17 digits.  ok is false for the cells whose
    rounding the kernel cannot certify."""
    ax = np.abs(x)
    ok = (ax >= 1e-200) & (ax <= 1e200)  # false for 0, inf and nan
    ax[~ok] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, frac = _scaled(ax, k)
    # just below 10^k, log10 can round up to k: one more pass at k - 1
    low = np.flatnonzero(d < 10 ** 16)
    if low.size:
        k[low] -= 1
        d[low], frac[low] = _scaled(ax[low], k[low])
    ok &= (d >= 10 ** 16) & (d < 10 ** 17) & (np.abs(frac - 0.5) >= _TIE)
    d = np.where(ok, d + (frac > 0.5), 10 ** 16)
    carry = d == 10 ** 17  # 99...9.5 rounds into the next decade
    d[carry] = 10 ** 16
    return ok, d, k + carry


def format_rows(rows: np.ndarray) -> bytes:
    """The CSV lines of the 2-D float array ``rows``: each cell is
    ``'%.17g' % x``, cells are joined by ',' and each row ends in '\\n'."""
    digits4, trailing, lead, expo, seps, masks, layout = _tables()
    x = np.ascontiguousarray(rows, dtype=float).ravel()
    ok, d, xp = _digits(x)
    xp += _E_OFF  # X's row in the exponent and layout tables
    first, rest = np.divmod(d, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    groups = np.empty((x.size, 4), np.int64)  # D's digits 1-16, four at a time
    np.divmod(upper, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lower, 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    cells = np.empty((x.size, 6), np.uint64)
    cells[:, 0] = lead[first + 10 * np.signbit(x)]
    cells[:, 1:5] = digits4[groups]
    sep = np.full(rows.shape[1], seps[0])
    sep[-1] = seps[1]
    cells[:, 5] = (expo[xp].reshape(rows.shape) | sep).ravel()
    tz = trailing[groups]
    zeros = tz[:, 0]  # D's trailing zeros: a group's count, plus the next if it is 0000
    for j in range(1, 4):
        zeros = tz[:, j] + (tz[:, j] == 4) * zeros
    cells &= np.take(masks, layout[xp] - zeros, axis=0)

    text = cells.view(np.uint8)
    for i in np.flatnonzero(~ok):
        cell = b"%.17g" % x[i]
        text[i, :45] = 0
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return text.tobytes().translate(None, b"\0")
