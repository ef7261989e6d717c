"""Deterministic CSV emission (bit-identical output for identical inputs).

Three writers: write_columns writes one line per row of equal-length
columns, write_csv one line per row of numbers (through write_columns), and
write_long_csv the long-format lines "key,i,values" of records whose rows
all have one length n, as a chain's records all hold its N sites. Every
value is written as '%.17g' % float(x), so an int below 2**53 reads as its
digits and a bool as 1/0. All three format through one array kernel,
_float_fields, which yields the exact bytes of '%.17g' for a whole block of
values at once:

- k = floor(log10|x|) estimates the decimal exponent, and |x| 10^(16-k) is
  formed in double-double arithmetic: a table of 10^j as hi + lo (built with
  exact integer arithmetic) and Dekker's exact product, so the fraction of the
  product is known to about 1e-14;
- D = rint of it is the 17-digit significand when 1e16 < D < 1e17: then k is
  the true exponent and no carry rounds D up to 1e17; its digits are read four
  at a time from a lookup table;
- %g's fixed or scientific text, trailing zeros stripped, is laid out in a
  fixed-width field of 52 bytes by one table mask keyed on (exponent, sign,
  significant digits); the zero bytes are fill, dropped when the block is
  written.

A value the fast path cannot prove falls back to '%.17g' % x: zero, inf, NaN,
|k| > _K_MAX (whose 10^(16-k) would leave the double range), a product not
strictly inside (1e16, 1e17), and a fraction within 1e-6 of 1/2, where the
rounding could tie. Every writer formats and writes its lines in blocks of
at most _BLOCK_BYTES of fields; write_long_csv slices its records' rows into
a block and never stacks them, so the writers' memory stays bounded whatever
the table's size.
"""

from __future__ import annotations

import os

import numpy as np

# bound on the field bytes (52 a value) of one block of lines: 2520 lines of
# the snapshot file, whose arrays stay within a few hundred KiB
_BLOCK_BYTES = 384 << 10
_K_MAX = 280  # largest |decimal exponent| of the fast path
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter for 53-bit doubles
_CELLS = 13  # uint32 cells, 52 bytes, of one value's field

# A field is [sep '-' '0' d0..d16 | '.' '0' '0' '0' | fill fill fill d0..d16 |
# exponent text]: the first copy of the digits is the integer part, the
# second the fraction; the mask keeps, per row, the bytes its text uses.
_INT, _POINT, _FRAC, _EXP = 3, 20, 27, 44


def _pow10():
    """(hi, lo, hi's Dekker halves) of 10^(16-k) for k = -_K_MAX.._K_MAX:
    hi is 10^j rounded to a double and lo the rounded remainder."""
    hi, lo = [], []
    for k in range(-_K_MAX, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den  # int true division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, np.array(lo), hh, hi - hh


def _cells(texts):
    """Concatenated ASCII texts, each a multiple of 4 bytes, as uint32 cells."""
    return np.frombuffer("".join(texts).encode("ascii"), np.uint8).view(np.uint32)


def _quads():
    """Cells of the texts 0000..9999, and the count of their trailing zeros."""
    i = np.arange(10000, dtype=np.int16)
    digits = np.stack([i // 10**j % 10 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    return (digits + ord("0")).view(np.uint32)[:, 0], trailing


def _masks():
    """Keep-masks of a field as (cell, key) uint32, key = 36 case + 18 neg + nsig:
    case 0..20 is fixed notation with exponent case - 4, case 21 scientific;
    nsig counts the digits left after the trailing zeros."""
    case, neg, nsig, b = np.ix_(np.arange(22), np.arange(2), np.arange(18), np.arange(4 * _CELLS))
    ip = np.where(case == 21, 0, np.maximum(case - 4, -1))  # last integer digit
    zeros = np.maximum(-(case - 4) - 1, 0) * (case < 4)  # after "0." when ip < 0
    keep = (
        (b == 0)
        | ((b == 1) & (neg == 1))
        | ((b == 2) & (ip < 0))
        | ((b >= _INT) & (b <= _INT + ip))
        | ((b == _POINT) & (nsig > ip + 1))
        | ((b > _POINT) & (b <= _POINT + zeros))
        | ((b > _FRAC + ip) & (b < _FRAC + nsig))
        | (b >= _EXP)
    )
    masks = (keep * np.uint8(255)).astype(np.uint8).reshape(-1, 4 * _CELLS)
    return masks.view(np.uint32).T.copy()


_HI, _LO, _HH, _HL = _pow10()
_QUAD, _TRAILING = _quads()
_LEAD = _cells(",-0%d" % d for d in range(10))  # cell 0 of both digit copies
_POINTS = _cells([".000"])[0]
_EXPONENT = _cells(
    ("e%+03d" % x if not -4 <= x <= 16 else "").ljust(8, "\0") for x in range(-_K_MAX, _K_MAX + 1)
).reshape(-1, 2).T.copy()
# key of each exponent before the sign and the digit count are added
_CASE = np.array([36 * (x + 4 if -4 <= x <= 16 else 21) for x in range(-_K_MAX, _K_MAX + 1)])
_MASKS = _masks()
_FALLBACK_CELLS = 7  # ',' and the longest '%.17g' text, 25 bytes


def _float_fields(x) -> np.ndarray:
    """(x.size, w) uint32, w <= 13: row i holds ',' + '%.17g' % x.flat[i] with
    zero fill, in the cells of the layout that some value of x uses."""
    x = np.ravel(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.abs(x)
        k = np.floor(np.log10(a))
        ok = np.abs(k) <= _K_MAX
        ki = np.where(ok, k, 0.0).astype(np.intp) + _K_MAX
        a = np.where(ok, a, 1.0)
        # |x| 10^(16-k) = p + t exactly up to the table's lo and one rounding
        p = a * _HI.take(ki)
        c = _SPLIT * a
        ah = c - (c - a)
        al = a - ah
        hh, hl = _HH.take(ki), _HL.take(ki)
        t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _LO.take(ki)
        r = np.rint(t)
        ok &= np.abs(t - r) < 0.5 - 1e-6
        d = p.astype(np.int64) + r.astype(np.int64)
    ok &= (d > 10**16) & (d < 10**17)
    bad = np.flatnonzero(~ok)
    d[bad] = 10**16  # harmless digits; the fallback overwrites these rows
    q = d // 10**8
    lo8 = d - q * 10**8
    lead = q // 10**8
    hi8 = q - lead * 10**8
    g1 = hi8 // 10**4
    g3 = lo8 // 10**4
    groups = (g1, hi8 - g1 * 10**4, g3, lo8 - g3 * 10**4)

    trailing = _TRAILING.take(groups[3])
    z = np.flatnonzero(groups[3] == 0)
    if z.size:
        g1z, g2z, g3z = (g[z] for g in groups[:3])
        trailing[z] += _TRAILING[g3z] + (g3z == 0) * (_TRAILING[g2z] + (g2z == 0) * _TRAILING[g1z])
    key = _CASE.take(ki) + 17 - trailing
    key += 18 * np.signbit(x)

    used = np.bitwise_or.reduce(_MASKS.take(np.flatnonzero(np.bincount(key)), axis=1), axis=1)
    if bad.size:
        used[:_FALLBACK_CELLS] = 1
    cells = np.flatnonzero(used).tolist()
    lead_cell = _LEAD.take(lead)
    quads = [_QUAD.take(g) for g in groups]
    fields = np.empty((x.size, len(cells)), np.uint32)
    for i, cell in enumerate(cells):
        if cell in (0, 6):
            source = lead_cell
        elif cell == 5:
            source = _POINTS
        elif cell > 10:
            source = _EXPONENT[cell - 11].take(ki)
        else:
            source = quads[cell % 6 - 1]
        np.bitwise_and(source, _MASKS[cell].take(key), out=fields[:, i])
    if bad.size:
        texts = ["," + ("%.17g" % v).ljust(4 * _CELLS - 1, "\0") for v in x[bad].tolist()]
        fields[bad] = _cells(texts).reshape(-1, _CELLS)[:, cells]
    return fields


def _open(path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb")


def _write_rows(f, cells) -> None:
    """Write rows of uint32 cells whose first byte starts a line: the separator
    there becomes the newline, and the fill bytes are dropped."""
    b = cells.view(np.uint8)
    b[:, 0] = ord("\n")
    f.write(b.tobytes().translate(None, b"\0"))


def write_columns(path, header, columns) -> None:
    """One line per row of the equal-length float columns, one per header name."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    m = len(columns)
    lengths = sorted({len(c) for c in columns})
    if m != len(header) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names over {m} columns of lengths {lengths}")
    rows = max(1, _BLOCK_BYTES // (4 * _CELLS * m))
    with _open(path) as f:
        # each line starts with its newline, so the header has none
        f.write(",".join(header).encode())
        for b0 in range(0, len(columns[0]), rows):
            fields = _float_fields(np.concatenate([c[b0:b0 + rows] for c in columns]))
            _write_rows(f, np.concatenate(np.split(fields, m), axis=1))
        f.write(b"\n")


def write_long_csv(path, header, keys, columns) -> None:
    """Long-format lines "key,i,c_1[i],...,c_m[i]" of K records: record k has
    the key keys[k] and, in each of the m columns, the row columns[j][k].
    Every row has one length n; rows of unequal lengths raise ValueError.
    Line j = k n + i - 1 is index i of record k. A block's keys and row
    slices go through one kernel call, and each line picks its key and index
    cells; the index texts are built once per call."""
    m = len(header) - 2
    lengths = sorted({len(row) for rows in columns for row in rows})
    if len(lengths) > 1:
        raise ValueError(f"records of unequal lengths {lengths}")
    n = lengths[0] if lengths else 0
    total = len(keys) * n
    lines = max(1, _BLOCK_BYTES // (4 * _CELLS * (m + 1)))
    width = -(-(1 + len(str(n))) // 4)
    index = _cells((",%d" % i).ljust(4 * width, "\0") for i in range(1, n + 1))
    index = index.reshape(n, width)  # ",i" of index i = 1..n
    with _open(path) as f:
        f.write(",".join(header).encode())
        for a in range(0, total, lines):
            b = min(a + lines, total)
            k0, k1 = a // n, -(-b // n)
            # the keys, then each column's row slices, in one kernel call
            fields = _float_fields(np.concatenate([
                keys[k0:k1],
                *(rows[k][max(a - k * n, 0):b - k * n] for rows in columns for k in range(k0, k1)),
            ]))
            key_cells = fields[:k1 - k0]
            key_cells = key_cells[:, key_cells.any(axis=0)]  # drop the cells no key uses
            k, i = np.divmod(np.arange(a, b), n)  # each line's record and index
            cells = [key_cells[k - k0], index[i], *np.split(fields[k1 - k0:], m)]
            _write_rows(f, np.concatenate(cells, axis=1))
        f.write(b"\n")


def write_csv(path, header, rows) -> None:
    """One line per row of numbers (floats, ints or bools) of the header's
    length, each written as its float."""
    lengths = sorted({len(row) for row in rows})
    if lengths and lengths != [len(header)]:
        raise ValueError(f"{len(header)} header names over rows of lengths {lengths}")
    write_columns(path, header, np.asarray(rows, dtype=float).reshape(-1, len(header)).T)
