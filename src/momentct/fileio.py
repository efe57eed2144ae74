"""File formats: sinogram CSV, moment-table CSV, reconstruction CSV/PGM.

All floats are written as `%.17g` (17 significant digits), which
round-trips IEEE doubles exactly.  A single number goes through `%.17g`
itself.  Arrays give the same bytes from numpy arithmetic on blocks of
whole rows, about 8k values at a time (`projector.row_blocks`), and a row
bitwise equal to the one before it reuses that row's text.  A row's +0.0
margins, the values before its first other value and after its last, are
written as the constant text `0`, and only the values between them are
converted: a raw sinogram is +0.0 on every line that misses the unit
square.  Rows without margins are converted in blocks of whole rows as
they are.

How an array's text is made, and why it is exact.  For a value x with
1e-280 < |x| < 1e280 and k = floor(log10 |x|), the scaled magnitude
D = |x| * 10**(16 - k) is formed as a double-double p + t.  10**(16 - k)
is a table pair hi + lo, built on first use from exact `fractions.Fraction`
powers; Dekker's two-product gives |x| * hi = p + e exactly, and
t = e + fl(|x| * lo).  While D < 2**57 the error of p + t is below 2**-47:
the pair is off by 2**-106 D, and |x| * lo and the sum are rounded once
each, none by more than 2**-49.  p >= 2**53 is an integer and |t| < 32,
so a p more than 64 inside (1e16, 1e17) has the right k, and its
N = p + rint(t) is the significand `%.17g` prints unless the fraction
t - rint(t) comes within the margin 1e-6 of one half, where the error, or
a tie's rounding to even, could decide.  One rule leaves the rest to
`%.17g` itself: NaN, inf and -inf; magnitudes outside (1e-280, 1e280);
near-ties; and a p within 64 of 1e16 or 1e17, where log10 may round k the
wrong way; but an exact power of ten, p = 1e16 with |t| within the margin,
is 1e16 at k even for a D just under 1e16, which rounds up to 1e17 in the
decade below.  Zeros never enter the arithmetic; they are written as 0 or -0.

Each value's sign, `0.000` prefix, first digit, point, other 16 digits,
exponent and separator are laid out in 32 bytes from tables (the digits
four at a time), with every unused byte 0, trailing zeros of the
significand included, and `bytes.translate` deletes those bytes.

A PGM pixel's text is a 4-byte word from one of two tables by level
0..255: the level's digits and a space, or a newline for the last pixel of
an image row, padded with bytes 0, which `bytes.translate` deletes too.
A PGM block is whole columns of the values, the image rows it emits.

PGM export rejects non-finite values with ValueError.  Every writer hands
its ASCII text to disk as bytes, through a temp file and an atomic rename,
so a reader never sees a partial file.  The sinogram, reconstruction and
PGM writers stream: they make and write their text one block of whole rows
at a time, so no copy of the whole file's text, nor any whole-array
temporary, exists; `row_blocks` bounds both the values a block converts
and the rows of text it writes.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from .density_recon import ReconGrid
from .errors import FormatError
from .mollifiers import make_kernel
from .numerics import Grid1D
from .phantoms import MomentTable
from .projector import Sinogram, row_blocks


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


#: magnitudes the block conversion handles, exclusive
_TINY, _HUGE = 1e-280, 1e280
#: how near one half the fraction of p + t, and near 0 the t of a power of
#: ten, must stay for `%.17g` not to decide; p + t errs by under 2**-47
_TIE_MARGIN = 1e-6
#: decimal exponents the tables cover: floor(log10 |x|) over (_TINY, _HUGE);
#: log10's rounding can reach the power of ten at either end, never pass it
_K_LOW, _K_HIGH = -280, 280
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**(16 - k) by row _K_HIGH - k, built on first use.

    Returns hi, its Dekker halves hi1 + hi2 = hi, and lo, with
    hi = fl(10**(16 - k)) and lo = fl(10**(16 - k) - hi).
    """
    exact = [Fraction(10) ** (16 - k) for k in range(_K_HIGH, _K_LOW - 1, -1)]
    hi = np.array([float(f) for f in exact])
    lo = np.array([float(f - Fraction(h)) for f, h in zip(exact, hi.tolist())])
    c = _SPLIT * hi
    hi1 = c - (c - hi)
    return hi, hi1, hi - hi1, lo


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Pieces of the 32-byte layout of one value, built on first use.

    Bytes 0-7 hold the sign, the `0.000` prefix, the first digit and a
    point after it; bytes 8-23 the other 16 digits; bytes 24-29 the
    exponent and the separator.  Returned, by row = decimal exponent -
    _K_LOW: the word of bytes 0-7 with a `0` for the first digit, at
    4 * row + 2 * sign + more, where more = 1 when a nonzero digit follows
    the first one (a point after the first digit is then in the word); the
    exponent word; and the digit after which the point goes (-1 when the
    prefix holds it).  By 4-digit group: its ASCII digits, low and high in
    a word, and, for each of the four groups after the first digit, the
    place of its last nonzero digit among those 16 (0 for 0000).  By the
    last digit kept: the masks of words 8-15 and 16-23.
    """
    prefix, exponent, point = [], [], []
    for x in range(_K_LOW, _K_HIGH + 1):
        fixed = -4 <= x < 17
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        place = -1 if lead else x if fixed else 0
        for sign in (b"", b"-"):
            for more in (False, True):
                dot = b"." if more and place == 0 else b""
                prefix.append(_word(sign.ljust(1, b"\0") + lead.ljust(5, b"\0") + b"0" + dot))
        exponent.append(0 if fixed else _word(b"e%+03d" % x))
        point.append(place)
    groups = [b"%04d" % g for g in range(10000)]
    ascii4 = np.frombuffer(b"".join(groups), dtype="<u4").astype("<u8")
    last = np.array([len(g.rstrip(b"0")) for g in groups], dtype=np.int8)
    last = [np.where(last > 0, last + 4 * i, 0).astype(np.int8) for i in range(4)]
    keep1 = [(1 << 8 * min(m, 8)) - 1 for m in range(17)]
    keep2 = [(1 << 8 * max(m - 8, 0)) - 1 for m in range(17)]
    return (np.array(prefix, dtype="<u8"), np.array(exponent, dtype="<u8"),
            np.array(point, dtype=np.int8), ascii4, ascii4 << np.uint64(32), *last,
            np.array(keep1, dtype="<u8"), np.array(keep2, dtype="<u8"))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as p + t with p = fl(a * hi): Dekker's two-product."""
    hi, hi1, hi2, lo = _pow10_table()
    row = _K_HIGH - k
    h1 = hi1.take(row)
    h2 = hi2.take(row)
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi.take(row)
    t = a1 * h1 - p
    t += a1 * h2
    t += a2 * h1
    t += a2 * h2  # a * hi - p, exactly
    t += a * lo.take(row)
    return p, t


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significand and decimal exponent of each magnitude in a.

    a holds magnitudes in (_TINY, _HUGE).  The third array indexes the
    values that the module docstring leaves to `%.17g`.
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, k)
    # only a p near 1e16 or 1e17 can put p + t outside the decade or round
    # it up to 1e17; an exact power of ten has p = 1e16 and t about 0
    edge = ((p < 1e16 + 64) | (p > 1e17 - 64)) & ((p != 1e16) | (np.abs(t) > _TIE_MARGIN))
    r = np.rint(t)
    t -= r
    undecided = np.flatnonzero(edge | (np.abs(t) > 0.5 - _TIE_MARGIN))
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    return n, k, undecided


def _words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 32-byte layout of each value of x, 1e-280 < |x| < 1e280, as 4 words.

    The separators are not set.  The second array indexes the values left
    to `%.17g`; their words hold the text of 0.
    """
    (prefix, exponent, point, ascii4, ascii4_high, last1, last2, last3, last4,
     keep1, keep2) = _text_tables()
    n, k, undecided = _significands(np.abs(x))
    n[undecided] = 0
    k[undecided] = 0
    # n is d0 g1 g2 g3 g4: one digit, then four groups of four
    high = n // 10**8
    g34 = n - high * 10**8
    d0 = high // 10**8
    g12 = high - d0 * 10**8
    g1 = g12 // 10**4
    g2 = g12 - g1 * 10**4
    g3 = g34 // 10**4
    g4 = g34 - g3 * 10**4
    last = np.maximum(np.maximum(last1.take(g1), last2.take(g2)),
                      np.maximum(last3.take(g3), last4.take(g4)))
    row = k - _K_LOW
    place = point.take(row)
    words = np.empty((x.size, 4), dtype="<u8")
    index = 4 * row
    index += 2 * np.signbit(x)
    index += last > 0
    words[:, 0] = prefix.take(index) | d0.view(np.uint64) << np.uint64(48)
    words[:, 3] = exponent.take(row)
    # a point after digit P >= 1: digits 1..P move into the byte of the
    # point after the first digit, and the point follows them
    mid = np.flatnonzero((place > 0) & (last > place))
    np.maximum(last, place, out=last)  # fixed notation keeps every whole digit
    words[:, 1] = (ascii4.take(g1) | ascii4_high.take(g2)) & keep1.take(last)
    words[:, 2] = (ascii4.take(g3) | ascii4_high.take(g4)) & keep2.take(last)
    if mid.size:
        text = words.view(np.uint8)
        after = place[mid, None]
        digits = text[mid, 7:24]
        columns = np.arange(17)
        text[mid, 7:24] = np.where(columns < after, np.roll(digits, -1, axis=1),
                                   np.where(columns == after, ord("."), digits))
    return words, undecided


#: the words of 0, without sign
_ZERO = np.uint64(ord("0") << 48)


def _percent_text(values: list[float]) -> bytes:
    """The `%.17g` text of each value, padded with bytes 0 to 29 bytes."""
    return b"".join([("%.17g" % v).encode().ljust(29, b"\0") for v in values])


def _block_text(x: np.ndarray, ends: np.ndarray) -> bytes:
    """`%.17g` text of each value of x, each followed by its separator.

    ends holds each value's separator in byte 5 of a word.
    """
    a = np.abs(x)
    inside = (a > _TINY) & (a < _HUGE)
    if inside.all():
        words, slow = _words(x)
    else:
        # zeros and the values left to `%.17g` start as the text of 0
        fast = np.flatnonzero(inside)
        words = np.zeros((x.size, 4), dtype="<u8")
        words[:, 0] = (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-")) | _ZERO
        words[fast], undecided = _words(x[fast])
        slow = np.concatenate([np.flatnonzero(~inside & (a != 0)), fast[undecided]])
    words[:, 3] |= ends
    text = words.view(np.uint8)
    if slow.size:
        fallback = _percent_text(x[slow].tolist())
        text[slow, :29] = np.frombuffer(fallback, dtype=np.uint8).reshape(-1, 29)
    return text.tobytes().translate(None, b"\0")


def _lines(text: bytes) -> list[memoryview]:
    """Each newline-ended line of text, newline included, as a slice of one
    memoryview of it: no line is copied."""
    view = memoryview(text)
    ends = (np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n")) + 1).tolist()
    return [view[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def _margin_lines(values: np.ndarray, picked: np.ndarray, lead: np.ndarray,
                  stop: np.ndarray) -> list[tuple]:
    """The text of rows `picked` of values, by a row's place in `picked`, as
    the pieces that make its line, from one `_block_text` call over the
    values lead..stop of each.

    The values before lead and from stop on are +0.0, whose text is the
    constant `0`; their pieces are slices of one run of `0,` and one of
    `,0` ended by the newline.  A row of +0.0 only has lead == stop.
    """
    cols = values.shape[1]
    spans = list(zip(lead.tolist(), stop.tolist()))
    inside = np.concatenate([values[row, a:b] for row, (a, b) in zip(picked.tolist(), spans)],
                            dtype=np.float64)
    width = stop - lead
    ends = np.full(inside.size, ord(",") << 40, dtype="<u8")
    ends[np.cumsum(width)[width > 0] - 1] = ord("\n") << 40
    middles = iter(_lines(_block_text(inside, ends)))
    heads, tails = memoryview(b"0," * cols), memoryview(b",0" * cols + b"\n")
    # each row's leading +0.0, the text between, and its trailing +0.0
    return [(heads[:2 * a], next(middles)[:-1], tails[2 * b:]) if b > a
            else (heads[:-1], tails[-1:]) for a, b in spans]


def _csv_chunks(values: np.ndarray) -> Iterator[bytes]:
    """The `%.17g` text of each row of values, values separated by commas
    and each row ended by a newline, in chunks of whole rows, one of
    `row_blocks(rows, cols)` at most.

    A row bitwise equal to the one before it reuses that row's text (the
    moment image repeats each row many times); comparing bits keeps -0.0
    apart from 0.0.  The distinct rows are converted in `row_blocks` of the
    values each converts.  The +0.0 values before a row's first other value
    and after its last, which a sinogram has outside each row's support, are
    not converted: their text is the constant `0`.  A block of rows without
    such margins is converted whole, as the chunk's text.
    """
    rows, cols = values.shape
    if values.size == 0:
        yield b"\n" * rows
        return
    blocks = row_blocks(rows, cols)
    step = blocks[0].stop  # the rows of text a chunk holds at most
    new = np.ones(rows, dtype=bool)
    # the rows that begin or end with +0.0 (-0.0 is written -0), and each
    # row's values lead..stop, which hold all but its +0.0 margins
    edges = np.ascontiguousarray(values[:, [0, -1]], dtype=np.float64).view(np.uint64)
    marked = (edges == 0).any(axis=1)
    lead = np.zeros(rows, dtype=np.intp)
    stop = np.full(rows, cols, dtype=np.intp)
    for block in blocks:
        # the block's rows, each compared with the one before it
        start = block.start
        bits = np.ascontiguousarray(values[start:block.stop + 1], dtype=np.float64)
        bits = bits.view(np.uint64)
        new[start + 1:start + len(bits)] = (bits[1:] != bits[:-1]).any(axis=1)
        here = np.flatnonzero(marked[block])
        if here.size:
            other = bits[here] != 0
            found = other.any(axis=1)
            lead[start + here] = np.where(found, other.argmax(axis=1), cols)
            stop[start + here] = np.where(found, cols - other[:, ::-1].argmax(axis=1), cols)
    distinct = np.flatnonzero(new)
    owner = np.cumsum(new) - 1  # each row's index in distinct
    lead, stop = lead[distinct], stop[distinct]
    # the values each distinct row converts; counting at least one bounds a
    # block's rows too
    widths = np.maximum(stop - lead, 1)
    ends = np.full(cols, ord(","), dtype="<u8")
    ends[-1] = ord("\n")
    ends = np.tile(ends << np.uint64(40), step)
    for block in row_blocks(distinct.size, widths):
        picked = distinct[block]
        # the rows from this block's first distinct row to the next block's
        start = picked[0]
        end = distinct[block.stop] if block.stop < distinct.size else rows
        if widths[block].sum() == cols * len(picked):  # no margins
            x = np.ascontiguousarray(values[picked], dtype=np.float64).ravel()
            text = _block_text(x, ends[:x.size])
            if end - start == len(picked):
                yield text
                continue
            parts = [(line,) for line in _lines(text)]
        else:
            parts = _margin_lines(values, picked, lead[block], stop[block])
        for row in range(start, end, step):
            picks = (owner[row:min(row + step, end)] - block.start).tolist()
            yield b"".join([piece for i in picks for piece in parts[i]])


@functools.cache
def _pgm_words() -> tuple[np.ndarray, np.ndarray]:
    """Each PGM level's text followed by a space, and followed by a newline,
    as a 4-byte word padded with bytes 0, by level; built on first use."""
    return tuple(np.array([_word(b"%d%s" % (level, end)) for level in range(256)],
                          dtype="<u4")
                 for end in (b" ", b"\n"))


def _pgm_text(columns: np.ndarray, vmin: float, scale: float) -> bytes:
    """The PGM lines of the image rows that are `columns` in reverse order,
    each value as its level: (value - vmin) / scale, rounded and clipped to
    0..255."""
    spaced, ended = _pgm_words()
    levels = columns - vmin  # a copy, in the columns' own layout
    levels /= scale
    np.rint(levels, out=levels)
    np.clip(levels, 0, 255, out=levels)
    # the image rows are the columns, last first: x2 increases up the image
    image = levels.astype(np.intp)[:, ::-1].T
    words = spaced.take(image)
    words[:, -1] = ended.take(image[:, -1])
    return words.tobytes().translate(None, b"\0")


def _atomic_write(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks, in order, to `path` through a temporary file in its
    directory, which this creates if it is missing.  The chunks are made as
    they are written; if making one raises, `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name opened exclusively with mode 0o666, so the kernel applies
    # the umask as for any other new file (mkstemp would force 0o600)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_SINO_HEADER = re.compile(
    r"^# sinogram kind=(\w+) angles=(\d+) offsets=(\d+) "
    r"theta0=(\S+) dtheta=(\S+) p0=(\S+) dp=(\S+)(?: kernel=(\w+) epsilon=(\S+))?$"
)


def write_sinogram(s: Sinogram, path) -> None:
    """Write s: a header of its kind and grids, then one row per angle.

    The header records each grid's start, spacing and count, which are the
    whole grid, and the header of mollified rows ends with their kernel's
    kind and width; so `read_sinogram` reads back s, bit for bit.
    """
    header = (
        f"# sinogram kind={s.kind} angles={s.angle_grid.count} "
        f"offsets={s.offset_grid.count} theta0={_fmt(s.angle_grid.start)} "
        f"dtheta={_fmt(s.angle_grid.spacing)} p0={_fmt(s.offset_grid.start)} "
        f"dp={_fmt(s.offset_grid.spacing)}"
    )
    if s.kernel is not None:
        header += f" kernel={s.kernel.kind} epsilon={_fmt(s.kernel.epsilon)}"
    _atomic_write(path, chain([f"{header}\n".encode("ascii")], _csv_chunks(s.values)))


def _read_rows(fh, path, rows: int, cols: int) -> np.ndarray:
    """The `rows` lines of `cols` comma-separated values after a header.
    FormatError names the file and line of a missing or malformed row, a
    row of another length, and a non-blank line after the last row.  The
    rows are collected as read, not into an array sized from the header's
    counts, so a header that overstates them fails on the file's end."""
    values = []
    for i in range(rows):
        line = fh.readline()
        if not line:
            raise FormatError(f"{path}:{i + 2}: file ends after {i} of {rows} rows")
        # not np.fromstring, which reads a trailing comma as one more -1
        try:
            row = np.array(line.split(","), dtype=float)
        except ValueError as exc:
            raise FormatError(f"{path}:{i + 2}: malformed row {i}: {exc}") from None
        if row.size != cols:
            raise FormatError(f"{path}:{i + 2}: row {i} has {row.size} values, expected {cols}")
        values.append(row)
    for lineno, line in enumerate(fh, start=rows + 2):
        if line.strip():
            raise FormatError(f"{path}:{lineno}: text after the {rows} declared rows")
    return np.array(values).reshape(rows, cols)


def read_sinogram(path) -> Sinogram:
    """Read a file written by `write_sinogram`.

    Raises FormatError on a malformed header, on kernel fields that do not
    come with mollified rows, or only with them, or that `make_kernel`
    refuses, and on the rows as `_read_rows` says.  The kernel is rebuilt
    from the recorded kind and width, which fix it.  NaN and inf values pass
    through unchecked; the CLI rejects them after reading
    (`cli._require_finite`).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _SINO_HEADER.match(header)
        if not match:
            raise FormatError(f"malformed sinogram header: {header!r}")
        kind, n_s, m_s, theta0, dtheta, p0, dp, kernel, eps = match.groups()
        n, m = int(n_s), int(m_s)
        theta0, dtheta, p0, dp = map(float, (theta0, dtheta, p0, dp))
        values = _read_rows(fh, path, n, m)
    try:
        return Sinogram(angle_grid=Grid1D(theta0, dtheta, n),
                        offset_grid=Grid1D(p0, dp, m), values=values, kind=kind,
                        kernel=None if kernel is None else
                        make_kernel(kernel, float(eps)))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_moments(table: MomentTable, path) -> None:
    lines = [f"# moments K={table.max_order}"]
    for (a1, a2) in sorted(table.values, key=lambda ab: (ab[0] + ab[1], ab[0])):
        lines.append(f"{a1},{a2},{_fmt(table.values[(a1, a2)])}")
    _atomic_write(path, [("\n".join(lines) + "\n").encode("ascii")])


def read_moments(path) -> MomentTable:
    """Read a file written by `write_moments`.

    Raises FormatError on a malformed header; naming the file, on a table
    that is incomplete or holds an entry beyond its order; and, naming the
    file and line, on a row that is not `a1,a2,value` or that repeats an
    (a1, a2).  NaN and inf values pass through unchecked; the CLI rejects
    them after reading (`cli._require_finite`).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = re.match(r"^# moments K=(\d+)$", header)
        if not match:
            raise FormatError(f"malformed moment header: {header!r}")
        K = int(match.group(1))
        values = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                a1, a2, value = line.split(",")
                key, value = (int(a1), int(a2)), float(value)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed moment row {line!r}") from None
            if key in values:
                raise FormatError(f"{path}:{lineno}: repeated moment {key}")
            values[key] = value
    try:
        return MomentTable(max_order=K, values=values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_recon_csv(rec: ReconGrid, path) -> None:
    header = f"# recon N={rec.resolution}"
    if rec.orders is not None:
        header += f" m={rec.orders[0]} n={rec.orders[1]}"
    _atomic_write(path, chain([f"{header}\n".encode("ascii")], _csv_chunks(rec.values)))


def read_recon_csv(path) -> ReconGrid:
    """Read a file written by `write_recon_csv`.

    Raises FormatError on a malformed header, and on the rows as
    `_read_rows` says.  NaN and inf values pass through unchecked, as in
    the other readers; the CLI never reads this file back, and its check
    for the files it does read is `cli._require_finite`.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = re.match(r"^# recon N=(\d+)(?: m=(\d+) n=(\d+))?$", header)
        if not match:
            raise FormatError(f"malformed recon header: {header!r}")
        n = int(match.group(1))
        orders = None
        if match.group(2) is not None:
            orders = (int(match.group(2)), int(match.group(3)))
        values = _read_rows(fh, path, n, n)
    return ReconGrid(resolution=n, values=values, orders=orders)


def write_pgm(values: np.ndarray, path) -> None:
    """P2 (ASCII) grayscale export, affine-scaled to 0..255.

    The scale and offset are recorded as comment lines so the physical
    values can be recovered: value = offset + scale * pixel.  values[i, j]
    is the pixel at x1 index i and x2 index j: the image is values.shape[0]
    pixels wide and values.shape[1] high, x1 increases to the right and x2
    upwards, so the first image row is the last column of values.  Raises
    ValueError on NaN or inf, and on a range too wide for a double.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM export needs a 2-D array")
    vmin = float(v.min())
    vmax = float(v.max())
    span = vmax - vmin
    # NaN and inf propagate through min/max into the span
    if not math.isfinite(span):
        raise ValueError(f"PGM export needs finite values, got min={vmin} max={vmax}")
    scale = span / 255.0
    if scale == 0.0:  # a constant image, or a span too small to divide by 255
        scale = 1.0
    width, height = v.shape
    header = f"P2\n# offset={_fmt(vmin)} scale={_fmt(scale)}\n{width} {height}\n255\n"
    # image row i is column height - 1 - i of v: blocks of whole columns, last first
    _atomic_write(path, chain([header.encode("ascii")],
                              (_pgm_text(v[:, columns], vmin, scale)
                               for columns in reversed(row_blocks(height, width)))))
