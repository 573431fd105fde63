"""Mesh warp frames: images of a polar grid under each step of a path.

A frame traces concentric circles (radius ``j/R`` for ``j = 1..R``) and
radial spokes (angle ``2 pi m / A``) of the unit disk through one step's
polynomial.  Frames serialize either as a single CSV table or as one SVG of
plain polylines per step; both writers are deterministic byte for byte.

The writers format whole arrays, not points, with numpy kernels that cut the
digits from one table of four-digit words and pad the text with NUL bytes,
which are dropped before a write.  An SVG frame's coordinates go through
:func:`points_text`, which rounds every ``x, -y`` to millionths at once and
gives the bytes of ``"%.6f"``, ties to even in exact arithmetic; a polyline
with a value it declines (too large or not finite) is formatted by ``%``
alone.  A CSV frame's rows are three byte tables side by side:
``step,`` from a table of every step, built once per file; the
``line_id,point_index,`` text of each row, built once per frame layout; and
the coordinates from :func:`repr_text`, which gives the bytes of ``repr``,
the shortest decimal that reads back to the same double, by integer
arithmetic on each value's rounding interval, positional from 1e-4 and in
exponent form below; a zero is the digits 0, written positionally.  It
scales every value by a power of ten from one table by binary exponent,
exact from 1e-4 up.  Its 24-byte rows take a head word and the digit words
from tables; the rows of ``|x| >= 1`` and of the exponent form are then
rearranged byte by byte.  A value it declines (subnormal, from 1e15 in
magnitude, not finite, or a possible tie) gets ``repr`` one at a time.
"""

from __future__ import annotations

import numpy as np

from .action import DiscretePath
from .poly import _is_integer, evaluate

__all__ = ["disk_mesh", "warp_frames", "write_frames_csv", "write_frames_svg"]

CSV_HEADER = "step,line_id,point_index,x,y"


def disk_mesh(circles: int, rays: int):
    """Polyline sample points of the unit-disk mesh.

    Returns a list of ``(line_id, points)`` pairs with 128 complex sample
    points each; circles are closed (first point repeated at the end).
    """
    if not (_is_integer(circles) and _is_integer(rays) and circles >= 1 and rays >= 1):
        raise ValueError(f"mesh needs integers circles, rays >= 1, got ({circles}, {rays})")
    lines = []
    theta = np.linspace(0.0, 2.0 * np.pi, 128)
    for j in range(1, circles + 1):
        radius = j / circles
        lines.append((f"circle-{j:02d}", radius * np.exp(1j * theta)))
    radii = np.linspace(0.0, 1.0, 128)
    for m in range(rays):
        angle = 2.0 * np.pi * m / rays
        lines.append((f"ray-{m:02d}", radii * np.exp(1j * angle)))
    return lines


def warp_frames(path: DiscretePath, circles: int, rays: int):
    """One frame per step: each line of ``disk_mesh(circles, rays)`` mapped
    through the step polynomial."""
    mesh = disk_mesh(circles, rays)
    images = evaluate(path.steps, [pts for _, pts in mesh])
    return [[(line_id, pts) for (line_id, _), pts in zip(mesh, step)] for step in images]


# "dddd" for 0..9999, then the same with trailing zeros as NUL
_QUADS = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_TRAILING = np.logical_and.accumulate(_QUADS[:, ::-1] == ord("0"), 1)[:, ::-1]
_QUADS = np.concatenate([_QUADS, np.where(_TRAILING, np.uint8(0), _QUADS)])
_QUADS = np.ascontiguousarray(_QUADS).view(np.uint32)[:, 0]
# "%.6f" as three 4-byte words per value, indexed by a group of three digits
# and cut from the little-endian quads "0ddd": a sign slot and the integer
# part (leading zeros NUL, the units digit kept), ".ddd", and "ddd" with a
# separator slot.  NUL bytes are dropped afterwards.
_KEEP = np.where(np.arange(1000)[:, None] >= [1000, 100, 10, 0], 0xFF, 0).astype(np.uint8)
_WORDS = np.stack([_QUADS[:1000] & _KEEP.view(np.uint32)[:, 0],
                   _QUADS[:1000] & 0xFFFFFF00 | ord("."), _QUADS[:1000] >> 8])


def points_text(lines):
    """The ``points`` attribute of a polyline for each complex array in
    ``lines``: ``"%.6f,%.6f"`` of ``x, -y`` for every point, space separated;
    and a mask over the values ``x, -y`` of all points of those the kernel
    declined, not finite or with ``y = |v| * 1e6`` from 999_999_999, which
    its 12-byte row cannot hold.  A line holding one is formatted by ``%``.

    Otherwise ``floor(y) + (d > 0.5)``, with ``d = y - floor(y)`` exact, is
    the correctly rounded value ``%.6f`` prints: half-integers below 2**52
    are floats, so rounding the product can move it onto a half-integer but
    never across one.  On a half-integer the exact product decides, and a
    tie rounds to even, as in ``%.6f``.
    """
    counts = np.array([len(pts) for pts in lines], dtype=np.int64)
    # x, -y interleaved; conjugation negates a zero imaginary part to -0.000000
    v = np.conjugate(np.concatenate(lines or [[]]), dtype=complex).view(float)
    y = np.abs(v) * 1e6
    declined = ~(y < 999_999_999)  # also true for NaN and inf
    if declined.any():
        y[declined] = 0.0
    floor = np.floor(y)
    d = y - floor
    up = d > 0.5
    for i in np.flatnonzero(d == 0.5):
        # y < 2**30, so the exact product is within 2**-24 of y: its floor is
        # floor(y), and its fraction (num * 10**6 mod den) / den
        num, den = abs(float(v[i])).as_integer_ratio()
        twice = 2 * (num * 10**6 % den)
        up[i] = twice > den or (twice == den and floor[i] % 2 == 1)
    low = floor.astype(np.int32) + up  # millionths, below 10**9
    high = low // 1000
    low -= 1000 * high
    whole = high // 1000
    high -= 1000 * whole
    chars = np.stack([_WORDS[0].take(whole), _WORDS[1].take(high), _WORDS[2].take(low)],
                     1).view(np.uint8)
    chars[:, 0] = np.signbit(v).view(np.uint8) * np.uint8(ord("-"))
    chars[0::2, 11] = ord(",")
    chars[1::2, 11] = ord(" ")
    chars[2 * np.cumsum(counts[counts > 0]) - 1, 11] = ord("\n")
    pieces = iter(chars.tobytes().translate(None, b"\0").decode().split("\n"))
    texts = [next(pieces) if count else "" for count in counts]
    if declined.any():
        for k in np.unique(np.repeat(np.arange(len(counts)), 2 * counts)[declined]).tolist():
            texts[k] = (" ".join(["%.6f,%.6f"] * len(lines[k]))
                        % tuple(np.conjugate(lines[k], dtype=complex).view(float).tolist()))
    return texts, declined


# repr_text's tables.  Per biased exponent E of |x| in [2**-1022, 2**50): j =
# 16 - floor(log10(2**(E - 1023))), and the double nearest 10**(17 - j), from
# which on j is one less.  Where that double lies below 10**(17 - j), its X lies
# just below 1e16 and its digits are still a one and sixteen zeros.
_J = 16 - np.floor((np.arange(1073) - 1023) * np.log10(2.0)).astype(np.int64)
_NEXT_DECADE = np.array([float(f"1e{decade}") for decade in range(-307, 17)]).take(324 - _J)


def _scaled_powers():
    """For E < 1073 and 1 <= j <= 324: T = 10**j * 2**(E - 1023), which lies in
    (5e15, 1e17), as a double-double ``high + low`` by index 2 * E + (j is one
    less).  From 10**j cut to 120 bits, m * 2**(bits - 120), by exact powers of
    two; ``high + low`` is within 2**-50 of T, and is T with ``low`` zero for j
    <= 22, where 10**j = 5**j * 2**j is a double."""
    cut = []
    power = 1
    for _ in range(324):
        power *= 10
        bits = power.bit_length()
        m = (power << 120) >> bits
        cut.append((float(m), float(m - int(float(m))), bits - 120))
    high, low, shift = np.array(cut).T
    index = np.stack([_J, _J - 1], 1) - 1
    shift = shift.astype(np.int64).take(index) + np.arange(-1023, 50)[:, None]
    return np.ldexp(high.take(index), shift).ravel(), np.ldexp(low.take(index), shift).ravel()


_T_HIGH, _T_LOW = _scaled_powers()
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's
_T_SPLIT = _T_HIGH * _SPLIT
_T_SPLIT -= _T_SPLIT - _T_HIGH
# A row of text is 24 bytes: a spare NUL, the sign, "0.", "0.0", "0.00" or
# "0.000" for |x| < 1, the first digit, then 16 digits in four words of four.
# The common path, 1e-4 <= |x| < 1, writes bytes 0-7 as one little-endian word.
_U64LE = np.dtype("<u8")
_HEAD = np.zeros((2, 21, 10, 8), np.uint8)  # bytes 0-7 by (sign, j, first digit)
_HEAD[1, :, :, 1] = ord("-")
_HEAD[:, :, :, 7] = ord("0") + np.arange(10)
for _j in range(17, 21):
    _HEAD[:, _j, :, 2:_j - 13] = np.frombuffer(b"0.000"[:_j - 15], np.uint8)
_HEAD = _HEAD.view(_U64LE).ravel()
# for 1 <= |x|: by j, the "0" bytes of the digits up to the first decimal; by
# `at`, the source of each byte when the bytes before byte `at` move down one
_BYTE = np.arange(24)
_UNITS = ((_BYTE >= 7) & (_BYTE <= 24 - np.arange(17)[:, None])) * np.uint8(ord("0"))
_ORDER = _BYTE + (_BYTE < np.arange(-1, 24)[:, None])
# the exponent form's "e-dd" or "e-ddd", right-aligned in bytes 19-23, by j - 16
_EXPONENT_TAIL = np.array([(b"e-%02d" % m).rjust(5, b"\0") for m in range(309)])
_EXPONENT_TAIL = _EXPONENT_TAIL.view(np.uint8).reshape(-1, 5)


def repr_text(values):
    """The ``repr`` text of each value of the float64 array ``values``, as
    rows of 24 bytes padded with NUL, and a mask of the values the kernel
    declined; their rows hold ``repr`` itself, formatted one value at a time.

    ``repr`` writes the shortest decimal that reads back to the same double,
    the nearest to it among the shortest (Steele & White; Gay), positional for
    ``1e-4 <= |x| < 1e16`` and as ``d.ddde-XX`` below.  The kernel covers
    finite normal ``|x| < 1e15`` and zeros, which are the digits 0 at ``j =
    17``, and finds the digits as Ryu does (Adams, PLDI 2018), with integer
    arithmetic on the rounding interval.  With ``j = 16 - floor(log10|x|)``,
    ``X = |x| * 10**j`` lies in ``[1e16, 1e17)``.  :func:`_scale` forms it as
    ``hi + lo`` for every value, from a table by binary exponent of ``10**j``
    times a power of two as a double-double, by Dekker's product with
    Veltkamp's split, since numpy has no fused multiply-add.  For ``|x| >=
    1e-4``, ``j <= 20``, so the table's entry is exact and so is ``hi + lo``;
    below, ``hi + lo`` is within ``2**-47`` of ``X``.  The digits are those of
    the multiple of the largest ``10**k`` that reads back to ``x``, the nearest
    to ``X`` if several do.  The kernel declines a value out of its range
    (subnormal, from 1e15 in magnitude, or not finite), one whose two nearest
    candidates may tie, such as ``2.51564788818359375``, and, below 1e-4, a
    power of two or a value with a rounding decision within that error bound.
    """
    v = np.ravel(np.asarray(values, dtype=float))
    mag = np.abs(v)
    covered = (mag >= np.finfo(float).tiny) & (mag < 1e15)
    j, hi, lo, h = _scale(np.where(covered, mag, 0.30000000000000004))  # j = 17, no tie
    # The doubles that read back to x = f * 2**(e - 53) lie within X +- h.  From
    # 1e-4 up, j <= 20, so T is exact, hi + lo is X and h = 2**(e - 54) * 10**j.
    # Neither end is an integer, since X +- h = (2f +- 1) * 5**j * 2**(e + j -
    # 54) and X < 1e17 makes e + j <= 52; and lo +- h is exact, as a multiple of
    # 2**-47 below 32.  (Below a power of two the gap is h / 2, which for the
    # powers of two from 1e-4 changes no digits; csv_format checks them all.)
    digits, tie = _shortest(hi, lo, h)
    digits[mag == 0] = 0
    declined = tie | (~covered & (mag != 0))
    first, quads = _digit_words(digits)
    text = np.empty((len(v), 3), _U64LE)
    rows = text.view(np.uint8)
    sign = np.signbit(v)
    # clipped for j > 20: an arbitrary head, which the exponent block rewrites
    text[:, 0] = _HEAD.take(sign * 210 + 10 * j + first, mode="clip")
    text.view(np.uint32)[:, 2:] = quads
    ones = np.flatnonzero(j <= 16)
    if ones.size:
        # keep the zeros of the integer part and of the first decimal, and move
        # the bytes before the first decimal down one to make room for "."
        at = 24 - j[ones]
        moved = np.take_along_axis(rows[ones] | _UNITS[j[ones]], _ORDER[at], 1)
        moved[np.arange(ones.size), at - 1] = ord(".")
        rows[ones] = moved
    small = np.flatnonzero(covered & (mag < 1e-4))
    if small.size:
        # "-d.", the other 16 digits and "e-XX": "." unless those are all zeros
        exponent = rows[small]
        exponent[:, 0] = sign[small] * np.uint8(ord("-"))
        exponent[:, 1] = ord("0") + first[small]
        exponent[:, 2] = (exponent[:, 8] > 0) * np.uint8(ord("."))
        exponent[:, 3:19] = exponent[:, 8:]
        exponent[:, 19:] = _EXPONENT_TAIL[j[small] - 16]
        rows[small] = exponent
        # There j >= 20 and T need not be exact: hi + lo misses X by x' times
        # T's error (2**-49) and the roundings of x' * T_LOW (2**-50) and of the
        # sum into lo (2**-49), 5 * 2**-50 in all; lo +- h misses X +- h by
        # another 2**-50 in h and 2**-48 in the sum, 10 * 2**-50 in all.  A
        # decision closer than 2**-46 is left to repr, and so is a power of two,
        # below which the gap is h / 2, which there changes some digits.
        lo, h = lo[small], h[small]
        bounds = np.stack([lo, lo - h, lo + h, lo - 0.5])
        unsure = np.any(np.abs(bounds - np.rint(bounds)) < 2.0**-46, 0)
        declined[small] |= unsure | ((v[small].view(np.int64) & 0xFFFFFFFFFFFFF) == 0)
    if declined.any():
        text[declined] = np.array(list(map(repr, v[declined].tolist())),
                                  "S24").view(_U64LE).reshape(-1, 3)
    return rows, declined


def _scale(x):
    """For finite normal ``x > 0``: ``j``, ``X = x * 10**j`` as ``hi + lo``, and
    ``h = 10**j * ulp(x) / 2``.  With ``E`` the biased exponent of ``x``, ``x'
    = x * 2**(1023 - E)`` in ``[1, 2)`` is set from the bits, and ``X = x' *
    T``, ``T = 10**j * 2**(E - 1023)`` from :func:`_scaled_powers`, by
    Dekker's product with Veltkamp's split."""
    bits = x.view(np.int64)
    exponent = bits >> 52
    less = x >= _NEXT_DECADE.take(exponent)
    index = 2 * exponent + less
    mantissa = ((bits & 0xFFFFFFFFFFFFF) | 0x3FF0000000000000).view(float)
    scale, scale_high = _T_HIGH.take(index), _T_SPLIT.take(index)
    scale_low = scale - scale_high
    split = mantissa * _SPLIT
    x_high = split - (split - mantissa)
    x_low = mantissa - x_high
    hi = mantissa * scale
    lo = ((x_high * scale_high - hi) + x_high * scale_low + x_low * scale_high) + x_low * scale_low
    lo += mantissa * _T_LOW.take(index)
    return _J.take(exponent) - less, hi, lo, scale * 2.0**-53


def _shortest(hi, lo, h):
    """The 17 digits of ``repr`` for ``X = hi + lo``, ``hi`` an integer, whose
    rounding interval is ``X +- h`` with ``h`` in ``(0.55, 11.1)``, and a mask
    of the values where two candidates may tie."""
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64)  # hi >= 1e16 > 2**53 is an integer
    nearest = whole + floor_lo.astype(np.int64)  # floor(X)
    frac = lo - floor_lo
    tens_lower = (whole + np.floor(lo - h).astype(np.int64)) // 10
    tens_upper = (whole + np.floor(lo + h).astype(np.int64)) // 10
    # The digits are those of the candidate with the most trailing zeros k:
    # k = 0, the integer nearest X, or k = 1, the multiple of 10 nearest X
    # (h > 0.55 and the interval is symmetric, so both lie in it if any
    # integer or multiple of 10 does); k >= 2, the only multiple of 100 in
    # it, as 2h < 22.3.  X at n + 1/2, or at 10n + 5 with a multiple of 10 in
    # the interval, may be halfway between two candidates.
    has_ten = tens_upper > tens_lower
    tens = (nearest + 5) // 10
    digits = np.where(has_ten, 10 * tens, nearest + (frac > 0.5))
    tie = np.where(has_ten, (frac == 0) & (10 * tens == nearest + 5), frac == 0.5)
    hundreds = np.flatnonzero(tens_upper // 10 > tens_lower // 10)
    digits[hundreds] = (tens_lower[hundreds] // 10 + 1) * 100
    return digits, tie


def _digit_words(digits):
    """The first of 17 digits, and the other 16 as four words of four bytes
    in which the zeros after the last nonzero digit are NUL."""
    top = digits // 10**8
    first = top // 10**8
    high = top - first * 10**8
    low = digits - top * 10**8
    q0, q2 = high // 10**4, low // 10**4
    q1, q3 = high - q0 * 10**4, low - q2 * 10**4
    return first, np.stack([_QUADS.take(q0 + 10000 * ((low == 0) & (q1 == 0))),
                            _QUADS.take(q1 + 10000 * (low == 0)),
                            _QUADS.take(q2 + 10000 * (q3 == 0)),
                            _QUADS.take(q3 + 10000)], 1)


def write_frames_csv(frames, out_path):
    """All frames in a single table: ``step,line_id,point_index,x,y``.

    Coordinates are written with shortest round-trip formatting, so files
    are reproducible and parse back to the exact evaluated values.  A frame
    is one byte matrix with a row per point, filled from three NUL-padded
    byte tables: ``step,`` (one row per step, built once per file), the row
    prefix ``line_id,point_index,`` (built once per frame layout, whose
    matrix every frame with that layout reuses) and the :func:`repr_text` of
    ``x`` and ``y``.  The NUL padding is dropped and the frame written at once.
    """
    steps = _byte_rows([f"{step}," for step in range(len(frames))])
    width = steps.shape[1]
    matrices = {}  # per frame layout, usually one for all frames
    with open(out_path, "wb") as fh:
        fh.write(f"{CSV_HEADER}\n".encode())
        for step, frame in enumerate(frames):
            points = np.concatenate([pts for _, pts in frame] or [[]], dtype=complex)
            if not len(points):
                continue
            layout = tuple((str(line_id), len(pts)) for line_id, pts in frame)
            matrix = matrices.get(layout)
            if matrix is None:
                if any("\0" in line_id for line_id, _ in layout):
                    raise ValueError(
                        f"line ids must not contain NUL, got {[line_id for line_id, _ in layout]}")
                prefix = _byte_rows([f"{line_id},{i}," for line_id, count in layout
                                     for i in range(count)])
                # the step, the prefix, 24 bytes of x, a comma, 24 of y, a newline
                matrix = matrices[layout] = np.zeros((len(prefix), width + prefix.shape[1] + 50),
                                                     np.uint8)
                matrix[:, width:-50] = prefix
                matrix[:, -26] = ord(",")
                matrix[:, -1] = ord("\n")
            xy = repr_text(points.view(float))[0]
            matrix[:, :width] = steps[step]
            matrix[:, -50:-26] = xy[0::2]
            matrix[:, -25:-1] = xy[1::2]
            fh.write(matrix.tobytes().translate(None, b"\0"))


def _byte_rows(texts):
    """The UTF-8 bytes of each string as a row, padded with NUL."""
    rows = np.array([text.encode() for text in texts])
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def write_frames_svg(frames, out_dir):
    """One ``frame_XXX.svg`` per step, polylines only, shared global viewBox.

    Returns the list of file names written.  The y axis is flipped so the
    mathematical orientation is preserved on screen, and each frame's
    coordinates are formatted by one :func:`points_text` call.
    """
    # reduced frame by frame: a copy of all frames' points at once raised peak
    # RSS by about 3 MB on the shipped configs
    extent = 1.0
    for frame in frames:
        xy = np.concatenate([pts for _, pts in frame] or [[]], dtype=complex).view(float)
        extent = float(np.fmax.reduce(np.abs(xy), initial=extent))  # fmax skips NaN
    half = 1.05 * extent
    header = ('<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
              f'viewBox="{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}">')
    polyline = f'<polyline fill="none" stroke="black" stroke-width="{half / 256:.6f}" points="'
    names = []
    for step, frame in enumerate(frames):
        parts = [header]
        parts.extend(polyline + text + '"/>' for text in points_text([pts for _, pts in frame])[0])
        parts.append("</svg>")
        name = f"frame_{step:03d}.svg"
        with open(f"{out_dir}/{name}", "w") as fh:
            fh.write("\n".join(parts) + "\n")
        names.append(name)
    return names
