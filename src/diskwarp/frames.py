"""Mesh warp frames: images of a polar grid under each step of a path.

A frame traces concentric circles (radius ``j/R`` for ``j = 1..R``) and
radial spokes (angle ``2 pi m / A``) of the unit disk through one step's
polynomial.  Frames serialize either as a single CSV table or as one SVG of
plain polylines per step; both writers are deterministic byte for byte.

The writers format whole arrays, not points.  An SVG frame's coordinates go
through :func:`points_text`, a numpy fixed-point kernel that rounds every
``x, -y`` to millionths at once and assembles the digits from lookup
tables, giving the bytes of ``"%.6f"``.  A frame with a value the kernel
declines (too large, not finite, or a possible rounding tie) is formatted
with one ``%`` per polyline instead.  A CSV frame is one ``%`` over its
interleaved ``(step, x, y)`` list with a row template built once per frame
layout; ``%r`` on Python floats gives the same bytes as per-point
f-strings, and shortest round-trip ``repr`` is nearly all of the CSV
writer's time.
"""

from __future__ import annotations

import numpy as np

from .action import DiscretePath
from .poly import evaluate

__all__ = ["disk_mesh", "warp_frames", "write_frames_csv", "write_frames_svg"]

CSV_HEADER = "step,line_id,point_index,x,y"


def disk_mesh(circles: int, rays: int, samples: int = 128):
    """Polyline sample points of the unit-disk mesh.

    Returns a list of ``(line_id, points)`` pairs with complex sample
    points; circles are closed (first point repeated at the end).
    """
    if circles < 1 or rays < 1 or samples < 2:
        raise ValueError(f"mesh needs circles, rays >= 1 and samples >= 2, got "
                         f"({circles}, {rays}, {samples})")
    lines = []
    theta = np.linspace(0.0, 2.0 * np.pi, samples)
    for j in range(1, circles + 1):
        radius = j / circles
        lines.append((f"circle-{j:02d}", radius * np.exp(1j * theta)))
    radii = np.linspace(0.0, 1.0, samples)
    for m in range(rays):
        angle = 2.0 * np.pi * m / rays
        lines.append((f"ray-{m:02d}", radii * np.exp(1j * angle)))
    return lines


def warp_frames(path: DiscretePath, circles: int, rays: int, samples: int = 128):
    """One frame per step: each mesh line mapped through the step polynomial."""
    mesh = disk_mesh(circles, rays, samples)
    images = evaluate(path.steps, [pts for _, pts in mesh])
    return [[(line_id, pts) for (line_id, _), pts in zip(mesh, step)] for step in images]


# "%.6f" as three 4-byte words per value, indexed by a group of three digits:
# a sign slot and the integer part (leading zeros NUL, the units digit kept),
# ".ddd", and "ddd" with a separator slot.  NUL bytes are dropped afterwards.
_DIGITS = np.frombuffer(b"".join(b"%03d" % k for k in range(1000)), np.uint8).reshape(1000, 3)
_WORDS = np.zeros((3, 1000, 4), np.uint8)
_WORDS[0, :, 1:] = _DIGITS
_WORDS[0, :100, 1] = 0
_WORDS[0, :10, 2] = 0
_WORDS[1, :, 0] = ord(".")
_WORDS[1, :, 1:] = _DIGITS
_WORDS[2, :, :3] = _DIGITS
_WORDS = _WORDS.view(np.uint32)[..., 0]


def points_text(lines):
    """The ``points`` attribute of a polyline for each complex array in
    ``lines``: ``"%.6f,%.6f"`` of ``x, -y`` for every point, space separated.

    Returns None when a coordinate is not finite, when ``y = |v| * 1e6``
    reaches 999_999_999, or when ``y`` is a half-integer: the exact product
    may then be a rounding tie, which ``%.6f`` rounds to even.  Otherwise
    ``floor(y) + (d > 0.5)``, with ``d = y - floor(y)`` exact, is the
    correctly rounded value ``%.6f`` prints.  Half-integers below 2**52 are
    floats, so rounding the product can move it onto a half-integer but
    never across one.
    """
    counts = np.array([len(pts) for pts in lines], dtype=np.int64)
    # x, -y interleaved; conjugation negates a zero imaginary part to -0.000000
    v = np.conjugate(np.concatenate(lines or [[]]), dtype=complex).view(float)
    y = np.abs(v) * 1e6
    if not np.all(y < 999_999_999):  # also false for NaN and inf
        return None
    floor = np.floor(y)
    d = y - floor
    if np.any(d == 0.5):
        return None
    low = floor.astype(np.int32) + (d > 0.5)  # millionths, below 10**9
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
    texts = iter(chars.tobytes().translate(None, b"\0").decode().split("\n"))
    return [next(texts) if count else "" for count in counts]


def write_frames_csv(frames, out_path):
    """All frames in a single table: ``step,line_id,point_index,x,y``.

    Coordinates are written with shortest round-trip formatting, so files
    are reproducible and parse back to the exact evaluated values.
    """
    templates = {}  # row template per frame layout, usually one for all frames
    with open(out_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for step, frame in enumerate(frames):
            layout = tuple((line_id, len(pts)) for line_id, pts in frame)
            if not layout:
                continue
            if layout not in templates:
                templates[layout] = "".join(
                    f"%d,{str(line_id).replace('%', '%%')},{i},%r,%r\n"
                    for line_id, count in layout for i in range(count)
                )
            points = np.concatenate([pts for _, pts in frame])
            values = [step, 0.0, 0.0] * len(points)
            values[1::3] = points.real.tolist()
            values[2::3] = points.imag.tolist()
            fh.write(templates[layout] % tuple(values))


def write_frames_svg(frames, out_dir, size: int = 512):
    """One ``frame_XXX.svg`` per step, polylines only, shared global viewBox.

    Returns the list of file names written.  The y axis is flipped so the
    mathematical orientation is preserved on screen.
    """
    # reduced frame by frame: a copy of all frames' points at once raised peak
    # RSS by about 3 MB on the shipped configs
    extent = 1.0
    for frame in frames:
        xy = np.concatenate([pts for _, pts in frame] or [[]], dtype=complex).view(float)
        extent = float(np.fmax.reduce(np.abs(xy), initial=extent))  # fmax skips NaN
    half = 1.05 * extent
    header = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
              f'viewBox="{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}">')
    polyline = f'<polyline fill="none" stroke="black" stroke-width="{half / 256:.6f}" points="'
    names = []
    for step, frame in enumerate(frames):
        parts = [header]
        lines = [pts for _, pts in frame]
        texts = points_text(lines) or [
            " ".join(["%.6f,%.6f"] * len(pts))
            % tuple(np.conjugate(pts, dtype=complex).view(float).tolist())
            for pts in lines
        ]
        parts.extend(polyline + text + '"/>' for text in texts)
        parts.append("</svg>")
        name = f"frame_{step:03d}.svg"
        with open(f"{out_dir}/{name}", "w") as fh:
            fh.write("\n".join(parts) + "\n")
        names.append(name)
    return names
