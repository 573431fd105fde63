"""Mesh warp frames: images of a polar grid under each step of a path.

A frame traces concentric circles (radius ``j/R`` for ``j = 1..R``) and
radial spokes (angle ``2 pi m / A``) of the unit disk through one step's
polynomial.  Frames serialize either as a single CSV table or as one SVG of
plain polylines per step; both writers are deterministic byte for byte.

The writers format whole arrays, not points: an SVG polyline is one ``%``
over its interleaved ``x, -y`` list, and a CSV frame is one ``%`` over its
interleaved ``(step, x, y)`` list with a row template built once per frame
layout.  ``%.6f`` and ``%r`` on Python floats give the same bytes as
per-point f-strings, and nearly all of the writers' time is the float
formatting itself.
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
        for _, pts in frame:
            # x, -y interleaved; conjugation negates a zero imaginary part to -0.000000
            xy = np.conjugate(pts, dtype=complex).view(float).tolist()
            parts.append(polyline + " ".join(["%.6f,%.6f"] * len(pts)) % tuple(xy) + '"/>')
        parts.append("</svg>")
        name = f"frame_{step:03d}.svg"
        with open(f"{out_dir}/{name}", "w") as fh:
            fh.write("\n".join(parts) + "\n")
        names.append(name)
    return names
