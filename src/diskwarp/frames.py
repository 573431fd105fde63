"""Mesh warp frames: images of a polar grid under each step of a path.

A frame traces concentric circles (radius ``j/R`` for ``j = 1..R``) and
radial spokes (angle ``2 pi m / A``) of the unit disk through one step's
polynomial.  Frames serialize either as a single CSV table or as one SVG of
plain polylines per step; both writers are deterministic byte for byte.
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
    rows = [CSV_HEADER]
    for step, frame in enumerate(frames):
        for line_id, pts in frame:
            for i, z in enumerate(pts):
                rows.append(f"{step},{line_id},{i},{float(z.real)!r},{float(z.imag)!r}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def write_frames_svg(frames, out_dir, size: int = 512):
    """One ``frame_XXX.svg`` per step, polylines only, shared global viewBox.

    Returns the list of file names written.  The y axis is flipped so the
    mathematical orientation is preserved on screen.
    """
    extent = 1.0
    for frame in frames:
        for _, pts in frame:
            extent = max(extent, float(np.max(np.abs(pts.real))), float(np.max(np.abs(pts.imag))))
    half = 1.05 * extent
    names = []
    for step, frame in enumerate(frames):
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}">'
        ]
        for _, pts in frame:
            coords = " ".join(f"{z.real:.6f},{-z.imag:.6f}" for z in pts)
            parts.append(
                f'<polyline fill="none" stroke="black" stroke-width="{half / 256:.6f}" '
                f'points="{coords}"/>'
            )
        parts.append("</svg>")
        name = f"frame_{step:03d}.svg"
        with open(f"{out_dir}/{name}", "w") as fh:
            fh.write("\n".join(parts) + "\n")
        names.append(name)
    return names
