"""Warp frame meshes and emitters."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from diskwarp import checks
from diskwarp.action import DiscretePath
from diskwarp.cli import run_oracle
from diskwarp.config import load_config
from diskwarp.frames import (CSV_HEADER, _scale, disk_mesh, points_text, repr_text,
                             warp_frames, write_frames_csv, write_frames_svg)
from diskwarp.solver import SolverConfig, solve


def linear_path(scales, n=4):
    steps = np.zeros((len(scales), n), dtype=complex)
    steps[:, 1] = scales
    return DiscretePath(steps)


def test_mesh_counts_and_radii():
    mesh = disk_mesh(circles=8, rays=16)
    assert len(mesh) == 24
    circle_ids = [line_id for line_id, _ in mesh if line_id.startswith("circle")]
    assert len(circle_ids) == 8
    for j, (line_id, pts) in enumerate(mesh[:8], start=1):
        assert len(pts) == 128
        assert np.allclose(np.abs(pts), j / 8)
        assert pts[0] == pytest.approx(pts[-1])  # closed loop
    for line_id, pts in mesh[8:]:
        assert len(pts) == 128
        assert pts[0] == 0


def test_identity_frames_reproduce_mesh():
    frames = warp_frames(linear_path([1.0, 1.0, 1.0]), circles=4, rays=8)
    assert len(frames) == 3
    mesh = disk_mesh(4, 8)
    for frame in frames:
        for (line_id, pts), (ref_id, ref_pts) in zip(frame, mesh):
            assert line_id == ref_id
            assert np.allclose(pts, ref_pts)


def test_scaling_halves_radii():
    frames = warp_frames(linear_path([1.0, 0.5]), circles=4, rays=4)
    for (line_id, pts), (_, ref_pts) in zip(frames[1], disk_mesh(4, 4)):
        assert np.allclose(pts, 0.5 * ref_pts)


def test_quadratic_warp_boundary_point():
    steps = np.zeros((2, 3), dtype=complex)
    steps[:, 1] = 1.0
    steps[1, 2] = 0.2
    frames = warp_frames(DiscretePath(steps), circles=2, rays=4)
    # outermost circle, theta = 0 sample: z = 1 maps to 1 + 0.2 = (1.2, 0)
    line_id, pts = frames[1][1]
    assert line_id == "circle-02"
    assert pts[0].real == pytest.approx(1.2)
    assert pts[0].imag == pytest.approx(0.0)


def test_csv_schema_and_roundtrip(tmp_path):
    path = linear_path([1.0, 0.5, 0.25])
    frames = warp_frames(path, circles=2, rays=3)
    out = tmp_path / "frames.csv"
    write_frames_csv(frames, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 5 * 128  # steps x lines x samples
    expected = [
        (step, line_id, i, z)
        for step, frame in enumerate(frames)
        for line_id, pts in frame
        for i, z in enumerate(pts)
    ]
    assert expected[0][:3] == (0, "circle-01", 0)
    for row, (step, line_id, i, z) in zip(lines[1:], expected, strict=True):
        fields = row.split(",")
        assert fields[:3] == [str(step), line_id, str(i)]
        # shortest-repr round trip gives back the exact evaluated coordinate
        assert (float(fields[3]), float(fields[4])) == (z.real, z.imag)


def test_svg_files_one_per_step(tmp_path):
    path = linear_path([1.0, 0.75, 0.5, 0.25])
    frames = warp_frames(path, circles=2, rays=2)
    names = write_frames_svg(frames, tmp_path)
    assert names == [f"frame_{k:03d}.svg" for k in range(4)]
    for name in names:
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline ") == 4
        assert "<path" not in text and "<circle" not in text


def test_svg_deterministic(tmp_path):
    path = linear_path([1.0, 0.5])
    frames = warp_frames(path, circles=3, rays=3)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_frames_svg(frames, a)
    write_frames_svg(frames, b)
    for name in ("frame_000.svg", "frame_001.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _reference_csv(frames, out_path):
    """The per-point CSV writer the array writer must match byte for byte."""
    rows = [CSV_HEADER]
    for step, frame in enumerate(frames):
        for line_id, pts in frame:
            for i, z in enumerate(pts):
                rows.append(f"{step},{line_id},{i},{float(z.real)!r},{float(z.imag)!r}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _reference_svg(frames, out_dir, size=512):
    """The per-point SVG writer the array writer must match byte for byte."""
    extent = 1.0
    for frame in frames:
        for _, pts in frame:
            if len(pts):
                extent = max(extent, float(np.max(np.abs(pts.real))),
                             float(np.max(np.abs(pts.imag))))
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


def _awkward_frames():
    """Signed zeros, exponent reprs, a point far outside the unit disk, lines
    of unequal length, a line id with a percent sign, an empty frame, lines
    without points, a rounding tie among values the fixed-point kernel takes,
    and integer parts of one to three digits.  For the CSV kernel: powers of
    two and their neighbours, where the rounding interval is asymmetric, the
    edges of its range 1e-4 and 1e15 and of positional ``repr`` at 1e16, the
    sum 0.1 + 0.2, and a dyadic value ``2.51564788818359375`` whose two
    nearest 17-digit decimals tie."""
    edges = np.array([2.0**-20, 0.5, 1024.0, 9.999999999999999e-05, 0.0001, 1e15, 1e16])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    return [
        [
            ("zeros", np.array([complex(0.0, 0.0), complex(-0.0, 0.0),
                                complex(0.0, -0.0), complex(-0.0, -0.0)])),
            ("tiny-%d", np.array([1e-05 - 1e-05j, -2.5e-07 + 3e-300j, 5e-324j])),
            ("one", np.array([0.1 + 0.2j])),
        ],
        [
            ("far", np.array([1e16 - 2e16j, -3.75 + 2.5j, 0.5 - 0.0j])),
            ("zeros", np.array([complex(-0.0, -0.0), 1 / 3 + 2j / 3])),
        ],
        [],
        [
            ("zeros", np.array([complex(0.0, 0.0), complex(-0.0, 0.0),
                                complex(0.0, -0.0), complex(-0.0, -0.0)])),
            ("tiny-%d", np.array([-1e-05 + 1e-05j, 2.5e-07 - 3e-300j, -5e-324j])),
            ("one", np.array([-0.1 - 0.2j])),
        ],
        [
            ("none", np.array([], dtype=complex)),
            ("digits", np.array([999.9999984 - 123.4567894j, -99.0000004 + 10.5j, -0.0185476j])),
            ("none-2", np.array([], dtype=complex)),
            ("one", np.array([7.0 + 0.0185474j])),
            ("none-3", np.array([], dtype=complex)),
        ],
        [
            ("safe", np.array([0.25 + 0.1j, -3.0000004 - 12.75j])),
            # 7812.5 and 23437.5 millionths: %.6f rounds ties to even
            ("tie", np.array([0.5 + 0.0078125j, -0.0234375 + 0.5j])),
        ],
        [
            ("edges", edges - 1j * edges[::-1]),
            ("sums", np.array([(0.1 + 0.2) - 2.51564788818359375j, -2.51564788818359375 + 0.3j])),
        ],
    ]


def _changing_layouts():
    """Twelve frames that alternate between two layouts, one with a line
    without points, then an empty frame and the awkward frames, so steps
    reach two digits while the layout changes."""
    rng = np.random.default_rng(13)
    frames = []
    for step in range(12):
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        frames.append([("a", z[:4]), ("b", z[4:])] if step % 2 else
                      [("a", z[:2]), ("none", z[:0]), ("c", z[2:])])
    return frames + [[]] + _awkward_frames()


def _solved_frames(name):
    """The frames of a shipped config's solve."""
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    result = solve(SolverConfig(n=config.degree_bound, num_steps=config.num_steps,
                                alpha=config.alpha), config.target)
    return warp_frames(result.path, config.mesh_circles, config.mesh_rays)


def _percent_text(lines):
    return [" ".join("%.6f,%.6f" % (z.real, -z.imag) for z in pts) for pts in lines]


def test_awkward_frames_take_the_kernel_and_the_fallback():
    """Only frames with a value out of the kernel's range decline any; the
    exact ties of frame 5 are rounded to even by the kernel."""
    results = [points_text([pts for _, pts in frame]) for frame in _awkward_frames()]
    assert [declined.any() for _, declined in results] == [False, True, False, False, False,
                                                           False, True]
    for frame, (texts, _) in zip(_awkward_frames(), results):
        assert texts == _percent_text([pts for _, pts in frame])


def test_seed_0_example4a_last_frame_takes_the_kernel():
    """The target's c_0 = 0.0185475 is phi(0), the first point of every ray,
    and 0.0185475 * 1e6 rounds to the half-integer 18547.5: the exact product
    decides, and no value is declined."""
    lines = [pts for _, pts in _solved_frames("example4a")[-1]]
    y = np.abs(np.concatenate(lines).view(float)) * 1e6
    assert np.any(y - np.floor(y) == 0.5)
    texts, declined = points_text(lines)
    assert not declined.any()
    assert texts == _percent_text(lines)


def test_a_value_from_1000_is_declined_alone(tmp_path):
    lines = [np.array([0.25 + 0.5j, -1.5 - 0.0078125j]),
             np.array([0.125 - 0.75j, 0.5 - 1000.0j, 3.0 + 0.0j]),
             np.array([], dtype=complex),
             np.array([-0.0234375 + 0.1j])]
    texts, declined = points_text(lines)
    assert np.flatnonzero(declined).tolist() == [7]  # -y of the line's second point
    assert texts == _percent_text(lines)
    frames = [[(f"line-{k}", pts) for k, pts in enumerate(lines)]]
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir(), ref.mkdir()
    assert write_frames_svg(frames, new) == _reference_svg(frames, ref) == ["frame_000.svg"]
    assert (new / "frame_000.svg").read_bytes() == (ref / "frame_000.svg").read_bytes()


def test_svg_coordinate_kernel_matches_percent_format():
    for seed in range(3):
        assert checks.svg_format(np.random.default_rng(seed), 300) == 0


def test_csv_rejects_nul_in_line_id(tmp_path):
    """NUL pads the writer's rows, so a line id cannot hold one."""
    with pytest.raises(ValueError, match="NUL"):
        write_frames_csv([[("a\0b", np.array([0.5 + 0.25j]))]], tmp_path / "frames.csv")


def test_csv_coordinate_kernel_matches_repr():
    for seed in range(3):
        assert checks.csv_format(np.random.default_rng(seed), 3000) == 0


def test_csv_kernel_scale_is_exact_from_1e_minus_4():
    """``repr_text`` forms ``X = |x| * 10**j`` as ``hi + lo`` through one
    table.  From 1e-4 up, where ``10**j`` is a double, ``hi + lo`` is ``X``
    and ``h`` half the gap above ``x`` times ``10**j``, both exactly; below,
    down to the least normal double, ``hi + lo`` is within ``5 * 2**-50``."""
    rng = np.random.default_rng(5)
    least = np.finfo(float).tiny
    positional = np.concatenate([10.0 ** rng.uniform(-4, 15, 2000),
                                 np.ldexp(1.0, np.arange(-13, 50))])  # all powers of two
    exponent_form = np.concatenate([10.0 ** rng.uniform(np.log10(least), -4, 2000),
                                    np.ldexp(1.0, np.arange(-1022, -13)), [least]])
    for values, bound in ((positional, 0), (exponent_form, Fraction(5, 2**50))):
        assert values.min() >= least and values.max() < 1e15
        for x, j, hi, lo, h in zip(values.tolist(), *(a.tolist() for a in _scale(values))):
            X = Fraction(x) * 10**j
            assert 1e16 - 2 < X < 1e17
            assert abs(Fraction(hi) + Fraction(lo) - X) <= bound, x
            if not bound:
                assert Fraction(h) == Fraction(math.ulp(x)) / 2 * 10**j, x


def test_csv_kernel_declines_few_values():
    """Declining every value would pass the format check with ``repr`` alone.
    The values include round-off near 1e-17, which ``repr`` writes with an
    exponent."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal(100_000) * np.repeat([1.0, 1e-17], 50_000)
    text, declined = repr_text(values)
    assert np.count_nonzero(declined) < 1000
    assert text.tobytes().replace(b"\0", b"").decode() == "".join(map(repr, values.tolist()))


@pytest.mark.parametrize("name", ["example1a", "example1b", "example2a", "example2b"])
def test_csv_kernel_declines_no_oracle_coordinate(tmp_path, config_dir, name):
    """The exact linear geodesics' frames, round-off included, take no
    ``repr`` of their own."""
    config = load_config(config_dir / f"{name}.json")
    path, _ = run_oracle(config, tmp_path)
    for frame in warp_frames(path, config.mesh_circles, config.mesh_rays):
        assert not repr_text(np.concatenate([pts for _, pts in frame]).view(float))[1].any()


@pytest.mark.parametrize("frames", [
    _awkward_frames(),
    warp_frames(linear_path([1.0, -0.5j, 1.5 + 1e-9j]), circles=2, rays=3),
    warp_frames(linear_path([0.5, 0.25j]), circles=2, rays=2),  # extent stays 1
    _changing_layouts(),
    # 752 values with |x| >= 1 and 5,976 in exponent form
    _solved_frames("example4a"),
], ids=["awkward", "warped", "inside", "changing-layouts", "example4a"])
def test_writers_match_per_point_reference(tmp_path, frames):
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir(), ref.mkdir()
    write_frames_csv(frames, new / "frames.csv")
    _reference_csv(frames, ref / "frames.csv")
    assert (new / "frames.csv").read_bytes() == (ref / "frames.csv").read_bytes()

    names = write_frames_svg(frames, new)
    assert names == _reference_svg(frames, ref)
    for name in names:
        assert (new / name).read_bytes() == (ref / name).read_bytes()
