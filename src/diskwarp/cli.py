"""Batch front-end: run geodesic experiments from config files.

Verbs:

* ``solve <config>``: run the geodesic solver, write warp frames and a
  report into the output directory.
* ``oracle <config>``: closed-form reference path for linear targets,
  written in the same frame/report layout.
* ``check``: the analytic identities of :mod:`diskwarp.checks`, the same
  functions the tests call; nonzero exit on any failure.
* ``sweep --alpha <list> <config>``: re-run one config across several
  metric weights, one output subdirectory each.

Reports and frames are reproducible byte for byte for identical configs;
wall-clock timings go to stdout only.  Exit codes: 0 success, 1 usage or
config errors, 2 no convergence, 3 lost conformality, 4 closed-form branch
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .action import DiscretePath, discrete_action
from .checks import BATTERY
from .config import ExperimentConfig, load_config
from .errors import (
    BranchFailureError,
    ConfigParseError,
    ConfigValidationError,
    NoConvergenceError,
    NotConformalError,
)
from .frames import warp_frames, write_frames_csv, write_frames_svg
from .linear_geodesics import closed_form
from .solver import SolverConfig, solve

__all__ = ["main", "run_experiment", "run_oracle", "run_check"]


def run_experiment(config: ExperimentConfig, output_dir=None):
    """Solve one experiment and write its frames and report.

    Returns ``(result, out_dir, elapsed_seconds)``.  Nothing is written when
    the solver fails, so output directories never hold partial frames.
    """
    out_dir = _output_dir(output_dir or config.output or f"out/{config.name}")
    t0 = time.perf_counter()
    result = solve(SolverConfig(n=config.degree_bound, num_steps=config.num_steps,
                                alpha=config.alpha), config.target)
    elapsed = time.perf_counter() - t0

    _write_run(config, result.path, out_dir, "solve", [
        f"converged: {str(result.converged).lower()}",
        f"iterations: {result.iterations}",
        f"action: {result.action!r}",
        f"grad_norm: {result.grad_norm!r}",
        f"conformal_certificate_min: {float(result.conformal_certificate.min())!r}",
        f"conformal_certificate: "
        f"[{', '.join(repr(float(v)) for v in result.conformal_certificate)}]",
    ])
    return result, out_dir, elapsed


def run_oracle(config: ExperimentConfig, output_dir=None):
    """Closed-form reference path for a linear target ``c z``."""
    target = config.target
    if len(target) < 2 or target[0] != 0 or np.any(target[2:] != 0):
        raise ConfigValidationError(
            f"oracle needs a linear target (only the z coefficient nonzero), "
            f"got {target.tolist()}"
        )
    out_dir = _output_dir(output_dir or config.output or f"out/{config.name}-oracle")
    c1 = complex(target[1])
    ts = np.linspace(0.0, 1.0, config.num_steps + 1)
    coeffs = closed_form(1.0 + 0j, c1, config.alpha, ts)
    steps = np.zeros((config.num_steps + 1, config.degree_bound), dtype=complex)
    steps[:, 1] = coeffs
    path = DiscretePath(steps)

    _write_run(config, path, out_dir, "oracle", [
        f"coefficients: {_pairs(coeffs)}",
        f"action: {discrete_action(path, config.alpha)!r}",
    ])
    return path, out_dir


def _output_dir(path) -> Path:
    """``path`` as a Path; ConfigValidationError if the filesystem encoding
    cannot encode it or if it or a parent is a file other than a directory
    or a dangling symlink, so that a run fails before its compute."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigValidationError(
            f"output directory {str(path)!r} cannot be encoded in the filesystem "
            f"encoding {sys.getfilesystemencoding()!r}") from None
    path = Path(path)
    for parent in (path, *path.parents):
        if os.path.lexists(parent) and not parent.is_dir():
            raise ConfigValidationError(
                f"output directory {str(path)!r} cannot be made: {str(parent)!r} is not a directory")
    return path


def _pairs(values) -> str:
    return "[" + ", ".join(
        f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in np.atleast_1d(values)
    ) + "]"


def _write_run(config: ExperimentConfig, path: DiscretePath, out_dir: Path, kind: str, fields):
    """Write the frames of ``path`` and a report of the config, ``fields`` and
    the frame files into ``out_dir``, removing the frame files an earlier run
    left there that the report does not list."""
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = warp_frames(path, config.mesh_circles, config.mesh_rays)
    if config.frame_format == "csv":
        write_frames_csv(frames, out_dir / "frames.csv")
        frame_files = ["frames.csv"]
    else:
        frame_files = write_frames_svg(frames, out_dir)
    earlier = {p.name for p in out_dir.glob("frame_*.svg") if p.stem[6:].isdigit()}
    for name in (earlier | {"frames.csv"}) - set(frame_files):
        (out_dir / name).unlink(missing_ok=True)
    lines = [
        f"name: {config.name}",
        f"kind: {kind}",
        f"alpha: {config.alpha!r}",
        f"time_steps: {config.num_steps}",
        f"degree_bound: {config.degree_bound}",
        f"target: {_pairs(config.target)}",
        *fields,
        f"frames: {frame_files}",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_check(stream=None) -> int:
    """Run :data:`diskwarp.checks.BATTERY` from one seeded generator, one line
    per check to ``stream`` (default stdout); returns the number of failures."""
    rng = np.random.default_rng(0)
    failures = 0
    for name, check, args, tolerance in BATTERY:
        worst = check(rng, *args)
        ok = worst <= tolerance
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: worst {worst:.2e}", file=stream)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diskwarp",
        description="Geodesic warps between conformal maps of the unit disk.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="solve a geodesic experiment config")
    p_solve.add_argument("config", type=Path)
    p_solve.add_argument("--output", type=Path, default=None)

    p_oracle = sub.add_parser("oracle", help="closed-form path for a linear target")
    p_oracle.add_argument("config", type=Path)
    p_oracle.add_argument("--output", type=Path, default=None)

    sub.add_parser("check", help="run the self-test battery")

    p_sweep = sub.add_parser("sweep", help="run one config across several alphas")
    p_sweep.add_argument("--alpha", required=True,
                         help="comma-separated metric weights, e.g. 0.1,1,10")
    p_sweep.add_argument("config", type=Path)
    p_sweep.add_argument("--output", type=Path, default=None)

    # a config name the locale cannot encode must not fail a finished run
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):  # not, say, an io.StringIO
            stream.reconfigure(errors="backslashreplace")
    args = parser.parse_args(argv)
    try:
        if args.verb == "solve":
            config = load_config(args.config)
            result, out_dir, elapsed = run_experiment(config, args.output)
            print(
                f"{config.name}: converged in {result.iterations} iterations, "
                f"action {result.action:.9g}, grad norm {result.grad_norm:.3e}, "
                f"min |phi'| {result.conformal_certificate.min():.4f}, "
                f"{elapsed:.2f} s -> {out_dir}"
            )
            return 0
        if args.verb == "oracle":
            config = load_config(args.config)
            _, out_dir = run_oracle(config, args.output)
            print(f"{config.name}: oracle path written -> {out_dir}")
            return 0
        if args.verb == "check":
            failures = run_check()
            print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
            return 0 if failures == 0 else 1
        if args.verb == "sweep":
            config = load_config(args.config)
            try:
                alphas = [float(v) for v in args.alpha.split(",") if v]
            except ValueError as exc:
                raise ConfigValidationError(f"--alpha: {exc}") from None
            if not alphas:
                raise ConfigValidationError("--alpha: empty alpha list")
            # every variant and its directory are checked before the first solve
            variants = {
                f"alpha-{alpha:g}":
                    replace(config, name=f"{config.name}-alpha{alpha:g}", alpha=alpha)
                for alpha in alphas
            }
            if len(variants) < len(alphas):
                raise ConfigValidationError(
                    f"--alpha: values in {args.alpha} that agree to 6 digits share a directory"
                )
            base = _output_dir(args.output or config.output or f"out/{config.name}")
            status = 0
            for dir_name, variant in variants.items():
                alpha = variant.alpha
                try:
                    result, out_dir, elapsed = run_experiment(variant, base / dir_name)
                    print(
                        f"alpha={alpha:<8g} action={result.action:<14.9g} "
                        f"iterations={result.iterations:<5d} {elapsed:.2f} s -> {out_dir}"
                    )
                except (NoConvergenceError, NotConformalError) as exc:
                    print(f"alpha={alpha:<8g} FAILED: {exc}")
                    status = max(status, 2 if isinstance(exc, NoConvergenceError) else 3)
            return status
    except (ConfigParseError, ConfigValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 2
    except NotConformalError as exc:
        print(f"not conformal: {exc}", file=sys.stderr)
        return 3
    except BranchFailureError as exc:
        print(f"branch failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
