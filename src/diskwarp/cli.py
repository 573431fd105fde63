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
wall-clock timings go to stdout only.  A run exits 0 on success; each
failure it reports exits with the code that :data:`FAILURES` gives it.  A
usage error, such as a missing verb or argument, exits with the code of a
config error after argparse prints the usage; ``--help`` exits 0.
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

# The failures a run reports: their types, their label on stderr and their exit
# code.  Any other exception, SingularInertiaError included, ends in a traceback.
FAILURES = (
    ((ConfigParseError, ConfigValidationError, OSError), "config error", 1),
    (NoConvergenceError, "no convergence", 2),
    (NotConformalError, "not conformal", 3),
    (BranchFailureError, "branch failure", 4),
)


def run_experiment(config: ExperimentConfig, output_dir=None):
    """Solve one experiment and write its frames and report.

    Returns ``(result, out_dir, elapsed_seconds)``.  Nothing is written when
    the solver fails, so output directories never hold partial frames.
    """
    out_dir = _output_dir(output_dir or f"out/{config.name}", config)
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
    out_dir = _output_dir(output_dir or f"out/{config.name}-oracle", config)
    c1 = complex(target[1])
    ts = np.linspace(0.0, 1.0, config.num_steps + 1)
    try:
        coeffs = closed_form(1.0 + 0j, c1, config.alpha, ts)
    except ValueError as exc:  # a target or an alpha outside the closed form's range
        raise ConfigValidationError(f"oracle: {exc}") from None
    steps = np.zeros((config.num_steps + 1, config.degree_bound), dtype=complex)
    steps[:, 1] = coeffs
    path = DiscretePath(steps)

    _write_run(config, path, out_dir, "oracle", [
        f"coefficients: {_pairs(coeffs)}",
        f"action: {discrete_action(path, config.alpha)!r}",
    ])
    return path, out_dir


def _output_dir(path, config: ExperimentConfig) -> Path:
    """``path`` as a Path; ConfigValidationError if the filesystem encoding
    cannot encode it, if its nearest existing ancestor (or itself) is a file
    other than a directory or a dangling symlink, if a name it would make
    there is longer than that filesystem allows, or if the path of the
    longest file a run of ``config`` writes in it would reach the
    filesystem's path limit, so that a run fails before its compute."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ConfigValidationError(
            f"output directory {str(path)!r} cannot be encoded in the filesystem "
            f"encoding {sys.getfilesystemencoding()!r}") from None
    path = Path(path)
    # a relative path ends in ".", an absolute one in "/"; both exist
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigValidationError(
            f"output directory {str(path)!r} cannot be made: {str(existing)!r} is not a directory")
    name_max = os.pathconf(existing, "PC_NAME_MAX")
    if any(len(os.fsencode(name)) > name_max for name in path.parts[len(existing.parts):]):
        raise ConfigValidationError(
            f"output directory {str(path)!r} cannot be made: it holds a name longer than "
            f"the {name_max} bytes its filesystem allows")
    # frame_NNN.svg is longer than report.txt, report.txt as long as frames.csv
    longest = f"frame_{config.num_steps:03d}.svg" if config.frame_format == "svg" else "report.txt"
    size, path_max = len(os.fsencode(path / longest)), os.pathconf(existing, "PC_PATH_MAX")
    if size >= path_max:  # PC_PATH_MAX counts the terminating NUL
        raise ConfigValidationError(
            f"output directory {str(path)!r} cannot be made: the path of {longest!r} in it "
            f"would take {size} bytes, and its filesystem takes fewer than {path_max}")
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


def run_check() -> int:
    """Run :data:`diskwarp.checks.BATTERY` from one seeded generator, one line
    per check to stdout; returns the number of failures."""
    rng = np.random.default_rng(0)
    failures = 0
    for name, check, args, tolerance in BATTERY:
        worst = check(rng, *args)
        ok = worst <= tolerance
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: worst {worst:.2e}")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage, or the help
        return 0 if exc.code == 0 else FAILURES[0][2]  # a usage error is a config error
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
        # sweep, the one verb left: the subparsers require a verb
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
        base = _output_dir(args.output or f"out/{config.name}", config)
        out_dirs = [_output_dir(base / name, variant) for name, variant in variants.items()]
        status = 0
        for out_dir, variant in zip(out_dirs, variants.values()):
            alpha = variant.alpha
            try:
                result, _, elapsed = run_experiment(variant, out_dir)
                print(
                    f"alpha={alpha:<8g} action={result.action:<14.9g} "
                    f"iterations={result.iterations:<5d} {elapsed:.2f} s -> {out_dir}"
                )
            except (NoConvergenceError, NotConformalError) as exc:
                print(f"alpha={alpha:<8g} FAILED: {exc}")
                status = max(status, next(code for kinds, _, code in FAILURES
                                          if isinstance(exc, kinds)))
        return status
    except Exception as exc:
        for kinds, label, code in FAILURES:
            if isinstance(exc, kinds):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
