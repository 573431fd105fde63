"""Seeded inputs, items and correctness checks of the benchmark workloads.

Every workload writes its inputs as config files, and every item loads its
config with ``diskwarp.config.load_config`` before calling into the package,
as the ``diskwarp`` command does.  Seed 0 reproduces the shipped inputs.

* ``shipped``: ``cli.run_experiment`` on all ten ``configs/*.json`` at their
  shipped (N, n) = (20, 16), writing SVG frames.
* ``large``: the library call ``solver.solve`` (which ends with the
  certificate), no frames, on the example5a target at (N, n) = (40, 64) and
  the example5c target at (20, 128).
* ``oracle``: ``cli.run_oracle`` on the four linear configs, each written
  once as SVG and once as CSV.

For ``shipped`` and ``large`` a nonzero seed replaces every target by its
conformal analogue and then applies a random isometry to it.  The analogue
keeps ``c_0`` and ``c_1`` and scales ``c_2 .. c_7`` by one factor so that
``sum_{j>=2} j|c_j| = |c_1|/2``; then ``|phi' - c_1| <= |c_1|/2`` on the
closed disk, so the target is conformal.  The shipped nonlinear targets are
not: each ``phi'`` has six zeros inside the unit disk, which the solver's
sampled certificate passes or rejects depending on how its grid lines up
with them, so rotated copies of them fail on some seeds.  The isometry is a
rotation conjugation ``phi(z) -> exp(-i t) phi(exp(i t) z)`` (coefficient
j times ``exp(i t (j-1))``) with ``t`` uniform in ``[0, 2 pi)`` and, with
probability 1/2, the reflection ``phi(z) -> conj(phi(conj z))``.  Both are
isometries of the metric that fix the identity, so every nonzero seed poses
an equivalent geodesic problem with different coefficients: its minimal
action is the one recorded for the analogue in ``reference.json``, and its
cost stays that of the analogue.  Random degree-7 targets drawn afresh per
seed would spread the optimizer's iteration count by about 10% from seed to
seed instead.  For ``oracle`` a nonzero seed draws new linear targets (a
real scaling, or a rotation) inside the closed form's branch-safe region;
the oracle's cost does not depend on them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import diskwarp.action
import diskwarp.cli
import diskwarp.config
import diskwarp.frames
import diskwarp.linear_geodesics
import diskwarp.solver

WORKLOADS = ("shipped", "large", "oracle")

LINEAR = ("example1a", "example1b", "example2a", "example2b")
# (config, N, n) of the large items: one grows N, one grows n.
LARGE = (("example5a", 40, 64), ("example5c", 20, 128))

ACTION_RTOL = 1e-9
# Closest the affine path of q = c**2 + alpha c may pass to the closed
# form's branch point -alpha**2/4.
BRANCH_MARGIN = 0.1


@dataclass(frozen=True)
class Item:
    """One unit of work.  ``run()`` is timed; before it the runner empties
    ``out_dir`` (when there is one) so that ``check(outcome)``, which is not
    timed, sees only this run's files.  ``check`` returns the problems found,
    an empty list when the output is correct."""

    name: str
    config_path: Path
    num_steps: int
    degree_bound: int
    out_dir: Path | None
    run: Callable[[], object]
    check: Callable[[object], list]


def build(workload, seed, configs_dir, work_dir, reference):
    """Write the workload's config files for ``seed`` under ``work_dir`` and
    return its items."""
    rng = np.random.default_rng(seed)
    (work_dir / "configs").mkdir(parents=True, exist_ok=True)
    shipped = {p.stem: json.loads(p.read_text()) for p in sorted(configs_dir.glob("*.json"))}
    items = []
    # Recorded actions of the shipped targets (seed 0) or of their analogues.
    actions = reference["shipped_targets" if seed == 0 else "conformal_analogues"]
    if workload == "shipped":
        for name, raw in shipped.items():
            raw = dict(raw, target=_pairs(seeded_target(rng, seed, _target(raw))))
            path = _write(work_dir, name, raw)
            items.append(_experiment_item(name, path, raw, work_dir / "out" / name,
                                          actions["shipped"][name]))
    elif workload == "large":
        for base, num_steps, degree_bound in LARGE:
            name = f"{base}-N{num_steps}-n{degree_bound}"
            raw = dict(shipped[base], name=name, N=num_steps, n=degree_bound)
            raw["target"] = _pairs(seeded_target(rng, seed, _target(raw)))
            path = _write(work_dir, name, raw)
            items.append(_solve_item(name, path, raw, actions["large"][name]))
    elif workload == "oracle":
        for base in LINEAR:
            raw = dict(shipped[base])
            if seed:
                raw["target"] = _pairs(_linear_target(rng, _target(raw)[1], raw["alpha"]))
            for fmt in ("svg", "csv"):
                name = f"{base}-{fmt}"
                variant = dict(raw, name=name, format=fmt)
                path = _write(work_dir, name, variant)
                items.append(_oracle_item(name, path, variant, work_dir / "out" / name))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return items


def _target(raw):
    return np.array([complex(re, im) for re, im in raw["target"]])


def _pairs(coeffs):
    return [[float(z.real), float(z.imag)] for z in coeffs]


def _write(work_dir, name, raw):
    path = work_dir / "configs" / f"{name}.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


def seeded_target(rng, seed, target):
    """The shipped ``target`` at seed 0; otherwise a random isometric image
    of its conformal analogue."""
    if seed == 0:
        return target
    return _isometry(rng, conformal_analogue(target))


def conformal_analogue(target):
    """``target`` with ``c_2, c_3, ...`` scaled by one factor so that
    ``sum_{j>=2} j|c_j| = |c_1|/2``; linear targets are returned as they are."""
    out = np.array(target, dtype=complex)
    weight = np.sum(np.arange(2, len(out)) * np.abs(out[2:]))
    if weight > 0:
        out[2:] *= 0.5 * abs(out[1]) / weight
    return out


def _isometry(rng, target):
    """Rotation conjugation plus, half the time, reflection."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    out = target * np.exp(1j * theta * (np.arange(len(target)) - 1))
    return np.conj(out) if rng.integers(2) else out


def _linear_target(rng, shipped_c1, alpha):
    """A new linear target of the shipped one's kind whose closed form has a
    continuous branch: a real scaling in [0.3, 0.9], or a unit rotation by
    0.2 pi to 0.45 pi either way."""
    while True:
        if shipped_c1.imag == 0:
            c1 = complex(rng.uniform(0.3, 0.9))
        else:
            c1 = np.exp(1j * np.pi * rng.choice((-1, 1)) * rng.uniform(0.2, 0.45))
        if _branch_distance(c1, alpha) >= BRANCH_MARGIN:
            return np.array([0.0, c1])


def _branch_distance(c1, alpha):
    """Distance from -alpha**2/4 to the segment from q(1) to q(c1)."""
    q0, q1, b = 1.0 + alpha, c1 * c1 + alpha * c1, -alpha * alpha / 4.0
    t = np.clip(((b - q0) * np.conj(q1 - q0)).real / max(abs(q1 - q0) ** 2, 1e-300), 0.0, 1.0)
    return abs(q0 + t * (q1 - q0) - b)


def _experiment_item(name, path, raw, out_dir, reference):
    def run():
        config = diskwarp.config.load_config(path)
        return diskwarp.cli.run_experiment(config, out_dir)[0]

    return Item(name, path, raw["N"], raw["n"], out_dir, run,
                lambda result: check_solve(raw, result, reference) + check_files(raw, out_dir))


def _solve_item(name, path, raw, reference):
    def run():
        config = diskwarp.config.load_config(path)
        solver_config = diskwarp.solver.SolverConfig(
            n=config.degree_bound, num_steps=config.num_steps, alpha=config.alpha
        )
        return diskwarp.solver.solve(solver_config, config.target)

    return Item(name, path, raw["N"], raw["n"], None, run,
                lambda result: check_solve(raw, result, reference))


def _oracle_item(name, path, raw, out_dir):
    def run():
        config = diskwarp.config.load_config(path)
        return diskwarp.cli.run_oracle(config, out_dir)[0]

    return Item(name, path, raw["N"], raw["n"], out_dir, run,
                lambda path_out: check_oracle(raw, path_out) + check_files(raw, out_dir))


def check_solve(raw, result, reference):
    """Problems with a solved geodesic: convergence, stationarity recomputed
    through the public gradient, the conformality certificate, the endpoints
    and the action against the recorded reference."""
    problems = []
    if not result.converged:
        problems.append("solve did not converge")
    alpha = float(raw["alpha"])
    grad_tol = diskwarp.solver.SolverConfig(n=raw["n"], num_steps=raw["N"], alpha=alpha).grad_tol
    grad = diskwarp.action.action_gradient(result.path, alpha)
    sup = max(float(np.max(np.abs(grad.real))), float(np.max(np.abs(grad.imag))))
    if not sup <= grad_tol:
        problems.append(f"gradient sup-norm {sup:.3e} above grad_tol {grad_tol:.1e}")
    margin = float(np.min(result.conformal_certificate))
    if not margin > diskwarp.solver.CONFORMAL_MIN_DERIV:
        problems.append(f"certificate minimum {margin:.3e} not above "
                        f"{diskwarp.solver.CONFORMAL_MIN_DERIV}")
    steps = result.path.steps
    target = diskwarp.solver.project_by_truncation(_target(raw), raw["n"])
    if steps.shape != (raw["N"] + 1, raw["n"]):
        problems.append(f"path shape {steps.shape}")
    elif not (np.array_equal(steps[0], diskwarp.solver.identity_map(raw["n"]))
              and np.array_equal(steps[-1], target)):
        problems.append("path does not join the identity to the target")
    rel = abs(result.action - reference) / abs(reference)
    if not rel <= ACTION_RTOL:
        problems.append(f"action {result.action!r} differs from reference "
                        f"{reference!r} by {rel:.2e} relative")
    return problems


def check_oracle(raw, path):
    """Problems with an oracle path: coefficients against ``closed_form``."""
    problems = []
    num_steps, alpha = raw["N"], float(raw["alpha"])
    c1 = complex(*raw["target"][1])
    expected = diskwarp.linear_geodesics.closed_form(
        1.0 + 0j, c1, alpha, np.linspace(0.0, 1.0, num_steps + 1))
    steps = path.steps
    if steps.shape != (num_steps + 1, raw["n"]):
        problems.append(f"path shape {steps.shape}")
    elif not np.array_equal(steps[:, 1], expected) or np.any(np.delete(steps, 1, axis=1)):
        problems.append("coefficients differ from closed_form")
    return problems


def check_files(raw, out_dir):
    """Problems with a run's output directory: ``report.txt`` plus N+1 SVG
    frames, or a CSV table with one row per mesh point of every frame."""
    problems = [] if (out_dir / "report.txt").is_file() else ["report.txt missing"]
    frames = raw["N"] + 1
    if raw.get("format", "svg") == "csv":
        mesh = diskwarp.frames.disk_mesh(raw["mesh"]["circles"], raw["mesh"]["rays"])
        points = sum(len(pts) for _, pts in mesh)
        csv = out_dir / "frames.csv"
        rows = csv.read_bytes().count(b"\n") if csv.is_file() else 0
        if rows != 1 + frames * points:
            problems.append(f"frames.csv has {rows} lines, expected {1 + frames * points}")
    else:
        found = len(list(out_dir.glob("frame_*.svg")))
        if found != frames:
            problems.append(f"{found} SVG frames, expected {frames}")
    return problems
