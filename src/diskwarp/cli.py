"""Batch front-end: run geodesic experiments from config files.

Verbs:

* ``solve <config>``: run the geodesic solver, write warp frames and a
  report into the output directory.
* ``oracle <config>``: closed-form reference path for linear targets,
  written in the same frame/report layout.
* ``check``: fast deterministic self-test battery of the library's
  analytic identities; nonzero exit on any failure.
* ``sweep --alpha <list> <config>``: re-run one config across several
  metric weights, one output subdirectory each.

Reports and frames are reproducible byte for byte for identical configs;
wall-clock timings go to stdout only.  Exit codes: 0 success, 1 usage or
config errors, 2 no convergence, 3 lost conformality, 4 closed-form branch
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .action import DiscretePath, action_and_gradient, action_gradient, discrete_action
from .config import ExperimentConfig, load_config
from .errors import (
    BranchFailureError,
    ConfigParseError,
    ConfigValidationError,
    NoConvergenceError,
    NotConformalError,
)
from .frames import warp_frames, write_frames_csv, write_frames_svg
from .linear_geodesics import LinearState, closed_form, integrate_reduced, match_velocity
from .poly import adjoint_dz, derivative, inner_l2, mul_fft, mul_naive
from .solver import GeodesicResult, SolverConfig, solve

__all__ = ["main", "run_experiment", "run_oracle", "run_check"]


def run_experiment(config: ExperimentConfig, output_dir=None):
    """Solve one experiment and write its frames and report.

    Returns ``(result, out_dir, elapsed_seconds)``.  Nothing is written when
    the solver fails, so output directories never hold partial frames.
    """
    t0 = time.perf_counter()
    solver_config = SolverConfig(
        n=config.degree_bound, num_steps=config.num_steps, alpha=config.alpha
    )
    result = solve(solver_config, config.target)
    elapsed = time.perf_counter() - t0

    out_dir = Path(output_dir or config.output or f"out/{config.name}")
    out_dir.mkdir(parents=True, exist_ok=True)
    frame_files = _emit_frames(result.path, config, out_dir)
    report = _format_report(config, result, frame_files)
    (out_dir / "report.txt").write_text(report)
    return result, out_dir, elapsed


def run_oracle(config: ExperimentConfig, output_dir=None):
    """Closed-form reference path for a linear target ``c z``."""
    target = config.target
    if len(target) < 2 or target[0] != 0 or np.any(target[2:] != 0):
        raise ConfigValidationError(
            f"oracle needs a linear target (only the z coefficient nonzero), "
            f"got {target.tolist()}"
        )
    c1 = complex(target[1])
    ts = np.linspace(0.0, 1.0, config.num_steps + 1)
    coeffs = closed_form(1.0 + 0j, c1, config.alpha, ts)
    steps = np.zeros((config.num_steps + 1, config.degree_bound), dtype=complex)
    steps[:, 1] = coeffs
    path = DiscretePath(steps)

    out_dir = Path(output_dir or config.output or f"out/{config.name}-oracle")
    out_dir.mkdir(parents=True, exist_ok=True)
    frame_files = _emit_frames(path, config, out_dir)
    lines = [
        f"name: {config.name}",
        f"kind: oracle",
        f"alpha: {config.alpha!r}",
        f"time_steps: {config.num_steps}",
        f"degree_bound: {config.degree_bound}",
        f"target: {_pairs(target)}",
        f"coefficients: {_pairs(coeffs)}",
        f"action: {discrete_action(path, config.alpha)!r}",
        f"frames: {frame_files}",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return path, out_dir


def _emit_frames(path: DiscretePath, config: ExperimentConfig, out_dir: Path):
    frames = warp_frames(path, config.mesh_circles, config.mesh_rays)
    if config.frame_format == "csv":
        write_frames_csv(frames, out_dir / "frames.csv")
        return ["frames.csv"]
    return write_frames_svg(frames, out_dir)


def _pairs(values) -> str:
    return "[" + ", ".join(
        f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in np.atleast_1d(values)
    ) + "]"


def _format_report(config: ExperimentConfig, result: GeodesicResult, frame_files) -> str:
    lines = [
        f"name: {config.name}",
        f"kind: solve",
        f"alpha: {config.alpha!r}",
        f"time_steps: {config.num_steps}",
        f"degree_bound: {config.degree_bound}",
        f"target: {_pairs(config.target)}",
        f"converged: {str(result.converged).lower()}",
        f"iterations: {result.iterations}",
        f"action: {result.action!r}",
        f"grad_norm: {result.grad_norm!r}",
        f"conformal_certificate_min: {float(result.conformal_certificate.min())!r}",
        f"conformal_certificate: "
        f"[{', '.join(repr(float(v)) for v in result.conformal_certificate)}]",
        f"frames: {frame_files}",
    ]
    return "\n".join(lines) + "\n"


def run_check(stream=sys.stdout) -> int:
    """Deterministic self-test battery; returns the number of failures."""
    rng = np.random.default_rng(0)
    failures = 0

    def report(name, ok, detail):
        nonlocal failures
        failures += not ok
        stream.write(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}\n")

    def random_poly(max_len=33):
        m = int(rng.integers(1, max_len))
        return rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)

    worst = 0.0
    for _ in range(50):
        xi, eta = random_poly(), random_poly()
        lhs = inner_l2(xi, derivative(eta))
        rhs = inner_l2(adjoint_dz(xi), eta)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    report("adjoint identity <xi, eta'> = <adj xi, eta>", worst <= 1e-12, f"worst {worst:.2e}")

    worst = 0.0
    for _ in range(20):
        p, q = random_poly(65), random_poly(65)
        a, b = mul_naive(p, q), mul_fft(p, q)
        worst = max(worst, float(np.max(np.abs(a - b)) / (1 + np.max(np.abs(a)))))
    report("fft product matches direct convolution", worst <= 1e-12, f"worst {worst:.2e}")

    worst = 0.0
    for _ in range(5):
        steps = rng.standard_normal((21, 16)) + 1j * rng.standard_normal((21, 16))
        path = DiscretePath(steps)
        a = discrete_action(path, 0.3, "naive")
        b = discrete_action(path, 0.3, "fft")
        worst = max(worst, abs(a - b) / (1 + abs(a)))
    report("action fft mode matches naive mode", worst <= 1e-10, f"worst {worst:.2e}")

    def fd_error(steps, alpha, grad, eps=1e-6):
        """Worst gap of ten sampled components of ``grad`` to finite differences."""
        worst = 0.0
        for _ in range(10):
            k = int(rng.integers(1, steps.shape[0] - 1))
            j = int(rng.integers(0, steps.shape[1]))
            re = bool(rng.integers(0, 2))
            delta = eps if re else 1j * eps
            sp, sm = steps.copy(), steps.copy()
            sp[k, j] += delta
            sm[k, j] -= delta
            fd = (discrete_action(DiscretePath(sp), alpha) -
                  discrete_action(DiscretePath(sm), alpha)) / (2 * eps)
            an = grad[k - 1, j].real if re else grad[k - 1, j].imag
            worst = max(worst, abs(fd - an) / (1 + abs(fd)))
        return worst

    worst = 0.0
    for _ in range(3):
        steps = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        worst = max(worst, fd_error(steps, 0.7, action_gradient(DiscretePath(steps), 0.7)))
    report("analytic action gradient matches finite differences", worst <= 1e-6,
           f"worst {worst:.2e}")

    worst_f = worst_g = 0.0
    for _ in range(3):  # at the shipped (N, n) = (20, 16); larger actions take a larger step
        steps = rng.standard_normal((21, 16)) + 1j * rng.standard_normal((21, 16))
        f, grad = action_and_gradient(DiscretePath(steps), 0.7)
        worst_f = max(worst_f, abs(f / discrete_action(DiscretePath(steps), 0.7, "naive") - 1))
        worst_g = max(worst_g, fd_error(steps, 0.7, grad, eps=1e-4))
    report("fused action and gradient match naive mode and finite differences",
           worst_f <= 1e-12 and worst_g <= 1e-6, f"worst {worst_f:.2e} / {worst_g:.2e}")

    worst = 0.0
    for alpha in (0.0, 0.1, 1.0, 100.0):
        for _ in range(5):
            state = LinearState(
                1.0 + 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            traj = integrate_reduced(state, alpha, 1.0, 1000)
            qs = (2 * traj[:, 0] + alpha) * traj[:, 1] * traj[:, 0]
            worst = max(worst, float(np.max(np.abs(qs - qs[0]))))
    report("reduced dynamics conserve (2c+alpha)ac", worst <= 1e-10, f"worst {worst:.2e}")

    worst = 0.0
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(3):
        c1 = 1.0 + 0.4 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ref = closed_form(1.0 + 0j, c1, 0.5, ts)
        a0 = match_velocity(1.0 + 0j, c1, 0.5, steps=1000)
        traj = integrate_reduced(LinearState(1.0 + 0j, a0), 0.5, 1.0, 100)
        worst = max(worst, float(np.max(np.abs(traj[:, 0] - ref))))
    report("closed form agrees with integrated dynamics", worst <= 1e-7, f"worst {worst:.2e}")

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
            alphas = [float(v) for v in args.alpha.split(",") if v]
            if not alphas:
                print("sweep: empty alpha list", file=sys.stderr)
                return 1
            base = Path(args.output or config.output or f"out/{config.name}")
            status = 0
            for alpha in alphas:
                variant = ExperimentConfig(
                    name=f"{config.name}-alpha{alpha:g}",
                    alpha=alpha,
                    num_steps=config.num_steps,
                    degree_bound=config.degree_bound,
                    target=config.target,
                    mesh_circles=config.mesh_circles,
                    mesh_rays=config.mesh_rays,
                    frame_format=config.frame_format,
                )
                try:
                    result, out_dir, elapsed = run_experiment(
                        variant, base / f"alpha-{alpha:g}"
                    )
                    print(
                        f"alpha={alpha:<8g} action={result.action:<14.9g} "
                        f"iterations={result.iterations:<5d} {elapsed:.2f} s -> {out_dir}"
                    )
                except (NoConvergenceError, NotConformalError) as exc:
                    print(f"alpha={alpha:<8g} FAILED: {exc}")
                    status = 2 if isinstance(exc, NoConvergenceError) else 3
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
