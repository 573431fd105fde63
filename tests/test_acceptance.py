"""Acceptance suite: one pass/fail line per criterion (run with ``-s`` to see
them all; failures always show their line).

Criteria 4 and 5 compare solver paths for linear targets against
``linear_geodesics.closed_form``, the exact geodesic of the metric
``pi (|c|**2/2 + alpha) |dc|**2`` that the package's ``lagrangian`` induces
on the maps ``c z``.  At ``alpha = 0`` the midpoint rule is exact along that
geodesic (``|m delta|`` telescopes to ``|Delta(c**2/2)|``), so the N = 20 path
is compared directly.  At ``alpha > 0`` the discrete minimizer carries the
midpoint rule's O(h**2) error (about 7e-6 to 8e-5 at N = 20), so the checks
compare the Richardson value ``(4 c_40[2k] - c_20[k]) / 3`` of the N = 20 and
N = 40 solves, which removes it, at the same 1e-6 tolerance.
"""

import time

import numpy as np
import pytest

from diskwarp import checks
from diskwarp.action import DiscretePath, discrete_action, lagrangian
from diskwarp.cli import run_experiment
from diskwarp.config import load_config
from diskwarp.linear_geodesics import closed_form
from diskwarp.solver import CONFORMAL_MIN_DERIV, SolverConfig, solve

PI = np.pi
ROTATION = np.exp(0.4j * PI)
EXAMPLE4 = [0.0185475, 0.8034225, -0.13933275, -0.23849625, -0.18597975,
            -0.0125472, 0.18020775, 0.27937125]
EXAMPLE5 = [0.00674 + 0.053125j, 0.77654 + 0.103125j, 0.109424 + 0.103125j,
            -0.052777 + 0.103125j, -0.115049 + 0.103125j, -0.0409141 + 0.103125j,
            0.126201 + 0.103125j, 0.288402 + 0.103125j]


def criterion(number, ok, detail):
    print(f"\n[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def descent_holds(history):
    h = np.asarray(history)
    return bool(np.all(np.diff(h) <= 1e-12 * (1.0 + abs(h[0]))))


def test_criterion_1_adjointness():
    t0 = time.perf_counter()
    worst = checks.adjoint(np.random.default_rng(1), 200)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert criterion(1, ok, f"adjoint identity, 200 pairs, worst rel {worst:.2e}, {elapsed:.2f} s")


def _interleaved_times(fns, rounds=5, batch_time=0.05):
    """Warm cost per call of each function: the minimum over rounds of a
    batch's mean, with the batches of all functions taking turns in every
    round so that drifts in machine speed reach each of them alike."""
    reps = []
    for fn in fns:
        fn()
        t0 = time.perf_counter()
        fn()
        reps.append(max(3, int(batch_time / max(time.perf_counter() - t0, 1e-7))))
    best = [np.inf] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            for _ in range(reps[i]):
                fn()
            best[i] = min(best[i], (time.perf_counter() - t0) / reps[i])
    return best


def test_criterion_2_fft_equivalence_and_speedup():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = checks.action_modes(rng, 50)

    ratios = []
    for n in (64, 256, 1024):
        steps = rng.standard_normal((21, n)) + 1j * rng.standard_normal((21, n))
        path = DiscretePath(steps)
        t_naive, t_fft = _interleaved_times([lambda: discrete_action(path, 0.3, "naive"),
                                             lambda: discrete_action(path, 0.3, "fft")])
        ratios.append(t_naive / t_fft)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and ratios[0] < ratios[1] < ratios[2] and elapsed < 30.0
    assert criterion(
        2, ok,
        f"fft==fused==naive worst rel {worst:.2e}; naive/fft time ratios "
        f"{ratios[0]:.2f} -> {ratios[1]:.2f} -> {ratios[2]:.2f} "
        f"for n=64,256,1024; {elapsed:.1f} s",
    )


def test_criterion_3_gradient_check():
    t0 = time.perf_counter()
    # at a step of 1e-6 round-off in the action dominates the difference quotient
    worst = checks.gradient(np.random.default_rng(3), 20, (6, 8), 0.4, eps=1e-5)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    assert criterion(3, ok, f"every component of 20 random paths, worst rel {worst:.2e}, {elapsed:.1f} s")


@pytest.mark.parametrize("alpha", [0.1, 100.0])
def test_criterion_4_scaling_stays_linear(alpha):
    t0 = time.perf_counter()
    result = solve(SolverConfig(n=16, num_steps=20, alpha=alpha), [0, 0.5])
    others = float(np.max(np.abs(np.delete(result.path.steps, 1, axis=1))))
    elapsed = time.perf_counter() - t0
    ok = result.converged and others <= 1e-8 and elapsed < 30.0
    assert criterion(
        4, ok,
        f"scaling target, alpha={alpha}: non-linear coefficients <= {others:.1e}, "
        f"{elapsed:.1f} s",
    )


def richardson_gap(c1, alpha):
    """Gap between the closed form and the Richardson value of the N = 20 and
    N = 40 solver paths, at the 21 shared nodes (see module docstring)."""
    coarse, fine = (solve(SolverConfig(n=16, num_steps=num_steps, alpha=alpha), [0, c1])
                    for num_steps in (20, 40))
    assert coarse.converged and fine.converged
    extrapolated = (4 * fine.path.steps[::2, 1] - coarse.path.steps[:, 1]) / 3
    ref = closed_form(1.0, c1, alpha, coarse.path.times)
    return float(np.max(np.abs(extrapolated - ref)))


@pytest.mark.parametrize("alpha", [0.1, 100.0])
def test_criterion_4_scaling_matches_closed_form(alpha):
    gap = richardson_gap(0.5, alpha)
    ok = gap <= 1e-6
    assert criterion(
        4, ok,
        f"scaling vs closed-form geodesic, alpha={alpha}: Richardson (N=20, 40) "
        f"per-step gap {gap:.2e} (required 1e-6)",
    )


@pytest.mark.parametrize("alpha", [0.1, 100.0])
def test_criterion_5_rotation_stays_linear(alpha):
    t0 = time.perf_counter()
    result = solve(SolverConfig(n=16, num_steps=20, alpha=alpha), [0, ROTATION])
    others = float(np.max(np.abs(np.delete(result.path.steps, 1, axis=1))))
    elapsed = time.perf_counter() - t0
    ok = result.converged and others <= 1e-8 and elapsed < 60.0
    assert criterion(
        5, ok,
        f"rotation target, alpha={alpha}: non-linear coefficients <= {others:.1e}, "
        f"{elapsed:.1f} s",
    )


@pytest.mark.parametrize("alpha", [0.1, 100.0])
def test_criterion_5_rotation_matches_closed_form(alpha):
    gap = richardson_gap(ROTATION, alpha)
    ok = gap <= 1e-6
    assert criterion(
        5, ok,
        f"rotation vs closed-form geodesic, alpha={alpha}: Richardson (N=20, 40) "
        f"per-step gap {gap:.2e} (required 1e-6)",
    )


def test_criterion_5_rotation_alpha0_midpoint_modulus():
    t0 = time.perf_counter()
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.0), [0, ROTATION])
    ref = closed_form(1.0, ROTATION, 0.0, result.path.times)
    gap = float(np.max(np.abs(result.path.steps[:, 1] - ref)))
    midpoint = abs(result.path.steps[10, 1])
    expected = np.sqrt(np.cos(0.4 * PI))
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-6 and abs(midpoint - expected) <= 1e-4 and elapsed < 60.0
    assert criterion(
        5, ok,
        f"rotation at alpha=0: closed-form gap {gap:.2e}, midpoint modulus "
        f"{midpoint:.6f} vs {expected:.6f} (the rotation picks up scaling), {elapsed:.1f} s",
    )


def test_criterion_6_energy_convergence():
    t0 = time.perf_counter()
    analytic = (PI / 4) * ((0.5**2 - 1) / 2) ** 2  # constant-speed energy

    # dense Simpson quadrature of the energy along the closed-form path,
    # with velocities from central differences (one batched evaluation)
    m = 4000
    ts = np.linspace(0.0, 1.0, 2 * m + 1)
    delta = 1e-5
    lo = np.clip(ts - delta, 0.0, 1.0)
    hi = np.clip(ts + delta, 0.0, 1.0)
    cs, c_lo, c_hi = (closed_form(1.0, 0.5, 0.0, q) for q in (ts, lo, hi))
    dcs = (c_hi - c_lo) / (hi - lo)
    vals = np.array(
        [lagrangian([0, c], [0, dc], 0.0) for c, dc in zip(cs, dcs)]
    )
    quad = (1.0 / (6 * m)) * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                              + 2 * vals[2:-1:2].sum())
    cross_check = abs(quad - analytic)

    errors = []
    for num_steps in (10, 20, 40, 80):
        grid = np.linspace(0.0, 1.0, num_steps + 1)
        steps = np.zeros((num_steps + 1, 16), dtype=complex)
        steps[:, 1] = closed_form(1.0, 0.5, 0.0, grid)
        errors.append(abs(discrete_action(DiscretePath(steps), 0.0) - analytic))
    at_roundoff = max(errors) <= 1e-13
    if at_roundoff:
        # the midpoint rule integrates this path exactly (the integrand is
        # constant along it), so there is no error left to measure an order
        # from; convergence holds trivially
        order = np.inf
    else:
        order = -np.polyfit(np.log([10, 20, 40, 80]), np.log(errors), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = cross_check <= 1e-6 and (at_roundoff or order >= 1.9) and elapsed < 120.0
    assert criterion(
        6, ok,
        f"energy {analytic:.6f} (quadrature cross-check gap {cross_check:.1e}); "
        f"discrete action errors {[f'{e:.1e}' for e in errors]} "
        f"({'exact to round-off' if at_roundoff else f'order {order:.2f}'}); {elapsed:.1f} s",
    )


def test_criterion_7_conservation():
    t0 = time.perf_counter()
    worst = checks.conservation(np.random.default_rng(7), 20)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert criterion(
        7, ok,
        f"energy and Clairaut momentum drift over unit time, 20 states x 4 alphas: "
        f"worst {worst:.2e}, {elapsed:.1f} s",
    )


@pytest.mark.parametrize("alpha", [0.1, 10.0])
@pytest.mark.parametrize("name,target", [("example4", EXAMPLE4), ("example5", EXAMPLE5)])
def test_criterion_8_nonlinear_targets(name, target, alpha):
    t0 = time.perf_counter()
    result = solve(SolverConfig(n=16, num_steps=20, alpha=alpha), target)
    elapsed = time.perf_counter() - t0
    cert_min = float(result.conformal_certificate.min())
    ok = (
        result.converged
        and result.grad_norm <= 1e-8
        and cert_min > CONFORMAL_MIN_DERIV
        and descent_holds(result.action_history)
        and elapsed < 300.0
    )
    assert criterion(
        8, ok,
        f"{name}, alpha={alpha}: grad norm {result.grad_norm:.1e}, "
        f"min |phi'| {cert_min:.4f}, action non-increasing over "
        f"{result.iterations} iterations, {elapsed:.1f} s",
    )


def test_criterion_9_translation_not_closed():
    t0 = time.perf_counter()
    result = solve(SolverConfig(n=16, num_steps=20, alpha=0.1), [0.3, 1.0])
    deviation = 0.0
    for k in range(1, 20):
        step = result.path.steps[k].copy()
        step[0] = 0.0
        step[1] -= 1.0
        deviation = max(deviation, float(np.max(np.abs(step))))
    elapsed = time.perf_counter() - t0
    ok = deviation > 1e-4 and elapsed < 60.0
    assert criterion(
        9, ok,
        f"translation target z + 0.3: interior steps leave the translation "
        f"family by {deviation:.2e}, {elapsed:.1f} s",
    )


def test_criterion_10_determinism(tmp_path, config_dir):
    t0 = time.perf_counter()
    config = load_config(config_dir / "example1a.json")
    _, dir_a, _ = run_experiment(config, tmp_path / "run-a")
    _, dir_b, _ = run_experiment(config, tmp_path / "run-b")
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    identical = files_a == files_b and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes() for name in files_a
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    assert criterion(
        10, ok,
        f"two full pipeline runs: {len(files_a)} files byte-identical, {elapsed:.1f} s",
    )
