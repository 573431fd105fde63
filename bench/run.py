"""diskwarp benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a source checkout (numpy and the stdlib only; the
package is imported from ``src/``):

    python3 bench/run.py --workload shipped --seed 0 --seconds 40 --trace 0
    python3 bench/selftest.py     # the correctness checks must fire

One process runs the workload as a closed loop with a single caller and no
extra threads: passes over the workload's items repeat until ``--seconds``
is used up (at least three passes, four when tracing).  Each item's output
is checked for correctness after its timed call; an item that raises or
fails its check counts as failed and the run goes on.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give a readable summary and
the run metadata.  ``fail_ratio`` is ``failed / attempted``.

With ``--trace 0`` the metrics are end to end:

* ``wall_s``: median time of one pass;
* ``item_s.p50`` and ``item_s.max``: the median and the largest of the
  items' times, each item's time being its median over passes; the largest
  is the worst case for a user running one config;
* ``setup_s``: median over several fresh interpreters of ``import diskwarp``
  plus loading the workload's configs;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``wall_s`` and ``item_s.*`` are scaled to a reference host speed.  A shared
host's speed drifts by up to 40% over minutes, which moves every timing of a
run alike.  So a fixed calibration task that uses no diskwarp code (numpy
convolutions and FFTs driven from a Python loop, as the package's kernels
are) is timed before and after every timed item, and each item's time is
multiplied by ``REFERENCE_CALIBRATION_S`` over the mean of the two
calibration times beside it: the time the work would take on a host that
runs the calibration in ``REFERENCE_CALIBRATION_S``.  The unscaled times and
the calibration times are kept in the result file.  ``setup_s`` is not
scaled: the start of an interpreter and its imports do not follow the
calibration task's speed, so it is the median of more launches instead.

With ``--trace 1`` untraced and traced passes alternate.  Hooks on the
package's module attributes (see ``tracing.py``) record a span around each
call into a layer; the per-layer metrics are medians over traced passes of
per-pass totals, and ``trace_overhead_s`` is the traced minus the untraced
median pass time, both scaled to the reference host speed.  Which end-to-end metric each layer metric should move,
on which workload:

* ``action.*`` (discrete_action, action_gradient): ``wall_s`` on ``large``
  (most) and ``shipped``; not on ``oracle``.
* ``solver.*`` (iterations, evals, accept_ratio, solve.s, solve.self_s):
  ``wall_s`` and ``item_s.max`` on ``shipped`` and ``large``; ``solve.self_s``
  is the optimizer's own time, without action, gradient and certificate.
* ``solver.certify_conformal.*``: ``wall_s`` on ``large`` at n = 128.
* ``frames.*``: ``wall_s`` on ``oracle`` (most) and ``shipped``; not on
  ``large``.
* ``linear_geodesics.closed_form.s``: ``wall_s`` on ``oracle`` (small).
* ``cli.run_experiment.self_s``, ``cli.run_oracle.self_s`` and
  ``config.load_config.s``: ``wall_s`` on ``shipped`` / ``oracle``, and
  ``setup_s``.

``trace.wall_s`` is the traced pass time and ``trace.self_sum_s`` the sum
of every span's self time in a pass, which is the time the top-level calls
took; they differ only by the hooks' bookkeeping outside the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RESULTS = BENCH_DIR / "_work" / "results"

SETUP_LAUNCHES = 11
# Seconds the calibration task takes on the reference host, a 2-vCPU Intel
# Xeon VM; measured times are scaled by this over the calibration's time.
REFERENCE_CALIBRATION_S = 0.05
_CALIBRATION_DATA = np.array([1.0, 1.0j]) @ np.random.default_rng(0).standard_normal((2, 64))
# A fresh interpreter imports the package and loads the given config files.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import diskwarp.config as c; "
    "[c.load_config(p) for p in sys.argv[2:]]"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("shipped", "large", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    import tracing
    import workloads

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    work_dir = BENCH_DIR / "_work" / f"run-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        items = workloads.build(args.workload, args.seed, CONFIGS, work_dir, reference)
        setup = [] if tracer else [launch_setup(items) for _ in range(SETUP_LAUNCHES)]
        passes = _run_passes(items, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = tally(passes)
    plain = [p for p in passes if not p["traced"]]
    if tracer is None:
        metrics = _end_to_end(plain, setup)
    else:
        metrics = _per_layer(passes, tracer)
    meta = _metadata(args, items, passes)
    if tracer is not None:
        meta["notes"] = tracer.notes

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}-spans.jsonl")
    Path(f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "setup_launches_s": setup,
         "passes": passes}, indent=1))

    for p in passes:
        for name, problems in p["failures"].items():
            print(f"FAIL pass {p['index']} {name}: {'; '.join(problems)}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(plain)} untraced), {attempted} items, {failed} failed, "
          f"fail_ratio {failed / attempted} ratio")
    for name, value in metrics.items():
        print(f"  {name:<36} {value['value']:.6g} {value['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def use_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path.  Returns False,
    with a message, when the checkout has no diskwarp sources or configs."""
    if not (SRC / "diskwarp" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no diskwarp sources under {SRC} or no {CONFIGS}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def calibrate() -> float:
    """Seconds taken by a fixed task that uses no diskwarp code."""
    start = time.perf_counter()
    total = 0.0
    for k in range(3000):
        total += abs(np.convolve(_CALIBRATION_DATA, _CALIBRATION_DATA)[k % 127])
        np.fft.fft(_CALIBRATION_DATA, 128)
    return time.perf_counter() - start


def scaled(seconds, before, after) -> float:
    """``seconds`` at the reference host speed, from the calibration times
    measured just before and just after them."""
    return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def launch_setup(items) -> float:
    """Seconds of one fresh-interpreter setup, as measured."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                    *(str(item.config_path) for item in items)], check=True)
    return time.perf_counter() - start


def _run_passes(items, seconds, tracer):
    """Closed loop of passes until ``seconds`` would be exceeded; in a traced
    run odd passes are traced and even ones are not."""
    min_passes = 3 if tracer is None else 4
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(p["elapsed_s"] for p in passes) <= deadline
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(len(passes), items, tracer if traced else None))
    return passes


def tally(passes):
    """``(attempted, failed)`` items over the passes; fail_ratio is their ratio."""
    return (sum(len(p["items"]) for p in passes), sum(len(p["failures"]) for p in passes))


def run_pass(index, items, tracer=None):
    """One pass over ``items``: per-item seconds, as measured (``items``,
    summed in ``wall_s``) and scaled to the reference host speed
    (``scaled_items``, summed in ``scaled_wall_s``), and the problems of each
    failed item; ``tracer``, when given, records the pass."""
    names = [item.name for item in items]
    times, scaled_times, calibrations, failures = [], [], [], {}
    start = time.perf_counter()
    calibrations.append(calibrate())
    with tracer.hooks() if tracer is not None else contextlib.nullcontext():
        for item in items:
            if item.out_dir is not None:
                shutil.rmtree(item.out_dir, ignore_errors=True)
            if tracer is not None:
                tracer.item = (index, item.name)
            seconds, outcome, problems = _run_item(item)
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.count("solver.iterations", getattr(outcome, "iterations", 0))
            times.append(seconds)
            scaled_times.append(scaled(seconds, *calibrations[-2:]))
            if problems:
                failures[item.name] = problems
    return {"index": index, "traced": tracer is not None,
            "elapsed_s": time.perf_counter() - start,
            "wall_s": sum(times), "items": dict(zip(names, times)),
            "scaled_wall_s": sum(scaled_times), "scaled_items": dict(zip(names, scaled_times)),
            "calibration_s": calibrations, "failures": failures}


def _run_item(item):
    """Time ``item.run()``, then check its outcome outside the timed region.

    Any exception counts as a failure of this item only.
    """
    start = time.perf_counter()
    try:
        outcome = item.run()
    except Exception as exc:  # noqa: BLE001 -- a failing item must not stop the run
        return time.perf_counter() - start, None, [_describe(exc)]
    seconds = time.perf_counter() - start
    try:
        problems = item.check(outcome)
    except Exception as exc:  # noqa: BLE001
        problems = ["check raised " + _describe(exc)]
    return seconds, outcome, problems


def _describe(exc):
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(passes, setup):
    """End-to-end metrics, their times scaled to the reference host speed."""
    per_item = [statistics.median(p["scaled_items"][name] for p in passes)
                for name in passes[0]["scaled_items"]]
    return {
        "wall_s": _metric(statistics.median(p["scaled_wall_s"] for p in passes), "s"),
        "item_s.p50": _metric(statistics.median(per_item), "s"),
        "item_s.max": _metric(max(per_item), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(passes, tracer):
    rows = [_layer_row(tracer.layer_totals(p["index"]), tracer.counts_for(p["index"]), p["wall_s"])
            for p in passes if p["traced"]]
    metrics = {name: _metric(statistics.median(row[name][0] for row in rows), rows[0][name][1])
               for name in rows[0]}
    # Scaled pass times, so that a drift of the host's speed between the
    # traced and the untraced passes does not show as overhead.
    traced = statistics.median(p["scaled_wall_s"] for p in passes if p["traced"])
    plain = statistics.median(p["scaled_wall_s"] for p in passes if not p["traced"])
    metrics["trace_overhead_s"] = _metric(traced - plain, "s")
    return metrics


def _layer_row(layers, counts, wall):
    def get(name, key):
        return layers[name][key] if name in layers else 0.0

    row = {}
    for name in ("action.discrete_action", "action.action_gradient"):
        calls, seconds = get(name, "calls"), get(name, "s")
        row[f"{name}.calls"] = (calls, "count")
        row[f"{name}.s"] = (seconds, "s")
        row[f"{name}.ms_per_call"] = (1e3 * seconds / calls if calls else 0.0, "ms")
    iterations = counts["solver.iterations"]
    # Every evaluation of the objective computes the action and its gradient.
    evals = max(get("action.discrete_action", "calls"), get("action.action_gradient", "calls"))
    row["solver.iterations"] = (iterations, "count")
    row["solver.evals"] = (evals, "count")
    row["solver.accept_ratio"] = (iterations / evals if evals else 0.0, "ratio")
    row["solver.solve.s"] = (get("solver.solve", "s"), "s")
    row["solver.solve.self_s"] = (get("solver.solve", "self_s"), "s")
    row["solver.certify_conformal.calls"] = (get("solver.certify_conformal", "calls"), "count")
    row["solver.certify_conformal.s"] = (get("solver.certify_conformal", "s"), "s")
    row["frames.warp_frames.s"] = (get("frames.warp_frames", "s"), "s")
    row["frames.points"] = (counts["frames.points"], "count")
    row["frames.write_frames_svg.s"] = (get("frames.write_frames_svg", "s"), "s")
    row["frames.write_frames_csv.s"] = (get("frames.write_frames_csv", "s"), "s")
    row["frames.bytes_written"] = (counts["frames.bytes_written"], "bytes")
    row["frames.files_written"] = (counts["frames.files_written"], "count")
    row["linear_geodesics.closed_form.s"] = (get("linear_geodesics.closed_form", "s"), "s")
    row["cli.run_experiment.self_s"] = (get("cli.run_experiment", "self_s"), "s")
    row["cli.run_oracle.self_s"] = (get("cli.run_oracle", "self_s"), "s")
    row["config.load_config.s"] = (get("config.load_config", "s"), "s")
    row["trace.wall_s"] = (wall, "s")
    row["trace.self_sum_s"] = (sum(entry["self_s"] for entry in layers.values()), "s")
    return row


def _metadata(args, items, passes):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "targets": "shipped" if args.seed == 0 else
                   "new linear" if args.workload == "oracle" else "conformal analogues",
        "items": [{"name": i.name, "N": i.num_steps, "n": i.degree_bound} for i in items],
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "calibration_s.p50": statistics.median(c for p in passes for c in p["calibration_s"]),
        "samples": {"passes": len(passes),
                    "untraced_passes": sum(not p["traced"] for p in passes),
                    "items_per_pass": len(items)},
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, left at its default."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return {key: os.environ.get(key) for key in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
