"""Self-test of the benchmark's correctness checks: each one must fire.

    python3 bench/selftest.py

Runs seed-0 items through the same pass runner as ``run.py``, once clean and
once per injected fault, and exits 1 unless every faulty case gives
``fail_ratio > 0`` and every clean case gives ``fail_ratio == 0``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

import run


def main() -> int:
    if not run.use_sources():
        return 2
    import workloads

    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    perturbed = copy.deepcopy(reference)
    perturbed["shipped_targets"]["shipped"]["example1a"] *= 1.0 + 1e-6
    work = run.BENCH_DIR / "_work" / f"selftest-{os.getpid()}"
    try:
        def items(workload, ref=reference):
            built = workloads.build(workload, 0, run.CONFIGS, work / workload, ref)
            return {item.name: item for item in built}

        shipped, oracle = items("shipped"), items("oracle")
        bad_reference = items("shipped", perturbed)["example1a"]
        cases = [
            ("clean solve item", shipped["example1a"], False),
            ("clean oracle SVG item", oracle["example2a-svg"], False),
            ("clean oracle CSV item", oracle["example2a-csv"], False),
            ("perturbed reference action", bad_reference, True),
            ("truncated solve frame set", _then(shipped["example1a"], _drop_frame), True),
            ("truncated oracle SVG frame set", _then(oracle["example2a-svg"], _drop_frame), True),
            ("truncated oracle CSV table", _then(oracle["example2a-csv"], _drop_row), True),
            ("missing report", _then(oracle["example2a-svg"], _drop_report), True),
            ("item that raises", dataclasses.replace(shipped["example1a"], run=_raise), True),
        ]
        broken = 0
        for label, item, should_fail in cases:
            attempted, failed = run.tally([run.run_pass(0, [item])])
            ok = (failed > 0) == should_fail
            broken += not ok
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: fail_ratio {failed / attempted}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if broken else 0


def _then(item, fault):
    """``item`` with ``fault(out_dir)`` applied to its output after it runs."""
    def run_then_break():
        outcome = item.run()
        fault(item.out_dir)
        return outcome

    return dataclasses.replace(item, run=run_then_break)


def _drop_frame(out_dir):
    sorted(out_dir.glob("frame_*.svg"))[-1].unlink()


def _drop_row(out_dir):
    csv = out_dir / "frames.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:-1]))


def _drop_report(out_dir):
    (out_dir / "report.txt").unlink()


def _raise():
    raise RuntimeError("injected failure")


if __name__ == "__main__":
    sys.exit(main())
