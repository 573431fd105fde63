"""Spans around the calls into each diskwarp layer, recorded from outside the package.

Each hook replaces a function on the module attribute where its caller looks
the name up (``solve`` calls ``diskwarp.solver.discrete_action``,
``run_experiment`` calls ``diskwarp.cli.warp_frames``), so the package itself
is never edited.  Spans are kept in memory as ``[name, start, end, parent,
item]`` and written out when the run ends; self times are computed from them
afterwards.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer name, module, attribute).  One layer may be hooked at several call
# sites: ``solve`` is reached through ``diskwarp.cli`` from ``run_experiment``
# and through ``diskwarp.solver`` from the library call.
HOOKS = (
    ("config.load_config", "diskwarp.config", "load_config"),
    ("cli.run_experiment", "diskwarp.cli", "run_experiment"),
    ("cli.run_oracle", "diskwarp.cli", "run_oracle"),
    ("solver.solve", "diskwarp.cli", "solve"),
    ("solver.solve", "diskwarp.solver", "solve"),
    ("action.discrete_action", "diskwarp.solver", "discrete_action"),
    ("action.action_gradient", "diskwarp.solver", "action_gradient"),
    ("solver.certify_conformal", "diskwarp.solver", "certify_conformal"),
    ("frames.warp_frames", "diskwarp.cli", "warp_frames"),
    ("frames.write_frames_svg", "diskwarp.cli", "write_frames_svg"),
    ("frames.write_frames_csv", "diskwarp.cli", "write_frames_csv"),
    ("linear_geodesics.closed_form", "diskwarp.cli", "closed_form"),
)


def _count_points(args, kwargs, frames):
    return {"frames.points": sum(len(pts) for frame in frames for _, pts in frame)}


def _count_svg(args, kwargs, names):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    sizes = [os.path.getsize(os.path.join(out_dir, name)) for name in names]
    return {"frames.files_written": len(sizes), "frames.bytes_written": sum(sizes)}


def _count_csv(args, kwargs, _):
    out_path = kwargs.get("out_path", args[1] if len(args) > 1 else None)
    return {"frames.files_written": 1, "frames.bytes_written": os.path.getsize(out_path)}


# Work counts taken from a hooked call's arguments and result, after its span
# has closed, so counting is trace overhead and not layer time.
COUNTERS = {
    "frames.warp_frames": _count_points,
    "frames.write_frames_svg": _count_svg,
    "frames.write_frames_csv": _count_csv,
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        # ``item`` is ``(pass index, item name)`` of the work being traced.
        self.spans = []
        self.counts = defaultdict(float)
        self.notes = []
        self.item = None
        self._open = []

    def count(self, key, value):
        self.counts[(self.item, key)] += value

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._open[-1] if self._open else -1, self.item]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.count(key, value)
            return result

        return traced

    @contextmanager
    def hooks(self):
        """Install every hook for the duration of the block, then restore.

        A hook whose target no longer exists is skipped with a note, and its
        layer then reports zero calls.
        """
        saved = []
        try:
            for name, module_name, attr in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    note = f"{module_name}.{attr} not found: {name} reports 0 calls there"
                    if note not in self.notes:
                        self.notes.append(note)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self, pass_index):
        """Per layer name: calls, total seconds and self seconds of the
        spans recorded in pass ``pass_index``."""
        child = defaultdict(float)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, item) in enumerate(self.spans):
            if item is not None and item[0] == pass_index:
                entry = totals[name]
                entry["calls"] += 1
                entry["s"] += end - start
                entry["self_s"] += end - start - child[index]
        return totals

    def counts_for(self, pass_index):
        out = defaultdict(float)
        for (item, key), value in self.counts.items():
            if item is not None and item[0] == pass_index:
                out[key] += value
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
