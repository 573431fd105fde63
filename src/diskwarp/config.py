"""Experiment configuration files.

Configs are JSON documents with the fields ``name``, ``alpha``, ``N``, ``n``,
``target`` (an array of ``[re, im]`` coefficient pairs), ``mesh``
(``{"circles": R, "rays": A}``), ``format`` (``"csv"`` or ``"svg"``), and an
optional ``output`` directory.  Parsing and invariant failures raise
distinct exception types carrying the offending location or field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, ConfigValidationError

__all__ = ["ExperimentConfig", "load_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    alpha: float
    num_steps: int
    degree_bound: int
    target: np.ndarray
    mesh_circles: int = 8
    mesh_rays: int = 16
    frame_format: str = "svg"
    output: str | None = None

    def __post_init__(self):
        # the name is the default output directory under out/, so it must not
        # be able to point anywhere else
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ConfigValidationError(
                f"name must be a single plain path component, got {self.name!r}"
            )
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigValidationError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if self.num_steps < 2:
            raise ConfigValidationError(f"N must be at least 2, got {self.num_steps}")
        if self.degree_bound < 2:
            raise ConfigValidationError(f"n must be at least 2, got {self.degree_bound}")
        target = np.atleast_1d(np.asarray(self.target, dtype=complex))
        if len(target) > self.degree_bound:
            raise ConfigValidationError(
                f"target has {len(target)} coefficients, exceeding degree bound "
                f"{self.degree_bound}"
            )
        object.__setattr__(self, "target", target)
        if self.frame_format not in ("csv", "svg"):
            raise ConfigValidationError(
                f"format must be 'csv' or 'svg', got {self.frame_format!r}"
            )
        counts = (self.mesh_circles, self.mesh_rays)
        if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in counts):
            raise ConfigValidationError(
                f"mesh counts must be positive integers, got circles={self.mesh_circles} "
                f"rays={self.mesh_rays}"
            )


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top level must be an object")

    def need(key, kind):
        if key not in raw:
            raise ConfigValidationError(f"{path}: missing field {key!r}")
        value = raw[key]
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind):
            raise ConfigValidationError(
                f"{path}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
            )
        return value

    name = need("name", str)
    alpha = need("alpha", float)
    num_steps = need("N", int)
    degree_bound = need("n", int)
    pairs = need("target", list)
    target = []
    for i, pair in enumerate(pairs):
        if (not isinstance(pair, list)) or len(pair) != 2 or not all(
            isinstance(v, (int, float)) and np.isfinite(v) for v in pair
        ):
            raise ConfigValidationError(
                f"{path}: target[{i}] must be a [re, im] pair of finite numbers, got {pair!r}"
            )
        target.append(complex(pair[0], pair[1]))

    mesh = raw.get("mesh", {})
    if not isinstance(mesh, dict):
        raise ConfigValidationError(f"{path}: field 'mesh' must be an object")
    return ExperimentConfig(
        name=name,
        alpha=alpha,
        num_steps=num_steps,
        degree_bound=degree_bound,
        target=np.asarray(target, dtype=complex),
        mesh_circles=mesh.get("circles", 8),
        mesh_rays=mesh.get("rays", 16),
        frame_format=raw.get("format", "svg"),
        output=raw.get("output"),
    )
