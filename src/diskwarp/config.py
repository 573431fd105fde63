"""Experiment configuration files.

Configs are JSON documents with the fields ``name``, ``alpha``, ``N``, ``n``,
``target`` (an array of ``[re, im]`` coefficient pairs), ``mesh``
(``{"circles": R, "rays": A}``), ``format`` (``"csv"`` or ``"svg"``), and an
optional ``output`` directory; any other field, at the top level or in
``mesh``, is rejected, so a misspelt one cannot silently take its default.
Parsing and invariant failures raise distinct exception types carrying the
offending location or field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, ConfigValidationError

__all__ = ["ExperimentConfig", "load_config"]

_FIELDS = ("name", "alpha", "N", "n", "target", "mesh", "format", "output")
_MESH_FIELDS = ("circles", "rays")


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
        for key, value in (("N", self.num_steps), ("n", self.degree_bound)):
            if not (_is_integer(value) and value >= 2):
                raise ConfigValidationError(f"{key} must be an integer >= 2, got {value!r}")
        target = np.atleast_1d(np.asarray(self.target, dtype=complex))
        if not np.all(np.isfinite(target)):
            raise ConfigValidationError(f"target must be finite, got {target.tolist()}")
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
        if not all(_is_integer(v) and v >= 1 for v in counts):
            raise ConfigValidationError(
                f"mesh counts must be positive integers, got circles={self.mesh_circles} "
                f"rays={self.mesh_rays}"
            )
        if not (self.output is None or isinstance(self.output, str)):
            raise ConfigValidationError(
                f"output must be a directory path string, got {self.output!r}"
            )


def _is_integer(value) -> bool:
    # bool subclasses int, but a JSON true is not a count
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    _reject_unknown(path, raw, _FIELDS, "field")

    def need(key, kind):
        if key not in raw:
            raise ConfigValidationError(f"{path}: missing field {key!r}")
        value = raw[key]
        if kind is float and _is_number(value):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, kind):
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
        if (not isinstance(pair, list)) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise ConfigValidationError(
                f"{path}: target[{i}] must be a [re, im] pair of numbers, got {pair!r}"
            )
        target.append(complex(pair[0], pair[1]))

    mesh = raw.get("mesh", {})
    if not isinstance(mesh, dict):
        raise ConfigValidationError(f"{path}: field 'mesh' must be an object")
    _reject_unknown(path, mesh, _MESH_FIELDS, "mesh field")
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


def _reject_unknown(path, raw, known, what):
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ConfigValidationError(
            f"{path}: unknown {what} {unknown[0]!r}; expected one of {', '.join(known)}"
        )
