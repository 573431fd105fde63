"""Experiment configuration files.

Configs are JSON documents with the fields ``name``, ``alpha``, ``N``, ``n``,
``target`` (an array of ``[re, im]`` coefficient pairs), ``mesh``
(``{"circles": R, "rays": A}``) and ``format`` (``"csv"`` or ``"svg"``).
:class:`ExperimentConfig` owns every field's type, value and default.
:func:`load_config` adds only the rules of JSON: UTF-8 text, an object at
the top level and in ``mesh``, no unknown field (so a misspelt one cannot
silently take its default), no missing field, and ``target`` as ``[re, im]``
number pairs.  Text that is not a JSON object raises
:class:`ConfigParseError`, any other fault :class:`ConfigValidationError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigParseError, ConfigValidationError
from .poly import _is_integer, _is_number, check_alpha

__all__ = ["ExperimentConfig", "load_config"]

_FIELDS = ("name", "alpha", "N", "n", "target", "mesh", "format")
_REQUIRED = ("name", "alpha", "N", "n", "target")
_MESH_FIELDS = ("circles", "rays")
# ExperimentConfig's names for the JSON fields it spells differently
_RENAMED = {"N": "num_steps", "n": "degree_bound", "format": "frame_format",
            "circles": "mesh_circles", "rays": "mesh_rays"}


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

    def __post_init__(self):
        # the name is the default output directory under out/, so it must not
        # be able to point anywhere else, nor carry a control character into
        # report.txt's lines
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or not self.name.isprintable() or any(c in self.name for c in "/\\")):
            raise ConfigValidationError(
                f"name must be a single plain path component, got {self.name!r}"
            )
        try:
            object.__setattr__(self, "alpha", check_alpha(self.alpha))
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from exc
        for key, value in (("N", self.num_steps), ("n", self.degree_bound)):
            if not (_is_integer(value) and value >= 2):
                raise ConfigValidationError(f"{key} must be an integer >= 2, got {value!r}")
        scalar = isinstance(self.target, (str, bytes)) or not np.iterable(self.target)
        target = np.array([_coefficient(i, value) for i, value in
                           enumerate([self.target] if scalar else self.target)], dtype=complex)
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


def _coefficient(i, *parts) -> complex:
    """``complex(*parts)`` as ``target[i]``; a sequence, anything but an int,
    float or complex number (numpy's included, a bool not) or an int too
    large for a float is a ConfigValidationError."""
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, float, complex, np.number)):
            if np.iterable(part) and not isinstance(part, (str, bytes)):
                raise ConfigValidationError(
                    f"target must be one-dimensional, got a sequence at target[{i}]"
                )
            raise ConfigValidationError(f"target[{i}] must be a number, got {part!r}")
    try:
        return complex(*parts)
    except OverflowError as exc:
        raise ConfigValidationError(
            f"target[{i}] must be finite, got a number too large for a float"
        ) from exc


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file into a validated :class:`ExperimentConfig`."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top level must be an object")
    _reject_unknown(path, raw, _FIELDS, "field")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigValidationError(f"{path}: missing field {key!r}")
    mesh = raw.pop("mesh", {})
    if not isinstance(mesh, dict):
        raise ConfigValidationError(f"{path}: field 'mesh' must be an object")
    _reject_unknown(path, mesh, _MESH_FIELDS, "mesh field")

    pairs = raw["target"]
    if not isinstance(pairs, list):
        raise ConfigValidationError(f"{path}: target must be a list of [re, im] pairs")
    for i, pair in enumerate(pairs):
        if (not isinstance(pair, list)) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise ConfigValidationError(
                f"{path}: target[{i}] must be a [re, im] pair of numbers, got {pair!r}"
            )
    raw["target"] = [_coefficient(i, re, im) for i, (re, im) in enumerate(pairs)]
    return ExperimentConfig(**{_RENAMED.get(key, key): value
                               for key, value in {**raw, **mesh}.items()})


def _reject_unknown(path, raw, known, what):
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise ConfigValidationError(
            f"{path}: unknown {what} {unknown[0]!r}; expected one of {', '.join(known)}"
        )
