"""Experiment configuration: JSON in, validated dataclass out.

A config names one scenario, the hbar values to sweep, and a rule for the
chain length: a fixed ``n``, an explicit ``n_values`` list, or
``ehrenfest_factor`` K meaning n = round(K |log hbar|) per hbar (the depth at
which chain effects become visible scales with |log hbar|).  Exactly one rule
must be given.  Scenario-specific constants, grid overrides (``n_points``,
``half_width``), ``n_max``, ``xi0``, and ``plateau_fraction`` ride in
``params``; unknown keys anywhere are rejected so typos fail loudly instead of
silently running the defaults.  ``norm_method`` ``auto`` and ``dense_svd`` name
the same exact norm; ``power_tol`` and ``seed`` are validated but feed nothing.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

_NORM_METHODS = ("auto", "dense_svd")


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to a usage-error exit."""


def _is_a(value, kinds) -> bool:
    """isinstance that refuses bool, which would otherwise pass for an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    scenario: str
    hbar_values: list[float]
    params: dict = field(default_factory=dict)
    n: int | None = None
    n_values: list[int] | None = None
    ehrenfest_factor: float | None = None
    norm_method: str = "auto"
    power_tol: float = 1e-6
    seed: int = 0
    threads: int = 1
    profile: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        problems: list[str] = []
        if not isinstance(self.scenario, str) or not self.scenario:
            problems.append("scenario must be a nonempty string")
        # positivity is tested as `not x > 0` so that NaN, which JSON admits, fails too
        if (
            not isinstance(self.hbar_values, (list, tuple))
            or not self.hbar_values
            or any(not _is_a(h, (int, float)) or not h > 0 for h in self.hbar_values)
        ):
            problems.append("hbar_values must be a nonempty list of positive numbers")
        if not isinstance(self.params, dict):
            problems.append("params must be an object")
        elif "hbar" in self.params:
            problems.append("params must not contain 'hbar'; use hbar_values")
        rules = [self.n is not None, self.n_values is not None, self.ehrenfest_factor is not None]
        if sum(rules) != 1:
            problems.append("exactly one of n, n_values, ehrenfest_factor must be given")
        if self.n is not None and (not _is_a(self.n, int) or self.n < 1):
            problems.append("n must be an integer >= 1")
        if self.n_values is not None and (
            not isinstance(self.n_values, (list, tuple))
            or not self.n_values
            or any(not _is_a(v, int) or v < 1 for v in self.n_values)
        ):
            problems.append("n_values must be a nonempty list of integers >= 1")
        if self.ehrenfest_factor is not None and (
            not _is_a(self.ehrenfest_factor, (int, float)) or not self.ehrenfest_factor > 0
        ):
            problems.append("ehrenfest_factor must be a positive number")
        if self.norm_method not in _NORM_METHODS:
            problems.append(f"norm_method must be one of {_NORM_METHODS}")
        if not _is_a(self.power_tol, (int, float)) or not self.power_tol > 0:
            problems.append("power_tol must be a positive number")
        for name, lo in (("seed", 0), ("threads", 1)):
            value = getattr(self, name)
            if not _is_a(value, int) or value < lo:
                problems.append(f"{name} must be an integer >= {lo}")
        if not isinstance(self.profile, bool):
            problems.append("profile must be true or false")
        if problems:
            raise ConfigError("; ".join(problems))

    def resolve_ns(self, hbar: float) -> list[int]:
        """Chain lengths to evaluate at the given hbar, ascending."""
        if self.n is not None:
            return [self.n]
        if self.n_values is not None:
            return sorted(set(self.n_values))
        n = max(1, round(self.ehrenfest_factor * abs(math.log(hbar))))
        return [n]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)
