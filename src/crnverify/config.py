"""Experiment configuration: one JSON file drives the whole pipeline.

The file is a flat JSON object with a ``format`` version key.  A seed is
mandatory; every stage derives its substreams from it, so a config fully
determines every output byte.
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .files import read_json


@dataclass
class ExperimentConfig:
    model: str
    property: str
    seed: int
    scenario: str = ""
    workers: int = 1
    param_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    true_point: dict[str, float] = field(default_factory=dict)
    observation_times: list[float] | None = None
    observation_count: int = 20
    observation_end: float | None = None  # defaults to the property's window end
    noise_sigma: float = 0.0
    abc_particles: int = 1000
    abc_batches: int = 10
    abc_rounds: int = 8
    abc_max_attempts: int = 5000
    synth_volume_tolerance: float = 0.1
    synth_margin: float = 0.02
    synth_max_depth: int = 12
    synth_transient_tol: float = 1e-8
    grid_resolution: int = 100
    slice_samples: int = 10000
    slice_scale: float = 2.0

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is mandatory (reproducibility)")
        # type(...) is int, not isinstance: JSON true/false arrive as bool,
        # a subclass of int
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name, value in (
            ("observation_count", self.observation_count),
            ("abc_particles", self.abc_particles),
            ("abc_batches", self.abc_batches),
            ("abc_rounds", self.abc_rounds),
            ("abc_max_attempts", self.abc_max_attempts),
            ("slice_samples", self.slice_samples),
            ("grid_resolution", self.grid_resolution),
            ("synth_max_depth", self.synth_max_depth),
            ("workers", self.workers),
        ):
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be a positive integer count, got {value!r}")
        for name, value in (("param_bounds", self.param_bounds), ("true_point", self.true_point)):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        for k, pair in self.param_bounds.items():
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and {type(v) for v in pair} <= {int, float}):
                raise ConfigError(f"param_bounds[{k!r}] must be a [lower, upper] pair of numbers, got {pair!r}")
        self.param_bounds = {k: (float(lo), float(hi)) for k, (lo, hi) in self.param_bounds.items()}
        reals = [
            ("noise_sigma", self.noise_sigma),
            ("slice_scale", self.slice_scale),
            ("synth_volume_tolerance", self.synth_volume_tolerance),
            ("synth_margin", self.synth_margin),
            ("synth_transient_tol", self.synth_transient_tol),
            *((f"true_point[{k!r}]", v) for k, v in self.true_point.items()),
            *((f"param_bounds[{k!r}]", v) for k, pair in self.param_bounds.items() for v in pair),
            *(("observation_times", v) for v in self.observation_times or ()),
        ]
        if self.observation_end is not None:
            reals.append(("observation_end", self.observation_end))
        for name, value in reals:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if self.synth_margin < 0:
            raise ConfigError("synth_margin must be nonnegative")
        if not 0 < self.synth_transient_tol < 1:
            raise ConfigError("synth_transient_tol must lie strictly between 0 and 1")
        if self.observation_end is not None and self.observation_end <= 0:
            raise ConfigError("observation_end must be positive")
        if any(v < 0 for v in self.true_point.values()):
            raise ConfigError(f"true_point rates must be nonnegative, got {self.true_point}")
        if self.slice_scale <= 0:
            raise ConfigError("slice_scale must be positive")
        if not 0 < self.synth_volume_tolerance < 1:
            raise ConfigError("synth_volume_tolerance must lie strictly between 0 and 1")
        if self.observation_times is not None:
            times = list(map(float, self.observation_times))
            if not times or any(b <= a for a, b in zip(times, times[1:])):
                raise ConfigError("observation_times must be nonempty and strictly increasing")

    def times(self, default_end: float) -> np.ndarray:
        """Observation grid: explicit times, or evenly spaced over (0, end]."""
        if self.observation_times is not None:
            return np.array(self.observation_times, dtype=float)
        end = self.observation_end if self.observation_end is not None else default_end
        if end <= 0:
            raise ConfigError("observation_end must be positive")
        q = self.observation_count
        return end * np.arange(1, q + 1) / q

    def scenario_name(self) -> str:
        if self.scenario:
            return self.scenario
        q = len(self.observation_times) if self.observation_times is not None else self.observation_count
        noise = "with noise" if self.noise_sigma > 0 else "without noise"
        return f"{q} obs {noise}"


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config file, apply CLI overrides, and validate."""
    merged = read_json(path, "config", ConfigError)
    unknown = set(merged) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    for key in ("model", "property", "seed"):
        if key not in merged:
            raise ConfigError(f"config {path}: missing required key {key!r}")
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
