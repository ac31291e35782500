"""Experiment configuration: one JSON file drives the whole pipeline.

The file is a flat JSON object with a ``format`` version key.  Every stage
that draws random numbers keys them by the seed, and ``rng.stream`` fails
without one, so a config fully determines every output byte.
"""

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .files import finite_number, read_json
from .transient import check_tol


@dataclass
class ExperimentConfig:
    """Every setting of every stage; a stage reads the fields it needs.

    ``model`` and ``property`` may stay empty for a command that reads
    neither (``load_config`` still requires both keys in a file).  The
    parameter box is the ``.crn`` file's: no setting overrides it.
    """

    model: str = ""
    property: str = ""
    seed: int | None = None
    scenario: str = ""
    workers: int = 1
    true_point: dict[str, float] = field(default_factory=dict)
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
        # type(...) is int, not isinstance: JSON true/false arrive as bool,
        # a subclass of int
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name, value in (
            ("observation_count", self.observation_count),
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
        if type(self.abc_particles) is not int or self.abc_particles < 2:
            raise ConfigError(f"abc_particles must be an integer of at least 2, got {self.abc_particles!r}")
        if not isinstance(self.true_point, dict):
            raise ConfigError(f"true_point must be a JSON object, got {self.true_point!r}")
        reals = [
            ("noise_sigma", self.noise_sigma),
            ("slice_scale", self.slice_scale),
            ("synth_volume_tolerance", self.synth_volume_tolerance),
            ("synth_margin", self.synth_margin),
            ("synth_transient_tol", self.synth_transient_tol),
            *((f"true_point[{k!r}]", v) for k, v in self.true_point.items()),
        ]
        if self.observation_end is not None:
            reals.append(("observation_end", self.observation_end))
        for name, value in reals:
            if not finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if self.synth_margin < 0:
            raise ConfigError("synth_margin must be nonnegative")
        check_tol(self.synth_transient_tol, "synth_transient_tol")
        if self.observation_end is not None and self.observation_end <= 0:
            raise ConfigError("observation_end must be positive")
        if any(v < 0 for v in self.true_point.values()):
            raise ConfigError(f"true_point rates must be nonnegative, got {self.true_point}")
        if self.slice_scale <= 0:
            raise ConfigError("slice_scale must be positive")
        if not 0 < self.synth_volume_tolerance < 1:
            raise ConfigError("synth_volume_tolerance must lie strictly between 0 and 1")

    def times(self, default_end: float) -> np.ndarray:
        """Observation grid: ``observation_count`` times evenly spaced over
        (0, end]."""
        end = self.observation_end if self.observation_end is not None else default_end
        if end <= 0:
            raise ConfigError("observation_end must be positive")
        q = self.observation_count
        return end * np.arange(1, q + 1) / q

    def scenario_name(self) -> str:
        if self.scenario:
            return self.scenario
        noise = "with noise" if self.noise_sigma > 0 else "without noise"
        return f"{self.observation_count} obs {noise}"


@contextmanager
def worker_map(workers: int):
    """A ``map`` that spreads its calls over ``workers`` processes: the
    built-in ``map`` for one worker, a process pool's ``map`` otherwise.
    Either returns the results in call order.  This is the package's one
    process pool."""
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config file, apply CLI overrides, and validate."""
    merged = read_json(path, "config", ConfigError)
    unknown = set(merged) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    for key in ("model", "property"):
        if key not in merged:
            raise ConfigError(f"config {path}: missing required key {key!r}")
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
