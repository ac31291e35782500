"""Experiment configuration loading and validation."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from crnverify import ConfigError, load_config
from crnverify.rng import STAGE_GENERATE, stream


def write(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return path


BASE = {
    "format": 1,
    "model": "models/sir.crn",
    "property": "P>0.1 [ (I>0) U[100,150] (I=0) ]",
    "seed": 42,
}


def test_minimal_config(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.seed == 42
    assert cfg.abc_particles == 1000
    assert cfg.abc_batches == 10
    assert cfg.slice_samples == 10000
    assert cfg.slice_scale == 2.0


def test_missing_format_rejected(tmp_path):
    doc = {k: v for k, v in BASE.items() if k != "format"}
    with pytest.raises(ConfigError, match="format"):
        load_config(write(tmp_path, doc))


def test_missing_seed_rejected(tmp_path):
    # a config without a seed loads (synthesis needs none); a stage that
    # draws random numbers rejects it
    doc = {k: v for k, v in BASE.items() if k != "seed"}
    cfg = load_config(write(tmp_path, doc))
    assert cfg.seed is None
    with pytest.raises(ConfigError, match="seed"):
        stream(cfg.seed, STAGE_GENERATE)


@pytest.mark.parametrize("key", ["model", "property"])
def test_file_without_model_or_property_rejected(tmp_path, key):
    # a config built from flags may leave both empty; a file may not
    doc = {k: v for k, v in BASE.items() if k != key}
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, doc))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write(tmp_path, {**BASE, "particle_count": 5}))


def test_slice_init_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write(tmp_path, {**BASE, "slice_init": [0.002, 0.05]}))


@pytest.mark.parametrize("key, value", [
    ("param_bounds", {"ki": [5e-5, 0.003]}),
    ("observation_times", [1.0, 2.5, 9.0]),
])
def test_second_source_of_a_setting_rejected(tmp_path, key, value):
    # the .crn holds the parameter box, and observation_count and
    # observation_end the observation grid
    with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
        load_config(write(tmp_path, {**BASE, key: value}))


def test_nonpositive_counts_rejected(tmp_path):
    for key in ("observation_count", "abc_particles", "abc_batches", "abc_rounds", "slice_samples"):
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, {**BASE, key: 0}))


def test_overrides_beat_file_values(tmp_path):
    path = write(tmp_path, {**BASE, "abc_particles": 100})
    cfg = load_config(path, {"abc_particles": 7, "seed": None})
    assert cfg.abc_particles == 7
    assert cfg.seed == 42  # a None override leaves the file value


def test_observation_times_default_grid(tmp_path):
    cfg = load_config(write(tmp_path, {**BASE, "observation_count": 4, "observation_end": 8.0}))
    assert np.allclose(cfg.times(default_end=150.0), [2.0, 4.0, 6.0, 8.0])
    cfg = load_config(write(tmp_path, {**BASE, "observation_count": 3}))
    assert np.allclose(cfg.times(default_end=150.0), [50.0, 100.0, 150.0])


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_unknown_backend_rejected(tmp_path):
    with pytest.raises(ConfigError, match="backend"):
        load_config(write(tmp_path, {**BASE, "synth_backend": "statistical"}))


def test_scenario_name_derived(tmp_path):
    cfg = load_config(write(tmp_path, {**BASE, "observation_count": 10, "noise_sigma": 2.0}))
    assert cfg.scenario_name() == "10 obs with noise"
    cfg = load_config(write(tmp_path, {**BASE, "scenario": "custom"}))
    assert cfg.scenario_name() == "custom"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "key, value",
    [
        ("noise_sigma", NAN),
        ("noise_sigma", INF),
        ("true_point", {"ki": NAN, "kr": 0.05}),
        ("true_point", {"ki": 0.002, "kr": -0.05}),
        ("slice_scale", INF),
        ("synth_transient_tol", 0.0),
        ("synth_transient_tol", -1e-8),
        ("synth_transient_tol", 1.0),
        ("synth_margin", -0.5),
        ("synth_margin", NAN),
        ("observation_end", INF),
        ("observation_end", 0.0),
        ("seed", 20240901.7),
        ("seed", -1),
        ("seed", True),
        ("observation_count", 3.5),
        ("abc_particles", 20.5),
        ("workers", True),
        pytest.param("true_point", [1.0], id="true_point-list"),
        ("abc_particles", 1),
        ("abc_particles", True),
        ("synth_volume_tolerance", 0.0),
        ("synth_volume_tolerance", 1.0),
        pytest.param("noise_sigma", 10**400, id="noise_sigma-huge-integer"),
        ("synth_transient_tol", 1e-17),
    ],
)
def test_nonfinite_or_out_of_range_settings_rejected(tmp_path, key, value):
    # json writes NaN and Infinity literals, which the loader accepts
    with pytest.raises(ConfigError, match=key):
        load_config(write(tmp_path, {**BASE, key: value}))


def _names(tree):
    """Every name, attribute and imported name in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_one_module_starts_processes():
    # config.worker_map is the package's one process pool: every stage that
    # spreads work maps through it, at one worker as at many
    src = Path(__file__).resolve().parents[1] / "src" / "crnverify"
    naming = {path.name for path in src.glob("*.py") if "ProcessPoolExecutor" in _names(ast.parse(path.read_text()))}
    assert naming == {"config.py"}
