"""Keyed random streams: which keys alias, and that no stage replays
another stage's stream.

A stream is keyed ``(seed, stage, *key)``.  SeedSequence pads a key with
zeros, so keys that differ only by trailing zeros name the same stream;
the stage tag in second place is what keeps stages apart.
"""

import ast
from pathlib import Path

import numpy as np

from crnverify import ExperimentConfig, abcseq, observe, parse_crn
from crnverify import rng as rngmod
from crnverify.rng import STAGE_BASELINE, STAGE_GENERATE, STAGE_VERIFY, stream
from crnverify.simulate import simulate

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 20240901
DRAWS = 8

DECAY = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=6;")


def _draws(rng) -> tuple[float, ...]:
    return tuple(rng.random(DRAWS))


def test_trailing_zeros_alias():
    # the reason every key starts with its stage tag: a shorter key is a
    # longer one with zeros appended
    assert _draws(stream(SEED, 101)) == _draws(stream(SEED, 101, 0, 0))
    assert _draws(stream(SEED, 101)) != _draws(stream(SEED, 101, 1))


def test_abc_waves_never_replay_another_stage(monkeypatch):
    """Every key abcseq draws from, for batch ids that equal the other
    stages' tags among others, gives draws unlike those stages' streams."""
    rng = stream(7, STAGE_GENERATE)
    data = observe(simulate(DECAY, (1.0,), 3.0, rng), np.linspace(0.5, 3.0, 6), 0.0, rng, species=DECAY.species)
    keys = []

    def recording_stream(seed, *key):
        keys.append((seed, *key))
        return stream(seed, *key)

    monkeypatch.setattr(rngmod, "stream", recording_stream)
    config = ExperimentConfig(seed=SEED, abc_particles=4, abc_rounds=3)
    for batch in (0, 1, STAGE_GENERATE, STAGE_VERIFY, STAGE_BASELINE):
        abcseq(DECAY, data, config, [batch])
    assert len(keys) >= 5 * 2
    others = {_draws(stream(SEED, stage)) for stage in (STAGE_GENERATE, STAGE_VERIFY, STAGE_BASELINE)}
    for key in keys:
        assert _draws(stream(*key)) not in others, f"ABC key {key} replays another stage's stream"


def _stream_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "stream":
                yield node


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_stream_call_in_the_package_names_its_stage():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for call in _stream_calls(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(SRC)}:{call.lineno}"
            calls.append(where)
            assert len(call.args) >= 2 and _name(call.args[1]).startswith("STAGE_"), (
                f"{where}: the first key of a stream must be a STAGE_* tag"
            )
    assert len(calls) >= 5  # generate, verify, baseline and ABC's two
