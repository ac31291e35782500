"""Keyed random-number substreams.

All stochastic code draws from counter-based Philox generators keyed
``(seed, stage, *key)``.  The same key always yields the same stream, so
results do not depend on how work is scheduled or split.  ``SeedSequence``
pads a key with zeros, so keys that differ only by trailing zeros alias;
the stage tag comes first, so no two stages share a stream.
"""

import numpy as np

from .errors import ConfigError

STAGE_GENERATE = 101
STAGE_INFER = 103
STAGE_VERIFY = 104
STAGE_BASELINE = 105


def stream(seed: int | None, stage: int, *key: int) -> np.random.Generator:
    """The Philox generator for substream (seed, stage, *key); needs a seed."""
    if seed is None:
        raise ConfigError("this command draws random numbers and needs a seed (--seed or the config's 'seed')")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(stage), *map(int, key)))))
