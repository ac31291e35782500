"""The coordinate-wise slice sampler as it was before it drew its uniforms
in blocks and summed the density's leading terms once per update, kept as
the tests' reference for ``verdict.slice_sample``: one ``rng.random()``
call per uniform and one full ``logpdf`` call per density value.  From
the same generator both must return the same draws, bit for bit."""

import math
from functools import partial

import numpy as np

from crnverify.errors import ConfigError
from crnverify.verdict import Posterior


def logpdf(posterior: Posterior, values) -> float:
    """Log-density of ``posterior`` at ``values`` (a sequence of floats in
    its ``names`` order), its squared z-scores added in sequence: the same
    bits as ``np.sum`` below eight parameters, which sums short arrays in
    sequence too."""
    total = 0.0
    for v, m, var in zip(values, posterior.mean.tolist(), posterior.variance.tolist()):
        d = v - m
        total += d * d / var
    return -0.5 * (total + float(np.sum(np.log(2.0 * np.pi * posterior.variance))))


def reference_slice_sample(
    posterior: Posterior,
    n_samples: int,
    scale: float,
    rng: np.random.Generator,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """``n_samples`` slice draws, one ``rng.random()`` call per uniform."""
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    if scale <= 0:
        raise ConfigError("slice scale must be positive")
    # the state as Python floats: the density is scalar arithmetic
    x = np.array(posterior.mean if init is None else init, dtype=float).tolist()
    k = len(x)
    out = np.empty((n_samples, k))
    logf = partial(logpdf, posterior)
    for s in range(n_samples):
        for d in range(k):
            # floor the uniform so the auxiliary level never degenerates
            log_y = logf(x) + math.log(max(rng.random(), 1e-300))
            left = x[d] - scale * rng.random()
            right = left + scale
            probe = x.copy()
            while True:
                probe[d] = left
                if logf(probe) <= log_y:
                    break
                left -= scale
            while True:
                probe[d] = right
                if logf(probe) <= log_y:
                    break
                right += scale
            while True:
                cand = left + (right - left) * rng.random()
                probe[d] = cand
                if logf(probe) > log_y:
                    x[d] = cand
                    break
                if cand < x[d]:
                    left = cand
                else:
                    right = cand
        out[s] = x
    return out
