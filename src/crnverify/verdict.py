"""Posterior fitting, slice sampling, and the final verification probability.

The pooled particles are summarized by an independent (diagonal-covariance)
Gaussian.  The probability that the underlying system satisfies the
property is the posterior mass on the satisfying region, estimated by
classifying slice-sampler draws against the synthesized partition.  Mass in
undecided boxes or outside the parameter space is never counted as
satisfying; both fractions are reported alongside.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csl import CslFormula
from .errors import ConfigError, ParseError
from .files import finite_number, write_json
from .model import PCRN
from .monitor import estimate_lambda
from .synthesis import LABEL_SAT, LABEL_UNDECIDED, RegionPartition, classify_points

# uniforms the slice sampler draws from its generator at a time
_UNIFORM_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Posterior:
    """Independent Gaussian over the rate parameters (means and variances)."""

    names: tuple[str, ...]
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if np.any(self.variance <= 0):
            raise ConfigError("posterior variances must be positive")
        # once, as Python floats, for slice_sample
        object.__setattr__(self, "_moments", tuple(zip(self.mean.tolist(), self.variance.tolist())))
        object.__setattr__(self, "_log_norm", float(np.sum(np.log(2.0 * np.pi * self.variance))))

    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


@dataclass
class VerdictReport:
    """Outcome of integrating the posterior over the satisfying region."""

    probability: float
    standard_error: float
    mass_sat: float
    mass_viol: float
    mass_undecided: float
    mass_outside: float
    n_samples: int
    seed: int | None
    partition_file: str | None
    posterior: Posterior


def fit_posterior(names: tuple[str, ...], points: np.ndarray, weights: np.ndarray) -> Posterior:
    """Independent Gaussian fitted to weighted particles: the weighted mean
    and per-dimension population variance of ``points`` (one row per
    particle, columns in ``names`` order), as ``pool_batches`` returns them.

    A dimension with zero weighted variance means the particle cloud is
    degenerate (all mass on one value) and is rejected: the posterior
    could not be sampled from.
    """
    if len(points) < 2:
        raise ConfigError("need at least two particles to fit a posterior")
    total = weights.sum()
    if total <= 0:
        raise ConfigError("particle weights sum to zero")
    weights = weights / total
    mean = weights @ points
    variance = weights @ (points - mean) ** 2
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
        raise ConfigError("posterior moments are not finite: the particles hold a non-finite value")
    if np.any(variance <= 0):
        raise ConfigError("degenerate posterior: zero variance in some dimension")
    return Posterior(names=tuple(names), mean=mean, variance=variance)


def slice_sample(
    posterior: Posterior,
    n_samples: int,
    scale: float,
    rng: np.random.Generator,
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Draw from the posterior by coordinate-wise slice sampling.

    Each coordinate update places an interval of width ``scale`` around the
    current point, steps it out until both ends leave the slice, then
    shrinks toward the current point until a draw lands inside.  Total for
    any positive density; no tuning beyond the scale is needed.

    The uniforms come from ``rng`` ``_UNIFORM_BLOCK`` at a time, in the
    order one ``rng.random()`` call per uniform returns them, and the
    density adds its squared z-scores in parameter order, as ``logpdf`` in
    ``tests/reference_slice.py`` does, so the draws are those of that
    one-call-per-uniform sampler bit for bit.  The generator is left past
    the last uniform of the last block, beyond the last one used.
    """
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    if scale <= 0:
        raise ConfigError("slice scale must be positive")
    # the state as Python floats: the density is scalar arithmetic
    x = np.array(posterior.mean if init is None else init, dtype=float).tolist()
    k = len(x)
    moments, log_norm = posterior._moments, posterior._log_norm
    uniform = _uniforms(rng).__next__
    # each coordinate's squared z-score at x, the terms the density adds
    terms = [(v - m) * (v - m) / var for v, (m, var) in zip(x, moments)]

    def logf(v):
        """The log-density at x with coordinate d moved to v: the terms
        before d, summed once per update, then d's, then the rest in order."""
        z = v - m
        total = prefix + z * z / var
        for t in after:
            total += t
        return -0.5 * (total + log_norm)

    out = []
    for _ in range(n_samples):
        prefix = 0.0
        for d in range(k):
            m, var = moments[d]
            after = terms[d + 1:]
            # floor the uniform so the auxiliary level never degenerates
            log_y = logf(x[d]) + math.log(max(uniform(), 1e-300))
            left = x[d] - scale * uniform()
            right = left + scale
            while not logf(left) <= log_y:
                left -= scale
            while not logf(right) <= log_y:
                right += scale
            while True:
                cand = left + (right - left) * uniform()
                if logf(cand) > log_y:
                    break
                if cand < x[d]:
                    left = cand
                else:
                    right = cand
            x[d] = cand
            terms[d] = (cand - m) * (cand - m) / var
            prefix += terms[d]
        out.extend(x)
    return np.array(out).reshape(n_samples, k)


def _uniforms(rng: np.random.Generator):
    """``rng.random()`` values one at a time, drawn ``_UNIFORM_BLOCK`` at
    a time: the sequence that one call per value returns."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def probability(
    partition: RegionPartition,
    posterior: Posterior,
    rng: np.random.Generator,
    n_samples: int = 10000,
    scale: float = 2.0,
    seed: int | None = None,
    partition_file: str | None = None,
) -> VerdictReport:
    """Posterior mass on the satisfying region, by Monte Carlo over slice draws.

    Draws falling outside the parameter space, in violating boxes, or in
    undecided boxes all count against satisfaction; the four mass fractions
    sum to one exactly over the sample.
    """
    if tuple(partition.param_names) != tuple(posterior.names):
        raise ConfigError("partition and posterior cover different parameters")
    samples = slice_sample(posterior, n_samples, scale, rng)
    labels = classify_points(partition, samples)
    n = len(labels)
    n_outside, n_sat, n_und = (
        int(np.count_nonzero(labels == lab)) for lab in (None, LABEL_SAT, LABEL_UNDECIDED)
    )
    n_viol = n - n_outside - n_sat - n_und
    c = n_sat / n
    return VerdictReport(
        probability=c,
        standard_error=float(np.sqrt(c * (1.0 - c) / n)),
        mass_sat=c,
        mass_viol=n_viol / n,
        mass_undecided=n_und / n,
        mass_outside=n_outside / n,
        n_samples=n,
        seed=seed,
        partition_file=partition_file,
        posterior=posterior,
    )


def bayes_smc(
    posterior: Posterior,
    pcrn: PCRN,
    formula: CslFormula,
    n_params: int,
    n_sims: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, float, bool]]:
    """Statistical model-checking baseline over posterior parameter draws.

    Samples parameter points from the fitted Gaussian (redrawing the rare
    draw with a negative rate, which the simulator cannot run), estimates
    the satisfaction probability of each by simulation, and compares the
    plain frequency estimate against the property threshold.  The
    posterior must cover exactly the network's parameters; each point is
    returned in ``pcrn.params.names`` order, whatever the posterior's order.

    Draw ``i`` takes child ``i`` of ``rng.spawn(n_params)``: its point's
    normals, then its runs, whose later pieces ``estimate_lambda`` draws
    from children of that child.  Every point is drawn first, and one
    ``estimate_lambda`` call then runs all of them, so the draws share
    simulation calls while each keeps to its own generator.
    """
    if n_params < 1 or n_sims < 1:
        raise ConfigError("n_params and n_sims must be positive")
    names = pcrn.params.names
    if sorted(posterior.names) != sorted(names):
        raise ConfigError(
            f"posterior parameters {list(posterior.names)} are not the network's {list(names)}"
        )
    order = [posterior.names.index(name) for name in names]
    std = posterior.std()
    draws, points = rng.spawn(n_params), []
    for child in draws:
        for _ in range(1000):
            values = posterior.mean + std * child.standard_normal(len(std))
            if np.all(values >= 0):
                break
        else:
            raise ConfigError("posterior mass is almost entirely negative")
        points.append(values[order])
    estimates = estimate_lambda(pcrn, points, formula, n_sims, draws).tolist()
    return [(point, p, formula.compare(p)) for point, p in zip(points, estimates)]


def majority_verdict(results: list[tuple[np.ndarray, float, bool]]) -> bool:
    verdicts = [v for _, _, v in results]
    return sum(verdicts) * 2 > len(verdicts)


# ---------------------------------------------------------------------------
# Posterior and report documents (wall time stays out of the file so reruns
# with the same seed are byte-identical).


def posterior_to_doc(posterior: Posterior) -> dict:
    """The ``{mu, sigma}`` document that posterior.json and verdict.json hold."""
    return {
        "mu": {n: float(m) for n, m in zip(posterior.names, posterior.mean)},
        "sigma": {n: float(s) for n, s in zip(posterior.names, posterior.std())},
    }


def posterior_from_doc(doc: dict, path: str | Path) -> Posterior:
    """Inverse of ``posterior_to_doc``; a ``ParseError`` naming ``path``
    unless ``mu`` and ``sigma`` are objects with the same keys, holding
    finite numbers and a positive ``sigma``."""
    mu, sigma = doc.get("mu"), doc.get("sigma")
    if not (isinstance(mu, dict) and isinstance(sigma, dict) and mu.keys() == sigma.keys()):
        raise ParseError(f"posterior {path}: 'mu' and 'sigma' must be objects over the same parameters")
    names = tuple(mu)
    values = [*mu.values(), *sigma.values()]
    if not all(map(finite_number, values)) or min(sigma.values(), default=1) <= 0:
        raise ParseError(f"posterior {path}: 'mu' and 'sigma' must hold finite numbers, every sigma positive")
    std = np.array([sigma[n] for n in names])
    return Posterior(names=names, mean=np.array([mu[n] for n in names]), variance=std**2)


def save_report(report: VerdictReport, path: str | Path) -> None:
    write_json(path, {
        "C": report.probability,
        "se": report.standard_error,
        "mass_T": report.mass_sat,
        "mass_F": report.mass_viol,
        "mass_U": report.mass_undecided,
        "mass_outside": report.mass_outside,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "partition_file": report.partition_file,
        "posterior": posterior_to_doc(report.posterior),
    })
