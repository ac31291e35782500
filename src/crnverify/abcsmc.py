"""Likelihood-free posterior inference by sequential Monte Carlo ABC.

Particles start as plain prior draws (initial threshold infinity); each
later round resamples ancestors by weight, perturbs them with a Gaussian
kernel whose covariance is twice the weighted empirical covariance of the
previous round, simulates, and accepts proposals whose discrepancy to the
data is within the round's threshold.  Thresholds anneal to the median of
the previous round's accepted distances.  Importance weights follow the
standard sequential scheme: prior density over the kernel mixture of the
previous round.

Per-particle substreams are keyed by (seed, batch, round, slot), so runs
are reproducible no matter how slots are scheduled.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .config import ExperimentConfig
from .errors import ConfigError, ParseError
from .files import read_csv, write_csv
from .model import PCRN, ParameterSpace
from .simulate import Dataset, discrepancy, simulate

STATUS_OK = "ok"
STATUS_CONVERGED_EARLY = "converged-early"
STATUS_ABORTED = "aborted-max-attempts"

_STALL_FRACTION = 0.01  # threshold must shrink by this fraction per round
# new particles per block of the kernel mixture: bounds its (block, m, k)
# temporaries to O(m) memory instead of O(m^2)
_MIXTURE_BLOCK = 256


@dataclass
class ParticleSet:
    """One round's weighted particles plus bookkeeping about how it was reached.

    ``points`` holds one row per particle, columns in ``names`` order;
    ``weights`` and ``distances`` hold one entry per row.
    """

    names: tuple[str, ...]
    points: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    round: int
    attempts: int
    status: str = STATUS_OK
    thresholds: tuple[float, ...] = ()

    @property
    def threshold(self) -> float:
        """The threshold this round accepted against (infinity for prior draws)."""
        return self.thresholds[-1] if self.thresholds else float("inf")


def adaptive_threshold(accepted_distances) -> float:
    """Next round's threshold: the exact median of the accepted distances."""
    distances = np.asarray(accepted_distances, dtype=float)
    if distances.size == 0:
        raise ValueError("no accepted distances")
    return float(np.median(distances))


def kernel_covariance(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Perturbation covariance: twice the weighted empirical covariance of
    ``points`` (weights assumed normalized), diagonal-regularized so it
    never degenerates."""
    centered = points - weights @ points
    cov = (centered * weights[:, None]).T @ centered
    return 2.0 * cov + 1e-12 * np.eye(points.shape[1])


def perturb(values: np.ndarray, chol: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gaussian perturbation of ``values`` by the kernel whose covariance has
    Cholesky factor ``chol``."""
    return values + chol @ rng.standard_normal(len(values))


def _kernel_mixture_density(new_points: np.ndarray, old_points: np.ndarray, old_weights: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Mixture density of the kernel over the previous round, per new point."""
    k = cov.shape[0]
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    log_norm = -0.5 * (k * np.log(2.0 * np.pi) + logdet)
    out = np.empty(len(new_points))
    for start in range(0, len(new_points), _MIXTURE_BLOCK):
        block = slice(start, start + _MIXTURE_BLOCK)
        diff = new_points[block, None, :] - old_points[None, :, :]  # (block, m_old, k)
        quad = np.einsum("noi,ij,noj->no", diff, inv, diff)
        out[block] = np.exp(log_norm - 0.5 * quad) @ old_weights
    return out


def abcseq(pcrn: PCRN, data: Dataset, config: ExperimentConfig, batch: int = 0) -> ParticleSet:
    """Run one batch of the sequential ABC sampler and return its final
    particle set.

    Reads ``abc_particles``, ``abc_rounds``, ``abc_max_attempts`` and
    ``seed`` of ``config``.  The prior is uniform over ``pcrn.params``, and
    particles are rows in its ``names`` order.  ``abc_rounds`` counts
    particle populations including the initial prior-sampled one, so one
    round degenerates to prior sampling with uniform weights.  If any slot
    exhausts ``abc_max_attempts`` the round is abandoned and the previous
    round's set is returned with an "aborted" status; if the threshold
    stalls for two consecutive rounds the current set is returned flagged
    "converged-early".
    """
    m = config.abc_particles
    space = pcrn.params
    order, lo, hi = space.names, space.lower, space.upper
    t_end = float(data.times[-1])

    # round 0: prior draws, one simulation each, all accepted
    points = np.empty((m, len(order)))
    distances = np.empty(m)
    attempts_total = 0
    for i in range(m):
        stream = rngmod.stream(config.seed, batch, 0, i)
        points[i] = lo + (hi - lo) * stream.random(len(lo))
        distances[i] = discrepancy(data, simulate(pcrn, points[i], t_end, stream))
        attempts_total += 1
    weights = np.full(m, 1.0 / m)
    thresholds = [float("inf")]
    current = ParticleSet(order, points, weights, distances, 0, attempts_total, thresholds=tuple(thresholds))

    stall_streak = 0
    for r in range(1, config.abc_rounds):
        eps = adaptive_threshold(distances)
        if np.isfinite(thresholds[-1]) and eps >= thresholds[-1] * (1.0 - _STALL_FRACTION):
            stall_streak += 1
            if stall_streak >= 2:
                current.status = STATUS_CONVERGED_EARLY
                return current
        else:
            stall_streak = 0
        thresholds.append(float(eps))

        cov = kernel_covariance(points, weights)
        chol = np.linalg.cholesky(cov)
        cum_weights = np.cumsum(weights)
        cum_weights[-1] = 1.0
        new_points = np.empty_like(points)
        new_distances = np.empty(m)
        for i in range(m):
            stream = rngmod.stream(config.seed, batch, r, i)
            accepted = False
            for _ in range(config.abc_max_attempts):
                attempts_total += 1
                ancestor = points[np.searchsorted(cum_weights, stream.random())]
                proposal = perturb(ancestor, chol, stream)
                if not np.all((lo <= proposal) & (proposal <= hi)):
                    continue
                rho = discrepancy(data, simulate(pcrn, proposal, t_end, stream))
                if rho <= eps:
                    new_points[i] = proposal
                    new_distances[i] = rho
                    accepted = True
                    break
            if not accepted:
                current.status = STATUS_ABORTED
                return current

        # every accepted proposal lies inside the box, so the uniform prior
        # density is the same constant for all of them
        mixture = _kernel_mixture_density(new_points, points, weights, cov)
        new_weights = (1.0 / space.volume()) / mixture
        new_weights /= new_weights.sum()
        points, weights, distances = new_points, new_weights, new_distances
        current = ParticleSet(order, points, weights, distances, r, attempts_total, thresholds=tuple(thresholds))

    return current


def pool_batches(batch_sets: list[ParticleSet]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Concatenate batches with per-batch weights rescaled by 1/batches.

    Returns ``(names, points, weights)`` with weights summing to 1 overall.
    """
    if not batch_sets:
        raise ConfigError("need at least one batch")
    names = batch_sets[0].names
    if any(s.names != names for s in batch_sets):
        raise ConfigError("batches drawn over different parameter spaces")
    scale = 1.0 / len(batch_sets)
    points = np.concatenate([s.points for s in batch_sets])
    weights = np.concatenate([s.weights * scale for s in batch_sets])
    return names, points, weights


# ---------------------------------------------------------------------------
# Particle files: versioned CSV with a JSON metadata comment.


def save_particles(
    batch_sets: list[ParticleSet],
    space: ParameterSpace,
    path: str | Path,
    seed: int | None = None,
) -> None:
    names = space.names
    meta = {
        "seed": seed,
        "batches": len(batch_sets),
        # infinity is not valid JSON; the initial threshold travels as null
        "thresholds": [[None if np.isinf(t) else t for t in s.thresholds] for s in batch_sets],
        "attempts": [s.attempts for s in batch_sets],
        "status": [s.status for s in batch_sets],
        "round": [s.round for s in batch_sets],
        "theta_lo": list(map(float, space.lower)),
        "theta_hi": list(map(float, space.upper)),
    }
    rows = (
        [str(b), str(s.round), repr(weight), *map(repr, point), repr(distance)]
        for b, s in enumerate(batch_sets)
        for point, weight, distance in zip(s.points.tolist(), s.weights.tolist(), s.distances.tolist())
    )
    write_csv(path, {"meta": meta}, ["batch", "round", "weight", *names, "distance"], rows)


def load_particles(path: str | Path) -> tuple[list[ParticleSet], ParameterSpace, dict]:
    comments, header, rows = read_csv(path, "particle")
    meta = comments.get("meta", {})
    if header[:3] != ["batch", "round", "weight"] or header[-1:] != ["distance"]:
        raise ParseError("particle file missing 'batch,round,weight,...,distance' header")
    names = tuple(header[3:-1])
    lo = meta.get("theta_lo")
    hi = meta.get("theta_hi")
    if lo is None or hi is None:
        raise ParseError("particle file metadata missing the parameter space")
    space = ParameterSpace(tuple(zip(names, map(float, lo), map(float, hi))))
    try:
        table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ParseError(f"particle file {path}: malformed rows ({exc})") from exc
    batch = table[:, 0].astype(int)
    thresholds = [
        tuple(float("inf") if t is None else float(t) for t in ts)
        for ts in meta.get("thresholds", [])
    ]
    attempts = meta.get("attempts", [])
    statuses = meta.get("status", [])
    sets = []
    for b in np.unique(batch).tolist():
        block = table[batch == b]
        sets.append(
            ParticleSet(
                names=names,
                points=block[:, 3:-1],
                weights=block[:, 2],
                distances=block[:, -1],
                round=int(block[-1, 1]),
                attempts=attempts[b] if b < len(attempts) else 0,
                status=statuses[b] if b < len(statuses) else STATUS_OK,
                thresholds=thresholds[b] if b < len(thresholds) else (),
            )
        )
    return sets, space, meta
