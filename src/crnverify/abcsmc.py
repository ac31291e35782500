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
from .errors import ConfigError, ParseError
from .files import read_csv, write_csv
from .model import PCRN, ParamPoint, ParameterSpace
from .simulate import Dataset, discrepancy, simulate

STATUS_OK = "ok"
STATUS_CONVERGED_EARLY = "converged-early"
STATUS_ABORTED = "aborted-max-attempts"

_STALL_FRACTION = 0.01  # threshold must shrink by this fraction per round


@dataclass(frozen=True)
class Particle:
    point: ParamPoint
    weight: float
    distance: float


@dataclass
class ParticleSet:
    """One round's weighted particles plus bookkeeping about how it was reached."""

    particles: list[Particle]
    round: int
    threshold: float
    attempts: int
    status: str = STATUS_OK
    thresholds: tuple[float, ...] = ()

    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.particles])

    def points_array(self, order: tuple[str, ...]) -> np.ndarray:
        return np.array([p.point.array(order) for p in self.particles])


@dataclass(frozen=True)
class Prior:
    """Uniform prior over the parameter hyperrectangle."""

    space: ParameterSpace

    def sample(self, rng: np.random.Generator) -> ParamPoint:
        lo = self.space.lower
        hi = self.space.upper
        values = lo + (hi - lo) * rng.random(len(lo))
        return ParamPoint(self.space.names, tuple(values))

    def pdf(self, values: np.ndarray) -> float:
        lo = self.space.lower
        hi = self.space.upper
        if np.all((lo <= values) & (values <= hi)):
            return 1.0 / self.space.volume()
        return 0.0

    def contains(self, values: np.ndarray) -> bool:
        return bool(np.all((self.space.lower <= values) & (values <= self.space.upper)))


@dataclass
class AbcConfig:
    particles: int = 1000
    rounds: int = 8
    max_attempts: int = 5000
    seed: int = 0
    batch: int = 0
    # testing hook: pin every round's threshold instead of annealing to the
    # median (disables stall detection)
    force_threshold: float | None = None


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
    diff = new_points[:, None, :] - old_points[None, :, :]  # (m_new, m_old, k)
    quad = np.einsum("noi,ij,noj->no", diff, inv, diff)
    log_norm = -0.5 * (k * np.log(2.0 * np.pi) + logdet)
    dens = np.exp(log_norm - 0.5 * quad)
    return dens @ old_weights


def abcseq(pcrn: PCRN, prior: Prior, data: Dataset, config: AbcConfig) -> ParticleSet:
    """Run the sequential ABC sampler and return the final particle set.

    ``config.rounds`` counts particle populations including the initial
    prior-sampled one, so rounds=1 degenerates to prior sampling with
    uniform weights.  If any slot exhausts ``max_attempts`` the round is
    abandoned and the previous round's set is returned with an "aborted"
    status; if the threshold stalls for two consecutive rounds the current
    set is returned flagged "converged-early".
    """
    m = config.particles
    if m < 2:
        raise ConfigError("need at least 2 particles")
    if config.rounds < 1:
        raise ConfigError("need at least 1 round")
    order = prior.space.names
    t_end = float(data.times[-1])
    seed, batch = config.seed, config.batch

    # round 0: prior draws, one simulation each, all accepted
    points = np.empty((m, len(order)))
    distances = np.empty(m)
    attempts_total = 0
    for i in range(m):
        stream = rngmod.stream(seed, batch, 0, i)
        theta = prior.sample(stream)
        traj = simulate(pcrn, theta, t_end, stream)
        points[i] = theta.array(order)
        distances[i] = discrepancy(data, traj)
        attempts_total += 1
    weights = np.full(m, 1.0 / m)
    thresholds = [float("inf")]
    current = _make_set(order, points, weights, distances, 0, thresholds, attempts_total)

    stall_streak = 0
    for r in range(1, config.rounds):
        if config.force_threshold is not None:
            eps = config.force_threshold
        else:
            eps = adaptive_threshold(distances)
            if np.isfinite(thresholds[-1]) and eps >= thresholds[-1] * (1.0 - _STALL_FRACTION):
                stall_streak += 1
                if stall_streak >= 2:
                    current.status = STATUS_CONVERGED_EARLY
                    return current
            else:
                stall_streak = 0
        thresholds.append(eps)

        cov = kernel_covariance(points, weights)
        chol = np.linalg.cholesky(cov)
        cum_weights = np.cumsum(weights)
        cum_weights[-1] = 1.0
        new_points = np.empty_like(points)
        new_distances = np.empty(m)
        for i in range(m):
            stream = rngmod.stream(seed, batch, r, i)
            accepted = False
            for _ in range(config.max_attempts):
                attempts_total += 1
                ancestor = points[np.searchsorted(cum_weights, stream.random())]
                proposal = perturb(ancestor, chol, stream)
                if not prior.contains(proposal):
                    continue
                theta = ParamPoint(order, tuple(proposal))
                traj = simulate(pcrn, theta, t_end, stream)
                rho = discrepancy(data, traj)
                if rho <= eps:
                    new_points[i] = proposal
                    new_distances[i] = rho
                    accepted = True
                    break
            if not accepted:
                current.status = STATUS_ABORTED
                return current

        mixture = _kernel_mixture_density(new_points, points, weights, cov)
        prior_density = np.array([prior.pdf(p) for p in new_points])
        new_weights = prior_density / mixture
        new_weights /= new_weights.sum()
        points, weights, distances = new_points, new_weights, new_distances
        current = _make_set(order, points, weights, distances, r, thresholds, attempts_total)

    return current


def _make_set(order, points, weights, distances, round_index, thresholds, attempts) -> ParticleSet:
    particles = [
        Particle(
            point=ParamPoint(order, tuple(points[i])),
            weight=float(weights[i]),
            distance=float(distances[i]),
        )
        for i in range(len(points))
    ]
    return ParticleSet(
        particles=particles,
        round=round_index,
        threshold=float(thresholds[-1]),
        attempts=attempts,
        thresholds=tuple(float(t) for t in thresholds),
    )


def pool_batches(batch_sets: list[ParticleSet], space: ParameterSpace) -> list[tuple[int, Particle]]:
    """Concatenate batches with per-batch weights rescaled by 1/batches.

    Returns (batch_index, particle) pairs whose weights sum to 1 overall.
    """
    if not batch_sets:
        raise ConfigError("need at least one batch")
    names = space.names
    for s in batch_sets:
        for p in s.particles[:1]:
            if p.point.names != names:
                raise ConfigError("batches drawn over different parameter spaces")
    scale = 1.0 / len(batch_sets)
    pooled = []
    for b, s in enumerate(batch_sets):
        for p in s.particles:
            pooled.append((b, Particle(point=p.point, weight=p.weight * scale, distance=p.distance)))
    return pooled


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
        [str(b), str(s.round), repr(p.weight), *(repr(float(v)) for v in p.point.array(names)), repr(p.distance)]
        for b, s in enumerate(batch_sets)
        for p in s.particles
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
    by_batch: dict[int, list[Particle]] = {}
    round_by_batch: dict[int, int] = {}
    for row in rows:
        b = int(row[0])
        round_by_batch[b] = int(row[1])
        by_batch.setdefault(b, []).append(
            Particle(
                point=ParamPoint(names, tuple(float(v) for v in row[3:-1])),
                weight=float(row[2]),
                distance=float(row[-1]),
            )
        )
    sets = []
    thresholds = [
        tuple(float("inf") if t is None else float(t) for t in ts)
        for ts in meta.get("thresholds", [])
    ]
    attempts = meta.get("attempts", [])
    statuses = meta.get("status", [])
    for b in sorted(by_batch):
        ts = thresholds[b] if b < len(thresholds) else ()
        sets.append(
            ParticleSet(
                particles=by_batch[b],
                round=round_by_batch[b],
                threshold=ts[-1] if ts else float("inf"),
                attempts=attempts[b] if b < len(attempts) else 0,
                status=statuses[b] if b < len(statuses) else STATUS_OK,
                thresholds=ts,
            )
        )
    return sets, space, meta
