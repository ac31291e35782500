"""Likelihood-free posterior inference by sequential Monte Carlo ABC.

Particles start as plain prior draws (initial threshold infinity); each
later round resamples ancestors by weight, perturbs them with a Gaussian
kernel whose covariance is twice the weighted empirical covariance of the
previous round, simulates, and accepts proposals whose discrepancy to the
data is within the round's threshold.  Thresholds anneal to the median of
the previous round's accepted distances.  Importance weights follow the
standard sequential scheme: prior density over the kernel mixture of the
previous round.

Waves.  Each round simulates in waves, and wave w of round r draws from
the one generator keyed (seed, STAGE_INFER, batch, r, w).  Round 0 is one
wave of m prior draws.  In a later round, lane j of a wave serves pending
slot ``pending[j % len(pending)]``, and no slot gets more lanes than it
has attempts left.  A wave draws its ancestor uniforms, then its (lanes x k)
kernel normals, then the simulation blocks of the lanes whose proposals
lie inside the box; a proposal outside counts as an attempt and is not
simulated.  A slot's winner is its lowest-index accepted lane, its first
acceptance in attempt order, and its attempts are its lanes up to and
including the winner.  The lanes after a winner are waste.  A wave's
width comes from counts only, so runs are reproducible whatever the
scheduling: the pending slots over the last wave's acceptance rate
(starting at twice the slots, as the threshold is the median), at least
one lane per slot and at most ``simulate._LANES``.

Batches.  ``abcseq`` runs several batches in lockstep: each keeps its own
rounds, waves and streams, and the next wave of every batch still
running is simulated in one call, one generator group per wave.  A
group draws exactly what its own call would (``simulate`` module
docstring), so a batch's particles do not depend on which batches run
beside it, nor on how ``infer`` shares batches among workers.

Early rejection.  The simulation stops a lane once its partial distance
exceeds its batch's threshold for the round (``simulate_distances``).
That lane would have been rejected anyway, so this is exact: the
zero-continuation case of lazy ABC (Prangle, Statistics and Computing
2016).
"""

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .config import ExperimentConfig
from .errors import ConfigError, ParseError
from .files import finite_number, read_csv, write_csv
from .model import PCRN, ParameterSpace
# ``simulate`` is unused here but stays importable: crnperf/spans.py wraps it by name
from .simulate import _LANES, Dataset, simulate, simulate_distances  # noqa: F401

STATUS_OK = "ok"
STATUS_CONVERGED_EARLY = "converged-early"
STATUS_ABORTED = "aborted-max-attempts"
STATUSES = (STATUS_OK, STATUS_CONVERGED_EARLY, STATUS_ABORTED)

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
    """Gaussian perturbation of ``values`` (one point, or one point per
    row) by the kernel whose covariance has Cholesky factor ``chol``; the
    normals are drawn in the shape of ``values``."""
    return values + rng.standard_normal(np.shape(values)) @ chol.T


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


def abcseq(pcrn: PCRN, data: Dataset, config: ExperimentConfig, batches: Sequence[int] = (0,)) -> list[ParticleSet]:
    """Run the given batches of the sequential ABC sampler in lockstep and
    return each one's final particle set, in the order of ``batches``.

    Reads ``abc_particles``, ``abc_rounds``, ``abc_max_attempts`` and
    ``seed`` of ``config``.  The prior is uniform over ``pcrn.params``, and
    particles are rows in its ``names`` order.  ``abc_rounds`` counts
    particle populations including the initial prior-sampled one, so one
    round degenerates to prior sampling with uniform weights.  If any slot
    exhausts ``abc_max_attempts`` the round is abandoned and the previous
    round's set is returned with an "aborted" status; if the threshold
    stalls for two consecutive rounds the current set is returned flagged
    "converged-early".

    The batches run in lockstep, as the module docstring states: each
    batch's result is what a call of that batch alone returns.
    """
    runs = [_batch(pcrn, data, config, b) for b in batches]
    results: list = [None] * len(runs)
    waves = {}  # run index -> (proposals, threshold, generator) of its next wave

    def advance(i: int, distances) -> None:
        try:
            waves[i] = runs[i].send(distances)
        except StopIteration as done:
            results[i] = done.value

    for i in range(len(runs)):
        advance(i, None)
    while waves:
        ids, requests = list(waves), list(waves.values())
        waves.clear()
        sizes = [len(points) for points, _, _ in requests]
        rho = simulate_distances(
            pcrn,
            np.concatenate([points for points, _, _ in requests]),
            data,
            np.repeat([eps for _, eps, _ in requests], sizes),
            [(rng, n) for (_, _, rng), n in zip(requests, sizes)],
        )
        for i, distances in zip(ids, np.split(rho, np.cumsum(sizes)[:-1])):
            advance(i, distances)
    return results


def _batch(pcrn: PCRN, data: Dataset, config: ExperimentConfig, batch: int):
    """One batch of ``abcseq`` as a generator: it yields each wave's
    simulation as (proposals, threshold, generator), is sent back the
    proposals' distances, and returns the batch's final particle set."""
    m = config.abc_particles
    space = pcrn.params
    order, lo, hi = space.names, space.lower, space.upper

    # round 0: prior draws, one path each, all accepted
    rng = rngmod.stream(config.seed, rngmod.STAGE_INFER, batch, 0, 0)
    points = lo + (hi - lo) * rng.random((m, len(lo)))
    distances = yield points, np.inf, rng
    attempts_total = m
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
        tries = np.zeros(m, dtype=np.int64)
        pending = np.arange(m)
        want = 2 * m
        wave = 0
        while len(pending):
            if np.any(tries[pending] >= config.abc_max_attempts):
                current.status = STATUS_ABORTED
                return current
            # lane j serves pending[j % len(pending)], within its attempts left
            j = np.arange(max(len(pending), min(want, _LANES)))
            slot = pending[j % len(pending)]
            slot = slot[j // len(pending) < config.abc_max_attempts - tries[slot]]
            rng = rngmod.stream(config.seed, rngmod.STAGE_INFER, batch, r, wave)
            ancestors = points[np.searchsorted(cum_weights, rng.random(len(slot)))]
            proposals = perturb(ancestors, chol, rng)
            inside = np.all((lo <= proposals) & (proposals <= hi), axis=1)
            rho = np.full(len(slot), np.inf)
            if inside.any():
                rho[inside] = yield proposals[inside], eps, rng
            accepted = inside & (rho <= eps)
            # each slot's winner is its first accepted lane; its attempts
            # run up to and including it
            first = np.full(m, len(slot))
            np.minimum.at(first, slot[accepted], np.flatnonzero(accepted))
            lane = np.arange(len(slot))
            tries += np.bincount(slot[lane <= first[slot]], minlength=m)
            won = pending[first[pending] < len(slot)]
            new_points[won] = proposals[first[won]]
            new_distances[won] = rho[first[won]]
            pending = pending[first[pending] == len(slot)]
            rate = np.count_nonzero(accepted) / len(slot)
            want = int(np.ceil(len(pending) / rate)) if rate else _LANES
            wave += 1
        attempts_total += int(tries.sum())

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
    if not isinstance(meta, dict):
        raise ParseError(f"particle file {path}: metadata must be a JSON object")
    if header[:3] != ["batch", "round", "weight"] or header[-1:] != ["distance"]:
        raise ParseError("particle file missing 'batch,round,weight,...,distance' header")
    names = tuple(header[3:-1])
    lo = meta.get("theta_lo")
    hi = meta.get("theta_hi")

    def bounds(values) -> bool:  # one finite number per parameter
        return type(values) is list and len(values) == len(names) and all(map(finite_number, values))

    if not (bounds(lo) and bounds(hi)):
        raise ParseError(f"particle file {path}: metadata 'theta_lo' and 'theta_hi' must give one finite "
                         f"number per parameter {list(names)}")
    try:  # the model's own bound checks: each lower bound nonnegative and below its upper bound
        space = ParameterSpace(tuple(zip(names, map(float, lo), map(float, hi))))
    except ConfigError as exc:
        raise ParseError(f"particle file {path}: metadata 'theta_lo' and 'theta_hi': {exc}") from exc
    try:
        table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ParseError(f"particle file {path}: malformed rows ({exc})") from exc
    if not np.isfinite(table).all():
        raise ParseError(f"particle file {path}: weights, parameter values and distances must be finite")
    if np.any(table[:, 2] < 0):
        raise ParseError(f"particle file {path}: weights must be nonnegative")
    n_batches = meta.get("batches")
    if type(n_batches) is not int or n_batches < 1:
        raise ParseError(f"particle file {path}: metadata must give a positive batch count")
    batch = table[:, 0].astype(int)
    if np.any((batch != table[:, 0]) | (batch < 0) | (batch >= n_batches)):
        raise ParseError(f"particle file {path}: batch ids must be integers in 0..{n_batches - 1}")
    if np.any(np.bincount(batch, minlength=n_batches) == 0):
        raise ParseError(f"particle file {path}: a declared batch has no rows")
    if np.any(np.bincount(batch, weights=table[:, 2], minlength=n_batches) == 0):
        raise ParseError(f"particle file {path}: a batch's weights sum to zero")

    def per_batch(key: str, what: str, valid) -> list:
        """Metadata list ``key``: one entry per batch, each ``valid``."""
        values = meta.get(key)
        if type(values) is not list or len(values) != n_batches or not all(map(valid, values)):
            raise ParseError(f"particle file {path}: metadata {key!r} must give {what} for each of the {n_batches} batches")
        return values

    def threshold_list(ts) -> bool:  # null stands for the infinite first threshold
        return type(ts) is list and all(t is None or (finite_number(t) and t >= 0) for t in ts)

    thresholds = per_batch("thresholds", "a list of finite nonnegative thresholds or null", threshold_list)
    attempts = per_batch("attempts", "a nonnegative integer", lambda a: type(a) is int and a >= 0)
    statuses = per_batch("status", f"one of {list(STATUSES)}", lambda s: s in STATUSES)
    sets = []
    for b in range(n_batches):
        block = table[batch == b]
        sets.append(
            ParticleSet(
                names=names,
                points=block[:, 3:-1],
                weights=block[:, 2],
                distances=block[:, -1],
                round=int(block[-1, 1]),
                attempts=attempts[b],
                status=statuses[b],
                thresholds=tuple(float("inf") if t is None else float(t) for t in thresholds[b]),
            )
        )
    return sets, space, meta
