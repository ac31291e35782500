"""Decide time-bounded until formulas on sampled paths and estimate the
satisfaction probability by simulation.

The until check is exact on the piecewise-constant path: it scans jump
intervals rather than sampling a time grid, so verdicts carry no
discretization error.  At a jump instant the post-jump state governs,
matching the simulator's right-continuous convention.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csl import CslFormula, StateFormula
from .model import PCRN
from .simulate import Trajectory, simulate


@dataclass(frozen=True)
class Verdict:
    """Outcome of one path check; the witness is the earliest fulfilling time."""

    satisfied: bool
    witness_time: float | None = None


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte Carlo estimate of the satisfaction probability at one parameter point."""

    mean: float
    n: int
    ci_halfwidth: float


def check_until(
    traj: Trajectory,
    phi1: StateFormula,
    phi2: StateFormula,
    t_lo: float,
    t_hi: float,
    index: dict[str, int],
) -> Verdict:
    """Check  phi1 U[t_lo, t_hi] phi2  on one trajectory.

    Satisfied iff some witness time tau in [t_lo, t_hi] has phi2 at the
    state occupied at tau and phi1 at every strictly earlier time.
    """
    if traj.horizon < t_hi:
        raise ValueError(f"trajectory horizon {traj.horizon} ends before t'={t_hi}")
    m1 = phi1.mask(traj.states, index)
    m2 = phi2.mask(traj.states, index)
    times = traj.times
    n = len(times)
    # sentinel end beyond t_hi so the last interval covers the closed window end
    for i in range(n):
        a = times[i]
        b = times[i + 1] if i + 1 < n else t_hi + 1.0
        if a > t_hi:
            break
        if m2[i]:
            lo = max(a, t_lo)
            if lo <= t_hi and lo < b:
                # prefix [0, a) held phi1 (else we would have returned); the
                # stretch [a, lo) within this interval needs phi1 only when lo > a
                if lo == a or m1[i]:
                    return Verdict(satisfied=True, witness_time=float(lo))
        if not m1[i]:
            # phi1 fails on [a, b): no witness at or after b can exist
            return Verdict(satisfied=False)
    return Verdict(satisfied=False)


def check_formula(traj: Trajectory, formula: CslFormula, index: dict[str, int]) -> Verdict:
    path = formula.path
    return check_until(traj, path.phi1, path.phi2, path.t_lo, path.t_hi, index)


def estimate_lambda(
    pcrn: PCRN,
    point: Sequence[float],
    formula: CslFormula,
    n_sims: int,
    rng: np.random.Generator,
) -> LambdaEstimate:
    """Fraction of independent sample paths satisfying the path formula.

    Each run uses its own spawned substream, so the estimate is identical
    however the runs are scheduled.  The half-width is the 95% normal
    approximation, intended for diagnostics rather than guarantees.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    index = pcrn.species_index()
    t_end = formula.path.t_hi
    satisfied = 0
    for child in rng.spawn(n_sims):
        traj = simulate(pcrn, point, t_end, child) if t_end > 0 else _empty_path(pcrn)
        if check_formula(traj, formula, index).satisfied:
            satisfied += 1
    mean = satisfied / n_sims
    ci = 1.96 * float(np.sqrt(mean * (1.0 - mean) / n_sims))
    return LambdaEstimate(mean=mean, n=n_sims, ci_halfwidth=ci)


def _empty_path(pcrn: PCRN) -> Trajectory:
    return Trajectory(
        states=np.array([pcrn.initial_state], dtype=np.int64),
        times=np.array([0.0]),
        horizon=0.0,
    )
