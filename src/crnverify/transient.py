"""Exact transient analysis of instantiated finite-state chains.

The chain is uniformized: with q at least the largest exit rate, the
transient operator exp(Qt) is the Poisson(qt)-weighted sum of powers of
the discrete matrix P = I + Q/q.  One series, sum_k pois(k; qt) M^k v,
serves every use: with M = P it runs backward, giving per-state expected
values of v at time t; with M = P^T it runs forward, carrying a
distribution.  The series is truncated once the Poisson tail mass drops
below the requested tolerance, and terms accumulate in ascending order.

Time-bounded until probabilities phi1 U[t,t'] phi2 use the standard
two-phase reduction, both phases run backward.  Phase 2 takes, from each
state, the probability of sitting in a phi2 state after t'-t in the chain
where phi2 and dead-end states absorb.  Phase 1 carries those values,
zeroed outside phi1, back over [0, t] in the chain where non-phi1 states
absorb, and reads the result at the initial state.
Rate matrices here are linear in the parameters (one rate parameter per
reaction), so repeated evaluations at different points reuse one sparse
matrix per parameter.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse, special

from .csl import CslFormula, StateFormula
from .errors import ConfigError, CrnVerifyError
from .model import PCRN, StateSpace, _falling_product, compiled_reactions, enumerate_states, point_values

DEFAULT_TOL = 1e-10
RATE_MARGIN = 1.02  # uniformization rate = margin * max exit rate


@dataclass(frozen=True, eq=False)
class UniformizedChain:
    """Row-stochastic jump matrix P = I + Q/q plus its uniformization rate."""

    q: float
    P: sparse.csr_matrix
    n_states: int

    @classmethod
    def from_rate_matrix(cls, rates: sparse.spmatrix | np.ndarray) -> "UniformizedChain":
        """Build from off-diagonal transition rates (diagonal entries ignored)."""
        R = sparse.csr_matrix(rates, dtype=float)
        R.setdiag(0.0)
        R.eliminate_zeros()
        n = R.shape[0]
        outflow = np.asarray(R.sum(axis=1)).ravel()
        q = RATE_MARGIN * float(outflow.max()) if outflow.size and outflow.max() > 0 else 0.0
        if q == 0.0:
            P = sparse.identity(n, format="csr")
        else:
            P = (R / q + sparse.diags(1.0 - outflow / q)).tocsr()
        return cls(q=q, P=P, n_states=n)

    def row_sum_defect(self) -> float:
        ones = np.ones(self.n_states)
        return float(np.abs(np.asarray(self.P.sum(axis=1)).ravel() - ones).max())


def _poisson_weights(qt: float, tol: float) -> np.ndarray:
    """Poisson(qt) probabilities of 0..K, with the tail mass beyond K below tol.

    K starts one past the (1 - tol)-quantile and grows until the tail test
    passes.  Quantile (``pdtrik``/``pdtr``), tail (``pdtrc``) and pmf follow
    the formulas of SciPy's Poisson distribution, so the weights equal its
    ``pmf`` bit for bit without the cost of importing SciPy's statistics
    package.
    """
    q = 1.0 - tol
    k = np.ceil(special.pdtrik(q, qt))
    below = max(k - 1.0, 0.0)
    k_max = int(below if special.pdtr(below, qt) >= q else k) + 1
    while special.pdtrc(k_max, qt) > tol:
        k_max += max(1, k_max // 10)
    ks = np.arange(k_max + 1)
    return np.exp(special.xlogy(ks, qt) - special.gammaln(ks + 1) - qt)


def _poisson_series(M, v: np.ndarray, qt: float, tol: float) -> np.ndarray:
    """sum_k pois(k; qt) M^k v, truncated where the Poisson tail drops below tol."""
    if qt == 0:
        return v
    acc = np.zeros_like(v)
    for k, w in enumerate(_poisson_weights(qt, tol)):
        if k:
            v = M @ v
        if w > 0.0:
            acc += w * v
    return acc


def transient(
    chain: UniformizedChain,
    initial: np.ndarray,
    t: float,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Distribution over states at time t, starting from ``initial``.

    Returns the raw truncated series: entries sum to 1 minus a defect of at
    most ``tol``.  Renormalize only for reporting.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    return _poisson_series(chain.P.T, np.array(initial, dtype=float), chain.q * t, tol)


# ---------------------------------------------------------------------------
# Parameter-linear chain assembly for a network's enumerated state space.


@cache
def _chain_basis(pcrn: PCRN):
    """State space and per-parameter sparse rate matrices, in
    ``params.names`` order: R(theta) = sum_k theta_k * basis[k]."""
    space = enumerate_states(pcrn)
    n = len(space)
    by_param = [([], [], []) for _ in pcrn.params.names]
    states = space.states
    columns = states.T.astype(float)
    for reactants, delta, k in compiled_reactions(pcrn):
        g = np.ones(n) * _falling_product(reactants, columns)
        active = np.nonzero(g > 0)[0]
        if active.size == 0:
            continue
        targets = states[active]
        for i, d in delta:
            targets[:, i] += d
        tgt_idx = space.ordinals(targets)
        keep = tgt_idx >= 0
        rows, cols, vals = by_param[k]
        rows.extend(active[keep].tolist())
        cols.extend(tgt_idx[keep].tolist())
        vals.extend(g[active][keep].tolist())
    basis = []
    for rows, cols, vals in by_param:
        B = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        B.sum_duplicates()
        basis.append(B)
    return space, tuple(basis)


def build_chain(pcrn: PCRN, point: Sequence[float]) -> tuple[UniformizedChain, StateSpace]:
    """Uniformized chain of the network instantiated at one parameter point."""
    space, basis = _chain_basis(pcrn)
    R = _combine(basis, point_values(pcrn.params.names, point))
    return UniformizedChain.from_rate_matrix(R), space


def _combine(basis: tuple, rates: list[float]) -> sparse.csr_matrix:
    acc = None
    for B, value in zip(basis, rates):
        term = B * value
        acc = term if acc is None else acc + term
    return acc


class UntilEvaluator:
    """Reusable two-phase evaluator for one network and one until formula.

    Building the evaluator enumerates the state space and precomputes the
    per-parameter rate pieces with absorbing rows already zeroed, so each
    call to :meth:`probability` only assembles two sparse matrices and runs
    the Poisson series.
    """

    def __init__(self, pcrn: PCRN, phi1: StateFormula, phi2: StateFormula, t_lo: float, t_hi: float):
        if not 0 <= t_lo <= t_hi:
            raise ConfigError(f"until window [{t_lo}, {t_hi}] needs 0 <= t <= t'")
        self.pcrn = pcrn
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        space, basis = _chain_basis(pcrn)
        self.space = space
        index = pcrn.species_index()
        self.mask1 = phi1.mask(space.states, index)
        self.mask2 = phi2.mask(space.states, index)
        self.init_idx = space.ordinal(pcrn.initial_state)
        # phase 1: non-phi1 states absorb; phase 2: phi2 and (!phi1 & !phi2) absorb
        keep1 = sparse.diags(self.mask1.astype(float))
        keep2 = sparse.diags((self.mask1 & ~self.mask2).astype(float))
        self._basis1 = tuple((keep1 @ B).tocsr() for B in basis)
        self._basis2 = tuple((keep2 @ B).tocsr() for B in basis)

    def probability(self, point: Sequence[float], tol: float = DEFAULT_TOL) -> float:
        """Until probability from the initial state at ``point`` (rates in
        ``pcrn.params.names`` order)."""
        rates = point_values(self.pcrn.params.names, point)
        chain2 = UniformizedChain.from_rate_matrix(_combine(self._basis2, rates))
        values = _poisson_series(
            chain2.P, self.mask2.astype(float), chain2.q * (self.t_hi - self.t_lo), tol
        )
        if self.t_lo == 0:
            result = values[self.init_idx]
            if self.mask2[self.init_idx]:
                result = 1.0
            elif not self.mask1[self.init_idx]:
                result = 0.0
        else:
            chain1 = UniformizedChain.from_rate_matrix(_combine(self._basis1, rates))
            result = _poisson_series(chain1.P, self.mask1 * values, chain1.q * self.t_lo, tol)[self.init_idx]
        # truncation and rounding may move the value past [0, 1] by at most
        # tol; anything beyond that is a numerical defect, not noise
        if not -tol <= result <= 1.0 + tol:
            raise CrnVerifyError(
                f"until probability {float(result)!r} at {dict(zip(self.pcrn.params.names, rates))} lies outside "
                f"[0, 1] by more than the truncation tolerance {tol}"
            )
        return float(min(max(result, 0.0), 1.0))


def bounded_until_prob(
    pcrn: PCRN,
    point: Sequence[float],
    phi1: StateFormula,
    phi2: StateFormula,
    t_lo: float,
    t_hi: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Probability that the instantiated chain satisfies phi1 U[t_lo,t_hi] phi2
    from its initial state."""
    return UntilEvaluator(pcrn, phi1, phi2, t_lo, t_hi).probability(point, tol)


def evaluator_for(pcrn: PCRN, formula: CslFormula) -> UntilEvaluator:
    path = formula.path
    return UntilEvaluator(pcrn, path.phi1, path.phi2, path.t_lo, path.t_hi)


def check_threshold(pcrn: PCRN, point: Sequence[float], formula: CslFormula, tol: float = DEFAULT_TOL) -> bool:
    """Exactly decide the top-level probability comparison at one point."""
    value = evaluator_for(pcrn, formula).probability(point, tol)
    return formula.compare(value)
