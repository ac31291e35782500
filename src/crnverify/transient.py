"""Exact transient analysis of instantiated finite-state chains.

The chain is uniformized: with q at least the largest exit rate, the
transient operator exp(Qt) is the Poisson(qt)-weighted sum of powers of
the discrete matrix P = I + Q/q.  One series, sum_k pois(k; qt) M^k v,
serves every use: with M = P it runs backward, giving per-state expected
values of v at time t; with M = P^T it runs forward, carrying a
distribution.  The series is truncated once the Poisson tail mass drops
below the requested tolerance, and terms accumulate in ascending order.

The series runs many chains ("lanes") at once, each with its own matrix,
vector and qt.  Their matrices are stacked as one block-diagonal CSR
matrix and every step advances all vectors with one sparse mat-vec into
preallocated buffers, so the per-call cost of a small chain is paid once
per step rather than once per lane.  Lanes are sorted by series length,
longest first, so the lanes still running are a prefix of the rows; a
lane whose series has ended drops out of the mat-vec and the sum.  A row
of the stacked product sums the same entries in the same order as its
lane's own product, and each lane adds its own weight times its own
vector, so every lane's result is the same bits as the lane run alone,
whatever lanes share its block.  Callers cap a block at about
``_BLOCK_NNZ`` stored entries, which bounds its memory and keeps a large
chain's block cache-sized.

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

try:  # scipy's CSR mat-vec kernel, called directly to skip per-call dispatch
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError as exc:  # a private name: fail loudly if a release moves it
    raise ImportError(
        "crnverify needs scipy.sparse._sparsetools.csr_matvec, which this scipy release does not provide"
    ) from exc

DEFAULT_TOL = 1e-10
RATE_MARGIN = 1.02  # uniformization rate = margin * max exit rate

# stored entries of one block of lanes: bounds its memory and keeps a large
# chain's block cache-sized
_BLOCK_NNZ = 1 << 16


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


def _poisson_series(Ps: Sequence[sparse.csr_matrix], V: np.ndarray, qts: Sequence[float], tol: float) -> np.ndarray:
    """Row j is sum_k pois(k; qts[j]) Ps[j]^k V[j], truncated where lane j's
    Poisson tail drops below tol, for m >= 1 lanes: ``V`` is (m, n) and
    every ``Ps[j]`` n x n CSR."""
    m, n = V.shape
    if any(P.shape != (n, n) for P in Ps):  # the kernel does not check bounds
        raise ValueError(f"vectors of length {n} do not match matrices of shapes {[P.shape for P in Ps]}")
    weights = [_poisson_weights(qt, tol) if qt else np.ones(1) for qt in qts]
    order = sorted(range(m), key=lambda j: -len(weights[j]))
    lengths = [len(weights[j]) for j in order]
    W = np.zeros((lengths[0], m))
    for lane, j in enumerate(order):
        W[: lengths[lane], lane] = weights[j]
    # the lanes' matrices stacked block-diagonally in lane order
    stacked = [Ps[j] for j in order]
    starts = np.cumsum([0] + [P.nnz for P in stacked])
    index = np.int32 if max(starts[-1], m * n) < 2**31 else np.int64
    indptr = np.concatenate([[0], *(P.indptr[1:] + start for P, start in zip(stacked, starts))]).astype(index)
    indices = np.concatenate([P.indices + np.int64(lane * n) for lane, P in enumerate(stacked)]).astype(index)
    data = np.concatenate([P.data for P in stacked])
    x, y = np.ascontiguousarray(V[order], dtype=np.float64), np.empty((m, n))
    # the kernel reads and writes raw buffers: ravel() must be a view
    assert x.flags.c_contiguous and y.flags.c_contiguous and data.dtype == np.float64
    term, acc = np.empty((m, n)), np.zeros((m, n))
    active = m
    for k in range(len(W)):
        while lengths[active - 1] <= k:
            active -= 1
        if k:
            y[:active] = 0.0  # the kernel adds each row's sum to y
            _csr_matvec(active * n, active * n, indptr, indices, data, x.ravel(), y.ravel())
            x, y = y, x
        np.multiply(W[k, :active, None], x[:active], out=term[:active])
        acc[:active] += term[:active]
    out = np.empty_like(acc)
    out[order] = acc
    return out


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
    # P^T as CSR sums each row in the column order P^T's CSC form does
    v = np.array(initial, dtype=float)
    return _poisson_series([chain.P.T.tocsr()], v[None, :], [chain.q * t], tol)[0]


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
    point only assembles two sparse matrices before its lane joins a block
    of the Poisson series.
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
        # a lane's P in either phase stores at most the diagonal plus the
        # phase-1 rate entries (phase 2 zeroes a superset of rows)
        self._lane_nnz = len(space) + sum(B.nnz for B in self._basis1)

    @property
    def block_lanes(self) -> int:
        """Lanes in one block of :meth:`probabilities`: as many as fit in
        ``_BLOCK_NNZ`` stored entries, at least one."""
        return max(1, _BLOCK_NNZ // self._lane_nnz)

    def probability(self, point: Sequence[float], tol: float = DEFAULT_TOL) -> float:
        """Until probability from the initial state at ``point`` (rates in
        ``pcrn.params.names`` order): the one-lane call of
        :meth:`probabilities`."""
        return float(self.probabilities([point], tol)[0])

    def probabilities(self, points: Sequence[Sequence[float]], tol: float = DEFAULT_TOL) -> np.ndarray:
        """Until probabilities at many points, each the same bits as that
        point evaluated alone.  Points run as lanes of the Poisson series,
        phase 2 and then phase 1, in blocks of at most ``_BLOCK_NNZ``
        stored matrix entries."""
        rates = [point_values(self.pcrn.params.names, point) for point in points]
        lanes = self.block_lanes
        result = np.empty(len(rates))
        for start in range(0, len(rates), lanes):
            result[start:start + lanes] = self._block(rates[start:start + lanes], tol)
        # truncation and rounding may move a value past [0, 1] by at most
        # tol; anything beyond that is a numerical defect, not noise
        bad = ~((-tol <= result) & (result <= 1.0 + tol))
        if bad.any():
            i = int(np.argmax(bad))
            raise CrnVerifyError(
                f"until probability {float(result[i])!r} at {dict(zip(self.pcrn.params.names, rates[i]))} lies "
                f"outside [0, 1] by more than the truncation tolerance {tol}"
            )
        return np.clip(result, 0.0, 1.0)

    def _block(self, rates: list[list[float]], tol: float) -> np.ndarray:
        V = np.tile(self.mask2.astype(float), (len(rates), 1))
        values = self._phase(self._basis2, rates, V, self.t_hi - self.t_lo, tol)
        if self.t_lo == 0:
            result = values[:, self.init_idx]
            if self.mask2[self.init_idx]:
                result[:] = 1.0
            elif not self.mask1[self.init_idx]:
                result[:] = 0.0
            return result
        return self._phase(self._basis1, rates, self.mask1 * values, self.t_lo, tol)[:, self.init_idx]

    @staticmethod
    def _phase(basis: tuple, rates: list[list[float]], V: np.ndarray, t: float, tol: float) -> np.ndarray:
        """One phase's series over time t, one lane per point."""
        chains = [UniformizedChain.from_rate_matrix(_combine(basis, r)) for r in rates]
        return _poisson_series([c.P for c in chains], V, [c.q * t for c in chains], tol)


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
