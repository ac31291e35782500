"""Exact transient analysis of instantiated finite-state chains.

The chain is uniformized: with q at least the largest exit rate, the
transient operator exp(Qt) is the Poisson(qt)-weighted sum of powers of
the discrete matrix P = I + Q/q.  One series, sum_k pois(k; qt) P^k v,
runs backward and gives per-state expected values of v at time t.  It
is truncated once the Poisson tail mass drops below the requested
tolerance, and terms accumulate in ascending order.

The series runs many chains ("lanes") at once, each with its own matrix,
vector and qt.  The lanes share one sparsity pattern, and their values
are one (lanes x entries) array; their matrices are stacked as one
block-diagonal CSR matrix and every step advances all vectors with one
sparse mat-vec into preallocated buffers, so the per-call cost of a
small chain is paid once per step rather than once per lane.  Lanes are
sorted by series length, longest first, so the lanes still running are
a prefix of the rows; a lane whose series has ended drops out of the
mat-vec and the sum.  A step's zero-fill, mat-vec, weighting and sum run
on views of that prefix, rebuilt only when a lane ends.  A row
of the stacked product sums the same entries in the same order as its
lane's own product, and each lane adds its own weight times its own
vector, so every lane's result is the same bits as the lane run alone,
whatever lanes share its block.  Callers cap a block at about
``_BLOCK_NNZ`` stored entries, which bounds its memory and keeps a large
chain's block cache-sized.  A call whose weight table (series terms x
lanes) would pass ``_MAX_WEIGHTS`` fails with a ``ConfigError`` before
any weight exists, and so does a tolerance the series cannot meet.

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
from functools import cache

import numpy as np
from scipy import sparse, special

from .csl import BoundedUntil, CslFormula
from .errors import ConfigError, CrnVerifyError
from .model import PCRN, _falling_product, compiled_reactions, enumerate_states, point_values

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

# Poisson weights of one series call, terms x lanes: 128 MiB of them.  A
# SIR block (4 lanes of at most 2 391 terms) and a smoke decay block (862
# lanes of at most 644) stay far below it
_MAX_WEIGHTS = 1 << 24

# below machine epsilon, 1 - tol rounds to 1 and no series length meets
# the tolerance
_MIN_TOL = float(np.finfo(float).eps)


def check_tol(tol: float, name: str = "tol") -> None:
    """A ``ConfigError`` unless ``tol`` is a truncation tolerance the
    series can meet: at least machine epsilon and below 1."""
    if not _MIN_TOL <= tol < 1:
        raise ConfigError(f"{name} must be at least machine epsilon {_MIN_TOL!r} and below 1, got {tol!r}")


def _check_series_size(qts: Sequence[float], tol: float) -> None:
    """A ``ConfigError`` when one call's weight table would hold more than
    ``_MAX_WEIGHTS`` weights, checked before any weight exists.  A lane
    counts one term past its (1 - tol)-quantile, the fewest
    ``_poisson_weights`` returns; where ``pdtrik`` finds no quantile (qt
    near 1e12 and beyond) it counts qt terms, the series' mean length."""
    if not any(qts):
        return
    terms = float(np.fmax(np.ceil(special.pdtrik(1.0 - tol, qts)) + 1.0, qts).max())
    if not terms * len(qts) <= _MAX_WEIGHTS:
        raise ConfigError(
            f"a Poisson series call needs about {terms:.3g} terms x {len(qts)} lane(s) of weights (uniformization "
            f"rate x time up to {max(qts):.3g}), more than its bound of {_MAX_WEIGHTS}: narrow the rate bounds "
            "or the time window"
        )


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


def _poisson_series(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    V: np.ndarray,
    qts: Sequence[float],
    tol: float,
    cols: slice = slice(None),
) -> np.ndarray:
    """Row j is sum_k pois(k; qts[j]) M_j^k V[j], truncated where lane j's
    Poisson tail drops below tol, for m >= 1 lanes: ``V`` is (m, n) and
    every M_j is the n x n CSR matrix of the shared pattern (``indptr``,
    ``indices``) with values ``data[j]``.  Only the columns ``cols`` of
    the sum are accumulated and returned."""
    m, n = V.shape
    if len(indptr) != n + 1:  # the kernel does not check bounds
        raise ValueError(f"vectors of length {n} do not match a matrix of {len(indptr) - 1} rows")
    _check_series_size(qts, tol)
    weights = [_poisson_weights(qt, tol) if qt else np.ones(1) for qt in qts]
    order = sorted(range(m), key=lambda j: -len(weights[j]))
    lengths = [len(weights[j]) for j in order]
    W = np.zeros((lengths[0], m))
    for lane, j in enumerate(order):
        W[: lengths[lane], lane] = weights[j]
    # the lanes' matrices stacked block-diagonally in lane order
    nnz = len(indices)
    index = np.int32 if max(m * nnz, m * n) < 2**31 else np.int64
    lane = np.arange(m, dtype=np.int64)[:, None]
    indptr = np.concatenate([[0], (indptr[1:] + lane * nnz).ravel()]).astype(index)
    indices = (indices + lane * n).ravel().astype(index)
    data = np.ascontiguousarray(data[order], dtype=np.float64).ravel()
    x, y = np.ascontiguousarray(V[order], dtype=np.float64), np.empty((m, n))
    # the kernel reads and writes raw buffers: ravel() must be a view
    assert x.flags.c_contiguous and y.flags.c_contiguous
    width = len(range(n)[cols])
    term, acc = np.empty((m, width)), np.zeros((m, width))
    k, active = 0, m
    while k < len(W):
        # lanes 0..active-1 run steps k..end-1: the views of their rows
        # are built once per lane that ends, not once per step
        while lengths[active - 1] <= k:
            active -= 1
        end, rows = lengths[active - 1], active * n
        x_flat, y_flat = x.ravel()[:rows], y.ravel()[:rows]
        x_cols, y_cols = x[:active, cols], y[:active, cols]
        t, a = term[:active], acc[:active]
        for w in W[k:end, :active, None]:
            if k:
                y_flat.fill(0.0)  # the kernel adds each row's sum to y
                _csr_matvec(rows, rows, indptr, indices, data, x_flat, y_flat)
                x, y, x_flat, y_flat, x_cols, y_cols = y, x, y_flat, x_flat, y_cols, x_cols
            np.multiply(w, x_cols, out=t)
            a += t
            k += 1
    out = np.empty_like(acc)
    out[order] = acc
    return out


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


class UntilEvaluator:
    """Reusable two-phase evaluator for one network and one until path,
    ``path``'s window already checked by ``BoundedUntil``.

    Building the evaluator enumerates the state space and precomputes the
    per-parameter rate pieces with absorbing rows already zeroed, and each
    phase's shared lane pattern, so a block of points assembles its jump
    matrices as one array before its lanes join the Poisson series.
    """

    def __init__(self, pcrn: PCRN, path: BoundedUntil):
        self.pcrn = pcrn
        self.t_lo = float(path.t_lo)
        self.t_hi = float(path.t_hi)
        space, basis = _chain_basis(pcrn)
        self.space = space
        index = pcrn.species_index()
        self.mask1 = path.phi1.mask(space.states, index)
        self.mask2 = path.phi2.mask(space.states, index)
        self.init_idx = space.ordinal(pcrn.initial_state)
        # phase 1: non-phi1 states absorb; phase 2: phi2 and (!phi1 & !phi2) absorb
        keep1 = sparse.diags(self.mask1.astype(float))
        keep2 = sparse.diags((self.mask1 & ~self.mask2).astype(float))
        self._basis1 = tuple((keep1 @ B).tocsr() for B in basis)
        self._basis2 = tuple((keep2 @ B).tocsr() for B in basis)
        self._lanes1 = _LanePattern(self._basis1, len(space))
        self._lanes2 = _LanePattern(self._basis2, len(space))
        # phase 2 zeroes a superset of phase 1's rows, so phase 1's pattern
        # is the larger
        self._lane_nnz = len(self._lanes1.indices)

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
        check_tol(tol)
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
        theta = np.array(rates, dtype=float).reshape(len(rates), -1)
        V = np.tile(self.mask2.astype(float), (len(rates), 1))
        values = self._lanes2.series(theta, V, self.t_hi - self.t_lo, tol)
        if self.t_lo == 0:
            result = values[:, self.init_idx]
            if self.mask2[self.init_idx]:
                result[:] = 1.0
            elif not self.mask1[self.init_idx]:
                result[:] = 0.0
            return result
        init = slice(self.init_idx, self.init_idx + 1)
        return self._lanes1.series(theta, self.mask1 * values, self.t_lo, tol, init)[:, 0]


class _LanePattern:
    """The jump matrices P = I + R/q of one phase for many parameter points
    at once: every lane shares one CSR pattern, the union of the basis
    patterns plus the diagonal, and a block's values are one (lanes x
    entries) array.  This is the package's one chain builder.

    An off-diagonal entry is sum_k theta_k B_k, added in basis order, times
    1/q; a diagonal entry is 1 - outflow/q, with the outflow summed along
    the row in index order; q is the margin times the largest outflow, and
    a lane with q = 0 is the identity.  An entry whose rates are all zero
    stays in the pattern as an explicit zero, which adds +0.0 to its row's
    sums and leaves their bits as they are.
    """

    def __init__(self, basis: tuple, n: int):
        coords = [(np.repeat(np.arange(n), np.diff(B.indptr)) * n + B.indices) for B in basis]
        keys = np.unique(np.concatenate([*coords, np.arange(n) * (n + 1)]))
        rows = keys // n
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        self.indices = keys % n
        self.data = [B.data for B in basis]
        self.slots = [np.searchsorted(keys, c) for c in coords]
        self.diag = np.searchsorted(keys, np.arange(n) * (n + 1))
        # row i of ``outflow`` picks row i's off-diagonal entries: its
        # product adds them in index order, starting from zero
        off = np.flatnonzero(rows != self.indices)
        starts = np.searchsorted(rows[off], np.arange(n + 1))
        self.outflow = sparse.csr_matrix((np.ones(len(off)), off, starts), shape=(n, len(keys)))

    def jump(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values of P (lanes x entries) and each lane's q, one lane
        per row of ``theta``."""
        rates = np.zeros((len(theta), len(self.indices)))
        for k, (slots, values) in enumerate(zip(self.slots, self.data)):
            rates[:, slots] += theta[:, k, None] * values
        outflow = (self.outflow @ rates.T).T
        top = outflow.max(axis=1, initial=0.0)
        q = np.where(top > 0, RATE_MARGIN * top, 0.0)
        live = q > 0
        P = np.zeros((len(theta), len(self.indices)))
        P[:, self.diag] = 1.0  # the identity, for lanes with q = 0
        scale = 1 / q[live]
        P[live] = rates[live] * scale[:, None]
        P[np.ix_(live, self.diag)] = 1.0 - outflow[live] / q[live, None]
        return P, q

    def series(self, theta: np.ndarray, V: np.ndarray, t: float, tol: float, cols: slice = slice(None)) -> np.ndarray:
        """One phase's series over time t, one lane per row of ``theta``."""
        P, q = self.jump(theta)
        return _poisson_series(self.indptr, self.indices, P, V, (q * t).tolist(), tol, cols)


@cache
def evaluator_for(pcrn: PCRN, formula: CslFormula) -> UntilEvaluator:
    """The evaluator of ``formula``'s until path on ``pcrn``; ``formula.compare``
    decides the threshold on a value it returns.  Built once per process
    for equal arguments, so a forked worker inherits its parent's."""
    return UntilEvaluator(pcrn, formula.path)
