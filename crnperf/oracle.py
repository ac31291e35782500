"""Reference computations made apart from crnverify.

Nothing here imports the program: the SIR chain is enumerated from its
reactions written out by hand, until probabilities come from
``scipy.sparse.linalg.expm_multiply`` instead of uniformization, the decay
network has a closed form, and the posterior mass of a box is a product of
normal CDF differences.
"""

import math
from collections import deque

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply
from scipy.special import ndtr
from scipy.stats import binom

# models/sir.crn: infect S + I -> 2 I at ki, recover I -> R at kr
SIR_PARAMS = ("ki", "kr")
SIR_INIT = (95, 5, 0)
SIR_REACTIONS = (
    # (parameter index, propensity factor of state, state change)
    (0, lambda s: s[0] * s[1], (-1, 1, 0)),
    (1, lambda s: s[1], (0, -1, 1)),
)
SIR_STATES = 5136  # reachable states of the chain, as the paper reports
# P>0.1 [ (I>0) U[100,150] (I=0) ]
SIR_THRESHOLD = 0.1
SIR_WINDOW = (100.0, 150.0)

# models/decay.crn with P>0.5 [ (B<25) U[0.5,1.5] (B>=25) ]
DECAY_N = 50
DECAY_HALF = 25
DECAY_WINDOW = (0.5, 1.5)
DECAY_THRESHOLD = 0.5


class SirChain:
    """Reachable SIR states and one sparse rate matrix per parameter."""

    def __init__(self):
        index = {SIR_INIT: 0}
        states = [SIR_INIT]
        edges = [[], []]  # per parameter: (from, to, factor)
        todo = deque([SIR_INIT])
        while todo:
            s = todo.popleft()
            for param, factor, delta in SIR_REACTIONS:
                f = factor(s)
                if f <= 0:
                    continue
                t = tuple(a + d for a, d in zip(s, delta))
                if t not in index:
                    index[t] = len(states)
                    states.append(t)
                    todo.append(t)
                edges[param].append((index[s], index[t], f))
        n = len(states)
        self.states = np.array(states)
        self.basis = []
        for rows in edges:
            r, c, v = (np.array(x, dtype=float) for x in zip(*rows))
            self.basis.append(sparse.csr_matrix((v, (r.astype(int), c.astype(int))), shape=(n, n)))

    def generator(self, theta, absorbing: np.ndarray) -> sparse.csr_matrix:
        """Generator Q(theta) with the rows of ``absorbing`` states zeroed."""
        R = sum(t * B for t, B in zip(theta, self.basis))
        keep = sparse.diags((~absorbing).astype(float))
        R = (keep @ R).tocsr()
        return (R - sparse.diags(np.asarray(R.sum(axis=1)).ravel())).tocsr()

    def until(self, theta) -> float:
        """P[(I>0) U[t0,t1] (I=0)] from the initial state, by the two-phase
        reduction: phase one runs to t0 with non-phi1 states absorbing,
        phase two asks for phi2 at t1 with phi2 and dead (!phi1 & !phi2)
        states absorbing."""
        t0, t1 = SIR_WINDOW
        infected = self.states[:, 1]
        phi1 = infected > 0
        phi2 = infected == 0
        pi0 = np.zeros(len(self.states))
        pi0[0] = 1.0
        pi_t0 = expm_multiply(self.generator(theta, ~phi1).T * t0, pi0)
        reach = expm_multiply(self.generator(theta, phi2 | ~phi1) * (t1 - t0), phi2.astype(float))
        return float(np.dot(pi_t0[phi1], reach[phi1]))


def decay_until(k: float) -> float:
    """Closed form of P[(B<25) U[0.5,1.5] (B>=25)] for A -> B at rate k.

    B(t) ~ Bin(50, 1 - exp(-k t)) and B never falls, so the path holds
    exactly when B(0.5) < 25 <= B(1.5)."""
    t0, t1 = DECAY_WINDOW
    at = lambda t: binom.sf(DECAY_HALF - 1, DECAY_N, -math.expm1(-k * t))
    return float(at(t1) - at(t0))


def box_mass(lo, hi, mu, sigma) -> float:
    """Mass of an independent Gaussian on the box [lo, hi]."""
    lo, hi, mu, sigma = map(np.asarray, (lo, hi, mu, sigma))
    return float(np.prod(ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)))
