"""The scipy-constructor chain builder, kept as the tests' reference for
``transient._LanePattern``.

``reference_chain`` builds one chain from one rate matrix with scipy's
sparse operations (``setdiag``, ``eliminate_zeros``, scalar division and a
CSR sum with a diagonal matrix), and ``combine`` adds a network's
per-parameter rate matrices at one point.  Neither shares code with the
lane builder, so tests that compare the two are not circular: the lanes
must store the same ``q`` and the same P, pattern and values, bit for bit.
"""

import numpy as np
from scipy import sparse

from crnverify.transient import RATE_MARGIN


def reference_chain(rates) -> tuple[float, sparse.csr_matrix]:
    """(q, P): P = I + R/q from off-diagonal rates (diagonal entries
    ignored), with q the margin times the largest row sum, and the identity
    when q = 0."""
    R = sparse.csr_matrix(rates, dtype=float)
    R.setdiag(0.0)
    R.eliminate_zeros()
    n = R.shape[0]
    # each row summed left to right, in index order
    outflow = np.zeros(n)
    for i in range(n):
        total = 0.0
        for value in R.data[R.indptr[i]:R.indptr[i + 1]]:
            total += value
        outflow[i] = total
    q = RATE_MARGIN * float(outflow.max()) if outflow.size and outflow.max() > 0 else 0.0
    if q == 0.0:
        P = sparse.identity(n, format="csr")
    else:
        P = (R / q + sparse.diags(1.0 - outflow / q)).tocsr()
    return q, P


def combine(basis: tuple, rates) -> sparse.csr_matrix:
    """sum_k rates[k] * basis[k], added in basis order."""
    acc = None
    for B, value in zip(basis, rates):
        term = B * value
        acc = term if acc is None else acc + term
    return acc
