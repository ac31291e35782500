"""Exact satisfaction probabilities via uniformization, cross-checked by
simulation.

The property asks whether the infection dies out strictly within the time
window [100, 150] with probability above 0.1.
"""

import numpy as np

from crnverify import estimate_lambda, load_crn, parse_csl
from crnverify.transient import UniformizedChain, evaluator_for, transient
from crnverify.rng import stream

# warm-up: a 2-state chain with a closed form, P(B at t) = 1 - exp(-t)
chain = UniformizedChain.from_rate_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
pi = transient(chain, np.array([1.0, 0.0]), 1.0)
print(f"2-state closed form: {pi[1]:.9f}  vs  {1 - np.exp(-1):.9f}")

pcrn = load_crn("models/sir.crn")
prop = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")
evaluator = evaluator_for(pcrn, prop)

# points are rates in pcrn.params.names order: (ki, kr)
theta_sat = (0.002, 0.05)
theta_viol = (0.002, 0.18)

for name, theta in [("satisfying", theta_sat), ("violating", theta_viol)]:
    exact = evaluator.probability(theta)
    (est,) = estimate_lambda(pcrn, [theta], prop, 1000, [stream(7, 0)])
    decided = prop.compare(exact)
    print(
        f"{name:10s} rates {dict(zip(pcrn.params.names, theta))}: exact {exact:.4f}, "
        f"simulated {est.mean:.3f} +- {est.ci_halfwidth:.3f}, property holds: {decided}"
    )
