"""Exact satisfaction probabilities via uniformization, cross-checked by
simulation.

The property asks whether the infection dies out strictly within the time
window [100, 150] with probability above 0.1.
"""

import numpy as np

from crnverify import estimate_lambda, load_crn, parse_crn, parse_csl
from crnverify.transient import evaluator_for
from crnverify.rng import stream

# warm-up: a 2-state network A -> B at rate 1 with a closed form,
# P(B by t) = 1 - exp(-t)
two_state = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=1;")
reached = evaluator_for(two_state, parse_csl("P>0.5 [ true U[0,1] (B=1) ]")).probability((1.0,))
print(f"2-state closed form: {reached:.9f}  vs  {1 - np.exp(-1):.9f}")

pcrn = load_crn("models/sir.crn")
prop = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")
evaluator = evaluator_for(pcrn, prop)

# points are rates in pcrn.params.names order: (ki, kr)
theta_sat = (0.002, 0.05)
theta_viol = (0.002, 0.18)

for name, theta in [("satisfying", theta_sat), ("violating", theta_viol)]:
    exact = evaluator.probability(theta)
    (est,) = estimate_lambda(pcrn, [theta], prop, 1000, [stream(7, 0)])
    half = 1.96 * np.sqrt(est * (1.0 - est) / 1000)  # 95% normal-approximation band
    decided = prop.compare(exact)
    print(
        f"{name:10s} rates {dict(zip(pcrn.params.names, theta))}: exact {exact:.4f}, "
        f"simulated {est:.3f} +- {half:.3f}, property holds: {decided}"
    )
