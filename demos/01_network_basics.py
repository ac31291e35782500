"""Networks, propensities, and exact stochastic simulation.

Builds the SIR epidemic network from its text form, inspects the induced
Markov chain, and samples a few trajectories.
"""

import numpy as np

from crnverify import enumerate_states, load_crn, propensity, rate_matrix_row, simulate_paths
from crnverify.rng import stream
from crnverify.simulate import simulate

pcrn = load_crn("models/sir.crn")
print("species:", pcrn.species_names())
print("parameters:", [f"{n} in [{lo}, {hi}]" for n, lo, hi in pcrn.params.dims])
print("initial state:", pcrn.initial_state)

# the case-study ground-truth rates, in the order the model declares them
# (pcrn.params.names): infection ki = 0.002, recovery kr = 0.05
theta = (0.002, 0.05)

# every state is a molecule-count vector; the conserved total keeps the
# reachable set finite
space = enumerate_states(pcrn)
print(f"\nreachable states: {len(space)}")
print("infection propensity at (95,5,0):", propensity(pcrn, (95, 5, 0), 0, theta))
row = rate_matrix_row((95, 5, 0), pcrn, theta, space)
print("outgoing transitions:", row)
print("exit rate at (95,5,0):", sum(row.values()))

# three independent sample paths, run as three lanes of one lockstep call
# on one generator; each lane reads its own column of the call's draws, so
# the same seed + key gives the same paths, always
print("\nsampled epidemic end states (t = 150):")
paths = simulate_paths(pcrn, [theta] * 3, 150.0, stream(2024, 0))
for i, traj in enumerate(paths):
    s, infected, r = traj.states[-1]
    print(f"  run {i}: S={s:3d} I={infected:3d} R={r:3d}   ({len(traj.times) - 1} reactions fired)")

# molecule counts are conserved along every path
traj = simulate(pcrn, theta, 150.0, stream(2024, 99))
assert np.all(traj.states.sum(axis=1) == 100)
print("\nevery visited state sums to the conserved total of 100")
