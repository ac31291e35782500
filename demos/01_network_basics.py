"""Networks, state spaces, and exact stochastic simulation.

Builds the SIR epidemic network from its text form, enumerates the states
of the induced Markov chain, and samples a few trajectories.
"""

import numpy as np

from crnverify import enumerate_states, load_crn, simulate_visits
from crnverify.rng import stream
from crnverify.simulate import simulate

pcrn = load_crn("models/sir.crn")
print("species:", pcrn.species)
print("parameters:", [f"{n} in [{lo}, {hi}]" for n, lo, hi in pcrn.params.dims])
print("initial state:", pcrn.initial_state)

# the case-study ground-truth rates, in the order the model declares them
# (pcrn.params.names): infection ki = 0.002, recovery kr = 0.05
theta = (0.002, 0.05)

# every state is a molecule-count vector; the conserved total keeps the
# reachable set finite
space = enumerate_states(pcrn)
print(f"\nreachable states: {len(space)}")
# mass action: a reaction fires at its rate times the number of distinct
# reactant combinations, so S + I -> I + I fires at ki * S * I
ki, kr = theta
print("infection propensity at (95,5,0):", ki * 95 * 5)
print("exit rate at (95,5,0):", ki * 95 * 5 + kr * 5)

# three independent sample paths, run as three lanes of one lockstep call
# on one generator; each lane reads its own column of the call's draws, so
# the same seed + key gives the same paths, always.  The call returns every
# lane's visits as flat arrays: lane i holds rows ends[i-1]:ends[i].
print("\nsampled epidemic end states (t = 150):")
states, times, ends = simulate_visits(pcrn, [theta] * 3, 150.0, stream(2024, 0))
for i, (start, end) in enumerate(zip([0, *ends[:-1]], ends)):
    s, infected, r = states[end - 1]
    print(f"  run {i}: S={s:3d} I={infected:3d} R={r:3d}   ({end - start - 1} reactions fired)")

# molecule counts are conserved along every path
traj = simulate(pcrn, theta, 150.0, stream(2024, 99))
assert np.all(traj.states.sum(axis=1) == 100)
print("\nevery visited state sums to the conserved total of 100")
