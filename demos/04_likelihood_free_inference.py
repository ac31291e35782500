"""Sequential ABC: recover a kinetic rate from noisy discrete observations.

Data are 10 noisy snapshots of one decay trajectory at the true rate
k = 1.  The discrepancy between a proposed simulation and the data anneals
over rounds to the median of the previous round's accepted distances.
"""

import numpy as np

from crnverify import ExperimentConfig, abcseq, load_crn, observe
from crnverify.rng import stream
from crnverify.simulate import simulate
from crnverify.verdict import fit_posterior

pcrn = load_crn("models/decay.crn")
true_rate = (1.0,)  # one rate per parameter, in pcrn.params.names order

# early observation times matter: past t ~ 1 every fast rate looks alike
trajectory = simulate(pcrn, true_rate, 10.0, stream(42, 0))
data = observe(trajectory, np.linspace(0.5, 10.0, 10), 2.0, stream(42, 1), species=pcrn.species)
print("observed A counts:", np.round(data.observations[:, 0], 1))

config = ExperimentConfig(seed=42, abc_particles=400, abc_rounds=6)
batches = abcseq(pcrn, data, config, [0, 1, 2])
print("\nannealed thresholds per batch:")
for b, result in enumerate(batches):
    finite = [f"{t:.1f}" for t in result.thresholds if np.isfinite(t)]
    print(f"  batch {b}: inf -> {' -> '.join(finite)}   ({result.attempts} simulations)")

from crnverify import pool_batches

posterior = fit_posterior(*pool_batches(batches))
print(f"\nposterior: k = {posterior.mean[0]:.3f} +- {posterior.std()[0]:.3f}   (true value 1.0)")
