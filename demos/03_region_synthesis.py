"""Threshold synthesis: carve the parameter space into satisfying,
violating, and undecided boxes.

The decay network converts 50 molecules of A into B; the property holds
when half the molecules are converted inside the window [0.5, 1.5], which
happens only for a band of rate values.  The SIR case takes minutes, so
this demo uses the small network; run the CLI for the full study:

    crnverify synth --config configs/sir_phi_20obs_noiseless.json --out-dir out
"""

from crnverify import ExperimentConfig, classify_points, load_crn, parse_csl, synthesize
from crnverify.synthesis import save_heatmap_grid

pcrn = load_crn("models/decay.crn")
prop = parse_csl("P>0.5 [ (B<25) U[0.5,1.5] (B>=25) ]")

partition = synthesize(pcrn, prop, ExperimentConfig(synth_volume_tolerance=0.05))
print(f"boxes: {len(partition.labels)}  (backend evaluations: {partition.backend['evaluations']})")
for label, meaning in [("T", "satisfying"), ("F", "violating"), ("U", "undecided")]:
    frac = partition.volume(label) / partition.theta_volume()
    print(f"  {label} ({meaning:10s}): {100 * frac:5.1f}% of the space")

# the conversion-time band sits around k ~ ln(2)/1.0; points are rows in
# partition.param_names order
ks = (0.2, 0.9, 3.0)
for k, label in zip(ks, classify_points(partition, [[k] for k in ks])):
    print(f"k = {k}: {label}")

save_heatmap_grid(partition, "decay_heatmap.csv", resolution=200)
print("wrote decay_heatmap.csv (k,label rows, ready for external plotting)")
