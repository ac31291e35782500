"""The whole method end to end, at smoke scale.

Generate data from a "true" system, synthesize the satisfying parameter
region, infer the rate posterior from the data, and integrate the
posterior over the satisfying region.  The result is the probability that
the data-generating system itself satisfies the property.

The full SIR study runs the same way from its config:

    crnverify pipeline --config configs/sir_phi_20obs_noiseless.json --out-dir out
"""

import json
from pathlib import Path

from crnverify.cli import cmd_generate, cmd_infer, cmd_synth, cmd_verify
from crnverify.config import load_config

out = Path("demo_out")
out.mkdir(exist_ok=True)
config = load_config("configs/smoke.json")

dataset = cmd_generate(config, out)
print("dataset:", dataset)

partition_path, heatmap_path, status = cmd_synth(config, out)
print("partition:", partition_path, f"(status: {status})")

particles_path, posterior_path = cmd_infer(config, dataset, out)
posterior = json.loads(Path(posterior_path).read_text())
print(f"posterior: k = {posterior['mu']['k']:.3f} +- {posterior['sigma']['k']:.3f}")

verdict_path = cmd_verify(config, partition_path, particles_path, out)
verdict = json.loads(Path(verdict_path).read_text())
print(
    f"\nP(system satisfies the property | data) = {verdict['C']:.3f}"
    f"   (satisfying mass {verdict['mass_T']:.3f}, violating {verdict['mass_F']:.3f},"
    f" undecided {verdict['mass_U']:.3f})"
)
