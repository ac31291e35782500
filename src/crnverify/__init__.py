"""Verification of partially known chemical reaction networks.

Three phases: synthesize the parameter region satisfying a time-bounded
property, infer a posterior over the kinetic parameters from noisy
discrete-time observations, and integrate the posterior over the
satisfying region to obtain the probability that the data-generating
system satisfies the property.
"""

from .abcsmc import (
    ParticleSet,
    abcseq,
    adaptive_threshold,
    perturb,
    pool_batches,
)
from .config import ExperimentConfig, load_config
from .crn_text import load_crn, parse_crn
from .csl import BoundedUntil, CslFormula, StateFormula, format_csl, parse_csl
from .errors import (
    ConfigError,
    CrnVerifyError,
    ParseError,
    StateSpaceCapError,
    ToleranceUnmetError,
)
from .model import (
    PCRN,
    ParameterSpace,
    Reaction,
    Species,
    StateSpace,
    enumerate_states,
    propensity,
    rate_matrix_row,
)
from .monitor import LambdaEstimate, Verdict, check_until, check_until_paths, estimate_lambda
from .simulate import (
    Dataset,
    Trajectory,
    discrepancy,
    load_dataset,
    observe,
    save_dataset,
    simulate,
    simulate_paths,
    states_at,
)
from .synthesis import (
    RegionPartition,
    classify_point,
    feasible_volume_fraction,
    load_partition,
    save_partition,
    synthesize,
)
from .transient import (
    UniformizedChain,
    UntilEvaluator,
    bounded_until_prob,
    build_chain,
    check_threshold,
    transient,
)
from .verdict import (
    Posterior,
    VerdictReport,
    bayes_smc,
    fit_posterior,
    majority_verdict,
    probability,
    slice_sample,
)

__version__ = "0.1.0"
