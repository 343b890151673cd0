"""chainlab: simulation and exact verification for chained-index blackboard protocols."""

from ._version import __version__
from .errors import (
    InvalidParameterError,
    ProtocolContractError,
    ResourceLimitError,
    UsageError,
)
from .model import (
    BalancedString,
    BitString,
    ChainInstance,
    balanced_strings,
)
from .distributions import (
    bias_grid,
    enumerate_support,
    pmf_biased_index,
    sample_biased_structured,
)
from .info_theory import (
    JointTable,
    binary_entropy,
    binomial_anticoncentration,
    log_binomial,
)
from .protocols import (
    ProtocolSpec,
    SharedRandomness,
    build_protocol,
    chained_majority_protocol,
    index_majority_decode,
    index_majority_encode,
    index_majority_protocol,
    run_chain_protocol,
    sampled_bits_protocol,
    trivial_forward_protocol,
    truncation_protocol,
)
from .oracle import (
    exact_majority_success,
    majority_vote_success,
    verify_chain_entropy_bound,
    verify_conditional_independence,
    verify_distribution_identity,
    verify_entropy_given_pool,
)
from .montecarlo import montecarlo_success
from .experiments import ExperimentConfig, emit_report, run_config, run_suite
