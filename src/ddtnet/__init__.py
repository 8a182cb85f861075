"""Differential degree test toolkit.

Compares weighted networks between two populations: builds a p-value
difference network, generates moment-matched null networks from random
Gram matrices, thresholds adaptively, and tests each node's differential
degree against an exact binomial null. Includes the competing baselines
and the synthetic benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    DdtError,
    DifferenceNetwork,
    SymmetricMatrix,
    ValidationError,
    inv_logit,
    logit,
)
from .edgetests import EdgeTestConfig, PValueMatrix, edgewise_pvalues
from .hqs import (
    MomentSummary,
    NullEnsemble,
    NullExceedance,
    NullStream,
    generate_null,
    mixture_sample,
    null_exceedances,
    observed_moments,
)
from .thresholds import (
    ThresholdRule,
    addt_threshold,
    apply_threshold,
    baseline_threshold,
    benjamini_hochberg,
    bh_adjust,
    eddt_threshold,
)
from .baselines import (NodeTests, binomial_corrected, binomial_tails,
                        degree_ttest)
from .degree_test import (
    DdtResult,
    RunResult,
    ddt_run,
    degree_tests,
    null_probability_from_counts,
)
from .enrichment import ModulePartition, block_counts, enrichment_test, expected_counts
from .simulate import (
    ConfusionCounts,
    SimDesign,
    base_network,
    matthews_corrcoef,
    run_experiment,
    score,
    simulate_cohort,
)

__all__ = [name for name in dir() if not name.startswith("_")]
