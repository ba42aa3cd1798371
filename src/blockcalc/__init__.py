"""Exact and simulated variance comparisons of blocked vs. completely
randomized experiments, with an enumeration oracle validating every closed
form."""

__version__ = "0.1.0"

from .pop_model import (  # noqa: F401
    Blocked,
    BlockSummary,
    CompleteRandomization,
    DesignSpec,
    PotentialOutcomeTable,
    StrataMoments,
    blocked_design_for_proportion,
    canonical_labels,
    pooled_decomposition,
    read_strata_csv,
    read_table_csv,
    summarize,
    table_from_arrays,
    validate_table,
)
from .randomizer import assign_blocked, assign_cr, tau_hat  # noqa: F401
from .oracle import count_assignments, exact_moments, iter_assignments  # noqa: F401
from .variance_theory import (  # noqa: F401
    VarianceReport,
    neyman_var_blocked,
    neyman_var_cr,
    var_diff_finite,
    var_diff_mixed,
    var_diff_site_sampling,
    var_diff_strat,
    var_diff_strat_unequal,
    var_diff_two_stage,
    var_blocked_strat,
    var_cr_srs,
    var_k,
)
from .variance_estimation import (  # noqa: F401
    ObservedSample,
    cr_varest_bias_strat,
    cr_varest_bias_under_blocking,
    expected_s2_under_blocking,
    var_est_blocked,
    var_est_cr,
    varest_variability,
)
from .blocking_lab import (  # noqa: F401
    CovariateSample,
    ScenarioConfig,
    gen_scenario_population,
    gen_xy_population,
    make_blocks_flex,
    make_blocks_interleave,
    make_blocks_peevish,
    make_blocks_random,
    r2_blocks,
)
