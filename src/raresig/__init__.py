"""Independence testing between features and rare-event class labels.

The package centers on two statistics over class-partitioned data: the
full-sample rescaled statistic (a generalized two-block U-statistic
normalized so a dependence signal survives extreme imbalance) and its
subsampled counterpart, which keeps every case and a Bernoulli-thinned
subset of controls.  Inference backends cover asymptotic normal nulls,
a high-dimensional normal null for the degenerate pairwise kernels, and
seeded permutation tests; a Monte Carlo harness reproduces the size and
power behaviour and the runtime scaling of both statistics.
"""

from .data import GroupedSample, LabeledSample, group_by_label, standardize
from .engine import RitStatistic, compute_classical, compute_rit, compute_rit_bruteforce
from .errors import DegenerateDataError, RaresigError, ValidationError
from .inference import (
    TestOutcome,
    estimate_xi02,
    local_power_threshold,
    power_first_order,
    power_highdim,
    pvalue_asymptotic_first,
    pvalue_asymptotic_highdim,
    pvalue_permutation,
)
from .kernels import (
    KernelSpec,
    custom_kernel,
    dcov_kernel,
    evaluate,
    imbalanced_kendall_kernel,
    ipcov_kernel,
    kendall_kernel,
    kernel_from_name,
    multi_kendall_kernel,
    pearson_kernel,
)
from .multiclass import (
    block_projection,
    estimate_zeta1k,
    multi_asymptotic_variance,
    multi_second_order_variance,
)
from .pipeline import MethodConfig, run_test
from .simulate import (
    ErpReport,
    ScenarioSpec,
    benchmark_complexity,
    figure1_phenomenon,
    generate,
    run_erp,
)
from .subsample import (
    SubsamplePlan,
    compute_bit,
    draw_subsample,
    select_s_power_floor,
    select_s_power_gap,
    select_s_variance,
)

__version__ = "0.1.0"
