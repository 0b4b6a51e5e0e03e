"""Exact-arithmetic maximin-share fair division toolkit."""

from .core import (
    Allocation,
    Instance,
    Partition,
    PriorityRanking,
    ThresholdList,
    Transcript,
    as_fraction,
    bundle_value,
)
from .errors import GuaranteeViolation, InputError, MmsKitError, SearchBudgetExceeded
from .oracle import MmsResult, mms
from .ordinal import run_1_out_of_d, run_ordinal
from .rbf import (
    Bag,
    TruthfulResponder,
    priority_thresholds,
    run_rbf,
    run_rbf_truthful,
)
from .bobw import (
    AllocationDistribution,
    cyclic_rotation_distribution,
    gamma_lower_bound,
    hard1_upper_bound,
    hard2_upper_bound,
    sample_allocation,
)
from .adversarial import (
    HardInstanceSpec,
    demonstrate_failure,
    gen_hard1,
    gen_hard2_responders,
    gen_ordinal_tight,
)
from .verify import (
    check_1_out_of_d,
    check_t_mms,
    check_transcript,
    check_unit_share_structure,
    equivalence_expand,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationDistribution",
    "Bag",
    "GuaranteeViolation",
    "HardInstanceSpec",
    "InputError",
    "Instance",
    "MmsKitError",
    "MmsResult",
    "Partition",
    "PriorityRanking",
    "SearchBudgetExceeded",
    "ThresholdList",
    "Transcript",
    "TruthfulResponder",
    "as_fraction",
    "bundle_value",
    "check_1_out_of_d",
    "check_t_mms",
    "check_transcript",
    "check_unit_share_structure",
    "cyclic_rotation_distribution",
    "demonstrate_failure",
    "equivalence_expand",
    "gamma_lower_bound",
    "gen_hard1",
    "gen_hard2_responders",
    "gen_ordinal_tight",
    "hard1_upper_bound",
    "hard2_upper_bound",
    "mms",
    "priority_thresholds",
    "run_1_out_of_d",
    "run_ordinal",
    "run_rbf",
    "run_rbf_truthful",
    "sample_allocation",
]
