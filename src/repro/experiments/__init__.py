"""Experiment harnesses regenerating every figure of the paper."""

from .ablations import (
    AblationResult,
    CyclesPoint,
    KPoint,
    ScalarPoint,
    ablate_cycles,
    ablate_k_constant,
    ablate_threshold,
    ablate_training_z,
)
from .config import (
    AblationConfig,
    EndToEndConfig,
    MatchingSweepConfig,
    ScalabilityConfig,
)
from .endtoend import EndToEndResult, default_policies, run_endtoend
from .export import (
    export_endtoend,
    export_matching_sweep,
    export_scalability,
    export_timeline,
)
from .matching_bench import MatchingPoint, MatchingSweepResult, run_matching_sweep
from .scalability import ScalabilityPoint, ScalabilityResult
from .voting import (
    VotingConfig,
    VotingPoint,
    VotingResult,
    report_voting,
    run_voting_comparison,
)

__all__ = [
    "AblationResult",
    "CyclesPoint",
    "KPoint",
    "ScalarPoint",
    "ablate_cycles",
    "ablate_k_constant",
    "ablate_threshold",
    "ablate_training_z",
    "AblationConfig",
    "EndToEndConfig",
    "MatchingSweepConfig",
    "ScalabilityConfig",
    "EndToEndResult",
    "export_endtoend",
    "export_matching_sweep",
    "export_scalability",
    "export_timeline",
    "default_policies",
    "run_endtoend",
    "MatchingPoint",
    "MatchingSweepResult",
    "run_matching_sweep",
    "ScalabilityPoint",
    "ScalabilityResult",
    "VotingConfig",
    "VotingPoint",
    "VotingResult",
    "report_voting",
    "run_voting_comparison",
]
