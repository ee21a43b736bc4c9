"""REACT middleware: the four server components, policies, cost models,
and the multi-region coordinator."""

from .coordinator import Coordinator, EscalationRecord
from .cost import (
    BatchShape,
    CostModel,
    PaperCalibratedCost,
    ZeroCost,
)
from .dynamic_assignment import DynamicAssignmentComponent, Withdrawal
from .policies import (
    SchedulingPolicy,
    greedy_policy,
    metropolis_policy,
    react_policy,
    traditional_policy,
)
from .resilience import DegradedModeController, ResilienceConfig
from .scheduling import BatchRecord, SchedulingComponent
from .server import REACTServer
from .task_management import TaskManagementComponent
from .invariants import InvariantMonitor, InvariantViolation, check_server_invariants

__all__ = [
    "Coordinator",
    "EscalationRecord",
    "BatchShape",
    "CostModel",
    "PaperCalibratedCost",
    "ZeroCost",
    "DynamicAssignmentComponent",
    "Withdrawal",
    "SchedulingPolicy",
    "greedy_policy",
    "metropolis_policy",
    "react_policy",
    "traditional_policy",
    "DegradedModeController",
    "ResilienceConfig",
    "BatchRecord",
    "SchedulingComponent",
    "REACTServer",
    "TaskManagementComponent",
    "InvariantMonitor",
    "InvariantViolation",
    "check_server_invariants",
]
