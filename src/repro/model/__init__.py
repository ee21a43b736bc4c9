"""Domain model: tasks, workers, feedback, regions."""

from .feedback import FeedbackModel, FeedbackOutcome, Rating, positive_rate
from .region import Region, RegionGrid, haversine_km
from .task import Task, TaskCategory, TaskPhase, reset_task_ids
from .worker import WorkerBehavior, WorkerProfile

__all__ = [
    "FeedbackModel",
    "FeedbackOutcome",
    "Rating",
    "positive_rate",
    "Region",
    "RegionGrid",
    "haversine_km",
    "Task",
    "TaskCategory",
    "TaskPhase",
    "reset_task_ids",
    "WorkerBehavior",
    "WorkerProfile",
]
