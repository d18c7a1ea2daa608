"""Spatial join processing: the sequential BKS93 algorithm and the paper's
parallel variants on the simulated SVM machine."""

from .assignment import (
    GD,
    GSRR,
    LSR,
    AssignmentMode,
    BufferMode,
    JoinVariant,
    static_range_assignment,
    static_round_robin_assignment,
)
from .flat import flat_join
from .mp import multiprocessing_join
from .multistep import MultiStepResult, SecondFilter, multi_step_join
from .parallel import ParallelJoinConfig, parallel_spatial_join, prepare_trees
from .reassign import ReassignLevel, ReassignmentPolicy, VictimChoice, Workload
from .refinement import ExactRefinement, RefinementModel, overlap_degree
from .result import ParallelJoinResult, SequentialJoinResult
from .sequential import sequential_join
from .shared_nothing import (
    NetworkParams,
    Placement,
    SharedNothingConfig,
    shared_nothing_join,
)
from .tasks import Task, count_root_tasks, create_tasks, expand_node_pair

__all__ = [
    "sequential_join",
    "flat_join",
    "SequentialJoinResult",
    "parallel_spatial_join",
    "ParallelJoinConfig",
    "ParallelJoinResult",
    "prepare_trees",
    "multiprocessing_join",
    "Task",
    "create_tasks",
    "count_root_tasks",
    "expand_node_pair",
    "JoinVariant",
    "BufferMode",
    "AssignmentMode",
    "LSR",
    "GSRR",
    "GD",
    "static_range_assignment",
    "static_round_robin_assignment",
    "ReassignmentPolicy",
    "ReassignLevel",
    "VictimChoice",
    "Workload",
    "RefinementModel",
    "ExactRefinement",
    "overlap_degree",
    "shared_nothing_join",
    "SharedNothingConfig",
    "Placement",
    "NetworkParams",
    "SecondFilter",
    "MultiStepResult",
    "multi_step_join",
]
