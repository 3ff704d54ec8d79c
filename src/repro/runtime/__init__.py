"""Deployment runtime: graph IR, JSON model format, inference engine."""

from .engine import InferenceEngine, InferenceResult, LayerStats
from .export_modules import export_into, export_model
from .graph import (
    FORMAT_VERSION,
    GraphBuilder,
    GraphError,
    GraphModel,
    NodeSpec,
    export_sequential,
)
from .overload import (
    ADMISSION_POLICIES,
    AdmissionQueue,
    CircuitBreaker,
)
from .plan import (
    AttachedPlan,
    GraphPlan,
    PlanInfo,
    PlanShareError,
    SharedPlan,
    SharedPlanHandle,
    attach_plan,
    compile_graph,
    export_plan,
    plan_share_stats,
)
from .serving import (
    BatchedServer,
    ServedResponse,
    ServingError,
    ServingReport,
    ServingStats,
    serve,
)
from .sharding import ShardedServer, ShardingUnavailable

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionQueue",
    "CircuitBreaker",
    "InferenceEngine",
    "InferenceResult",
    "LayerStats",
    "export_into",
    "export_model",
    "FORMAT_VERSION",
    "GraphBuilder",
    "GraphError",
    "GraphModel",
    "NodeSpec",
    "export_sequential",
    "AttachedPlan",
    "GraphPlan",
    "PlanInfo",
    "PlanShareError",
    "SharedPlan",
    "SharedPlanHandle",
    "attach_plan",
    "compile_graph",
    "export_plan",
    "plan_share_stats",
    "BatchedServer",
    "ServedResponse",
    "ServingError",
    "ServingReport",
    "ServingStats",
    "serve",
    "ShardedServer",
    "ShardingUnavailable",
]
