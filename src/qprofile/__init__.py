"""Phase-resolved profiling of a variational quantum workload against a
virtual control cluster.

The package splits into a problem/circuit/simulation layer (problem,
circuit, statevector, optimizer), a lowering layer (compiler, router,
timing), the cluster service and its client (wire, cluster, client), and
the measurement layer (profiler, harness, cli).
"""

from .circuit import QaoaParams, build_qaoa, simplify
from .client import AcquisitionData, ClusterClient, IterationTimings, ProtocolError, TransportError
from .cluster import ClusterService, LatencyProfile, Topology
from .compiler import compile
from .harness import BenchmarkConfig, BenchmarkError, run_benchmark
from .optimizer import qaoa_objective
from .problem import ShotCounts, cut_value, generate_instance
from .profiler import aggregate, compute_speedup, extrapolate, record_iteration
from .router import RouteResult, grid_layout, route, run_swap_study
from .statevector import sample, simulate
from .timing import TimingModel
from .util import mix_seed

__version__ = "0.1.0"

__all__ = [
    "AcquisitionData",
    "BenchmarkConfig",
    "BenchmarkError",
    "ClusterClient",
    "ClusterService",
    "IterationTimings",
    "LatencyProfile",
    "ProtocolError",
    "QaoaParams",
    "RouteResult",
    "ShotCounts",
    "TimingModel",
    "Topology",
    "TransportError",
    "aggregate",
    "build_qaoa",
    "compile",
    "compute_speedup",
    "cut_value",
    "extrapolate",
    "generate_instance",
    "grid_layout",
    "mix_seed",
    "qaoa_objective",
    "record_iteration",
    "route",
    "run_benchmark",
    "run_swap_study",
    "sample",
    "simplify",
    "simulate",
]
