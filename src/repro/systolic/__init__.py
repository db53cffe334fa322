"""SCALE-Sim-style systolic array simulator with the FuSeConv broadcast dataflow."""

from .config import MOTIVATION_ARRAY, PAPER_ARRAY, ArrayConfig
from .fuse_mapping import (
    BroadcastFold,
    Conv1DBank,
    broadcast_conv1d_stats,
    fallback_conv1d_gemms,
    iter_broadcast_folds,
)
from .gemm import (
    FoldShape,
    GemmDims,
    MappingStats,
    batch_stats,
    fold_counts,
    iter_folds,
    os_gemm_cycles,
    os_gemm_stats,
)
from .buffers import (
    BufferRequirement,
    bank_buffer_requirement,
    gemm_buffer_requirement,
    network_buffer_requirement,
)
from .dataflows import gemm_stats, is_gemm_stats, ws_gemm_stats
from .executor import ArrayNetworkExecutor, ArrayRunResult, LayerRun
from .im2col import ARRAY_LAYERS, ArrayOp, LoweredLayer, lower_layer
from .latency import (
    LayerLatency,
    NetworkLatency,
    clear_mapping_cache,
    estimate_layer,
    estimate_network,
    mapping_cache_info,
    mapping_stats,
    speedup,
)
from .functional import (
    ENGINES,
    SimResult,
    SystolicArraySim,
    simulate_conv1d_bank,
    simulate_gemm,
)
from .diskcache import cache_key, estimate_network_cached
from .parallel import default_jobs, resolve_jobs, scatter, shutdown_pool
from .memory import (
    BYTES_PER_VALUE,
    LayerTraffic,
    TrafficReport,
    layer_traffic,
    traffic_report,
)
from .trace import (
    TraceEvent,
    TraceSummary,
    chrome_trace,
    trace_conv1d_bank,
    trace_gemm,
    unique_addresses,
)
from .utilization import (
    UtilizationReport,
    UtilizationRow,
    depthwise_utilization_bound,
    utilization_report,
)

__all__ = [
    "MOTIVATION_ARRAY",
    "PAPER_ARRAY",
    "ArrayConfig",
    "BroadcastFold",
    "Conv1DBank",
    "broadcast_conv1d_stats",
    "fallback_conv1d_gemms",
    "iter_broadcast_folds",
    "FoldShape",
    "GemmDims",
    "MappingStats",
    "batch_stats",
    "fold_counts",
    "iter_folds",
    "os_gemm_cycles",
    "os_gemm_stats",
    "BufferRequirement",
    "bank_buffer_requirement",
    "gemm_buffer_requirement",
    "network_buffer_requirement",
    "gemm_stats",
    "is_gemm_stats",
    "ws_gemm_stats",
    "ArrayNetworkExecutor",
    "ArrayRunResult",
    "LayerRun",
    "ARRAY_LAYERS",
    "ArrayOp",
    "LoweredLayer",
    "lower_layer",
    "LayerLatency",
    "NetworkLatency",
    "clear_mapping_cache",
    "mapping_cache_info",
    "estimate_layer",
    "estimate_network",
    "mapping_stats",
    "speedup",
    "ENGINES",
    "SimResult",
    "SystolicArraySim",
    "simulate_conv1d_bank",
    "simulate_gemm",
    "cache_key",
    "estimate_network_cached",
    "default_jobs",
    "resolve_jobs",
    "scatter",
    "shutdown_pool",
    "BYTES_PER_VALUE",
    "LayerTraffic",
    "TrafficReport",
    "layer_traffic",
    "traffic_report",
    "UtilizationReport",
    "UtilizationRow",
    "depthwise_utilization_bound",
    "utilization_report",
    "TraceEvent",
    "TraceSummary",
    "chrome_trace",
    "trace_conv1d_bank",
    "trace_gemm",
    "unique_addresses",
]
