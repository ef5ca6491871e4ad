"""Cost modeling, attention-reuse optimization and functional simulation
of transformer encoders on in-memory-computing crossbar hardware."""

__version__ = "0.1.0"

from .workload import LayerKind, LayerSpec, ModelConfig, mac_count
from .patterns import (
    PatternKind,
    ReusePattern,
    PatternSet,
    enumerate_patterns,
    explicit_pattern,
)
from .mapping import (
    DeviceAssignment,
    DeviceKind,
    DeviceParams,
    MappingResult,
    TileConfig,
    crossbars_for_layer,
    hybrid_assignment,
)
from .cost import (
    BlockCost,
    BlockTable,
    CostOptions,
    LayerCost,
    ModelCost,
    SoftmaxUnitParams,
    apply_token_pruning,
    apply_weight_sharing,
    block_table,
    breakdown,
    layer_cost,
    model_cost,
    softmax_cost,
)
from .similarity import cka_matrix, cka_score
from .optimize import (
    OptimizationResult,
    delay_ladder,
    find_optimal_n_reuse,
    make_cka_scorer,
    optimize,
    synthetic_attention_outputs,
)
from .config import (
    available_devices,
    available_models,
    load_cost_options,
    load_device_params,
    load_model_config,
    load_pruning_overhead,
    load_softmax_params,
    load_tile_config,
)
from .report import ReportRow, Scenario, emit, resolve, run_scenario
