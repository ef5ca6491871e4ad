"""Cost modeling, attention-reuse optimization and functional simulation
of transformer encoders on in-memory-computing crossbar hardware."""

__version__ = "0.1.0"

from .workload import LayerKind, LayerSpec, ModelConfig, mac_count
from .patterns import (
    PatternKind,
    ReusePattern,
    enumerate_patterns,
    explicit_pattern,
    gen_continuous,
    gen_pyramid,
    gen_strided,
    select_best,
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
    CostOptions,
    LayerCost,
    ModelCost,
    SoftmaxUnitParams,
    apply_token_pruning,
    apply_weight_sharing,
    breakdown,
    layer_cost,
    model_cost,
    softmax_cost,
)
from .similarity import cka_matrix, cka_score
from .optimize import (
    OptimizationResult,
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
    load_softmax_params,
    load_tile_config,
)
from .report import ReportRow, Scenario, emit, run_scenario
