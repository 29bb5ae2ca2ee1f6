"""Transformer inference, compression, and benchmarking for time series classification."""

from .bench import ExperimentConfig, emit_report, load_reports, run_experiment
from .data import (
    TimeSeriesDataset,
    WindowSpec,
    load_ucr,
    load_ucr_delimited,
    min_max_normalize,
    segment_windows,
    subject_wise_split,
    synth_generate,
)
from .errors import (
    CalibrationError,
    CapacityError,
    ConfigError,
    InputError,
    ParseError,
    PruneSpecError,
    ShapeError,
    TsfoError,
)
from .metrics import (
    EnergyParams,
    MetricsReport,
    RunStats,
    attention_complexity,
    ci95,
    efficiency_score,
    energy_model,
    energy_saving_pct,
    speedup,
)
from .model import (
    ModelConfig,
    TransformerModel,
    build_model,
    count_flops,
    count_params,
    flop_breakdown,
    forward,
    forward_batch,
    positional_encoding,
    preset_config,
)
from .pruning import (
    PruneReport,
    PruneSpec,
    apply_unstructured_mask,
    prune_structured,
    prune_unstructured,
    pruned_energy_estimate,
    score_units,
    score_weights,
    select_prune_set,
    sparsity,
)
from .quantization import (
    CalibrationObserver,
    QuantizedModel,
    calibrate,
    quantize_dynamic,
    quantize_static,
    quantized_energy_estimate,
    quantized_forward,
    scale_zero_point,
)
from .serialize import load, save_dataset, save_model, save_quantized
from .tensor import (
    QTensor,
    dequantize_linear,
    int8_matmul,
    layer_norm,
    quantize_linear,
    seeded_rng,
    softmax,
)
from .training import (
    AdamState,
    CosineSchedule,
    TrainConfig,
    adam_step,
    cosine_lr,
    evaluate,
    fine_tune,
    fit,
    train,
)

__version__ = "0.1.0"
