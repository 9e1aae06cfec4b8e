"""Coordination layer for parallel multi-stream decoding.

Implements the desk-scale mechanics of coordinated parallel decoding against
frozen replay artifacts: a versioned notes bus with lagged snapshots, gated
cross-stream note attention, agreement-gated rollback with stride commits,
emission cadence policies, KV memory budgeting with rollback-aware paging,
closed-form coordination analytics, and adaptive two-task loss balancing.
Every run is a pure function of its seed and configuration.
"""

from __future__ import annotations

from .analytics import (
    ClusterSimConfig,
    ClusteredSimResult,
    ScaleParams,
    adaptive_stride,
    cadence_variance,
    format_sim_transcript,
    operating_points,
    simulate_clustered_rollback,
    stale_rollback_bound,
    sync_overhead,
)
from .balancer import (
    BalancerState,
    CurriculumSchedule,
    GradientLogRecord,
    HealthReport,
    SchedulerDecision,
    contradiction_loss,
    coverage_f1,
    coverage_loss,
    gradnorm_update,
    hash_contradiction_scorer,
    health_metrics,
    note_usage_guard,
    read_gradient_log,
    redundancy_penalty,
    run_balancer,
    set_initial_losses,
    stability_kl,
    stage_scheduler_step,
)
from .cadence import CadenceConfig, CadenceState, ContextSignals, modulation_factor, next_emission
from .decode import (
    DecodeConfig,
    DecodeTrace,
    GateEvent,
    NoteEvent,
    RollbackEvent,
    SnapshotEvent,
    StreamState,
    TokenEvent,
    check_and_rollback,
    make_stream_states,
    run_parallel,
    step_stream,
)
from .errors import (
    ArtifactFormatError,
    CapacityError,
    ConfigError,
    PdtError,
    ShapeError,
    StateError,
)
from .kernels import gelu, layer_norm, logistic, row_softmax, spectral_norm
from .memmodel import (
    BUS_POOL,
    KIB,
    MIB,
    KvBudget,
    MemoryConfig,
    PageTable,
    PressureReport,
    SwapReport,
    evict_and_prefetch,
    kv_budget,
    pages_touched,
    pressure_check,
    rollback_page_cost,
)
from .notebus import BusSnapshot, BusView, Note, NotesBus, load_bus_lines, stack_sibling_rows
from .replay import (
    ReplayArtifact,
    StreamFrames,
    SynthSpec,
    read_artifact,
    synthesize_artifact,
    write_artifact,
)
from .rng import (
    DOMAIN_CADENCE,
    DOMAIN_DROPOUT,
    DOMAIN_ERRSIM,
    DOMAIN_NOISE,
    DOMAIN_SYNTH,
    counter_hash,
    normal_array,
    normal_matrix,
    splitmix64,
    uniform,
    uniform_array,
)
from .snc import (
    AdapterParams,
    AgreementParams,
    GateAction,
    GateState,
    SncParams,
    agreement_score,
    apply_adapter,
    attend_notes,
    estimate_lipschitz_layerwise,
    gate_controller_step,
    scheduled_gate_cap,
    snc_attend,
)
from .sweeps import cadence_sweep, mask_ablation, noise_stress

__version__ = "0.1.0"
