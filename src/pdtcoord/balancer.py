"""Two-task loss balancing, auxiliary objectives, and curriculum scheduling.

The balancer keeps a cross-entropy weight and a consistency (KL) weight on a
simplex, adapting them so both tasks train at comparable rates: each task's
gradient norm is steered toward the mean norm scaled by its relative inverse
training rate.  Auxiliary objectives (coverage F1, note redundancy, stability
KL, note-usage guard, contradiction margin) are plain functions so they can be
exercised and logged independently of any training loop.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .kernels import as_matrix

# GradNorm's exponent on the relative training rate: above 1, a lagging task is pulled back harder.
ALPHA = 1.5
# Central-difference step; the residual is piecewise linear, so the difference is exact off its kinks.
FD_STEP = 1e-4
# KL below which a student counts as ignoring the notes: half of note_usage_guard's default delta.
TAU_USE = 0.05
# Contradiction probability above which a pair also pays the hinge: past 0.5 the scorer favours contradiction.
CONTRADICTION_MARGIN = 0.5
# Steps either side of a stage boundary with auxiliary passes blocked: 1% of the default first stage.
GUARD_WINDOW = 100


@dataclass
class BalancerState:
    """Mutable weight state; single-owner, updated in place.

    Weights always satisfy lambda_ce + lambda_kl = 1 with both clamped into
    [clamp_min, clamp_max].  Initial losses anchor the relative inverse
    training rates and must be registered before the first update.
    """

    lambda_ce: float = 0.5
    lambda_kl: float = 0.5
    lr: float = 0.025
    clamp_min: float = 0.1
    clamp_max: float = 0.9
    initial_loss_ce: float | None = None
    initial_loss_kl: float | None = None
    weight_history: deque = field(default_factory=lambda: deque(maxlen=64))

    def __post_init__(self) -> None:
        if not 0.0 < self.clamp_min < self.clamp_max < 1.0:
            raise ConfigError("need 0 < clamp_min < clamp_max < 1")
        if abs(self.lambda_ce + self.lambda_kl - 1.0) > 1e-9:
            raise ConfigError("weights must sum to 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


def set_initial_losses(state: BalancerState, loss_ce: float, loss_kl: float) -> BalancerState:
    """Anchor the training-rate ratios; both losses must be positive."""
    if loss_ce <= 0.0 or loss_kl <= 0.0:
        raise ConfigError("initial losses must be positive")
    state.initial_loss_ce = float(loss_ce)
    state.initial_loss_kl = float(loss_kl)
    return state


def _grad_residual_loss(
    lam_ce: float,
    lam_kl: float,
    state: BalancerState,
    g_ce: float,
    g_kl: float,
    gbar: float,
    r_ce: float,
    r_kl: float,
) -> float:
    # Local model: each task's norm scales linearly with its weight.
    scaled_ce = g_ce * (lam_ce / state.lambda_ce)
    scaled_kl = g_kl * (lam_kl / state.lambda_kl)
    return abs(scaled_ce - gbar * r_ce**ALPHA) + abs(scaled_kl - gbar * r_kl**ALPHA)


def gradnorm_update(
    state: BalancerState, g_ce: float, g_kl: float, loss_ce: float, loss_kl: float
) -> BalancerState:
    """One balancing step from measured gradient norms and current losses.

    Builds the residual objective |G_i - gbar * r_i^alpha| with gbar the mean
    of the supplied norms and r_i = L_i / L_i(0), estimates its derivative in
    each weight by central finite differences, applies multiplicative
    exponential updates, renormalizes to the simplex, and clamps.
    """
    if state.initial_loss_ce is None or state.initial_loss_kl is None:
        raise StateError("set_initial_losses must run before gradnorm_update")
    if g_ce < 0.0 or g_kl < 0.0:
        raise ConfigError("gradient norms must be non-negative")
    if loss_ce < 0.0 or loss_kl < 0.0:
        raise ConfigError("losses must be non-negative")
    r_ce = loss_ce / state.initial_loss_ce
    r_kl = loss_kl / state.initial_loss_kl
    gbar = 0.5 * (g_ce + g_kl)
    h = FD_STEP

    def loss_at(lam_ce: float, lam_kl: float) -> float:
        return _grad_residual_loss(lam_ce, lam_kl, state, g_ce, g_kl, gbar, r_ce, r_kl)

    d_ce = (loss_at(state.lambda_ce + h, state.lambda_kl) - loss_at(state.lambda_ce - h, state.lambda_kl)) / (2 * h)
    d_kl = (loss_at(state.lambda_ce, state.lambda_kl + h) - loss_at(state.lambda_ce, state.lambda_kl - h)) / (2 * h)

    new_ce = state.lambda_ce * math.exp(-state.lr * d_ce)
    new_kl = state.lambda_kl * math.exp(-state.lr * d_kl)
    total = new_ce + new_kl
    if total <= 0.0 or not math.isfinite(total):
        raise ConfigError("degenerate weight update; check gradient norm inputs")
    new_ce, new_kl = new_ce / total, new_kl / total
    new_kl = min(state.clamp_max, max(state.clamp_min, new_kl))
    new_ce = 1.0 - new_kl
    state.lambda_ce, state.lambda_kl = new_ce, new_kl
    state.weight_history.append(new_kl)
    return state


@dataclass(frozen=True)
class HealthFlag:
    name: str
    message: str


@dataclass(frozen=True)
class HealthReport:
    grad_ratio: float
    rate_gap: float
    weight_std: float
    flags: tuple[HealthFlag, ...]


def health_metrics(
    state: BalancerState, g_ce: float, g_kl: float, loss_ce: float, loss_kl: float
) -> HealthReport:
    """Diagnose balance health; each threshold breach raises one flag.

    Healthy training keeps the KL/CE gradient-norm ratio within [0.5, 2], the
    gap between relative training rates below 0.3, and the recent std of the
    KL weight below 0.05.
    """
    if state.initial_loss_ce is None or state.initial_loss_kl is None:
        raise StateError("set_initial_losses must run before health_metrics")
    if g_ce <= 0.0:
        raise ConfigError("g_ce must be positive to form the gradient ratio")
    ratio = g_kl / g_ce
    r_ce = loss_ce / state.initial_loss_ce
    r_kl = loss_kl / state.initial_loss_kl
    rate_gap = abs(r_ce - r_kl)
    history = np.asarray(state.weight_history, dtype=np.float64)
    weight_std = float(history.std()) if history.size >= 2 else 0.0
    flags: list[HealthFlag] = []
    if not 0.5 <= ratio <= 2.0:
        flags.append(
            HealthFlag(
                "gradient_ratio",
                f"KL/CE gradient-norm ratio {ratio:.3f} outside [0.5, 2]; "
                "one task is dominating the shared parameters",
            )
        )
    if rate_gap >= 0.3:
        flags.append(
            HealthFlag(
                "rate_divergence",
                f"relative training-rate gap {rate_gap:.3f} >= 0.3; "
                "tasks are converging at incompatible speeds",
            )
        )
    if weight_std >= 0.05:
        flags.append(
            HealthFlag(
                "weight_oscillation",
                f"recent KL-weight std {weight_std:.3f} >= 0.05; "
                "reduce the balancing learning rate",
            )
        )
    return HealthReport(ratio, rate_gap, weight_std, tuple(flags))


# -- auxiliary objectives ----------------------------------------------------


def coverage_f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if not 0.0 <= precision <= 1.0 or not 0.0 <= recall <= 1.0:
        raise ConfigError("precision and recall must lie in [0, 1]")
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def coverage_loss(expected: Sequence[bool], predicted: Sequence[bool]) -> float:
    """1 - F1 between predicted and expected coverage indicator sets.

    Two empty sets count as perfect coverage (loss 0); predicting nothing
    when items were expected scores F1 = 0 (loss 1).
    """
    exp = np.asarray(expected, dtype=bool)
    pred = np.asarray(predicted, dtype=bool)
    if exp.shape != pred.shape or exp.ndim != 1:
        raise ShapeError("expected and predicted must be 1-D and the same length")
    tp = int(np.sum(exp & pred))
    fp = int(np.sum(~exp & pred))
    fn = int(np.sum(exp & ~pred))
    if tp + fp + fn == 0:
        return 0.0
    if tp == 0:
        return 1.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 1.0 - coverage_f1(precision, recall)


def redundancy_penalty(
    note_embeddings: np.ndarray, threshold: float = 0.8, margin_weight: float = 1.0
) -> float:
    """Mean hinge on pairwise cosine similarity above threshold.

    Penalizes streams that publish near-duplicate notes.  Zero-norm rows are
    rejected since their cosine is undefined.
    """
    m = as_matrix(note_embeddings, "note_embeddings")
    if not -1.0 <= threshold <= 1.0:
        raise ConfigError("threshold must lie in [-1, 1]")
    if m.shape[0] < 2:
        return 0.0
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("redundancy_penalty: zero-norm note embedding")
    unit = m / norms[:, None]
    cos = unit @ unit.T
    iu = np.triu_indices(m.shape[0], k=1)
    hinge = np.maximum(0.0, cos[iu] - threshold)
    return float(margin_weight * hinge.mean())


def stability_kl(
    p_pre: np.ndarray,
    p_post: np.ndarray,
    positions: Sequence[int],
    horizon_l: int,
) -> float:
    """Mean KL(p_pre || p_post) over token positions outside the commit horizon.

    Both inputs are (T, V) row-stochastic matrices; rows inside the horizon
    (position < L) are excluded because those tokens may still legitimately
    change under rollback.  Returns 0 when no row lies outside.
    """
    pre = as_matrix(p_pre, "p_pre")
    post = as_matrix(p_post, "p_post")
    pos = np.asarray(positions, dtype=np.int64)
    if pre.shape != post.shape or pos.shape[0] != pre.shape[0]:
        raise ShapeError("p_pre, p_post and positions must agree in length")
    if horizon_l < 0:
        raise ConfigError("horizon_l must be non-negative")
    for name, arr in (("p_pre", pre), ("p_post", post)):
        if np.any(arr < 0.0) or np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError(f"{name} rows must be probability distributions")
    outside = pos >= horizon_l
    if not np.any(outside):
        return 0.0
    a = pre[outside]
    b = post[outside]
    mask = a > 0.0
    if np.any((b <= 0.0) & mask):
        raise ValueError("KL undefined: p_post has zero mass where p_pre does not")
    terms = np.where(mask, a * np.log(np.where(mask, a / np.where(b > 0, b, 1.0), 1.0)), 0.0)
    return float(terms.sum(axis=1).mean())


def note_usage_guard(kl_with_notes: float, kl_teacher: float, delta: float = 0.1) -> float:
    """Penalty for ignoring informative notes.

    When the teacher shows the notes matter (kl_teacher > delta) but the
    student barely moves (kl_with_notes below TAU_USE), return the shortfall;
    otherwise 0.
    """
    if kl_with_notes < 0.0 or kl_teacher < 0.0:
        raise ConfigError("KL terms must be non-negative")
    if kl_teacher > delta:
        return max(0.0, TAU_USE - kl_with_notes)
    return 0.0


# -- contradiction scoring ---------------------------------------------------

ContradictionScorer = Callable[[str, str], float]


def hash_contradiction_scorer(premise: str, hypothesis: str) -> float:
    """Deterministic stand-in scorer mapping a text pair to [0, 1).

    Not a semantic model; it exists so contradiction-loss plumbing can be
    exercised reproducibly without an inference dependency.
    """
    digest = hashlib.sha256(f"{premise}\x1f{hypothesis}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / 2.0**64


def contradiction_loss(
    pairs: Sequence[tuple[str, str]],
    scorer: ContradictionScorer = hash_contradiction_scorer,
    margin_weight: float = 1.0,
) -> float:
    """Mean contradiction probability plus a weighted hinge above CONTRADICTION_MARGIN."""
    if len(pairs) == 0:
        return 0.0
    scores = []
    for premise, hypothesis in pairs:
        p = float(scorer(premise, hypothesis))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"scorer returned {p}, expected a probability")
        scores.append(p)
    arr = np.asarray(scores)
    return float(arr.mean() + margin_weight * np.maximum(0.0, arr - CONTRADICTION_MARGIN).mean())


# -- curriculum --------------------------------------------------------------

STAGE_TRAINABLES: tuple[frozenset[str], ...] = (
    frozenset({"planner_head", "notes_head"}),
    frozenset({"planner_head", "notes_head", "stream_adapters"}),
    frozenset({"planner_head", "notes_head", "stream_adapters", "speculation_head"}),
    frozenset(
        {
            "planner_head",
            "notes_head",
            "stream_adapters",
            "speculation_head",
            "coverage_head",
            "agreement_head",
        }
    ),
)


@dataclass(frozen=True)
class CurriculumSchedule:
    """Stage boundaries (steps at which the next stage begins).

    Stage s is active for boundaries[s-1] <= step < boundaries[s].  Within
    GUARD_WINDOW steps of any boundary, auxiliary passes are blocked so the
    freshly unfrozen parameters see only the primary objective.
    """

    boundaries: tuple[int, ...] = (10000, 25000, 40000)
    stage_trainables: tuple[frozenset[str], ...] = STAGE_TRAINABLES

    def __post_init__(self) -> None:
        if len(self.stage_trainables) != len(self.boundaries) + 1:
            raise ConfigError("need exactly one trainable set per stage")
        if any(b <= 0 for b in self.boundaries) or list(self.boundaries) != sorted(set(self.boundaries)):
            raise ConfigError("boundaries must be positive and strictly increasing")
        for earlier, later in zip(self.stage_trainables, self.stage_trainables[1:]):
            if not earlier <= later:
                raise ConfigError("stage trainable sets must be cumulative")


@dataclass(frozen=True)
class SchedulerDecision:
    stage: int
    trainable: frozenset[str]
    aux_pass_allowed: bool
    sync_required: bool


def stage_scheduler_step(
    schedule: CurriculumSchedule, step: int, request_aux_pass: bool = False
) -> SchedulerDecision:
    """Resolve the active stage, trainable set, and guard status for a step.

    sync_required is set exactly at stage boundaries, where optimizer state
    for the newly unfrozen parameters must be materialized on every worker.
    """
    if step < 0:
        raise ConfigError("step must be non-negative")
    stage = 0
    for b in schedule.boundaries:
        if step >= b:
            stage += 1
    guarded = any(abs(step - b) <= GUARD_WINDOW for b in schedule.boundaries)
    return SchedulerDecision(
        stage=stage,
        trainable=schedule.stage_trainables[stage],
        aux_pass_allowed=request_aux_pass and not guarded,
        sync_required=step in schedule.boundaries,
    )


# -- gradient log ingest -----------------------------------------------------


@dataclass(frozen=True)
class GradientLogRecord:
    step: int
    g_ce: float
    g_kl: float
    loss_ce: float
    loss_kl: float


def read_gradient_log(lines: Iterable[str]) -> list[GradientLogRecord]:
    """Parse a whitespace-delimited log: step g_ce g_kl loss_ce loss_kl.

    Blank lines and '#' comments are skipped.  Steps must be strictly
    increasing.
    """
    records: list[GradientLogRecord] = []
    last_step = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            step = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if step <= last_step:
            raise ValueError(f"line {lineno}: steps must be strictly increasing")
        last_step = step
        records.append(GradientLogRecord(step, *vals))
    return records


@dataclass(frozen=True)
class BalancerStepReport:
    step: int
    lambda_ce: float
    lambda_kl: float
    flags: tuple[HealthFlag, ...]


def run_balancer(
    records: Sequence[GradientLogRecord],
    state: BalancerState | None = None,
    update_interval: int = 1,
) -> list[BalancerStepReport]:
    """Feed a gradient log through the balancer, one report per record.

    The first record registers the initial losses; subsequent records update
    the weights every update_interval steps and always refresh health flags.
    """
    if update_interval < 1:
        raise ConfigError("update_interval must be >= 1")
    st = state if state is not None else BalancerState()
    reports: list[BalancerStepReport] = []
    for i, rec in enumerate(records):
        if st.initial_loss_ce is None:
            set_initial_losses(st, rec.loss_ce, rec.loss_kl)
        elif i % update_interval == 0:
            gradnorm_update(st, rec.g_ce, rec.g_kl, rec.loss_ce, rec.loss_kl)
        health = health_metrics(st, rec.g_ce, rec.g_kl, rec.loss_ce, rec.loss_kl)
        reports.append(BalancerStepReport(rec.step, st.lambda_ce, st.lambda_kl, health.flags))
    return reports
