"""Two-task loss balancing, auxiliary objectives, and curriculum scheduling.

The balancer keeps a cross-entropy weight and a consistency (KL) weight on a
simplex, adapting them so both tasks train at comparable rates: each task's
gradient norm is steered toward the mean norm scaled by its relative inverse
training rate.  The auxiliary objectives (coverage F1 and note redundancy) are
plain functions so they can be exercised and logged independently of any
training loop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, as_int
from .kernels import as_matrix

# GradNorm's exponent on the relative training rate: above 1, a lagging task is pulled back harder.
ALPHA = 1.5
# Step size of the exponentiated weight update: small, so the weights drift over tens of steps instead of oscillating.
LR = 0.025
# Bounds on the KL weight, so neither task's weight reaches 0 and stops training it.
CLAMP_MIN = 0.1
CLAMP_MAX = 0.9
# Cosine similarity above which two notes pay the redundancy hinge: 0.8 leaves related but distinct notes free.
REDUNDANCY_THRESHOLD = 0.8
# Steps either side of a stage boundary with auxiliary passes blocked: 1% of the first stage.
GUARD_WINDOW = 100


@dataclass
class BalancerState:
    """Mutable weight state, built from the first step's losses and updated in place.

    The initial losses, each in (0, inf), anchor the relative inverse
    training rates.  lambda_kl starts at 0.5 and stays clamped into
    [CLAMP_MIN, CLAMP_MAX]; lambda_ce is 1 - lambda_kl.
    """

    initial_loss_ce: float
    initial_loss_kl: float
    lambda_kl: float = field(init=False, default=0.5)
    weight_history: deque = field(init=False, default_factory=lambda: deque(maxlen=64))

    def __post_init__(self) -> None:
        for name in ("initial_loss_ce", "initial_loss_kl"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}={getattr(self, name)} must be positive and finite")

    @property
    def lambda_ce(self) -> float:
        return 1.0 - self.lambda_kl


def gradnorm_update(
    state: BalancerState, g_ce: float, g_kl: float, loss_ce: float, loss_kl: float
) -> BalancerState:
    """One balancing step from measured gradient norms and current losses.

    The residual is sum_i |G_i - gbar * r_i^alpha|, with gbar the mean of the
    supplied norms, r_i = L_i / L_i(0), and each norm G_i = g_i * lambda'_i /
    lambda_i linear in its weight, so its slope in lambda_i is exactly
    sign(g_i - gbar * r_i^alpha) * g_i / lambda_i, taken as 0 at the kink.
    Each weight moves by exp(-LR * slope); the pair is renormalized to the
    simplex and lambda_kl clamped.
    """
    if g_ce < 0.0 or g_kl < 0.0:
        raise ConfigError("gradient norms must be non-negative")
    if loss_ce < 0.0 or loss_kl < 0.0:
        raise ConfigError("losses must be non-negative")
    gbar = 0.5 * (g_ce + g_kl)
    new = []
    for g, lam, loss, initial in (
        (g_ce, state.lambda_ce, loss_ce, state.initial_loss_ce),
        (g_kl, state.lambda_kl, loss_kl, state.initial_loss_kl),
    ):
        gap = g - gbar * (loss / initial) ** ALPHA
        slope = ((gap > 0.0) - (gap < 0.0)) * g / lam
        new.append(lam * math.exp(-LR * slope))
    total = new[0] + new[1]
    if total <= 0.0 or not math.isfinite(total):
        raise ConfigError("degenerate weight update; check gradient norm inputs")
    state.lambda_kl = min(CLAMP_MAX, max(CLAMP_MIN, new[1] / total))
    state.weight_history.append(state.lambda_kl)
    return state


def health_metrics(
    state: BalancerState, g_ce: float, g_kl: float, loss_ce: float, loss_kl: float
) -> tuple[str, ...]:
    """The names of the health flags that fire, in this order:

    - gradient_ratio: the KL/CE gradient-norm ratio is outside [0.5, 2], so
      one task dominates the shared parameters;
    - rate_divergence: the gap between the relative training rates
      L_i / L_i(0) is 0.3 or more, so the tasks converge at incompatible
      speeds;
    - weight_oscillation: the population std of the recent KL weights is
      0.05 or more, so the balancing learning rate is too high.
    """
    if g_ce <= 0.0:
        raise ConfigError("g_ce must be positive to form the gradient ratio")
    ratio = g_kl / g_ce
    rate_gap = abs(loss_ce / state.initial_loss_ce - loss_kl / state.initial_loss_kl)
    history = np.asarray(state.weight_history, dtype=np.float64)
    weight_std = float(history.std()) if history.size >= 2 else 0.0
    fired = (
        ("gradient_ratio", not 0.5 <= ratio <= 2.0),
        ("rate_divergence", rate_gap >= 0.3),
        ("weight_oscillation", weight_std >= 0.05),
    )
    return tuple(name for name, hit in fired if hit)


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


def redundancy_penalty(note_embeddings: np.ndarray) -> float:
    """Mean hinge on pairwise cosine similarity above REDUNDANCY_THRESHOLD.

    Penalizes streams that publish near-duplicate notes.  Zero-norm rows are
    rejected since their cosine is undefined.
    """
    m = as_matrix(note_embeddings, "note_embeddings")
    if m.shape[0] < 2:
        return 0.0
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("redundancy_penalty: zero-norm note embedding")
    unit = m / norms[:, None]
    cos = unit @ unit.T
    iu = np.triu_indices(m.shape[0], k=1)
    return float(np.maximum(0.0, cos[iu] - REDUNDANCY_THRESHOLD).mean())


# -- curriculum --------------------------------------------------------------

# Steps at which the next stage begins; STAGE_TRAINABLES has one cumulative set per stage.
STAGE_BOUNDARIES = (10000, 25000, 40000)
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
class SchedulerDecision:
    stage: int
    trainable: frozenset[str]
    aux_pass_allowed: bool
    sync_required: bool


def stage_scheduler_step(step: int, request_aux_pass: bool = False) -> SchedulerDecision:
    """Resolve the active stage, trainable set, and guard status for a step.

    Stage s is active for STAGE_BOUNDARIES[s-1] <= step < STAGE_BOUNDARIES[s].
    Within GUARD_WINDOW steps of any boundary, auxiliary passes are blocked
    so the freshly unfrozen parameters see only the primary objective.
    sync_required is set exactly at stage boundaries, where optimizer state
    for the newly unfrozen parameters must be materialized on every worker.
    """
    if step < 0:
        raise ConfigError("step must be non-negative")
    stage = 0
    for b in STAGE_BOUNDARIES:
        if step >= b:
            stage += 1
    guarded = any(abs(step - b) <= GUARD_WINDOW for b in STAGE_BOUNDARIES)
    return SchedulerDecision(
        stage=stage,
        trainable=STAGE_TRAINABLES[stage],
        aux_pass_allowed=request_aux_pass and not guarded,
        sync_required=step in STAGE_BOUNDARIES,
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
    increasing, the other fields finite and non-negative, and g_ce positive,
    since every record's health check divides by it; ValueError names the
    first line that breaks a rule.
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
        if not all(0.0 <= v < math.inf for v in vals):
            raise ValueError(f"line {lineno}: gradient norms and losses must be finite and non-negative")
        if vals[0] == 0.0:
            raise ValueError(f"line {lineno}: g_ce must be positive to form the gradient ratio")
        last_step = step
        records.append(GradientLogRecord(step, *vals))
    return records


@dataclass(frozen=True)
class BalancerStepReport:
    step: int
    lambda_ce: float
    lambda_kl: float
    flags: tuple[str, ...]


def run_balancer(
    records: Sequence[GradientLogRecord],
    update_interval: int = 1,
) -> list[BalancerStepReport]:
    """Feed a gradient log through the balancer, one report per record.

    The first record's losses build the BalancerState; after it, every
    update_interval-th record updates the weights.  Every record refreshes
    the health flags.
    """
    update_interval = as_int(update_interval, "update_interval")
    if update_interval < 1:
        raise ConfigError("update_interval must be >= 1")
    if not records:
        return []
    state = BalancerState(records[0].loss_ce, records[0].loss_kl)
    reports: list[BalancerStepReport] = []
    for i, rec in enumerate(records):
        if i > 0 and i % update_interval == 0:
            gradnorm_update(state, rec.g_ce, rec.g_kl, rec.loss_ce, rec.loss_kl)
        flags = health_metrics(state, rec.g_ce, rec.g_kl, rec.loss_ce, rec.loss_kl)
        reports.append(BalancerStepReport(rec.step, state.lambda_ce, state.lambda_kl, flags))
    return reports
