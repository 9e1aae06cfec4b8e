"""Cross-stream note attention with a trust gate.

A decoding stream reads sibling summary notes through a small cross-attention
block whose output is added back to the hidden state, scaled by a gate.  The
gate parameter gamma starts strongly negative so the block opens as an exact
identity and is annealed upward under a stability-aware schedule.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import Matrix, as_matrix, as_vector, gelu, layer_norm, logistic, row_softmax, spectral_norm


@dataclass(frozen=True)
class AdapterParams:
    """Bottleneck adapter: h + gelu(layer_norm(h) @ w_down) @ w_up.

    w_down maps d -> d_bottleneck, w_up maps back.  The bottleneck must be
    strictly narrower than the stream width.
    """

    w_down: Matrix
    w_up: Matrix
    ln_eps: float = 1e-5

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_down", as_matrix(self.w_down, "w_down"))
        object.__setattr__(self, "w_up", as_matrix(self.w_up, "w_up"))
        d, bott = self.w_down.shape
        if self.w_up.shape != (bott, d):
            raise ShapeError(
                f"w_up shape {self.w_up.shape} does not invert w_down shape {self.w_down.shape}"
            )
        if bott >= d:
            raise ConfigError(f"bottleneck width {bott} must be smaller than stream width {d}")
        if not 0.0 < self.ln_eps < math.inf:
            raise ConfigError("ln_eps must be positive and finite")

    @property
    def d(self) -> int:
        return self.w_down.shape[0]


@dataclass(frozen=True)
class SncParams:
    """Projection weights for note cross-attention plus the gate parameter gamma.

    Queries come from the stream hidden state (width d); keys and values come
    from note embeddings (width d_note); the attended value is mapped back to
    width d by w_o.  The effective gate is logistic(gamma).
    """

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    gamma: float = -4.0

    def __post_init__(self) -> None:
        for name in ("w_q", "w_k", "w_v", "w_o"):
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        d, d_attn = self.w_q.shape
        d_note = self.w_k.shape[0]
        if self.w_k.shape[1] != d_attn or self.w_v.shape != (d_note, d_attn):
            raise ShapeError("w_k and w_v must both map d_note to the attention width")
        if self.w_o.shape != (d_attn, d):
            raise ShapeError(f"w_o shape {self.w_o.shape} must map attention width back to {d}")
        if not math.isfinite(self.gamma):
            raise ConfigError("gamma must be finite")

    @property
    def d(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_note(self) -> int:
        return self.w_k.shape[0]

    @property
    def d_attn(self) -> int:
        return self.w_q.shape[1]

    def gate_value(self) -> float:
        return float(logistic(self.gamma))


@dataclass(frozen=True)
class AgreementParams:
    """Linear head scoring cross-stream consistency of a hidden state.

    dropout_rate is carried by the PDTR1 format and not applied at replay.
    """

    w_agree: np.ndarray
    b_agree: float = 0.0
    dropout_rate: float = 0.1
    tau: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_agree", as_vector(self.w_agree, "w_agree"))
        if not math.isfinite(self.b_agree):
            raise ConfigError("b_agree must be finite")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie in (0, 1)")


def apply_adapter(h: Matrix, params: AdapterParams) -> Matrix:
    """Residual bottleneck transform of a (T, d) block of hidden states."""
    h = as_matrix(h, "h")
    if h.shape[1] != params.d:
        raise ShapeError(f"hidden width {h.shape[1]} != adapter width {params.d}")
    inner = gelu(layer_norm(h, params.ln_eps) @ params.w_down)
    return h + inner @ params.w_up


def attend_notes(h: Matrix, notes: Matrix, params: SncParams) -> Matrix:
    """Raw (ungated) cross-attention readout of shape (T, d).

    softmax(h w_q (notes w_k)^T / sqrt(d_attn)) (notes w_v) w_o
    """
    h = as_matrix(h, "h")
    notes = as_matrix(notes, "notes")
    if h.shape[1] != params.d:
        raise ShapeError(f"hidden width {h.shape[1]} != attention width {params.d}")
    if notes.shape[1] != params.d_note:
        raise ShapeError(f"note width {notes.shape[1]} != expected {params.d_note}")
    if notes.shape[0] == 0:
        raise ShapeError("attend_notes requires at least one note row")
    q = h @ params.w_q
    k = notes @ params.w_k
    v = notes @ params.w_v
    attn = row_softmax(q @ k.T, scale=1.0 / math.sqrt(params.d_attn))
    return (attn @ v) @ params.w_o


def snc_attend(
    h: Matrix,
    notes: Matrix | None,
    params: SncParams,
    gate_override: float | None = None,
) -> Matrix:
    """Gated residual injection of sibling notes into a hidden-state block.

    Returns h + gate * attend_notes(h, visible_notes).  The gate is
    logistic(params.gamma) unless gate_override is given.  With a zero gate or
    no visible notes the input is returned bit-exactly (a copy), which is what
    makes gamma << 0 a safe identity initialization.
    """
    h = as_matrix(h, "h")
    notes = as_matrix(notes, "notes") if notes is not None else np.zeros((0, params.d_note))
    gate = float(gate_override) if gate_override is not None else params.gate_value()
    if gate == 0.0 or notes.shape[0] == 0:
        return h.copy()
    return h + gate * attend_notes(h, notes, params)


def agreement_score(h_t: np.ndarray, params: AgreementParams) -> float:
    """Probability in (0, 1) that a hidden state agrees with its siblings.

    logistic(w_agree . h_t + b_agree), scored deterministically as at
    inference; params.dropout_rate is not applied.
    """
    h_t = as_vector(h_t, "h_t")
    if h_t.shape[0] != params.w_agree.shape[0]:
        raise ShapeError(f"hidden width {h_t.shape[0]} != head width {params.w_agree.shape[0]}")
    return float(logistic(float(h_t @ params.w_agree) + params.b_agree))


def estimate_lipschitz_layerwise(weights: Sequence[Matrix]) -> float:
    """Upper bound on the Lipschitz constant of a linear pathway.

    Product of the exact spectral norms of the constituent weight matrices.
    By submultiplicativity it is never below the norm of their product, the
    true constant, so it is a conservative input to the gate cap.
    """
    if len(weights) == 0:
        raise ConfigError("pathway must contain at least one weight matrix")
    out = 1.0
    for w in weights:
        out *= spectral_norm(w)
    return out


class GateAction(enum.Enum):
    """Stabilization actions recommended by the gate controller."""

    REDUCE_GATE_MAX = "reduce_gate_max"
    APPLY_SPECTRAL_NORM = "apply_spectral_norm"


# The cap keeps gate * L_u * E[delta note] at or below this: 1.0 keeps the gated note path non-expansive.
STABILITY_THRESHOLD = 1.0
# Flicker multiplies g_max by this: 0.9 backs off gently, so one episode does not drop the gate to g_min.
BACKOFF_SCALE = 0.9


@dataclass
class GateState:
    """Mutable per-stream gate schedule state.

    Each stream owns one; gate_controller_step mutates it in place and
    returns it.  The constructor takes only settings: the clock
    tokens_since_note starts at warmup_tokens, so a stream with no note
    traffic runs fully annealed, and both windows start empty,
    flicker_window long.  STABILITY_THRESHOLD and BACKOFF_SCALE are module
    constants.
    """

    g_min: float = 0.05
    g_max: float = 0.80
    warmup_tokens: int = 128
    tau_lipschitz: float = 40.0
    flicker_std: float = 0.10
    flicker_window: int = 64
    lipschitz_estimate: float = 0.0
    tokens_since_note: int = field(init=False)
    gate_window: deque = field(init=False)
    note_change_window: deque = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.g_min <= self.g_max <= 1.0:
            raise ConfigError("need 0 <= g_min <= g_max <= 1")
        if self.warmup_tokens <= 0:
            raise ConfigError("warmup_tokens must be positive")
        if self.flicker_window < 1:
            raise ConfigError("flicker_window must be positive")
        if not self.flicker_std >= 0.0:
            raise ConfigError("flicker_std must be non-negative")
        self.tokens_since_note = self.warmup_tokens
        self.gate_window = deque(maxlen=self.flicker_window)
        self.note_change_window = deque(maxlen=self.flicker_window)


def scheduled_gate_cap(state: GateState) -> float:
    """Stability-aware ceiling on the gate.

    min(g_max, STABILITY_THRESHOLD / (L_u * E[delta note])) when both factors
    are known, floored at g_min so the schedule interval stays valid.
    """
    cap = state.g_max
    if state.lipschitz_estimate > 0.0 and len(state.note_change_window) > 0:
        expected_change = sum(state.note_change_window) / len(state.note_change_window)
        gain = state.lipschitz_estimate * expected_change  # two tiny factors can underflow to 0
        if gain > 0.0:
            cap = min(cap, STABILITY_THRESHOLD / gain)
    return max(state.g_min, cap)


def gate_controller_step(
    state: GateState,
    current_gate: float,
    new_note_event: bool = False,
    note_change: float | None = None,
) -> tuple[GateState, float, tuple[GateAction, ...]]:
    """Advance the gate schedule by one token.

    A note event resets the warmup clock (effective gate drops to g_min and
    re-anneals linearly over warmup_tokens, up to the stability cap).  The
    effective gate is current_gate clamped into [g_min, schedule].  Flicker
    (std of the recent effective-gate window above flicker_std) recommends
    REDUCE_GATE_MAX and backs g_max off multiplicatively; a Lipschitz estimate
    above tau_lipschitz recommends APPLY_SPECTRAL_NORM.
    """
    if new_note_event:
        state.tokens_since_note = 0
        if note_change is not None:
            if note_change < 0.0:
                raise ConfigError("note_change must be non-negative")
            state.note_change_window.append(float(note_change))
    else:
        state.tokens_since_note += 1

    cap = scheduled_gate_cap(state)
    frac = min(1.0, state.tokens_since_note / state.warmup_tokens)
    schedule = state.g_min + (cap - state.g_min) * frac
    effective = min(max(float(current_gate), state.g_min), schedule)

    actions: list[GateAction] = []
    window = state.gate_window
    window.append(effective)
    # A window of one repeated value has no flicker.  numpy's std of it is not
    # always 0.0, but it stays within about len(window) * eps for gates in
    # [0, 1], so skipping it changes no decision for a flicker_std above that.
    if len(window) == window.maxlen and window.count(effective) != len(window):
        if float(np.asarray(window).std()) > state.flicker_std:
            actions.append(GateAction.REDUCE_GATE_MAX)
            state.g_max = max(state.g_min, state.g_max * BACKOFF_SCALE)
            window.clear()
    if state.lipschitz_estimate > state.tau_lipschitz:
        actions.append(GateAction.APPLY_SPECTRAL_NORM)
    return state, effective, tuple(actions)
