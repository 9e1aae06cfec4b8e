"""Note attention, trust gate, agreement head, gate controller."""

from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdtcoord.snc as snc
from pdtcoord.errors import ConfigError, ShapeError
from pdtcoord.kernels import logistic
from pdtcoord.rng import normal_matrix
from pdtcoord.snc import (
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


def make_snc(seed: int = 0, d: int = 10, dn: int = 5, da: int = 6, gamma: float = -4.0) -> SncParams:
    return SncParams(
        w_q=normal_matrix(seed, 20, 1, d, da) / np.sqrt(d),
        w_k=normal_matrix(seed, 20, 2, dn, da) / np.sqrt(dn),
        w_v=normal_matrix(seed, 20, 3, dn, da) / np.sqrt(dn),
        w_o=normal_matrix(seed, 20, 4, da, d) / np.sqrt(da),
        gamma=gamma,
    )


def make_adapter(seed: int = 0, d: int = 10, db: int = 3) -> AdapterParams:
    return AdapterParams(
        w_down=normal_matrix(seed, 21, 1, d, db) / np.sqrt(d),
        w_up=normal_matrix(seed, 21, 2, db, d) / np.sqrt(db),
    )


def test_adapter_residual_form():
    p = make_adapter()
    h = normal_matrix(1, 21, 3, 4, 10)
    out = apply_adapter(h, p)
    assert out.shape == h.shape
    assert not np.allclose(out, h)
    # Zero up-projection collapses the block to the identity.
    zero = AdapterParams(w_down=p.w_down, w_up=np.zeros_like(p.w_up))
    assert np.array_equal(apply_adapter(h, zero), h)


def test_adapter_validates_bottleneck():
    with pytest.raises(ConfigError):
        AdapterParams(w_down=np.zeros((4, 4)), w_up=np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        AdapterParams(w_down=np.zeros((4, 2)), w_up=np.zeros((3, 4)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_refuse_non_finite_scalars(value):
    p = make_adapter()
    with pytest.raises(ConfigError, match="ln_eps"):
        AdapterParams(w_down=p.w_down, w_up=p.w_up, ln_eps=value)
    with pytest.raises(ConfigError, match="gamma"):
        make_snc(gamma=value)
    with pytest.raises(ConfigError, match="b_agree"):
        AgreementParams(w_agree=np.ones(3), b_agree=value)


def test_snc_attend_empty_notes_is_bitexact_identity():
    p = make_snc()
    h = normal_matrix(2, 21, 4, 3, 10)
    out = snc_attend(h, np.zeros((0, 5)), p)
    assert np.array_equal(out, h)
    out2 = snc_attend(h, None, p)
    assert np.array_equal(out2, h)


def test_snc_attend_gate_override_zero_bitexact():
    p = make_snc()
    h = normal_matrix(3, 21, 5, 3, 10)
    notes = normal_matrix(3, 21, 6, 4, 5)
    out = snc_attend(h, notes, p, gate_override=0.0)
    assert np.array_equal(out, h)


def test_snc_attend_strongly_negative_gamma_is_near_identity():
    worst = 0.0
    for probe in range(100):
        p = make_snc(seed=900 + probe, gamma=-8.0)
        h = normal_matrix(900 + probe, 22, 1, 3, 10)
        notes = normal_matrix(900 + probe, 22, 2, 5, 5)
        out = snc_attend(h, notes, p)
        worst = max(worst, np.linalg.norm(out - h) / np.linalg.norm(h))
    assert worst < 1e-3


def test_snc_attend_gate_scales_residual():
    p = make_snc()
    h = normal_matrix(4, 21, 7, 2, 10)
    notes = normal_matrix(4, 21, 8, 3, 5)
    r1 = snc_attend(h, notes, p, gate_override=0.5) - h
    r2 = snc_attend(h, notes, p, gate_override=1.0) - h
    assert np.allclose(2.0 * r1, r2)
    # Default gate comes from gamma.
    rg = snc_attend(h, notes, p) - h
    assert np.allclose(rg, logistic(-4.0) * (r2 / 1.0))


def test_attend_notes_requires_rows():
    p = make_snc()
    with pytest.raises(ShapeError):
        attend_notes(np.zeros((2, 10)), np.zeros((0, 5)), p)


def test_agreement_score_deterministic():
    params = AgreementParams(w_agree=np.ones(4), b_agree=0.5)
    h = np.array([0.1, -0.2, 0.3, 0.0])
    s = agreement_score(h, params)
    assert s == float(logistic(0.2 + 0.5))
    assert 0.0 < s < 1.0


def test_agreement_params_validation():
    with pytest.raises(ConfigError):
        AgreementParams(w_agree=np.ones(3), dropout_rate=1.0)
    with pytest.raises(ConfigError):
        AgreementParams(w_agree=np.ones(3), tau=0.0)


def test_estimate_lipschitz_product():
    a = np.diag([2.0, 1.0])
    b = np.diag([3.0, 0.5])
    assert abs(estimate_lipschitz_layerwise([a, b]) - 6.0) < 1e-9
    with pytest.raises(ConfigError):
        estimate_lipschitz_layerwise([])


def test_estimate_lipschitz_upper_bounds_product_norm():
    for i in range(10):
        a = normal_matrix(60 + i, 23, 1, 5, 4)
        b = normal_matrix(60 + i, 23, 2, 4, 6)
        prod_norm = float(np.linalg.svd(a @ b, compute_uv=False)[0])
        assert estimate_lipschitz_layerwise([a, b]) >= prod_norm - 1e-9
    # Orthogonal rows of norms sqrt(2) and 0.5: the first row is the top
    # singular direction, and the all-ones vector is orthogonal to it.
    w = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.5]])
    assert estimate_lipschitz_layerwise([w]) >= math.sqrt(2.0)


def test_gate_note_event_drops_to_floor():
    gs = GateState()
    _, eff, actions = gate_controller_step(gs, current_gate=0.9, new_note_event=True)
    assert eff == gs.g_min
    assert actions == ()


def test_gate_fresh_state_fully_annealed():
    for warmup in (1, 128, 512):
        gs = GateState(warmup_tokens=warmup)
        _, eff, _ = gate_controller_step(gs, current_gate=0.9)
        assert eff == gs.g_max
        _, eff_low, _ = gate_controller_step(gs, current_gate=0.01)
        assert eff_low == gs.g_min


def test_gate_warmup_reaches_cap():
    # Disable the flicker detector so the ramp itself is observable.
    gs = GateState(flicker_std=10.0)
    gate_controller_step(gs, 0.9, new_note_event=True)
    eff = None
    for _ in range(gs.warmup_tokens):
        _, eff, _ = gate_controller_step(gs, 0.9)
    assert eff == gs.g_max
    assert gs.tokens_since_note == gs.warmup_tokens


def test_gate_warmup_is_linear():
    gs = GateState(flicker_std=10.0)
    gate_controller_step(gs, 0.9, new_note_event=True)
    _, eff, _ = gate_controller_step(gs, 0.9)
    expected = gs.g_min + (gs.g_max - gs.g_min) * (1 / gs.warmup_tokens)
    assert abs(eff - expected) < 1e-12


def test_gate_flicker_backoff():
    gs = GateState()
    actions_seen = []
    for i in range(64):
        _, _, actions = gate_controller_step(gs, 0.05 if i % 2 == 0 else 0.75)
        actions_seen.extend(actions)
    assert GateAction.REDUCE_GATE_MAX in actions_seen
    assert abs(gs.g_max - 0.8 * 0.9) < 1e-12
    assert len(gs.gate_window) == 0


def test_gate_lipschitz_action():
    gs = GateState(lipschitz_estimate=45.0)
    _, _, actions = gate_controller_step(gs, 0.5)
    assert GateAction.APPLY_SPECTRAL_NORM in actions


def test_gate_stability_cap():
    gs = GateState(lipschitz_estimate=10.0)
    gs.note_change_window.append(0.5)
    assert abs(scheduled_gate_cap(gs) - 0.2) < 1e-12
    # Cap never drops below the floor.
    gs2 = GateState(lipschitz_estimate=1000.0)
    gs2.note_change_window.append(10.0)
    assert scheduled_gate_cap(gs2) == gs2.g_min
    # L_u * E[delta note] underflows to 0 here; the cap is then g_max, not a ZeroDivisionError.
    gs3 = GateState(lipschitz_estimate=0.5)
    gs3.note_change_window.append(5e-324)
    assert scheduled_gate_cap(gs3) == gs3.g_max


def test_gate_state_validation():
    with pytest.raises(ConfigError):
        GateState(g_min=0.5, g_max=0.2)
    with pytest.raises(ConfigError):
        GateState(warmup_tokens=0)
    for window in (0, -1):
        with pytest.raises(ConfigError):
            GateState(flicker_window=window)
    for std in (-0.1, float("nan")):
        with pytest.raises(ConfigError):
            GateState(flicker_std=std)


def test_gate_pinned_at_floor_never_flickers():
    # Even with no flicker tolerance, a gate that never moves backs nothing off.
    gs = GateState(flicker_std=0.0)
    for _ in range(200):
        _, eff, actions = gate_controller_step(gs, 0.01)
        assert eff == gs.g_min
        assert actions == ()
    assert gs.g_max == 0.8


def _oracle_gate_controller_step(
    state: GateState,
    current_gate: float,
    new_note_event: bool = False,
    note_change: float | None = None,
) -> tuple[GateState, float, tuple[GateAction, ...]]:
    """gate_controller_step as it was before it skipped constant windows.

    Kept verbatim as the oracle: it takes the window's std on every token
    once the window is full.
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
    state.gate_window.append(effective)
    if len(state.gate_window) == state.gate_window.maxlen:
        window = np.asarray(state.gate_window)
        if float(window.std()) > state.flicker_std:
            actions.append(GateAction.REDUCE_GATE_MAX)
            state.g_max = max(state.g_min, state.g_max * snc.BACKOFF_SCALE)
            state.gate_window.clear()
    if state.lipschitz_estimate > state.tau_lipschitz:
        actions.append(GateAction.APPLY_SPECTRAL_NORM)
    return state, effective, tuple(actions)


def _gate_fields(gs: GateState) -> dict:
    """Every field, floats by their bits and windows as lists."""
    out = {}
    for name, value in vars(gs).items():
        if isinstance(value, deque):
            out[name] = (value.maxlen, [v.hex() for v in value])
        elif isinstance(value, float):
            out[name] = value.hex()
        else:
            out[name] = value
    return out


def _drive_in_lockstep(kwargs: dict, steps) -> list[tuple[GateAction, ...]]:
    ours, oracle = GateState(**kwargs), GateState(**kwargs)
    seen = []
    for gate, event, change in steps:
        _, eff, actions = gate_controller_step(ours, gate, event, change)
        _, eff_ref, actions_ref = _oracle_gate_controller_step(oracle, gate, event, change)
        assert (eff.hex(), actions) == (eff_ref.hex(), actions_ref)
        assert _gate_fields(ours) == _gate_fields(oracle)
        seen.append(actions)
    return seen


def _count_window_stds(monkeypatch) -> list[int]:
    """Record the length of every window gate_controller_step takes the std of."""
    taken: list[int] = []

    def asarray(window):
        taken.append(len(window))
        return np.asarray(window)

    monkeypatch.setattr(snc, "np", SimpleNamespace(asarray=asarray))
    return taken


def test_gate_takes_the_flicker_std_only_over_a_varying_window(monkeypatch):
    taken = _count_window_stds(monkeypatch)
    kwargs = dict(flicker_window=8, warmup_tokens=1)
    # 20 tokens at the floor fill the window with one value: no std.  A
    # one-token spike to 0.2 makes the 8 windows that hold it vary, although
    # the last of them starts with the spike and ends at the floor.  A step
    # to 0.2 then makes 7 windows vary, after which the window holds 0.2
    # alone again.  No std reaches 0.10, so nothing backs off.
    floor, high = (0.01, False, None), (0.2, False, None)
    steps = [floor] * 20 + [high] + [floor] * 20 + [high] * 20
    seen = _drive_in_lockstep(kwargs, steps)
    assert taken == [8] * 15
    assert all(actions == () for actions in seen)


def test_gate_backoff_matches_the_oracle(monkeypatch):
    taken = _count_window_stds(monkeypatch)
    kwargs = dict(flicker_window=8, warmup_tokens=1)
    steps = [(0.05, False, None)] * 10 + [(0.05 if i % 2 else 0.75, False, None) for i in range(16)]
    seen = _drive_in_lockstep(kwargs, steps)
    backoffs = [i for i, actions in enumerate(seen) if GateAction.REDUCE_GATE_MAX in actions]
    # The first 0.75, at token 10, makes the full window vary; the backoff
    # clears it, and it is full again 8 tokens later.
    assert backoffs == [10, 18]
    assert taken == [8, 8]


_GATE_LEVELS = (0.0, 0.01, 0.05, 0.3, 0.75, 0.8, 1.0)


@st.composite
def gate_runs(draw):
    window = draw(st.integers(1, 64))
    kwargs = dict(
        flicker_std=draw(st.floats(1e-3, 0.5)),
        flicker_window=window,
        warmup_tokens=draw(st.integers(1, 200)),
        lipschitz_estimate=draw(st.just(0.0) | st.floats(0.1, 100.0)),
    )
    gates = st.sampled_from(_GATE_LEVELS) | st.floats(0.0, 1.0)
    changes = st.none() | st.floats(0.0, 5.0)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            # A constant input run longer than the window, after an optional note event.
            gate = draw(gates)
            if draw(st.booleans()):
                steps.append((gate, True, draw(changes)))
            steps += [(gate, False, None)] * draw(st.integers(window + 1, window + 80))
        else:
            steps += draw(st.lists(st.tuples(gates, st.booleans(), changes), max_size=80))
    return kwargs, steps


@settings(max_examples=100, deadline=None)
@given(run=gate_runs())
def test_gate_step_matches_the_oracle(run):
    kwargs, steps = run
    _drive_in_lockstep(kwargs, steps)
