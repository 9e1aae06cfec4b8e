"""Note attention, trust gate, agreement head, gate controller."""

from __future__ import annotations

import numpy as np
import pytest

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


def test_agreement_score_stochastic_needs_seed():
    params = AgreementParams(w_agree=np.ones(4), dropout_rate=0.5)
    with pytest.raises(ConfigError):
        agreement_score(np.ones(4), params, deterministic=False)
    a = agreement_score(np.ones(4), params, deterministic=False, seed=3, counters=(1,))
    b = agreement_score(np.ones(4), params, deterministic=False, seed=3, counters=(1,))
    c = agreement_score(np.ones(4), params, deterministic=False, seed=3, counters=(2,))
    assert a == b
    assert a != c


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


def test_gate_state_validation():
    with pytest.raises(ConfigError):
        GateState(g_min=0.5, g_max=0.2)
    with pytest.raises(ConfigError):
        GateState(warmup_tokens=0)
