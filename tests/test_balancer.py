"""Loss balancing, coverage and redundancy objectives, curriculum, and log ingest."""

from __future__ import annotations

import random

import numpy as np
import pytest

from pdtcoord.balancer import (
    ALPHA,
    CLAMP_MAX,
    CLAMP_MIN,
    STAGE_BOUNDARIES,
    STAGE_TRAINABLES,
    BalancerState,
    GradientLogRecord,
    coverage_f1,
    coverage_loss,
    gradnorm_update,
    health_metrics,
    read_gradient_log,
    redundancy_penalty,
    run_balancer,
    stage_scheduler_step,
)
from pdtcoord.errors import ConfigError, ShapeError


def fresh_state() -> BalancerState:
    return BalancerState(1.0, 1.0)


def residual_objective(
    lam_kl: float, anchor: BalancerState, g_ce: float, g_kl: float, r_ce: float, r_kl: float
) -> float:
    gbar = 0.5 * (g_ce + g_kl)
    scaled_ce = g_ce * (1.0 - lam_kl) / anchor.lambda_ce
    scaled_kl = g_kl * lam_kl / anchor.lambda_kl
    a = ALPHA
    return abs(scaled_ce - gbar * r_ce**a) + abs(scaled_kl - gbar * r_kl**a)


def grid_minimizer(anchor: BalancerState, g_ce: float, g_kl: float, r_ce: float, r_kl: float) -> float:
    grid = np.linspace(0.01, 0.99, 9801)
    vals = [residual_objective(t, anchor, g_ce, g_kl, r_ce, r_kl) for t in grid]
    return float(grid[int(np.argmin(vals))])


def test_balanced_inputs_are_a_fixed_point():
    state = fresh_state()
    gradnorm_update(state, 1.3, 1.3, 1.0, 1.0)
    assert state.lambda_kl == pytest.approx(0.5, abs=1e-9)
    assert state.lambda_ce == pytest.approx(0.5, abs=1e-9)


def test_update_moves_toward_grid_search_minimizer():
    # Each case has a strictly V-shaped residual with a unique minimizer
    # away from 0.5, so the first step's direction is unambiguous.
    cases = [
        (2.0, 1.0, 1.0, 1.0),
        (1.0, 2.0, 1.0, 1.0),
        (2.0, 1.0, 1.0, 0.5),
        (1.0, 2.0, 0.5, 1.0),
    ]
    for g_ce, g_kl, r_ce, r_kl in cases:
        state = fresh_state()
        best = grid_minimizer(state, g_ce, g_kl, r_ce, r_kl)
        gradnorm_update(state, g_ce, g_kl, r_ce * 1.0, r_kl * 1.0)
        if best > 0.5:
            assert state.lambda_kl > 0.5, (g_ce, g_kl, r_ce, r_kl)
        else:
            assert state.lambda_kl < 0.5, (g_ce, g_kl, r_ce, r_kl)


def test_update_decreases_residual_objective():
    state = fresh_state()
    before = residual_objective(0.5, state, 2.0, 1.0, 1.0, 1.0)
    anchor = fresh_state()
    gradnorm_update(state, 2.0, 1.0, 1.0, 1.0)
    after = residual_objective(state.lambda_kl, anchor, 2.0, 1.0, 1.0, 1.0)
    assert after < before


def test_fast_task_loses_weight():
    # KL ahead of schedule (low r_kl) should be down-weighted.
    state = fresh_state()
    gradnorm_update(state, 1.0, 1.0, 1.0, 0.4)
    assert state.lambda_kl < 0.5


def test_weights_stay_on_clamped_simplex():
    state = fresh_state()
    rng = random.Random(0)
    for _ in range(400):
        g_ce = rng.uniform(0.05, 5.0)
        g_kl = rng.uniform(0.05, 5.0)
        loss_ce = rng.uniform(0.05, 2.0)
        loss_kl = rng.uniform(0.05, 2.0)
        gradnorm_update(state, g_ce, g_kl, loss_ce, loss_kl)
        assert state.lambda_ce + state.lambda_kl == pytest.approx(1.0, abs=1e-12)
        # lambda_ce is defined as 1 - lambda_kl, so its clamp holds to
        # rounding (1 - 0.9 is one ulp under 0.1 in binary).
        assert CLAMP_MIN <= state.lambda_kl <= CLAMP_MAX
        assert CLAMP_MIN - 1e-15 <= state.lambda_ce <= CLAMP_MAX + 1e-15


def test_extreme_imbalance_hits_clamp():
    state = fresh_state()
    for _ in range(300):
        gradnorm_update(state, 10.0, 0.1, 1.0, 1.0)
    assert state.lambda_kl in (pytest.approx(0.1), pytest.approx(0.9))


def test_update_requires_initial_losses():
    with pytest.raises(ConfigError):
        BalancerState(0.0, 1.0)
    state = BalancerState(1.0, 1.0)
    with pytest.raises(ConfigError):
        gradnorm_update(state, -1.0, 1.0, 1.0, 1.0)


def test_health_ratio_boundary_is_inclusive():
    state = fresh_state()
    names = lambda rep: [f.name for f in rep.flags]
    assert "gradient_ratio" not in names(health_metrics(state, 1.0, 0.5, 1.0, 1.0))
    assert "gradient_ratio" not in names(health_metrics(state, 1.0, 2.0, 1.0, 1.0))
    assert "gradient_ratio" in names(health_metrics(state, 1.0, 0.499, 1.0, 1.0))
    assert "gradient_ratio" in names(health_metrics(state, 1.0, 2.001, 1.0, 1.0))


def test_health_rate_gap_threshold():
    state = fresh_state()
    names = lambda rep: [f.name for f in rep.flags]
    assert "rate_divergence" in names(health_metrics(state, 1.0, 1.0, 1.0, 0.7))
    assert "rate_divergence" not in names(health_metrics(state, 1.0, 1.0, 1.0, 0.75))


def test_health_oscillation_threshold():
    # 0.25 and 0.375 are exact binary, giving std exactly 0.0625 >= 0.05.
    state = fresh_state()
    state.weight_history.extend([0.25, 0.375] * 8)
    rep = health_metrics(state, 1.0, 1.0, 1.0, 1.0)
    assert rep.weight_std == 0.0625
    assert "weight_oscillation" in [f.name for f in rep.flags]
    calm = fresh_state()
    calm.weight_history.extend([0.5, 0.51] * 8)
    assert "weight_oscillation" not in [f.name for f in health_metrics(calm, 1, 1, 1, 1).flags]


def test_health_requires_positive_ce_norm():
    state = fresh_state()
    with pytest.raises(ConfigError):
        health_metrics(state, 0.0, 1.0, 1.0, 1.0)


def test_coverage_f1_reference_point():
    assert coverage_f1(0.7778, 0.0491) == pytest.approx(0.09236904099649292, rel=1e-15)
    assert 1.0 - coverage_f1(0.7778, 0.0491) == pytest.approx(0.9076309590035071, rel=1e-15)
    assert coverage_f1(0.0, 0.0) == 0.0
    assert coverage_f1(1.0, 1.0) == 1.0
    with pytest.raises(ConfigError):
        coverage_f1(1.2, 0.5)


def test_coverage_loss_from_indicator_sets():
    expected = [True, True, True, False]
    predicted = [True, False, False, True]
    # tp=1 fp=1 fn=2: precision 1/2, recall 1/3, F1 = 0.4.
    assert coverage_loss(expected, predicted) == pytest.approx(0.6)
    assert coverage_loss([False, False], [False, False]) == 0.0
    assert coverage_loss([True, True], [False, False]) == 1.0
    assert coverage_loss([False], [True]) == 1.0
    with pytest.raises(ShapeError):
        coverage_loss([True], [True, False])


def test_redundancy_penalty():
    dup = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert redundancy_penalty(dup) == pytest.approx(0.2)
    ortho = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert redundancy_penalty(ortho) == 0.0
    assert redundancy_penalty(np.array([[1.0, 0.0]])) == 0.0
    with pytest.raises(ValueError):
        redundancy_penalty(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_curriculum_stage_resolution():
    # One cumulative trainable set per stage.
    assert len(STAGE_TRAINABLES) == len(STAGE_BOUNDARIES) + 1
    assert all(a < b for a, b in zip(STAGE_TRAINABLES, STAGE_TRAINABLES[1:]))
    assert stage_scheduler_step(0).stage == 0
    assert stage_scheduler_step(9999).stage == 0
    assert stage_scheduler_step(10000).stage == 1
    assert stage_scheduler_step(25000).stage == 2
    assert stage_scheduler_step(40000).stage == 3
    assert stage_scheduler_step(10**6).stage == 3
    assert stage_scheduler_step(0).trainable == STAGE_TRAINABLES[0]
    assert "agreement_head" in stage_scheduler_step(40000).trainable


def test_curriculum_sync_and_guard():
    at_boundary = stage_scheduler_step(10000, request_aux_pass=True)
    assert at_boundary.sync_required
    assert not at_boundary.aux_pass_allowed
    near = stage_scheduler_step(10100, request_aux_pass=True)
    assert not near.sync_required
    assert not near.aux_pass_allowed
    clear = stage_scheduler_step(10101, request_aux_pass=True)
    assert clear.aux_pass_allowed
    unasked = stage_scheduler_step(10101, request_aux_pass=False)
    assert not unasked.aux_pass_allowed
    with pytest.raises(ConfigError):
        stage_scheduler_step(-1)


def test_gradient_log_parsing():
    lines = [
        "# step g_ce g_kl loss_ce loss_kl",
        "",
        "0 1.0 1.0 2.0 1.5",
        "10 0.9 1.1 1.8 1.4",
    ]
    records = read_gradient_log(lines)
    assert len(records) == 2
    assert records[0] == GradientLogRecord(0, 1.0, 1.0, 2.0, 1.5)
    with pytest.raises(ValueError, match="5 fields"):
        read_gradient_log(["0 1.0 1.0 2.0"])
    with pytest.raises(ValueError, match="strictly increasing"):
        read_gradient_log(["5 1 1 1 1", "5 1 1 1 1"])
    with pytest.raises(ValueError, match="line 1"):
        read_gradient_log(["zero 1 1 1 1"])
    # A zero g_kl is read; a zero g_ce is refused at its line, since every record's gradient ratio divides by it.
    with pytest.raises(ValueError, match="line 2: g_ce must be positive"):
        read_gradient_log(["0 1 0 1 1", "1 0 1 1 1"])


def test_gradient_log_refuses_non_finite_and_negative_fields():
    # Refused where it is read, so no inf or nan reaches the training rates or the weight update.
    for bad in ("inf", "-inf", "nan", "-1"):
        for column in range(1, 5):
            parts = ["3", "1.0", "1.0", "1.0", "1.0"]
            parts[column] = bad
            with pytest.raises(ValueError, match="line 3: .*finite and non-negative"):
                read_gradient_log(["# step g_ce g_kl loss_ce loss_kl", "1 1 1 1 1", " ".join(parts)])


def test_run_balancer_builds_its_state_from_the_first_record():
    records = [
        GradientLogRecord(0, 1.0, 1.0, 2.0, 4.0),
        GradientLogRecord(1, 2.0, 1.0, 1.0, 3.0),
        GradientLogRecord(2, 1.5, 1.0, 1.0, 2.0),
    ]
    state = BalancerState(2.0, 4.0)
    expected = []
    for i, rec in enumerate(records):
        if i > 0:
            gradnorm_update(state, rec.g_ce, rec.g_kl, rec.loss_ce, rec.loss_kl)
        flags = health_metrics(state, rec.g_ce, rec.g_kl, rec.loss_ce, rec.loss_kl).flags
        expected.append((rec.step, state.lambda_ce, state.lambda_kl, flags))
    got = [(r.step, r.lambda_ce, r.lambda_kl, r.flags) for r in run_balancer(records)]
    assert got == expected
    assert run_balancer([]) == []
    with pytest.raises(ConfigError, match="initial_loss_ce"):
        run_balancer([GradientLogRecord(0, 1.0, 1.0, 0.0, 1.0)])


def test_run_balancer_over_log():
    records = [
        GradientLogRecord(0, 1.0, 1.0, 1.0, 1.0),
        GradientLogRecord(1, 2.0, 1.0, 1.0, 1.0),
        GradientLogRecord(2, 2.0, 1.0, 1.0, 1.0),
    ]
    reports = run_balancer(records)
    assert len(reports) == 3
    assert reports[0].lambda_kl == 0.5
    assert reports[2].lambda_kl > 0.5
    sparse = run_balancer(records, update_interval=2)
    assert sparse[1].lambda_kl == 0.5
    assert sparse[2].lambda_kl > 0.5
    with pytest.raises(ConfigError):
        run_balancer(records, update_interval=0)
