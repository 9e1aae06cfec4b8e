"""Closed-form coordination analytics and the clustered-error simulation."""

from __future__ import annotations

import math

import pytest

from pdtcoord.analytics import (
    ClusterSimConfig,
    ClusteredSimResult,
    cadence_variance,
    format_sim_transcript,
    simulate_clustered_rollback,
    stale_rollback_bound,
)
from pdtcoord.errors import ConfigError


def test_stale_rollback_bound_values():
    assert stale_rollback_bound(32, 0.01) == pytest.approx(0.4, abs=1e-15)
    assert stale_rollback_bound(8, 0.0) == 0.0
    # sqrt(L * eps / 2) saturates at 1 for large drift.
    assert stale_rollback_bound(32, 10.0) == 1.0


def test_stale_rollback_bound_monotone():
    prev = 0.0
    for eps in (0.0, 1e-4, 1e-3, 1e-2, 5e-2):
        cur = stale_rollback_bound(32, eps)
        assert cur >= prev
        prev = cur


def test_cadence_variance_closed_form():
    assert cadence_variance(32, 0.01, 4) == 0.03
    assert cadence_variance(32, 0.01, 1) == 0.0
    # Doubling epsilon doubles the value; the factor shape is eps*L*(M-1)/(8M).
    assert cadence_variance(32, 0.02, 4) == pytest.approx(0.06, rel=1e-12)
    assert cadence_variance(64, 0.01, 4) == pytest.approx(0.06, rel=1e-12)


def test_cadence_variance_increases_with_interval():
    vals = [cadence_variance(32, 0.01, m) for m in (1, 2, 4, 8, 16)]
    assert vals == sorted(vals)


def test_entry_rate_budget_match():
    cfg = ClusterSimConfig()
    q, rho = cfg.q_token, cfg.rho_c
    p01 = cfg.entry_rate()
    # Stationary error rate of the chain must equal the token budget q.
    stationary = p01 / (p01 + (1.0 - rho))
    assert stationary == pytest.approx(q, rel=1e-12)


def test_infeasible_chain_rejected():
    with pytest.raises(ConfigError, match="infeasible"):
        ClusterSimConfig(q_token=0.9, rho_c=0.0)
    with pytest.raises(ConfigError):
        ClusterSimConfig(rho_c=1.0)
    with pytest.raises(ConfigError):
        ClusterSimConfig(trials=0)


def test_simulation_theoretical_anchors():
    res = simulate_clustered_rollback(ClusterSimConfig())
    assert res.indep_theo_fail == pytest.approx(0.1003726206012523, rel=1e-15)
    assert res.clustered_theo_variance == pytest.approx(0.31575456, rel=1e-15)


def test_simulation_default_run_statistics():
    res = simulate_clustered_rollback(ClusterSimConfig())
    assert res.indep_fail_prob == pytest.approx(res.indep_theo_fail, abs=0.02)
    assert res.clustered_fail_prob < res.indep_fail_prob
    assert res.clustered_variance == pytest.approx(res.clustered_theo_variance, abs=0.08)
    assert res.indep_variance > 0.0


def test_simulation_is_deterministic():
    a = simulate_clustered_rollback(ClusterSimConfig())
    b = simulate_clustered_rollback(ClusterSimConfig())
    assert a == b
    c = simulate_clustered_rollback(ClusterSimConfig(seed=3))
    assert c.clustered_fail_prob != a.clustered_fail_prob


def test_zero_correlation_recovers_independent_statistics():
    cfg = ClusterSimConfig(rho_c=0.0, trials=20000, seed=4)
    res = simulate_clustered_rollback(cfg)
    assert res.clustered_theo_variance == pytest.approx(
        cfg.horizon_l * cfg.q_token * (1 - cfg.q_token), rel=1e-12
    )
    assert res.clustered_fail_prob == pytest.approx(res.indep_theo_fail, abs=0.02)


def test_transcript_labels_and_dynamics():
    res = simulate_clustered_rollback(ClusterSimConfig())
    text = format_sim_transcript(res)
    assert text.splitlines()[0] == "--- Clustered Rollback Simulation ---"
    assert "  [Independent] Stride Fail Prob:" in text
    assert "  [Clustered]   Error Variance:" in text
    assert "DECREASES the stride" in text
    assert "variance INCREASES" in text
    assert "(1+rho) variance impact" in text
    assert f"(Theo: {res.indep_theo_fail:.4f})" in text


def test_transcript_tracks_sample_direction():
    # Force the opposite conclusion wording with a degenerate chain.
    res = simulate_clustered_rollback(ClusterSimConfig(rho_c=0.0, seed=9))
    text = format_sim_transcript(res)
    assert ("DECREASES the stride" in text) or ("INCREASES the stride" in text)


def test_transcript_names_no_direction_for_figures_equal_as_printed():
    # The failure rates differ only past the four printed decimals.
    res = ClusteredSimResult(
        config=ClusterSimConfig(),
        indep_fail_prob=0.10002,
        indep_variance=0.1,
        indep_theo_fail=0.1,
        clustered_fail_prob=0.10004,
        clustered_variance=0.3,
        clustered_theo_variance=0.3,
    )
    text = format_sim_transcript(res)
    assert "clustering DOES NOT CHANGE the stride" in text
    assert "failure rate (0.1000 -> 0.1000)" in text
    assert "variance INCREASES (0.1000 -> 0.3000)" in text


def test_variance_inflation_scales_with_rho():
    lo = simulate_clustered_rollback(ClusterSimConfig(rho_c=0.2, seed=7, trials=20000))
    hi = simulate_clustered_rollback(ClusterSimConfig(rho_c=0.7, seed=7, trials=20000))
    assert hi.clustered_variance > lo.clustered_variance
    assert hi.clustered_theo_variance > lo.clustered_theo_variance
    ratio = hi.clustered_theo_variance / lo.clustered_theo_variance
    expected = (1.7 / 0.3) / (1.2 / 0.8)
    assert ratio == pytest.approx(expected, rel=1e-12)
