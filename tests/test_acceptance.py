"""Acceptance gates for the coordination layer, one verdict line each.

Every test prints a single [PASS]/[FAIL] line with the measured values and
asserts at the stated tolerance; the lines are re-emitted in the terminal
summary by conftest.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
from conftest import record_acceptance
from reference_decoder import reference_decode

from pdtcoord.analytics import ClusterSimConfig, cadence_variance, simulate_clustered_rollback
from pdtcoord.balancer import (
    BalancerState,
    coverage_f1,
    gradnorm_update,
    health_metrics,
)
from pdtcoord.cadence import CadenceConfig, next_emission
from pdtcoord.decode import DecodeConfig, run_parallel
from pdtcoord.kernels import spectral_norm
from pdtcoord.memmodel import KIB, MIB, MemoryConfig, kv_budget, pages_touched
from pdtcoord.replay import SynthSpec, read_artifact, synthesize_artifact, write_artifact
from pdtcoord.rng import normal_matrix, uniform
from pdtcoord.snc import SncParams, estimate_lipschitz_layerwise, snc_attend


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_criterion_1_clustered_rollback_statistics():
    t0 = time.perf_counter()
    res = simulate_clustered_rollback(ClusterSimConfig())
    elapsed = time.perf_counter() - t0
    checks = {
        "indep_fail": 0.089 <= res.indep_fail_prob <= 0.111,
        "theo_print": f"{res.indep_theo_fail:.4f}" == "0.1004",
        "clustered_fail": 0.047 <= res.clustered_fail_prob <= 0.062,
        "indep_var": 0.095 <= res.indep_variance <= 0.115,
        "clustered_var": 0.28 <= res.clustered_variance <= 0.36,
        "runtime": elapsed < 10.0,
    }
    detail = (
        f"fail {res.indep_fail_prob:.4f}->{res.clustered_fail_prob:.4f}, "
        f"var {res.indep_variance:.4f}->{res.clustered_variance:.4f}, "
        f"theo {res.indep_theo_fail:.4f}, {elapsed:.2f}s"
    )
    failed = [k for k, v in checks.items() if not v]
    if failed:
        detail += f" (failed: {','.join(failed)})"
    report("clustered rollback statistics", not failed, detail)


def test_criterion_2_kv_budget_worked_examples():
    common = dict(
        d_model=4096,
        n_heads=32,
        n_layers=32,
        bytes_per_elem=2,
        n_kv_bus=1,
        tokens_per_stream=(2048, 2048, 2048),
        bus_tokens=2560,
        cross_layers=8,
    )
    mqa = kv_budget(MemoryConfig(n_kv_self=1, **common))
    gqa = kv_budget(MemoryConfig(n_kv_self=8, **common))
    ok = (
        mqa.per_token_per_layer == 512
        and mqa.per_token_all_layers == 16 * KIB
        and mqa.surface_total == 96 * MIB
        and mqa.bus_total == 10 * MIB
        and mqa.grand_total == 106 * MIB
        and gqa.per_token_per_layer == 4 * KIB
        and gqa.per_token_all_layers == 128 * KIB
        and gqa.surface_total == 768 * MIB
        and gqa.grand_total == 778 * MIB
    )
    report(
        "kv budget worked examples",
        ok,
        f"single-head {mqa.grand_total // MIB} MiB, grouped {gqa.grand_total // MIB} MiB, exact bytes",
    )


def _probe_params(seed: int, d: int, dn: int, da: int, gamma: float) -> SncParams:
    return SncParams(
        w_q=normal_matrix(seed, 30, 1, d, da) / math.sqrt(d),
        w_k=normal_matrix(seed, 30, 2, dn, da) / math.sqrt(dn),
        w_v=normal_matrix(seed, 30, 3, dn, da) / math.sqrt(dn),
        w_o=normal_matrix(seed, 30, 4, da, d) / math.sqrt(da),
        gamma=gamma,
    )


def test_criterion_3_near_zero_gate_identity():
    worst = 0.0
    exact = True
    for i in range(100):
        d, dn, da = 8 + (i % 5), 4 + (i % 3), 6 + (i % 4)
        params = _probe_params(40 + i, d, dn, da, gamma=-8.0)
        h = normal_matrix(140 + i, 31, 1, 2, d)
        notes = normal_matrix(140 + i, 31, 2, 3, dn)
        out = snc_attend(h, notes, params)
        worst = max(worst, float(np.linalg.norm(out - h) / np.linalg.norm(h)))
        if not np.array_equal(snc_attend(h, notes, params, gate_override=0.0), h):
            exact = False
    ok = worst < 1e-3 and exact
    report(
        "near-zero gate identity",
        ok,
        f"worst relative deviation {worst:.2e} < 1e-3 over 100 probes, override-0 bit-exact={exact}",
    )


def test_criterion_4_rollback_state_equivalence():
    artifacts = 1000
    total_rollbacks = 0
    mismatches = 0
    max_span = 0
    horizon = 8
    for i in range(artifacts):
        stream = int(uniform(9001, 1, i) * 2)
        pos = 2 + int(uniform(9001, 2, i) * 20)
        spec = SynthSpec(
            n_streams=2,
            length=24,
            vocab_size=11,
            d=8,
            d_note=4,
            seed=3000 + i,
            planted_divergences=((stream, pos),),
        )
        art = synthesize_artifact(spec)
        mode = "reconsume" if i % 2 else "skip_ahead"
        cfg = DecodeConfig(stride_b=horizon, horizon_l=horizon, regen_mode=mode)
        trace = run_parallel(art, cfg)
        reference, _ = reference_decode(art, cfg)
        for ev in trace.rollback_events():
            total_rollbacks += 1
            max_span = max(max_span, ev.trigger_position - ev.rolled_back_to)
        for sid, target, log in trace.rollback_states:
            if reference.token_logs[sid][: len(log)] != log or len(log) != target:
                mismatches += 1
    ok = mismatches == 0 and 0 < max_span <= horizon and total_rollbacks >= artifacts
    report(
        "rollback state equivalence",
        ok,
        f"{total_rollbacks} rollbacks over {artifacts} artifacts, "
        f"{mismatches} state mismatches, max span {max_span} <= {horizon}",
    )


def test_criterion_5_trace_determinism(tmp_path):
    spec = SynthSpec(
        n_streams=3,
        length=96,
        vocab_size=32,
        d=16,
        d_note=8,
        seed=9,
        planted_divergences=((0, 10), (2, 50)),
    )
    art = synthesize_artifact(spec)
    cfg = DecodeConfig(
        stride_b=16, horizon_l=16, cadence=CadenceConfig(mode="stochastic", interval_m=4)
    )
    hashes = {run_parallel(art, cfg).trace_hash() for _ in range(5)}
    path = tmp_path / "art.pdtr"
    write_artifact(art, str(path))
    hashes.add(run_parallel(read_artifact(str(path)), cfg).trace_hash())
    ok = len(hashes) == 1
    report(
        "trace determinism",
        ok,
        f"{len(hashes)} distinct hash(es) across 5 runs and a write/read round trip of the artifact",
    )


def test_criterion_6_emission_cadence_moments():
    cfg = CadenceConfig(mode="stochastic", interval_m=4)
    emissions = [p for p in range(1, 100001) if next_emission(cfg, 1, 0, p)]
    gaps = np.diff(np.array(emissions))
    mean = float(gaps.mean())
    var = float(gaps.var(ddof=1))
    closed = cadence_variance(32, 0.01, 4)
    ok = abs(mean - 4.0) <= 0.05 and abs(var - 12.0) <= 0.3 and closed == 0.03
    report(
        "emission cadence moments",
        ok,
        f"mean {mean:.4f} (4.0 +/- 0.05), variance {var:.4f} (12 +/- 0.3), "
        f"closed form {closed} == 0.03",
    )


def test_criterion_7_loss_balancer_contract():
    state = BalancerState(1.0, 1.0)
    rng = random.Random(7)
    violations = 0
    for _ in range(10000):
        gradnorm_update(
            state,
            rng.uniform(0.05, 5.0),
            rng.uniform(0.05, 5.0),
            rng.uniform(0.05, 2.0),
            rng.uniform(0.05, 2.0),
        )
        off_simplex = abs(state.lambda_ce + state.lambda_kl - 1.0) > 1e-12
        out_of_band = not (0.1 - 1e-12 <= state.lambda_kl <= 0.9 + 1e-12) or not (
            0.1 - 1e-12 <= state.lambda_ce <= 0.9 + 1e-12
        )
        if off_simplex or out_of_band:
            violations += 1

    fixed = BalancerState(1.0, 1.0)
    gradnorm_update(fixed, 1.0, 1.0, 1.0, 1.0)
    fixed_point = abs(fixed.lambda_kl - 0.5) < 1e-9

    flags = lambda rep: {f.name for f in rep.flags}
    probe = BalancerState(1.0, 1.0)
    ratio_ok = (
        "gradient_ratio" not in flags(health_metrics(probe, 1.0, 0.5, 1.0, 1.0))
        and "gradient_ratio" not in flags(health_metrics(probe, 1.0, 2.0, 1.0, 1.0))
        and "gradient_ratio" in flags(health_metrics(probe, 1.0, 0.25, 1.0, 1.0))
        and "gradient_ratio" in flags(health_metrics(probe, 1.0, 4.0, 1.0, 1.0))
    )
    gap_ok = (
        "rate_divergence" in flags(health_metrics(probe, 1.0, 1.0, 1.0, 0.5))
        and "rate_divergence" not in flags(health_metrics(probe, 1.0, 1.0, 1.0, 0.75))
    )
    probe.weight_history.extend([0.25, 0.375] * 8)
    std_ok = "weight_oscillation" in flags(health_metrics(probe, 1.0, 1.0, 1.0, 1.0))
    ok = violations == 0 and fixed_point and ratio_ok and gap_ok and std_ok
    report(
        "loss balancer contract",
        ok,
        f"{violations} simplex/clamp violations in 10000 steps, balanced fixed point={fixed_point}, "
        f"flags fire at thresholds={ratio_ok and gap_ok and std_ok}",
    )


def test_criterion_8_spectral_bound():
    bound_failures = 0
    worst_gap = 0.0
    for i in range(100):
        d1, d2, d3 = 3 + (i % 6), 3 + ((i // 6) % 6), 3 + (i % 5)
        w1 = normal_matrix(500 + i, 32, 1, d1, d2) / math.sqrt(d1)
        w2 = normal_matrix(500 + i, 32, 2, d2, d3) / math.sqrt(d2)
        bound = estimate_lipschitz_layerwise([w1, w2])
        fd_max = 0.0
        for j in range(5):
            x = normal_matrix(600 + i, 32, 10 + j, 1, d1)
            v = normal_matrix(700 + i, 32, 10 + j, 1, d1)
            h = 1e-5
            delta = ((x + h * v) @ w1 @ w2) - ((x - h * v) @ w1 @ w2)
            fd = float(np.linalg.norm(delta) / (2 * h * np.linalg.norm(v)))
            fd_max = max(fd_max, fd)
        if bound + 1e-9 < fd_max:
            bound_failures += 1
        # m = Q1 diag(s) Q2^T with orthonormal Q1, Q2 has singular values s by
        # construction, so its 2-norm is max(s) without asking numpy's SVD.
        rows, cols = 1 + (i % 16), 1 + ((i * 7) % 16)
        k = min(rows, cols)
        q1 = np.linalg.qr(normal_matrix(800 + i, 32, 3, rows, k))[0]
        q2 = np.linalg.qr(normal_matrix(800 + i, 32, 4, cols, k))[0]
        s = 0.1 + np.abs(normal_matrix(800 + i, 32, 5, 1, k)[0])
        m = q1 @ np.diag(s) @ q2.T
        worst_gap = max(worst_gap, abs(spectral_norm(m) - float(s.max())))
    ok = bound_failures == 0 and worst_gap <= 1e-6
    report(
        "spectral bound",
        ok,
        f"{bound_failures} pathways below the finite-difference lower bound, "
        f"worst gap to the constructed top singular value {worst_gap:.2e} <= 1e-6",
    )


def test_criterion_9_page_aligned_rollback():
    horizon = 32
    rng = random.Random(5)
    scenario_over = 0
    for _ in range(10000):
        target = rng.randrange(0, 64) * horizon
        span = rng.randint(1, horizon)
        if pages_touched(target, target + span, horizon) > 1:
            scenario_over += 1

    trace_events = 0
    trace_over = 0
    for i in range(20):
        spec = SynthSpec(
            n_streams=2,
            length=96,
            vocab_size=11,
            d=8,
            d_note=4,
            seed=5000 + i,
            planted_divergences=((i % 2, 8 + (i * 3) % 80),),
        )
        art = synthesize_artifact(spec)
        trace = run_parallel(art, DecodeConfig(stride_b=horizon, horizon_l=horizon))
        for ev in trace.rollback_events():
            trace_events += 1
            if ev.pages_dropped > 1:
                trace_over += 1
    ok = scenario_over == 0 and trace_over == 0 and trace_events > 0
    report(
        "page-aligned rollback",
        ok,
        f"0 of 10000 simulated rollbacks exceed 1 page (got {scenario_over}); "
        f"{trace_events} decode rollbacks all within 1 page (over: {trace_over})",
    )


def test_criterion_10_coverage_arithmetic_for_declared_training_metrics():
    # Full-scale training metrics are out of desk scope by declaration; the
    # published precision/recall pair must reproduce through the F1 path.
    f1 = coverage_f1(0.7778, 0.0491)
    loss = 1.0 - f1
    ok = (
        abs(f1 - 0.09236904099649292) < 1e-15
        and abs(loss - 0.9076309590035071) < 1e-15
    )
    report(
        "coverage arithmetic (declared non-desk-scale metrics)",
        ok,
        f"F1 {f1:.17f}, loss {loss:.17f}",
    )
