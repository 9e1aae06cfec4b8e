"""Stride failure statistics when token errors arrive in bursts.

A two-state Markov chain with P(err|err) = rho spends the same per-token
error budget as an independent Bernoulli process but concentrates errors into
fewer strides: stride failures get rarer while the error-count variance
inflates by roughly (1+rho)/(1-rho).
"""

from __future__ import annotations

from pdtcoord.analytics import ClusterSimConfig, format_sim_transcript, simulate_clustered_rollback


def main() -> None:
    print(format_sim_transcript(simulate_clustered_rollback(ClusterSimConfig())))

    print("\n--- burstiness sweep (L=32, q_token=0.0033) ---")
    print(f"{'rho':>5} {'fail prob':>10} {'variance':>9} {'theo var':>9}")
    for rho in (0.0, 0.25, 0.5, 0.75):
        res = simulate_clustered_rollback(ClusterSimConfig(rho_c=rho, trials=20000))
        print(
            f"{rho:>5.2f} {res.clustered_fail_prob:>10.4f} "
            f"{res.clustered_variance:>9.4f} {res.clustered_theo_variance:>9.4f}"
        )
    print("\nhigher rho: fewer strides fail, but each failure wastes more work.")


if __name__ == "__main__":
    main()
