"""Note emission cadence: deterministic, stochastic, and adaptive modes.

Shows measured inter-arrival moments against closed forms, how context
pressure modulates the adaptive interval, and the cadence/staleness
trade-off formulas.
"""

from __future__ import annotations

import numpy as np

from pdtcoord.analytics import cadence_variance, stale_rollback_bound
from pdtcoord.cadence import CadenceConfig, ContextSignals, modulation_factor, next_emission


def emission_positions(config: CadenceConfig, tokens: int, seed: int = 1) -> list[int]:
    return [p for p in range(1, tokens + 1) if next_emission(config, seed, 0, p)]

def main() -> None:
    det = emission_positions(CadenceConfig(mode="deterministic", interval_m=4), 20)
    print(f"deterministic M=4 emits at positions {det}")

    sto = emission_positions(CadenceConfig(mode="stochastic", interval_m=4), 50000)
    gaps = np.diff(np.array(sto))
    print(f"stochastic M=4 over 50k tokens: mean gap {gaps.mean():.3f} (expect 4), "
          f"variance {gaps.var(ddof=1):.3f} (expect 12)\n")

    print("--- adaptive modulation ---")
    neutral = ContextSignals()
    stressed = ContextSignals(agreement=0.2, entropy_norm=0.9, coverage_gap=0.6)
    confident = ContextSignals(agreement=0.95, entropy_norm=0.1, gate=0.0)
    for name, sig in (("neutral", neutral), ("stressed", stressed), ("confident+closed gate", confident)):
        print(f"  {name:>22}: m_t = {modulation_factor(sig):.3f}")
    print("  (m_t above 1 emits more often; the closed-gate term backs off)\n")

    print("--- staleness and planning formulas ---")
    print(f"  rollback-probability bound at L=32, drift 0.01: {stale_rollback_bound(32, 0.01):.3f}")
    print(f"  cadence variance contribution (L=32, eps=0.01, M=4): {cadence_variance(32, 0.01, 4)}")


if __name__ == "__main__":
    main()
