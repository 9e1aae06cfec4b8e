"""Trust-gate behavior: near-zero start, warmup schedule, and safety actions.

Demonstrates the near-identity property of a strongly negative gate logit,
the linear re-anneal after a note event, the flicker backoff, and the
stability cap driven by a Lipschitz estimate of the note pathway.
"""

from __future__ import annotations

import math

import numpy as np

from pdtcoord.kernels import logistic
from pdtcoord.rng import normal_matrix
from pdtcoord.snc import GateState, SncParams, estimate_lipschitz_layerwise, gate_controller_step, snc_attend


def make_params(gamma: float) -> SncParams:
    d, dn, da = 12, 6, 8
    return SncParams(
        w_q=normal_matrix(0, 60, 1, d, da) / math.sqrt(d),
        w_k=normal_matrix(0, 60, 2, dn, da) / math.sqrt(dn),
        w_v=normal_matrix(0, 60, 3, dn, da) / math.sqrt(dn),
        w_o=normal_matrix(0, 60, 4, da, d) / math.sqrt(da),
        gamma=gamma,
    )


def main() -> None:
    h = normal_matrix(1, 60, 5, 4, 12)
    notes = normal_matrix(1, 60, 6, 5, 6)
    print("--- near-zero initialization ---")
    for gamma in (-4.0, -8.0):
        params = make_params(gamma)
        out = snc_attend(h, notes, params)
        dev = float(np.linalg.norm(out - h) / np.linalg.norm(h))
        print(f"  gamma={gamma:+.0f}: gate {logistic(gamma):.6f}, relative deviation {dev:.2e}")
    override = snc_attend(h, notes, make_params(-4.0), gate_override=0.0)
    print(f"  gate_override=0: bit-exact identity {np.array_equal(override, h)}\n")

    print("--- warmup after a note event (warmup 16 tokens) ---")
    state = GateState(warmup_tokens=16, flicker_std=10.0)
    _, gate, _ = gate_controller_step(state, 0.8, new_note_event=True, note_change=0.4)
    trail = [gate]
    for _ in range(16):
        _, gate, _ = gate_controller_step(state, 0.8)
        trail.append(gate)
    print("  " + " ".join(f"{g:.3f}" for g in trail))
    print("  the gate drops to g_min at the event and re-anneals linearly.\n")

    print("--- flicker backoff ---")
    flicker = GateState(warmup_tokens=1, flicker_window=8, flicker_std=0.10)
    actions_seen = []
    for i in range(12):
        wild = 0.8 if i % 2 == 0 else 0.05
        flicker, _, actions = gate_controller_step(flicker, wild)
        actions_seen.extend(a.name for a in actions)
    print(f"  oscillating gate input triggered {actions_seen.count('REDUCE_GATE_MAX')} backoff(s); "
          f"g_max now {flicker.g_max:.3f}\n")

    print("--- stability cap from a Lipschitz estimate ---")
    params = make_params(-4.0)
    lip = estimate_lipschitz_layerwise([params.w_q, params.w_o])
    capped = GateState(warmup_tokens=1, tau_lipschitz=0.5, lipschitz_estimate=lip, flicker_std=10.0)
    capped, gate, actions = gate_controller_step(capped, 0.8, new_note_event=True, note_change=2.0)
    for _ in range(4):
        capped, gate, actions = gate_controller_step(capped, 0.8)
    print(f"  pathway estimate {lip:.3f} above threshold 0.5: "
          f"actions {[a.name for a in actions]}, effective gate {gate:.3f} "
          f"(capped below g_max {capped.g_max})")


if __name__ == "__main__":
    main()
