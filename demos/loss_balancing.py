"""Gradient-norm loss balancing over a synthetic training log.

Feeds an imbalanced gradient stream through the balancer, watches the
weights shift and the health flags fire, then steps the curriculum
scheduler across its stage boundaries.
"""

from __future__ import annotations

import numpy as np

from pdtcoord.balancer import (
    GradientLogRecord,
    coverage_loss,
    redundancy_penalty,
    run_balancer,
    stage_scheduler_step,
)


def main() -> None:
    # CE gradients twice the KL gradients, KL loss falling faster.
    records = [
        GradientLogRecord(step=s, g_ce=2.0, g_kl=1.0, loss_ce=1.0, loss_kl=max(0.3, 1.0 - 0.02 * s))
        for s in range(0, 200, 10)
    ]
    print("--- balancing an imbalanced gradient stream ---")
    for report in run_balancer(records, update_interval=1)[::4]:
        flags = ",".join(f.name for f in report.flags) or "-"
        print(f"  step {report.step:>3}: lambda_ce={report.lambda_ce:.4f} "
              f"lambda_kl={report.lambda_kl:.4f} flags={flags}")
    print("  weight moves toward the task with the weaker gradient norm.\n")

    print("--- auxiliary objectives ---")
    expected = [True, True, False, True, False, False]
    predicted = [True, False, False, True, True, False]
    print(f"  coverage loss (1 - F1): {coverage_loss(expected, predicted):.4f}")
    notes = np.array([[1.0, 0.0, 0.0], [0.99, 0.1, 0.0], [0.0, 1.0, 0.0]])
    print(f"  redundancy penalty on near-duplicate notes: {redundancy_penalty(notes):.4f}\n")

    print("--- curriculum schedule ---")
    for step in (0, 9999, 10000, 10050, 10101, 25000, 40000):
        d = stage_scheduler_step(step, request_aux_pass=True)
        print(f"  step {step:>6}: stage {d.stage}, {len(d.trainable)} trainable groups, "
              f"aux={'yes' if d.aux_pass_allowed else 'no'}, sync={'yes' if d.sync_required else 'no'}")


if __name__ == "__main__":
    main()
