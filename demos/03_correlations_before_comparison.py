#!/usr/bin/env python3
"""Sweeping the analyzer difference, and auditing the disagreement law.

The joint probability at t=2 follows cos^2((theta-phi)/2)/2 and the
post-comparison disagreement probability follows sin^2((theta-phi)/2).
Two miswritten variants of the latter (cosine instead of sine, sum
instead of difference) are scored against the simulation; only the
sine-of-half-difference form survives.
"""
import numpy as np

from qpictures import ExperimentConfig, reports, sign_error_audit, simulate
from qpictures.experiment import default_grid_configs

diffs = [k * np.pi / 8 for k in range(9)]
sweep = reports(simulate(ExperimentConfig(d, 0.0) for d in diffs))

print(f"{'diff':>8} {'P(joint) t=2':>14} {'corr t=2':>10} {'P(differ) t=4':>14}")
for d, r in zip(diffs, sweep):
    data = r.to_dict()
    print(
        f"{d:>8.4f} {data['p_joint_t2']:>14.6f} {data['corr_t2']:>10.6f} "
        f"{data['p_diff_t4']:>14.6f}"
    )
print()
print("the t=2 joint probability spans 0.5 down to 0.0 across the sweep:")
values = [r.p_joint_t2.schrodinger for r in sweep]
print(f"  spread = {max(values) - min(values):.6f}  (an angle-independent")
print("  constant could never do that)")
print()

audit = sign_error_audit(default_grid_configs())
print("disagreement-probability audit over the default grid:")
for name in ("sin2_half_diff", "cos2_half_diff", "sin2_half_sum"):
    worst = max(p.deviations[name] for p in audit.points)
    print(f"  {name:<16} worst deviation {worst:.3e}")
print(f"matching candidate(s): {', '.join(audit.matching)}")

third = next(p for p in audit.points if abs(p.theta - np.pi / 3) < 1e-12 and p.phi == 0.0)
print(
    f"at (pi/3, 0): simulated {third.p_diff:.4f}; the cosine form would "
    f"predict {1 - third.p_diff:.4f} (off by {third.deviations['cos2_half_diff']:.2f})"
)
equal = next(p for p in audit.points if p.theta == p.phi == np.pi / 4)
print(
    f"at (pi/4, pi/4): simulated {equal.p_diff:.4f}; the sum form would "
    f"predict {equal.deviations['sin2_half_sum']:.2f} too much"
)
