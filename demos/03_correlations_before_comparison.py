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
for d, p_joint, corr, p_diff in zip(diffs, sweep["p_joint_t2"], sweep["corr_t2"], sweep["p_diff_t4"]):
    print(f"{d:>8.4f} {p_joint:>14.6f} {corr:>10.6f} {p_diff:>14.6f}")
print()
print("the t=2 joint probability spans 0.5 down to 0.0 across the sweep:")
values = sweep["p_joint_t2"]
print(f"  spread = {values.max() - values.min():.6f}  (an angle-independent")
print("  constant could never do that)")
print()

audit = sign_error_audit(default_grid_configs())
print("disagreement-probability audit over the default grid:")
for name in ("sin2_half_diff", "cos2_half_diff", "sin2_half_sum"):
    print(f"  {name:<16} worst deviation {audit.deviations[name].max():.3e}")
print(f"matching candidate(s): {', '.join(audit.matching)}")

third = next(j for j, c in enumerate(audit.configs) if abs(c.theta - np.pi / 3) < 1e-12 and c.phi == 0.0)
p_third = audit.p_diff[third]
print(
    f"at (pi/3, 0): simulated {p_third:.4f}; the cosine form would "
    f"predict {1 - p_third:.4f} (off by {audit.deviations['cos2_half_diff'][third]:.2f})"
)
equal = next(j for j, c in enumerate(audit.configs) if c.theta == c.phi == np.pi / 4)
print(
    f"at (pi/4, pi/4): simulated {audit.p_diff[equal]:.4f}; the sum form would "
    f"predict {audit.deviations['sin2_half_sum'][equal]:.2f} too much"
)
