#!/usr/bin/env python3
"""CHSH violation from the t=2 correlations alone.

E(theta, phi) = <q_z2 q_z3> = cos(theta - phi) is computed from the
descriptors of the measured pair at t=2, i.e. before either record
ancilla is written and long before the records are compared.  The CHSH
combination of four such correlations reaches 2*sqrt(2) > 2.
"""
import numpy as np

from qpictures import TSIRELSON, canonical_setting, chsh, chsh_scan, correlation

print("pairwise correlations at t=2:")
thetas = (0.0, 0.0, 0.0, 0.0)
phis = (0.0, np.pi / 4, np.pi / 2, np.pi)
for theta, phi, e in zip(thetas, phis, correlation(thetas, phis)):
    print(f"  E({theta:.4f}, {phi:.4f}) = {e:+.6f}")
print()

setting = canonical_setting()
result = chsh(setting)
print(
    f"canonical setting a={setting.a:.4f} a'={setting.a_prime:.4f} "
    f"b={setting.b:.4f} b'={setting.b_prime:.4f}"
)
print(f"  E(a,b)={result.e_ab:+.6f}  E(a,b')={result.e_ab_prime:+.6f}")
print(f"  E(a',b)={result.e_a_prime_b:+.6f}  E(a',b')={result.e_a_prime_b_prime:+.6f}")
print(f"  S = {result.s:.9f}")
print(f"  local-theory bound 2       -> violated: {result.violates}")
print(f"  quantum bound 2*sqrt(2)    = {TSIRELSON:.9f}")
print()

print("scanning every setting on a pi/4 grid (4096 combinations):")
scan = chsh_scan(np.pi / 4)
best = scan.best
print(f"  max |S| = {abs(best.s):.9f} at a={best.setting.a:.4f} "
      f"a'={best.setting.a_prime:.4f} b={best.setting.b:.4f} b'={best.setting.b_prime:.4f}")
print()

print("a coarser pi/2 grid cannot leave the classical region:")
coarse = chsh_scan(np.pi / 2)
print(f"  max |S| = {abs(coarse.best.s):.9f} -> violated: {coarse.best.violates}")
print()
print("every correlation entering S lives at t=2: the Bell-violating")
print("statistics exist before the comparison measurement runs.")
