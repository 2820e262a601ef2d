#!/usr/bin/env python3
"""Walking the four-qubit record-and-compare timeline.

Q2 and Q3 are entangled, rotated by their local analyzer angles, copied
onto the record ancillas Q1 and Q4, and finally the two records are
compared by one last CNOT.  This script prints the state and the
descriptors at each step for one angle pair.
"""
import numpy as np

from qpictures import ExperimentConfig, build_timeline, reports, simulate
from qpictures.states import basis_label

cfg = ExperimentConfig(theta=np.pi / 3, phi=0.0)
timeline = build_timeline([cfg])
run = simulate([cfg])  # a batch of one angle pair

print("analyzer angles: theta = pi/3, phi = 0")
for step, segment in enumerate(timeline, start=1):
    print(f"t={step}: " + ", ".join(repr(g) for g in segment))
print()

for step in range(5):
    state = run.states[step].row(0)
    nonzero = [
        f"{basis_label(k, 4)} {amp.real:+.4f}{amp.imag:+.4f}j"
        for k, amp in enumerate(state.amplitudes)
        if abs(amp) > 1e-12
    ]
    print(f"state after t={step}: " + "; ".join(nonzero))
print()

ds = run.descriptors[2].column(0)
print("descriptors of the measured pair at t=2 (the analyzers rotated them):")
for q in (2, 3):
    print(f"  q_z of Q{q}:")
    for line in ds.z(q).render().split("\n"):
        print("   ", line)
print()

data = {name: column[0] for name, column in reports(run).items()}
print("report (closed form == descriptors == statevector, to 1e-10):")
print(f"  t=2  P(both |1>)        = {data['p_joint_t2']:.10f}")
print(f"  t=2  <q_z2 q_z3>        = {data['corr_t2']:.10f}")
print(f"  t=2  linear terms       = {data['lin_qz2_t2']:.1e}, {data['lin_qz3_t2']:.1e}")
print(f"  t=3  record marginal    = {data['p_record_t3']:.10f}   (angle-independent)")
print(f"  t=4  P(records differ)  = {data['p_diff_t4']:.10f}")
print()
print("the t=2 numbers already depend on theta - phi; the comparison gate")
print("at t=4 merely reads out a correlation that was in place two steps")
print("earlier.")
