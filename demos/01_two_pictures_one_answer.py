#!/usr/bin/env python3
"""Two pictures, one answer.

A circuit can be simulated by evolving the state (dense statevector) or
by evolving the observables while the state stays parked at |0...0>
(Pauli descriptors).  This script runs both engines over the same
circuit and shows that every expectation value agrees to machine
precision, while the descriptor picture additionally exposes *where*
each observable lives.
"""
import numpy as np

from qpictures import (
    analyzer_rotation,
    apply_circuit,
    cnot,
    evolve_circuit,
    hadamard,
    init_descriptors,
    new_all_zeros,
)
from qpictures import heisenberg, states

WIDTH = 3

circuit = (
    hadamard(1),
    cnot(2, 1),                  # entangle Q2 with Q1
    analyzer_rotation(2, 0.8),
    cnot(3, 2),                  # and Q3 with Q2
    analyzer_rotation(1, 2.1),
)

print("circuit:", " ".join(repr(g) for g in circuit))
print()

# Schroedinger picture: the state evolves.
state = apply_circuit(new_all_zeros(WIDTH), circuit)
print("final statevector (|1>-first ket ordering):")
print(np.round(state.amplitudes, 6))
print()

# Heisenberg picture: the observables evolve, the state never moves.
ds = evolve_circuit(init_descriptors(WIDTH), circuit)
print("evolved z-descriptors:")
for q in range(1, WIDTH + 1):
    print(f"  qubit {q}:")
    for line in ds.z(q).render().split("\n"):
        print("   ", line)
print()

# Each picture reads every <Zq> and <Zq Zr> in one pass.  A descriptor pair
# read <0|A B|0> is the inner product <A 0|B 0> of the two descriptors'
# images of |0...0>; the product A B is never formed.
heis_z, heis_zz = heisenberg.z_moments(ds)
schro_z, schro_zz = states.z_moments(state)
print(f"{'observable':<12} {'descriptors':>14} {'statevector':>14} {'|delta|':>10}")
for q in range(1, WIDTH + 1):
    heis, schro = heis_z[q - 1], schro_z[q - 1]
    print(f"{'<Z%d>' % q:<12} {heis:>14.10f} {schro:>14.10f} {abs(heis - schro):>10.1e}")
for q, r in ((1, 2), (1, 3), (2, 3)):
    heis, schro = heis_zz[q - 1, r - 1], schro_zz[q - 1, r - 1]
    print(f"{'<Z%dZ%d>' % (q, r):<12} {heis:>14.10f} {schro:>14.10f} {abs(heis - schro):>10.1e}")

print()
print("note how each descriptor's support only ever grows through gates")
print("that touch its qubit: locality is bookkept in the operators.")
