"""Tour of the frozen catalog families and what each one witnesses.

R1/R2: two rank-2 bases of C^2 (x) C^3, unbiased at 1/sqrt(6).
S1/S2/S3: three maximally entangled bases of C^3 (x) C^3 at 1/3.
T1/T2/T3: the three single-qubit unbiased bases at 1/sqrt(2).
Plus the qubit-pair frames from mumeb_qubit at overlap 1/2.
"""

import numpy as np

from museb import FamilySet, catalog, check_museb_set, mumeb_qubit, schmidt_number

sets = {
    "R pair (2x3, rank 2)": FamilySet((catalog("R1"), catalog("R2"))),
    "S trio (3x3, rank 3)": FamilySet((catalog("S1"), catalog("S2"), catalog("S3"))),
    "T trio (qubit, rank 1)": FamilySet((catalog("T1"), catalog("T2"), catalog("T3"))),
    "qubit frames (2x2, rank 2)": mumeb_qubit(),
}

for name, fs in sets.items():
    rep = check_museb_set(fs)
    target = 1 / np.sqrt(fs.d * fs.dprime)
    print(f"{name}: {len(fs)} bases of C^{fs.d} (x) C^{fs.dprime}")
    print(f"  certified: {rep.passed}  worst violation {rep.worst_violation:.2e}"
          f"  cross overlap target {target:.4f}")
    print(f"  Schmidt number of a sample element: {schmidt_number(fs[0][1])}")

print("\none S2 element, a permutation-like rank-3 state:")
print(np.round(catalog("S2")[0] * 3 * np.sqrt(3), 4), "  (scaled by 3*sqrt(3))")

print("\nthe ket-form transcriptions agree with the matrix-form families exactly:")
print("  eq16 vs R1:", np.max(np.abs(catalog("eq16").elements - catalog("R1").elements)))
print("  eq17 vs R2:", np.max(np.abs(catalog("eq17").elements - catalog("R2").elements)))
