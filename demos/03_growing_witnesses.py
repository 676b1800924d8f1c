"""Growing large witness sets from small certified ingredients.

tensor_families multiplies dimensions, Schmidt ranks, and overlap
magnitudes, so mutual unbiasedness survives composition.  The named
recipes package the useful instances; every output is re-certified
before it is returned.
"""

import numpy as np

from museb import check_museb_set, hs_inner, run_recipe

for name, params in (
    ("m69", {}),
    ("example3", {}),
    ("example1", {}),
    ("cor21k_seb2", {"k": 3}),
    ("cor21k_mumeb", {"d": 2, "q": 2}),
    ("theorem3", {"d": 2, "dprime": 2, "p": 3, "q": 3}),
):
    fs = run_recipe(name, **params)
    target = 1 / np.sqrt(fs.d * fs.dprime)
    ov = abs(hs_inner(fs[0][0], fs[1][1]))
    print(f"{name}{params or ''}:")
    print(f"  {len(fs)} bases of C^{fs.d} (x) C^{fs.dprime}, rank {fs.k}, "
          f"{len(fs[0])} states each")
    print(f"  sample cross overlap {ov:.6f} vs target {target:.6f}")

print("\nthe degenerate recipe collapses to the frozen (2,3) pair, bit for bit:")
frozen = run_recipe("cor21k_mumeb", d=1, q=1)
rep = check_museb_set(frozen)
print(f"  {len(frozen)} bases, certified={rep.passed}, "
      f"labels {[f.label for f in frozen]}")
