"""The worked examples: where the L1-L2 bound wins, fails, and saturates.

Three stories:
  1. the cumulative indicator family, where the L1-L2 variance bound beats
     the Poincare bound by an unbounded logarithmic factor;
  2. the step counterexample F_k = 1{c <= k-1}, whose variance exceeds the
     ungated bound for every k beyond a small threshold (its second
     difference changes sign, so the theorem's gate excludes it);
  3. the maxima-of-a-sample indicator, with all quantities in closed form,
     and the near-optimality scan for the entropy-power inequality.
"""

import numpy as np

from poisson_ou import (
    counterexample_fk,
    counterexample_scan,
    maxima_closed_forms,
    near_optimality_scan,
    one_dim_bound_comparison,
)

print("-- cumulative indicator family, g = 1{j <= 1} --")
for lam in (1.0, 5.0, 10.0, 20.0):
    rec = one_dim_bound_comparison(lambda j: 1.0 if j <= 1 else 0.0, lam)
    print(f"lam={lam:5.1f}  var={rec['variance']:.4e}  "
          f"poincare={rec['poincare_rhs']:.4e}  l1l2={rec['talagrand_rhs']:.4e}  "
          f"log ratio={rec['log_norm_ratio']:.3f}")

print("\n-- step counterexample (bound taken without its hypotheses) --")
k0, ratios = counterexample_scan(50)
print(f"variance exceeds the bound from k0 = {k0} on; "
      f"ratio at k=50: {ratios[-1]:.3f}")
for k in (2, 10, 30, 50):
    rec = counterexample_fk(k)
    print(f"k={k:2d}  var={rec['variance']:.3e}  bound={rec['talagrand_rhs']:.3e}  "
          f"ratio={rec['lhs_over_rhs']:.3f}")

print("\n-- maxima indicator closed forms --")
for m in (0.5, 1.0, 5.0, 20.0):
    forms = maxima_closed_forms(m)
    print(f"m={m:5.1f}  var={forms['variance']:.4e}  "
          f"poincare={forms['poincare_rhs']:.4e}  l1l2={forms['talagrand_rhs']:.4e}")

print("\n-- entropy-power near-optimality scan --")
scan = near_optimality_scan([0.05, 0.1, 0.5, 1.0, 2.0], [1.05, 1.5, 2.0, 3.0])
print("rhs/lhs ratios (rows a, columns q):")
print(np.array_str(scan["ratios"], precision=3))
print(f"grid minimum {scan['min_ratio']:.4f}; the infimum over the whole "
      "quadrant is 2, approached in the small-(a, q) corner")
