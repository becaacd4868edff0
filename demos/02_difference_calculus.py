"""The add-one-cost operator, second differences, and sign certificates.

D_i F(c) = F(c + e_i) - F(c) plays the role of a derivative on configuration
space. Several theorems apply only to functionals with one-sided D or D^2;
certificates establish those sign conditions exhaustively on the truncated
grid, or report a concrete witness of failure.
"""

import numpy as np

from poisson_ou import (
    GroundSpace,
    SemigroupEngine,
    add_one_cost,
    certify_monotonicity,
    from_rule,
    second_difference,
)
from poisson_ou.functionals import PROP_D2F_GE0, PROP_D2F_LE0, PROP_DF_LE0

space = GroundSpace((1.0,))
engine = SemigroupEngine(space)  # certificates run on the engine's truncated grid

F = from_rule(lambda c: np.exp(-0.5 * float(c[0])), name="exp(-c/2)")
print("D F at c=2:", add_one_cost(F, (2,), 0))
print("D^2 F at c=2:", second_difference(F, (2,), 0, 0))

# exp(-ac) is decreasing with convex differences: both certificates pass
for prop in (PROP_DF_LE0, PROP_D2F_GE0):
    cert = certify_monotonicity(engine, F, prop)
    print(f"{prop}: valid={cert.valid} over {cert.states_checked} states")

# a step indicator is decreasing but its second difference changes sign;
# the certificate returns the witness state
step = from_rule(lambda c: 1.0 if c[0] <= 1 else 0.0, name="1{c<=1}")
print("step DF<=0:", certify_monotonicity(engine, step, PROP_DF_LE0).valid)
bad = certify_monotonicity(engine, step, PROP_D2F_LE0)
print(f"step D2F<=0: valid={bad.valid}, witness={bad.witness}")
