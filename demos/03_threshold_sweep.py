"""
Noise thresholds along a perturbation ray
==========================================

Adding isotropic noise to an entangled state eventually washes out the
entanglement.  ``sweep`` classifies gamma + eps * P on a grid of eps and
``find_threshold`` finds the crossing point.  No separable state fails the
transpose test, so the crossing never lies below the transpose threshold
eps_PPT = -ppt_check(state).margin (for identity noise); for an entangled
state that fails the test, ``find_threshold`` brackets eps_PPT cheaply
and one verdict there confirms it.  For the two-mode squeezed state with
identity noise the crossing is known in closed form, eps* = 1 - exp(-2r),
which makes a nice end-to-end check.
"""

import numpy as np

from gsep import find_threshold, ppt_check, sweep, tmss

state = tmss(1.0)
eps_star = 1.0 - np.exp(-2.0)
print("analytic threshold: eps* =", eps_star)

# A log-spaced approach to the threshold from below shows the step count
# staying flat: for this family every point decides at the first step.
offsets = np.geomspace(1e-6, 1e-1, 6)
grid = np.concatenate([eps_star - offsets, eps_star + offsets])
print("\neps,verdict,steps")
for point in sweep(state, np.eye(4), grid):
    print(f"{point.eps:.12f},{point.kind.value},{point.steps}")

# The search recovers the crossing to the bracket width, on the
# transpose threshold.
found = find_threshold(state)
print("\nfound threshold:", found)
print("transpose threshold:", -ppt_check(state).margin)
print("difference from analytic:", "%.2e" % abs(found - eps_star))

# The threshold grows with the squeezing strength, saturating at 1.
print("\nr,threshold,transpose threshold,analytic")
for r in (0.1, 0.5, 1.0, 2.0):
    found = find_threshold(tmss(r))
    print(f"{r},{found:.12f},{-ppt_check(tmss(r)).margin:.12f},{1.0 - np.exp(-2.0 * r):.12f}")
