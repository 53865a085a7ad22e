"""
Where the iteration beats the transpose test
=============================================

The partial transpose criterion (momentum sign flip on one side) is the
cheap necessary test for separability.  With one mode per side it is
also sufficient, so the two methods must agree there.  With two modes
per side PPT-entangled states exist: the transpose test passes while the
state is entangled, and the iteration finds that out.  One such state is
bundled as a test fixture, after the family of Werner and Wolf,
Phys. Rev. Lett. 86, 3658 (2001).
"""

from pathlib import Path

import numpy as np

from gsep import decide, load_cm, ppt_check, random_cm

# Single mode per side: sample mixed states and compare verdicts.  The
# transpose margin and the decision agree on every clear-cut instance.
rng = np.random.default_rng(1)
agree = total = 0
for _ in range(200):
    cm = random_cm(1, 1, "mixed", seed=rng)
    report = ppt_check(cm)
    if abs(report.margin) <= 1e-8:
        continue
    verdict = decide(cm)
    total += 1
    agree += (verdict.kind.value == "separable") == report.ppt
print(f"one mode per side: {agree}/{total} agreements")

# Two modes per side: the bundled fixture passes the transpose test
# with margin ~ 0 yet the iteration certifies entanglement.
fixture = Path(__file__).parent.parent / "tests" / "fixtures" / "ppt_entangled_2x2.json"
cm = load_cm(fixture)
report = ppt_check(cm)
print("fixture transpose test:", "passes" if report.ppt else "fails",
      f"(margin {report.margin:+.2e})")
verdict = decide(cm)
print("fixture decision:", verdict.kind.value,
      f"at step {verdict.step} with margin {verdict.margin:+.3f}")
