"""
Explicit certificates for both verdicts
========================================

A separable verdict comes with a constructive decomposition gamma >=
gamma_A (+) gamma_B, rebuilt by running the iteration backwards.  An
entangled verdict points at a concrete eigenvector witnessing the
failure.  Both can be checked independently of the engine that found
them, which is the point: you do not have to trust the iteration.
"""

import numpy as np

from gsep import (
    decide,
    dump_certificate,
    random_separable_cm,
    reconstruct,
    symplectic_form,
    tmss,
    verify_certificate,
)

# Build a state that is separable by construction and recover a
# certificate for it.
cm, planted_a, planted_b = random_separable_cm(2, 1, seed=7)
verdict = decide(cm)
print("verdict:", verdict.kind.value, "after", verdict.step, "steps")

cert = reconstruct(verdict.trace)
report = verify_certificate(cm, cert)
print("certificate valid:", report.valid)
print("margins (gamma_A, gamma_B, remainder):",
      ["%.2e" % m for m in report.margins])

# The three checks behind report.valid, done by hand: both recovered
# blocks are valid single-party states and the remainder is PSD.
j_a = symplectic_form(cm.n)
j_b = symplectic_form(cm.m)
zeros = np.zeros((2 * cm.n, 2 * cm.m))
remainder = cm.gamma - np.block([[cert.gamma_A, zeros], [zeros.T, cert.gamma_B]])
print("lambda_min(gamma_A - iJ) =",
      "%.2e" % np.linalg.eigvalsh(cert.gamma_A - 1j * j_a)[0].real)
print("lambda_min(gamma_B - iJ) =",
      "%.2e" % np.linalg.eigvalsh(cert.gamma_B - 1j * j_b)[0].real)
print("lambda_min(remainder)    =", "%.2e" % np.linalg.eigvalsh(remainder)[0])

# The recovered blocks need not equal the planted ones (decompositions
# are far from unique), they just have to witness separability.
print("recovered gamma_A equals planted:",
      np.allclose(cert.gamma_A, planted_a))

# Certificates serialize to JSON for archiving next to the input.
print(dump_certificate(cert, report)[:120], "...")

# For an entangled state the witness is the bottom eigenvector of the
# final A block against the symplectic form.
verdict = decide(tmss(1.0))
final = verdict.trace.steps[-1]
eigs, vecs = np.linalg.eigh(final.A - 1j * symplectic_form(1))
print("entangled witness eigenvalue:", "%.3f" % eigs[0])
print("witness vector:", np.round(vecs[:, 0], 6))
