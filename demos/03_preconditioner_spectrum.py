#!/usr/bin/env python3
"""Watch the preconditioned spectrum collapse onto the predicted limit.

As the barrier parameter shrinks, the spectrum of the preconditioned
condensed operator clusters at one, with the stragglers converging to the
eigenvalues of the Gram submatrix indexed by the solution support.  The
limiting condition number is therefore predictable from the support alone,
while the unpreconditioned operator becomes hopelessly ill-conditioned.
"""

import numpy as np

from fftlasso import GridShape, IpmConfig, Mask, observe, solve
from fftlasso.diagnostics import preconditioned_spectrum

rng = np.random.default_rng(5)
n = 48
grid = GridShape((n,))
mask = Mask(np.sort(rng.choice(n, 6, replace=False)), grid)

beta_true = np.zeros(n)
beta_true[[4, 17, 30]] = [1.8, -1.4, 1.1]
b = observe(beta_true, mask) + 0.02 * rng.standard_normal(mask.n_observed)

probes = []


def watch(state, record):
    probes.append(preconditioned_spectrum(state, mask))


beta, report = solve(b, mask, IpmConfig(lam=0.4, tol=1e-8), observer=watch)
print(f"solver: {report.status} in {report.iterations} iterations\n")

print(f"{'iter':>4} {'mu':>9} {'kappa(P^-1K)':>13} {'kappa(K)':>10} "
      f"{'|eig-1|<=0.05':>14}")
for i, p in enumerate(probes, start=1):
    print(f"{i:>4} {p.duality_measure:>9.1e} {p.kappa_observed:>13.3f} "
          f"{p.kappa_unpreconditioned:>10.1e} "
          f"{p.unit_cluster_size:>7} of {2 * n}")

final = probes[-1]
print(f"\nsolution support size: {final.n_active}")
print(f"predicted unit-cluster size 2n - support = {final.predicted_cluster_size}")
print(f"predicted limiting condition number      = {final.kappa_predicted:.4f}")
print(f"observed at the final iterate            = {final.kappa_observed:.4f}")
