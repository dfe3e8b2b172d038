"""Deformed exponential families on a finite sample space.

Builds the coin family and a three-atom power family, then shows what the
divergence induces on them: the metric and connection in natural
coordinates, the Hessian potential whose second derivatives reproduce the
metric, the canonical divergence identity, the conformal variant for
escort gauges, and projection onto the family by moment matching.
"""

import numpy as np

from dgeo import builtin_gauge
from dgeo import discrete as dc

# --- the coin family -----------------------------------------------------------
coin = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), builtin_gauge("kl"),
                             np.array([[1.0, 0.0]]), np.zeros(2))
theta = np.array([np.log(3.0)])
psi, p = dc.normalize(coin, theta)
print("coin at theta = log 3: density =", p, " psi =", psi)
print("metric at theta = 0:", dc.metric(coin, [0.0])[0, 0], "(Bernoulli information 1/4)")

# --- a power family on three atoms ----------------------------------------------
T = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
fam = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)),
                            builtin_gauge("power", q=1.5), T, np.zeros(3))
th = np.array([0.3, -0.2])
print("\npower(1.5) family:")
print("  psi gradient:", dc.psi_gradient(fam, th))
print("  metric eigenvalues:", np.linalg.eigvalsh(dc.metric(fam, th)))
print("  connection sup-norm:", np.max(np.abs(dc.connection_raw(fam, th))),
      "(natural coordinates are affine)")

# the potential's Hessian reproduces the metric: its gradient is the vector
# eta of tau-moments, so first differences of eta are compared with the
# metric and first differences of the potential with eta
rep = dc.hessian_check(fam, th)
print("  Hessian-potential defect:", rep.max_defect)

# the canonical divergence of the Hessian structure equals the divergence
defect = dc.canonical_divergence_check(fam, th, [-0.1, 0.4])
print("  canonical divergence defect:", defect)

# --- escort gauge: the conformal branch ------------------------------------------
# tau = chi = t^q, so the rescaled structure has the normalizer itself as
# potential and the canonical divergence equals divergence / tau-mass
esc = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)),
                            builtin_gauge("escort", q=1.5), T, np.zeros(3))
res = dc.conformal_check(esc, th, [-0.1, 0.4])
print("\nescort(1.5) conformal defect:", res.defect, " tau-mass:", res.itau)
print("hessian_check on escort:", dc.hessian_check(esc, th).status,
      "(tau-mass varies, the direct Hessian identity does not apply)")

# --- projection and entropy maximization ----------------------------------------
sub = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), builtin_gauge("kl"),
                            np.array([[-1.0, 0.0, 1.0]]), np.zeros(3))
rho = np.array([0.6, 0.3, 0.1])
proj = dc.pythagorean_project(sub, rho)
print("\nprojection of", rho, "->", np.round(proj.p, 6))
lhs = dc.divergence(sub, rho, dc.normalize(sub, [0.8])[1])
rhs = dc.divergence(sub, rho, proj.p) + dc.divergence(sub, proj.p,
                                                      dc.normalize(sub, [0.8])[1])
print("Pythagorean additivity gap:", abs(lhs - rhs))
em = dc.entropy_max_check(sub, rho)
print("entropy:", em.entropy_source, "->", em.entropy_projected,
      "(projection cannot lower it)")
