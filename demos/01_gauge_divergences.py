"""Divergence kernels from gauge pairs.

A gauge is a pair (h, tau) with tau increasing and h convex on the image
of tau; it generates the kernel

    d(t, s) = h(tau(t)) - h(tau(s)) - (tau(t) - tau(s)) h'(tau(s)),

which is nonnegative and vanishes exactly on the diagonal.  This script
walks through the built-in gauges, the derived scalar functions, the
deformed exponential, kernel-preserving reparametrizations and Legendre
conjugation.
"""

import numpy as np

from dgeo import (
    EquivalenceTransform,
    apply_equivalence,
    builtin_gauge,
    conjugate_fn,
    d_htau,
    derived,
    exp_htau,
    legendre_conjugate,
)

rng = np.random.default_rng(0)

# --- the four built-in gauges ------------------------------------------------
gauges = [
    builtin_gauge("kl"),                 # h = r log r, tau = id: relative entropy
    builtin_gauge("power", q=1.5),       # Tsallis-style power family
    builtin_gauge("escort", q=1.5),      # same kernel generator ell, tau = t^q
    builtin_gauge("scaled_log", lam=2.0),
]

print("kernel values d(2, 1):")
for g in gauges:
    print(f"  {g.name:16s} {d_htau(g, 2.0, 1.0):.6f}")

# the kl kernel at (2, 1) is the classic 2 log 2 - 1
print("\nkl closed form 2 log 2 - 1 =", 2 * np.log(2) - 1)

# --- derived functions --------------------------------------------------------
# ell = h' o tau is the monotone representation; chi = 1/ell' reweights
# escort integrals; m and gamma are the second and third diagonal
# derivatives of the kernel and determine the induced geometry.
g = builtin_gauge("power", q=1.5)
der = derived(g)
t = 2.0
print("\npower(1.5) at t = 2:")
print("  ell  =", der.ell.value(t))
print("  m    =", der.m(t), " (equals t^-q)")
print("  chi  =", der.chi(t), "(equals t^q)")
print("  chi * m =", der.chi(t) * der.m(t), "= tau'(t)")

# --- deformed exponential ------------------------------------------------------
# the inverse of ell, clipped to 0 below and +inf above its range
print("\nexp of power(1.5): exp(0) =", exp_htau(g, 0.0),
      " exp(1.99) =", f"{exp_htau(g, 1.99):.3g}",
      " exp(2.0) =", exp_htau(g, 2.0), "(pole at 1/(q-1) = 2)")

# --- equivalence transforms -----------------------------------------------------
# (a1, a2, a3, lam) reparametrize (h, tau) without changing the kernel
tr = EquivalenceTransform(a1=0.7, a2=-0.2, a3=0.4, lam=2.0)
g2 = apply_equivalence(g, tr)
ts = rng.uniform(0.3, 4.0, size=(8, 2))
gap = np.max(np.abs(d_htau(g, ts[:, 0], ts[:, 1]) - d_htau(g2, ts[:, 0], ts[:, 1])))
print(f"\nkernel gap under an equivalence transform: {gap:.2e}")

# --- Legendre conjugation ------------------------------------------------------
# h* of the kl gauge is the shifted exponential u -> e^{u-1};
# conjugating twice recovers h.
kl = builtin_gauge("kl")
print("\nkl conjugate at u = 1:", legendre_conjugate(kl, 1.0), "(= e^0)")
h_star_star = conjugate_fn(conjugate_fn(kl.h))
r = 1.7
print("double conjugate vs h at r = 1.7:",
      h_star_star.value(r), "vs", float(kl.h.value(r)))
