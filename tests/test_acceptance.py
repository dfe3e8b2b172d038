"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
from scipy import integrate

from conftest import ks_critical, ks_statistic_vs_density
from dgeo.gauge import (
    EquivalenceTransform,
    apply_equivalence,
    builtin_gauge,
    conjugate_fn,
    d_htau,
    derived,
    legendre_conjugate,
)
from dgeo import discrete as dc
from dgeo import lln
from dgeo import qgauss as qg


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _six_gauges():
    return [
        builtin_gauge("kl"),
        builtin_gauge("power", q=1.2),
        builtin_gauge("power", q=1.5),
        builtin_gauge("power", q=2.0),
        builtin_gauge("escort", q=1.5),
        builtin_gauge("scaled_log", lam=2.0),
    ]


def _simplex_spec(gauge, m=3):
    T = np.zeros((m - 1, m))
    for i in range(m - 1):
        T[i, i] = 1.0
        T[i, -1] = -1.0
    return dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(m)), gauge, T, np.zeros(m))


def _coin():
    return dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), builtin_gauge("kl"),
                                 np.array([[1.0, 0.0]]), np.zeros(2))


def test_criterion_01_divergence_kernel_suite():
    start = time.time()
    rng = np.random.default_rng(1001)
    ok = True
    for g in _six_gauges():
        d = derived(g)
        ts = rng.uniform(0.05, 8.0, size=1000)
        ss = rng.uniform(0.05, 8.0, size=1000)
        vals = d_htau(g, ts, ss)
        ok &= bool(np.all(vals >= 0.0))
        tiny = vals <= 1e-12
        ok &= bool(np.all(np.abs(ts[tiny] - ss[tiny]) <= 1e-5))
        ok &= bool(np.all(d_htau(g, ts[:5], ts[:5]) == 0.0))
        for t, s in zip(ts, ss):
            ls = float(d.ell.value(s))
            oracle, _ = integrate.quad(
                lambda u: (d.ell.value(u) - ls) * g.tau.d1(u), s, t,
                epsabs=1e-12, epsrel=1e-12, limit=100)
            if abs(float(d_htau(g, t, s)) - oracle) > 1e-10:
                ok = False
                break
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _report(1, f"divergence kernel suite, {elapsed:.2f}s", ok)


def test_criterion_02_equivalence_invariance():
    rng = np.random.default_rng(1002)
    gauges = _six_gauges()
    worst_kernel = 0.0
    worst_fp = 0.0
    grid = np.geomspace(0.3, 4.0, 64)
    for trial in range(100):
        g = gauges[trial % len(gauges)]
        tr = EquivalenceTransform(a1=float(rng.normal()), a2=float(rng.normal()),
                                  a3=float(rng.normal()),
                                  lam=float(rng.uniform(0.5, 3.0)))
        g2 = apply_equivalence(g, tr)
        ts = rng.uniform(0.2, 5.0, size=(20, 2))
        worst_kernel = max(worst_kernel, float(np.max(np.abs(
            d_htau(g, ts[:, 0], ts[:, 1]) - d_htau(g2, ts[:, 0], ts[:, 1])))))
        d1, d2 = derived(g), derived(g2)
        worst_fp = max(worst_fp, float(np.max(np.abs(d1.m(grid) - d2.m(grid)))),
                       float(np.max(np.abs(d1.gamma(grid) - d2.gamma(grid)))))
    _report(2, f"equivalence invariance (kernel {worst_kernel:.1e}, fp {worst_fp:.1e})",
            worst_kernel <= 1e-12 and worst_fp <= 1e-8)


def test_criterion_03_legendre_involution():
    ok = True
    for u in np.linspace(-2.0, 2.5, 19):
        if abs(legendre_conjugate(builtin_gauge("kl"), float(u))
               - math.exp(u - 1.0)) > 1e-10:
            ok = False
    for kind, q in (("kl", None), ("power", 1.2), ("power", 1.5), ("power", 2.0)):
        g = builtin_gauge(kind, q=q)
        star2 = conjugate_fn(conjugate_fn(g.h))
        for r in np.geomspace(0.4, 3.0, 12):
            if abs(float(star2.value(float(r))) - float(g.h.value(r))) > 1e-8:
                ok = False
    _report(3, "Legendre involution", ok)


def test_criterion_04_discrete_geometry():
    start = time.time()
    ok = True
    specs = [(_coin(), np.array([0.2])),
             (_simplex_spec(builtin_gauge("power", q=1.5), m=4),
              np.array([0.2, -0.1, 0.15]))]
    for spec, th in specs:
        grad = dc.psi_gradient(spec, th)
        hess = dc.psi_hessian(spec, th)
        h = 1e-5
        for i in range(spec.dim):
            e = np.zeros(spec.dim)
            e[i] = h
            fd = (dc.normalize(spec, th + e)[0] - dc.normalize(spec, th - e)[0]) / (2 * h)
            ok &= abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
            fd_row = (dc.psi_gradient(spec, th + e) - dc.psi_gradient(spec, th - e)) / (2 * h)
            ok &= bool(np.all(np.abs(hess[i] - fd_row)
                              <= 1e-5 * np.maximum(1.0, np.abs(fd_row))))
        G = dc.metric(spec, th)
        n = spec.dim
        fdG = np.empty((n, n))
        hh = 1e-4
        for i in range(n):
            for j in range(n):
                ei = np.zeros(n); ei[i] = hh
                ej = np.zeros(n); ej[j] = hh

                def D(a, b):
                    return dc.divergence(spec, dc.normalize(spec, a)[1],
                                         dc.normalize(spec, b)[1])

                fdG[i, j] = -(D(th + ei, th + ej) - D(th + ei, th - ej)
                              - D(th - ei, th + ej) + D(th - ei, th - ej)) / (4 * hh * hh)
        ok &= bool(np.max(np.abs(G - fdG)) <= 1e-4)
        ok &= bool(np.max(np.abs(dc.connection_raw(spec, th))) <= 1e-8)
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    _report(4, f"discrete geometry, {elapsed:.2f}s", ok)


def test_criterion_05_hessian_structure():
    ok = True
    rng = np.random.default_rng(1005)
    for spec, th in ((_coin(), np.array([0.1])),
                     (_simplex_spec(builtin_gauge("power", q=1.5), m=4),
                      np.array([0.2, -0.1, 0.15]))):
        rep = dc.hessian_check(spec, th)
        ok &= rep.status == "ok" and rep.max_defect <= 1e-5
    spec = _simplex_spec(builtin_gauge("power", q=1.5))
    worst = 0.0
    for _ in range(50):
        th, th2 = rng.normal(scale=0.4, size=(2, 2))
        worst = max(worst, dc.canonical_divergence_check(spec, th, th2))
    ok &= worst <= 1e-7
    _report(5, f"Hessian structure (canonical defect {worst:.1e})", ok)


def test_criterion_06_conformal_case():
    spec = _simplex_spec(builtin_gauge("escort", q=1.5))
    rng = np.random.default_rng(1006)
    worst_d = worst_g = 0.0
    for _ in range(25):
        th, th2 = rng.normal(scale=0.4, size=(2, 2))
        res = dc.conformal_check(spec, th, th2)
        worst_d = max(worst_d, res.defect)
        worst_g = max(worst_g, res.grad_defect)
    _report(6, f"conformal case (defect {worst_d:.1e}, grad {worst_g:.1e})",
            worst_d <= 1e-7 and worst_g <= 1e-8)


def test_criterion_07_pythagorean_relation():
    rng = np.random.default_rng(1007)
    T = np.array([np.linspace(-1.0, 1.0, 3)])
    ok = True
    worst = 0.0
    for gauge in (builtin_gauge("kl"), builtin_gauge("power", q=1.5)):
        spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), gauge, T, np.zeros(3))
        for _ in range(25):
            raw = rng.uniform(0.1, 1.0, size=3)
            rho = raw / raw.sum()
            thp = rng.normal(scale=0.5, size=1)
            res = dc.pythagorean_project(spec, rho)
            _, pp = dc.normalize(spec, thp)
            gap = abs(dc.divergence(spec, rho, pp)
                      - dc.divergence(spec, rho, res.p) - dc.divergence(spec, res.p, pp))
            worst = max(worst, gap)
            em = dc.entropy_max_check(spec, rho)
            ok &= em.maximized
    ok &= worst <= 1e-9
    _report(7, f"Pythagorean relation (additivity {worst:.1e})", ok)


def test_criterion_08_qgaussian_normalization():
    ok = True
    for q, d in ((1.2, 1), (1.5, 1)):
        p = qg.QGaussianParams(q, d, np.zeros(1), [[1.0]])
        mass, _ = integrate.quad(
            lambda u: qg.density(p, np.array([[math.tan(u)]]))[0] / math.cos(u) ** 2,
            -math.pi / 2, math.pi / 2, epsabs=1e-11, epsrel=1e-11, limit=300)
        ok &= abs(mass - 1.0) <= 1e-8
    p2 = qg.QGaussianParams(1.2, 2, np.zeros(2), np.eye(2))
    mass2, _ = integrate.dblquad(
        lambda u1, u2: qg.density(p2, np.array([[math.tan(u1), math.tan(u2)]]))[0]
        / math.cos(u1) ** 2 / math.cos(u2) ** 2,
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, epsabs=1e-10)
    ok &= abs(mass2 - 1.0) <= 1e-8
    lam1 = qg.lambda_q(1.0, 2, np.eye(2))
    gaps = [abs(qg.lambda_q(qv, 2, np.eye(2)) - lam1) for qv in (1.01, 1.001, 1.0001)]
    ok &= gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-3
    _report(8, "q-Gaussian normalization and q->1 continuity", ok)


def test_criterion_09_marginal_consistency():
    start = time.time()
    worst = 0.0
    for q in (1.2, 1.5):
        p = qg.QGaussianParams(q, 1, np.zeros(1), [[1.0]])
        worst = max(worst, qg.marginal_check(qg.repetition(p, 2),
                                             qg.repetition(p, 1)).max_defect)
        worst = max(worst, qg.marginal_check(qg.repetition(p, 3),
                                             qg.repetition(p, 1),
                                             epsabs=1e-9).max_defect)
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed < 60.0
    _report(9, f"marginal consistency (defect {worst:.1e}, {elapsed:.1f}s)", ok)


def test_criterion_10_sampler_exactness():
    p = qg.QGaussianParams(1.5, 1, np.zeros(1), [[1.0]])
    law = qg.repetition(p, 1)
    n = 100_000
    x = qg.sample_joint(law, n, seed=20240809).ravel()

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return qg.joint_density(law, t.reshape(-1, 1, 1)).reshape(t.shape)

    dist = ks_statistic_vs_density(x, pdf, center=0.0)
    ok = dist < ks_critical(n, alpha=0.01)
    m = qg.coordinate_moments(law)
    se2 = float(np.std(x ** 2)) / math.sqrt(n)
    se4 = float(np.std(x ** 4)) / math.sqrt(n)
    ok &= abs(float(np.mean(x ** 2)) - m.var) <= 3 * se2
    ok &= abs(float(np.mean(x ** 4)) - m.central4) <= 3 * se4
    _report(10, f"sampler exactness (KS {dist:.2e} < {ks_critical(n, 0.01):.2e})", ok)


def test_criterion_11_mle():
    ok = True
    for q in (1.0, 1.2, 1.5):
        res = qg.mle(q, 1, 1, np.array([[0.83]]), "identity_mean_only")
        ok &= bool(np.allclose(res.v, [0.83], atol=1e-12))
    rng = np.random.default_rng(1011)
    for k in (1, 2, 3):
        res = qg.mle(1.5, 1, k, rng.normal(size=(k, 1)), "full")
        ok &= res.defect <= 1e-6
    x = rng.normal(size=(7, 2))
    res = qg.mle(1.0, 2, 7, x, "identity_mean_only")
    ok &= bool(np.allclose(res.v, x.mean(axis=0), atol=1e-10))
    _report(11, "maximum likelihood", ok)


def test_criterion_12_chebyshev_bound_verification():
    start = time.time()
    cfg = lln.SimConfig(q=1.5, d=1, v=(0.0,), k_max=1000, reps=500, seed=777,
                        eps_grid=(0.25, 0.5, 1.0))
    table = lln.verify_bounds(cfg)
    elapsed = time.time() - start
    ok = table.all_pass and {r.k for r in table.rows} == {10, 100, 1000}
    ok &= elapsed < 300.0
    _report(12, f"Chebyshev bound verification ({len(table.rows)} cells, "
                f"{elapsed:.1f}s)", ok)


def test_criterion_13_lln_surrogate():
    start = time.time()
    cfg = lln.SimConfig(q=1.5, d=1, v=(2.0,), k_max=10_000, reps=100, seed=4242)
    rep = lln.run_lln(cfg)
    med = rep.median_deviation(0)
    idx = [rep.k_schedule.index(k) for k in (100, 1000, 10000)]
    ok = med[idx[0]] >= med[idx[1]] >= med[idx[2]]
    summ = lln.borel_cantelli_summability(cfg, 0.5, k_terms=100_000)
    ok &= summ.final_relative_change <= 1e-3
    ok &= bool(np.all(np.diff(summ.partial_sums) >= 0))
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _report(13, f"LLN surrogate (medians {med[idx[0]]:.2e} >= {med[idx[1]]:.2e} "
                f">= {med[idx[2]]:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_14_determinism():
    cfg = lln.SimConfig(q=1.5, d=1, v=(0.0,), k_max=1000, reps=120, seed=99)
    rep_a = lln.run_lln(cfg)
    rep_b = lln.run_lln(cfg)
    csv_a = rep_a.averages_csv()
    ok = csv_a == rep_b.averages_csv()
    tab_a = lln.verify_bounds(cfg, rep_a).to_csv()
    tab_b = lln.verify_bounds(cfg, rep_b).to_csv()
    ok &= tab_a == tab_b
    samp_a = qg.sample_joint(qg.repetition(cfg.params(), 3), 50, seed=5)
    samp_b = qg.sample_joint(qg.repetition(cfg.params(), 3), 50, seed=5)
    ok &= bool(np.array_equal(samp_a, samp_b))
    _report(14, "seeded determinism", ok)
