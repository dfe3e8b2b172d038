import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgeo.errors import DomainError, InfeasibleError
from dgeo.gauge import (EquivalenceTransform, Interval, ScalarFn, apply_equivalence,
                        builtin_gauge, derived, gauge_from_pair)
from dgeo import discrete as dc


def coin_spec():
    return dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), builtin_gauge("kl"),
                                 np.array([[1.0, 0.0]]), np.zeros(2))


def simplex_spec(gauge, m=3):
    # full-simplex family: T rows e_i - e_m for i < m
    T = np.zeros((m - 1, m))
    for i in range(m - 1):
        T[i, i] = 1.0
        T[i, -1] = -1.0
    return dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(m)), gauge, T, np.zeros(m))


def sub_spec(gauge, m=3):
    # one-statistic subfamily on m atoms
    T = np.array([np.linspace(-1.0, 1.0, m)])
    return dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(m)), gauge, T, np.zeros(m))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_weights_must_be_positive():
    with pytest.raises(DomainError):
        dc.DiscreteBase(np.array([1.0, 0.0]))


def test_rank_condition_rejects_ones_combination():
    # row equals the all-ones row
    with pytest.raises(DomainError):
        dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), builtin_gauge("kl"),
                              np.array([[1.0, 1.0, 1.0]]), np.zeros(3))


def test_dimension_bound():
    with pytest.raises(DomainError):
        dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), builtin_gauge("kl"),
                              np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_theta_box_enforced():
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), builtin_gauge("kl"),
                                 np.array([[1.0, 0.0]]), np.zeros(2),
                                 theta_box=np.array([[-1.0, 1.0]]))
    dc.normalize(spec, [0.5])
    with pytest.raises(DomainError):
        dc.normalize(spec, [2.0])


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_coin_normalize_at_zero():
    # mass equation e^{th-psi-1} + e^{-psi-1} = 1 gives psi = log(1+e^th) - 1
    psi, p = dc.normalize(coin_spec(), [0.0])
    assert psi == pytest.approx(math.log(2.0) - 1.0, abs=1e-13)
    assert p == pytest.approx([0.5, 0.5], abs=1e-13)


def test_coin_normalize_at_log3():
    psi, p = dc.normalize(coin_spec(), [math.log(3.0)])
    assert psi == pytest.approx(math.log(4.0) - 1.0, abs=1e-13)
    assert p == pytest.approx([0.75, 0.25], abs=1e-13)


def test_uniform_by_symmetry_power_gauge():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    # zero-sum T columns are not needed; theta = 0 kills the statistic term
    psi, p = dc.normalize(spec, [0.0, 0.0])
    assert p == pytest.approx(np.full(3, 1 / 3), abs=1e-13)
    assert psi == pytest.approx(-float(derived(spec.gauge).ell.value(1 / 3)), rel=1e-12)


def test_normalize_mass_tolerance():
    spec = simplex_spec(builtin_gauge("power", q=1.5), m=4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, p = dc.normalize(spec, rng.normal(size=3))
        assert abs(float(spec.base.weights @ p) - 1.0) <= 1e-12


def test_normalize_infeasible_interval():
    # three atoms each above 0.5 cannot have unit mass
    g = builtin_gauge("kl", interval=Interval(0.5, 10.0))
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), g,
                                 np.array([[1.0, 0.0, -1.0]]), np.zeros(3))
    with pytest.raises(InfeasibleError):
        dc.normalize(spec, [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_theta(bad):
    with pytest.raises(DomainError, match="finite"):
        dc.normalize(coin_spec(), [bad])


def test_batched_solve_matches_one_at_a_time():
    # rows are solved together from one start each; the per-row loop of the
    # public normalize is the reference, equal up to rounding
    spec = simplex_spec(builtin_gauge("power", q=1.5), m=4)
    thetas = np.random.default_rng(8).normal(size=(6, 3))
    psi, P, ok = dc._solve_psi(spec, thetas)
    assert ok.all()
    for th, psi_b, p_b in zip(thetas, psi, P):
        psi_1, p_1 = dc.normalize(spec, th)
        assert psi_b == pytest.approx(psi_1, abs=1e-14)
        assert np.allclose(p_b, p_1, rtol=1e-13, atol=0)


def test_batched_solve_flags_rows_without_a_member():
    # on I = (0.5, 10) three atoms cannot have unit mass at any theta
    g = builtin_gauge("kl", interval=Interval(0.5, 10.0))
    spec3 = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), g,
                                  np.array([[1.0, 0.0, -1.0]]), np.zeros(3))
    _, _, ok = dc._solve_psi(spec3, np.array([[0.0], [1.0]]))
    assert not ok.any()
    g = builtin_gauge("kl", interval=Interval(0.1, 10.0))
    spec2 = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), g,
                                  np.array([[1.0, 0.0]]), np.zeros(2))
    psi, P, ok = dc._solve_psi(spec2, np.array([[0.0], [3.0]]))
    assert ok.tolist() == [True, False]   # theta = 3 needs p(x2) = 1/(1 + e^3) < 0.1
    assert P[0] == pytest.approx([0.5, 0.5], abs=1e-13)


def test_geometry_checks_batch_their_solves(monkeypatch):
    # the member, the tau-mass probes and the 2n axis rows of the first
    # differences (both step sizes) are one solver call each
    spec = simplex_spec(builtin_gauge("power", q=1.5), m=4)
    calls = []
    solve = dc._solve_psi

    def counted(spec, thetas, psi0=None):
        calls.append(np.atleast_2d(thetas).shape[0])
        return solve(spec, thetas, psi0)

    monkeypatch.setattr(dc, "_solve_psi", counted)
    th, th2 = np.array([0.2, -0.1, 0.15]), np.array([-0.1, 0.3, 0.05])
    rep = dc.hessian_check(spec, th)
    assert rep.status == "ok" and rep.max_defect <= 1e-5
    assert len(calls) <= 3 and sum(calls) == 1 + 6 + 12
    calls.clear()
    assert dc.canonical_divergence_check(spec, th, th2) <= 1e-7
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# flat Newton on (p, psi) for gauges without a closed-form exp
# ---------------------------------------------------------------------------


def pair_gauge(b=0.5, c=1.0, I=Interval(0.0, math.inf)):
    """gauge_from_pair of tau = id and ell = log t + b t + c on I (b = 0.5,
    c = 1 is the benchmark's custom gauge)."""
    tau = ScalarFn(lambda t: np.asarray(t, float) + 0.0,
                   lambda t: np.ones_like(np.asarray(t, float)),
                   lambda t: np.zeros_like(np.asarray(t, float)), I)
    ell = ScalarFn(lambda t: np.log(t) + b * np.asarray(t, float) + c,
                   lambda t: 1.0 / np.asarray(t, float) + b,
                   lambda t: -np.asarray(t, float) ** -2.0, I)
    return gauge_from_pair(tau, ell, a=1.0)


BENCH_TRANSFORM = EquivalenceTransform(0.3, -0.2, 0.1, 1.5)


def random_spec(gauge, rng, m):
    w = rng.uniform(0.5, 1.5, size=m)
    return dc.DiscreteFamilySpec(dc.DiscreteBase(w / w.sum()), gauge, rng.normal(size=(1, m)),
                                 np.zeros(m))


def solve_bracketed(spec, thetas):
    """_solve_psi with the flat Newton switched off, so every row takes the
    bracketed path that inverts ell at each psi step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "_FLAT_ITER", 0)
        return dc._solve_psi(spec, thetas)


def assert_same_solve(a, b):
    (psi, P, ok), (psi_b, P_b, ok_b) = a, b
    assert np.array_equal(ok, ok_b)
    assert np.all(np.abs(psi[ok] - psi_b[ok]) <= 1e-13 * np.maximum(1.0, np.abs(psi_b[ok])))
    assert np.all(np.abs(P[ok] - P_b[ok]) <= 1e-13 * P_b[ok])


@pytest.mark.parametrize("tr", [None, BENCH_TRANSFORM], ids=["pair", "transformed"])
def test_flat_solve_takes_few_ell_points(tr):
    # cold solves of 4-atom families: the flat Newton takes ell (and ell' at
    # the same points) at 4-5 steps x 4 atoms per row, plus ell(1 / sum mu)
    # once per call; the bracketed path inverts ell for every atom at every
    # psi step
    g = pair_gauge() if tr is None else apply_equivalence(pair_gauge(), tr)
    d = derived(g)
    points = [0]

    def value(t):
        points[0] += np.size(t)
        return d.ell.value(t)

    g = replace(g, derived_fns=replace(d, ell=replace(d.ell, value=value)))
    rng = np.random.default_rng(5)
    flat = nested = 0
    for _ in range(10):
        spec = random_spec(g, rng, 4)
        thetas = rng.normal(scale=0.3, size=(5, 1))
        points[0] = 0
        assert dc._solve_psi(spec, thetas)[2].all()
        flat, points[0] = flat + points[0], 0
        assert solve_bracketed(spec, thetas)[2].all()
        nested += points[0]
    assert flat / 50 <= 20
    assert nested >= 3 * flat


@given(b=st.floats(0.05, 3.0), c=st.floats(-2.0, 2.0), bounded=st.booleans(),
       tr=st.one_of(st.none(), st.builds(EquivalenceTransform, st.floats(-1.0, 1.0),
                                         st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                         st.floats(0.5, 3.0))),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_flat_solve_matches_bracketed(b, c, bounded, tr, seed):
    # on I = (0.5, 10) every density value must exceed 0.5, so some rows
    # have no member; both paths must flag the same rows
    g = pair_gauge(b, c, Interval(0.5, 10.0) if bounded else Interval(0.0, math.inf))
    if tr is not None:
        g = apply_equivalence(g, tr)
    rng = np.random.default_rng(seed)
    spec = random_spec(g, rng, int(rng.integers(2, 7)))
    thetas = rng.normal(scale=float(rng.choice([0.1, 0.5, 3.0])), size=(6, 1))
    assert_same_solve(dc._solve_psi(spec, thetas), solve_bracketed(spec, thetas))


def test_flat_solve_falls_back_when_unsettled(monkeypatch):
    # two flat steps settle no row; every row then takes the bracketed path
    spec = random_spec(pair_gauge(), np.random.default_rng(7), 4)
    thetas = np.array([[-0.4], [0.3], [0.7]])
    bracketed = solve_bracketed(spec, thetas)
    assert bracketed[2].all()
    monkeypatch.setattr(dc, "_FLAT_ITER", 2)
    psi, P, ok = dc._solve_psi(spec, thetas)
    assert ok.all()
    assert np.array_equal(psi, bracketed[0]) and np.array_equal(P, bracketed[1])


@pytest.mark.parametrize("tr", [None, BENCH_TRANSFORM], ids=["pair", "transformed"])
def test_flat_solve_warm_start(tr):
    # the first-order (psi, p) of a nearby member gives the cold answer; a
    # row whose warm p leaves I starts cold and is solved all the same
    g = pair_gauge() if tr is None else apply_equivalence(pair_gauge(), tr)
    rng = np.random.default_rng(6)
    spec = random_spec(g, rng, 6)
    m = dc._member(spec, [0.2])
    thetas = np.array([[0.19], [0.25], [0.6], [-1.0]])
    cold = dc._solve_psi(spec, thetas)
    assert cold[2].all()
    warm_psi, warm_p = m.warm(thetas)
    assert_same_solve(dc._solve_psi(spec, thetas, (warm_psi, warm_p)), cold)
    warm_p[1] = -1.0
    assert_same_solve(dc._solve_psi(spec, thetas, (warm_psi, warm_p)), cold)


def test_psi_monotone_in_nonnegative_directions():
    spec = coin_spec()
    psis = [dc.normalize(spec, [th])[0] for th in (-1.0, 0.0, 0.5, 2.0)]
    assert all(a < b for a, b in zip(psis, psis[1:]))


# ---------------------------------------------------------------------------
# divergence / entropy
# ---------------------------------------------------------------------------


def test_divergence_zero_on_equal():
    spec = coin_spec()
    p = np.array([0.3, 0.7])
    assert dc.divergence(spec, p, p) == 0.0


def test_divergence_kl_example():
    spec = coin_spec()
    val = dc.divergence(spec, np.array([0.75, 0.25]), np.array([0.5, 0.5]))
    assert val == pytest.approx(0.75 * math.log(1.5) + 0.25 * math.log(0.5), rel=1e-12)


def test_divergence_asymmetric():
    spec = coin_spec()
    p, p2 = np.array([0.75, 0.25]), np.array([0.5, 0.5])
    assert dc.divergence(spec, p, p2) != pytest.approx(dc.divergence(spec, p2, p), rel=1e-6)


def test_entropy_kl_uniform():
    assert dc.entropy(coin_spec(), np.array([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-12)


def test_entropy_point_mass_limit():
    spec = coin_spec()
    vals = [dc.entropy(spec, np.array([1 - e, e])) for e in (1e-4, 1e-8, 1e-12)]
    assert all(abs(a) > abs(b) for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1]) < 1e-10


def test_entropy_power2_uniform():
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), builtin_gauge("power", q=2.0),
                                 np.array([[1.0, 0.0]]), np.zeros(2))
    # h_2(r) = (r - 1) - log r, so the entropy of the uniform pair is 1 - 2 log 2
    assert dc.entropy(spec, np.array([0.5, 0.5])) == pytest.approx(1 - 2 * math.log(2), rel=1e-12)


# ---------------------------------------------------------------------------
# psi derivatives
# ---------------------------------------------------------------------------


def test_coin_gradient_at_zero():
    assert dc.psi_gradient(coin_spec(), [0.0]) == pytest.approx([0.5], abs=1e-13)


@pytest.mark.parametrize("gauge,theta", [
    (builtin_gauge("kl"), [0.4, -0.3]),
    (builtin_gauge("power", q=1.5), [0.3, 0.2]),
    (builtin_gauge("escort", q=1.5), [0.3, -0.1]),
])
def test_gradient_hessian_match_finite_differences(gauge, theta):
    spec = simplex_spec(gauge)
    th = np.asarray(theta, dtype=float)
    grad = dc.psi_gradient(spec, th)
    hess = dc.psi_hessian(spec, th)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (dc.normalize(spec, th + e)[0] - dc.normalize(spec, th - e)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        fd_row = (dc.psi_gradient(spec, th + e) - dc.psi_gradient(spec, th - e)) / (2 * h)
        assert hess[i] == pytest.approx(fd_row, rel=1e-5, abs=1e-8)


def test_hessian_positive_definite_power():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    H = dc.psi_hessian(spec, [0.2, -0.4])
    assert np.all(np.linalg.eigvalsh(H) > 0)


# ---------------------------------------------------------------------------
# metric and connection
# ---------------------------------------------------------------------------


def _metric_fd_oracle(spec, th, h=1e-4):
    # mixed second difference of the divergence, -d^2 D(p_a, p_b)/da db at a=b=theta
    n = spec.dim
    G = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h

            def D(a, b):
                return dc.divergence(spec, dc.normalize(spec, a)[1], dc.normalize(spec, b)[1])

            G[i, j] = -(D(th + ei, th + ej) - D(th + ei, th - ej)
                        - D(th - ei, th + ej) + D(th - ei, th - ej)) / (4 * h * h)
    return G


def test_coin_metric_is_bernoulli_fisher():
    assert float(dc.metric(coin_spec(), [0.0])[0, 0]) == pytest.approx(0.25, abs=1e-13)
    oracle = _metric_fd_oracle(coin_spec(), np.array([0.0]))
    assert float(oracle[0, 0]) == pytest.approx(0.25, abs=1e-6)


def test_kl_connection_vanishes():
    spec = simplex_spec(builtin_gauge("kl"))
    assert np.max(np.abs(dc.connection_raw(spec, [0.3, -0.2]))) < 1e-15


def test_power_metric_matches_divergence_hessian():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    th = np.array([0.25, -0.15])
    assert dc.metric(spec, th) == pytest.approx(_metric_fd_oracle(spec, th), abs=1e-4)


def test_power_connection_small_in_theta():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    assert np.max(np.abs(dc.connection_raw(spec, [0.25, -0.15]))) < 1e-8


def test_metric_positive_definite_everywhere_probed():
    rng = np.random.default_rng(11)
    for gauge in (builtin_gauge("kl"), builtin_gauge("power", q=1.2),
                  builtin_gauge("escort", q=1.5)):
        spec = simplex_spec(gauge)
        for _ in range(5):
            G = dc.metric(spec, rng.normal(scale=0.4, size=2))
            assert np.min(np.linalg.eigvalsh(G)) > 0


# ---------------------------------------------------------------------------
# Hessian structure / canonical divergence
# ---------------------------------------------------------------------------


def test_coin_hessian_structure():
    rep = dc.hessian_check(coin_spec(), [0.1])
    assert rep.status == "ok"
    assert rep.max_defect <= 1e-6
    assert rep.connection_max <= 1e-8


def test_power_hessian_structure_four_atoms():
    spec = simplex_spec(builtin_gauge("power", q=1.5), m=4)
    rep = dc.hessian_check(spec, [0.2, -0.1, 0.15])
    assert rep.status == "ok"
    assert rep.max_defect <= 1e-5
    assert rep.connection_max <= 1e-8


@given(kind=st.sampled_from(["kl", "power", "pair", "transformed"]), q=st.floats(1.2, 1.8),
       m=st.integers(2, 50), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_hessian_check_resolves_the_metric(kind, q, m, n, seed):
    # first differences of eta and of the potential leave rounding only, so
    # a relative error of 1e-8 in the metric shows; q stays away from 1,
    # where ln_q's cancellation costs about eps / |1 - q| in every density
    g = {"kl": lambda: builtin_gauge("kl"), "power": lambda: builtin_gauge("power", q=q),
         "pair": pair_gauge,
         "transformed": lambda: apply_equivalence(pair_gauge(), BENCH_TRANSFORM)}[kind]()
    rng = np.random.default_rng(seed)
    n = min(n, m - 1)
    w = rng.uniform(0.5, 1.5, size=m)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w / w.sum()), g, rng.normal(size=(n, m)),
                                 np.zeros(m))
    rep = dc.hessian_check(spec, rng.normal(scale=0.3, size=n))
    assert rep.status == "ok" and rep.max_defect <= 1e-10


def test_escort_hessian_not_applicable():
    spec = simplex_spec(builtin_gauge("escort", q=1.5))
    rep = dc.hessian_check(spec, [0.1, 0.1])
    assert rep.status == "not_applicable"
    assert rep.itau_spread > 1e-8


def test_canonical_divergence_zero_at_equal():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    assert dc.canonical_divergence_check(spec, [0.2, 0.1], [0.2, 0.1]) <= 1e-14


def test_canonical_divergence_coin():
    assert dc.canonical_divergence_check(coin_spec(), [0.0], [math.log(3.0)]) <= 1e-9


def test_canonical_divergence_power_random_pairs():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    rng = np.random.default_rng(5)
    for _ in range(10):
        th, th2 = rng.normal(scale=0.4, size=(2, 2))
        assert dc.canonical_divergence_check(spec, th, th2) <= 1e-7


def test_geometry_report_json():
    rep = dc.hessian_check(coin_spec(), [0.0])
    obj = rep.to_json()
    assert obj["status"] == "ok"
    json.dumps(obj)


# ---------------------------------------------------------------------------
# conformal branch
# ---------------------------------------------------------------------------


def test_conformal_escort():
    spec = simplex_spec(builtin_gauge("escort", q=1.5))
    rng = np.random.default_rng(7)
    for _ in range(5):
        th, th2 = rng.normal(scale=0.4, size=(2, 2))
        res = dc.conformal_check(spec, th, th2)
        assert res.defect <= 1e-7
        assert res.grad_defect <= 1e-8


def test_conformal_zero_at_equal():
    spec = simplex_spec(builtin_gauge("escort", q=1.5))
    assert dc.conformal_check(spec, [0.2, -0.1], [0.2, -0.1]).defect <= 1e-14


def test_conformal_rejects_power_gauge():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    with pytest.raises(DomainError):
        dc.conformal_check(spec, [0.1, 0.0], [0.0, 0.1])


# ---------------------------------------------------------------------------
# projection, entropy maximality
# ---------------------------------------------------------------------------


def test_project_recovers_member():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    th = np.array([0.3, -0.2])
    _, p = dc.normalize(spec, th)
    res = dc.pythagorean_project(spec, p)
    assert res.theta == pytest.approx(th, abs=1e-8)
    assert res.moment_residual <= 1e-10


def test_project_full_simplex_returns_rho():
    spec = simplex_spec(builtin_gauge("kl"), m=2)
    rho = np.array([0.9, 0.1])
    res = dc.pythagorean_project(spec, rho)
    assert res.p == pytest.approx(rho, abs=1e-10)


def test_pythagorean_additivity_random():
    rng = np.random.default_rng(17)
    for gauge in (builtin_gauge("kl"), builtin_gauge("power", q=1.5)):
        spec = sub_spec(gauge, m=3)
        for _ in range(25):
            raw = rng.uniform(0.1, 1.0, size=3)
            rho = raw / raw.sum()
            thp = rng.normal(scale=0.5, size=1)
            res = dc.pythagorean_project(spec, rho)
            _, pp = dc.normalize(spec, thp)
            lhs = dc.divergence(spec, rho, pp)
            rhs = dc.divergence(spec, rho, res.p) + dc.divergence(spec, res.p, pp)
            assert abs(lhs - rhs) <= 1e-9


def test_entropy_projection_maximizes():
    rng = np.random.default_rng(23)
    for gauge in (builtin_gauge("kl"), builtin_gauge("power", q=2.0)):
        spec = sub_spec(gauge, m=3)
        raw = rng.uniform(0.1, 1.0, size=3)
        rho = raw / raw.sum()
        res = dc.entropy_max_check(spec, rho)
        assert res.maximized
        assert res.entropy_projected > res.entropy_source  # strict for generic rho


def test_entropy_max_requires_zero_offset():
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), builtin_gauge("kl"),
                                 np.array([[1.0, 0.0, -1.0]]), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(DomainError):
        dc.entropy_max_check(spec, np.full(3, 1 / 3))


def test_project_reports_no_solution_when_boxed_out():
    from dgeo.errors import NoSolutionError

    # the moments of rho need theta well outside the allowed box
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), builtin_gauge("kl"),
                                 np.array([np.linspace(-1.0, 1.0, 3)]), np.zeros(3),
                                 theta_box=np.array([[-0.01, 0.01]]))
    rho = np.array([0.01, 0.04, 0.95])
    with pytest.raises(NoSolutionError):
        dc.pythagorean_project(spec, rho, max_iter=20, restarts=3)


def test_member_projection_is_identity_on_entropy():
    spec = sub_spec(builtin_gauge("kl"), m=3)
    _, p = dc.normalize(spec, [0.4])
    res = dc.entropy_max_check(spec, p)
    assert res.entropy_projected == pytest.approx(res.entropy_source, abs=1e-10)


# ---------------------------------------------------------------------------
# affine reparametrization
# ---------------------------------------------------------------------------


def test_affine_identity():
    assert dc.affine_reparam_check(coin_spec(), np.eye(1), np.zeros(1), np.zeros(1)) == 0.0


def test_affine_coin_example():
    defect = dc.affine_reparam_check(coin_spec(), np.array([[2.0]]),
                                     np.array([1.0]), np.array([0.0]))
    assert defect <= 1e-12


def test_affine_power_random():
    rng = np.random.default_rng(29)
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    A = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    defect = dc.affine_reparam_check(spec, A, rng.normal(size=2), rng.normal(size=2))
    assert defect <= 1e-10


def test_affine_rejects_singular():
    with pytest.raises(DomainError):
        dc.affine_reparam_check(coin_spec(), np.zeros((1, 1)), np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_spec_json_roundtrip():
    spec = simplex_spec(builtin_gauge("power", q=1.5))
    obj = dc.spec_to_json(spec)
    spec2 = dc.spec_from_json(json.dumps(obj))
    psi1, p1 = dc.normalize(spec, [0.2, -0.1])
    psi2, p2 = dc.normalize(spec2, [0.2, -0.1])
    assert psi1 == psi2
    assert p1 == pytest.approx(p2, abs=0)


def test_spec_json_missing_field():
    with pytest.raises(DomainError):
        dc.spec_from_json({"weights": [1, 1]})


@pytest.mark.parametrize("obj", [[1, 2], "[1, 2]", 5,
                                 {"weights": [1, 1], "gauge": {"kind": "kl"}, "T": [[1, 0]],
                                  "c": "x"},
                                 {"weights": [1, "a"], "gauge": {"kind": "kl"}, "T": [[1, 0]],
                                  "c": [0, 0]},
                                 {"weights": [1, 1, 1], "gauge": {"kind": "kl"},
                                  "T": [[1, 0, 0], [1]], "c": [0, 0, 0]},
                                 {"weights": [1, 1], "gauge": {"kind": "kl"}, "T": [[1, 0]],
                                  "c": [0, 0], "theta_box": {"a": 1}}])
def test_spec_json_malformed_raises_domain_error(obj):
    with pytest.raises(DomainError):
        dc.spec_from_json(obj)
