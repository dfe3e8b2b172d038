import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dgeo.errors import DomainError, InfeasibleError
from dgeo.gauge import (EquivalenceTransform, Interval, ScalarFn, apply_equivalence,
                        builtin_gauge, d_htau, derived, gauge_from_pair)
from dgeo import cli
from dgeo import discrete as dc
from dgeo import gauge as gauge_module
from dgeo.gauge import _member_at, _rtsafe, exp_htau
from conftest import rtsafe_on_two_copies


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
    psi, (P, *_), ok = dc._solve_psi(spec, thetas)
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
    psi, (P, *_), ok = dc._solve_psi(spec2, np.array([[0.0], [3.0]]))
    assert ok.tolist() == [True, False]   # theta = 3 needs p(x2) = 1/(1 + e^3) < 0.1
    assert P[0] == pytest.approx([0.5, 0.5], abs=1e-13)


def solve_arrays(spec, thetas):
    """_solve_psi's psi, each array the solve read at its root and the flags."""
    psi, at, ok = dc._solve_psi(spec, thetas)
    return [psi, *(v for v in at if v is not None), ok]


@pytest.mark.parametrize("kind,kw", [("kl", {}), ("power", {"q": 0.5}), ("power", {"q": 1.5}),
                                     ("escort", {"q": 1.5}), ("scaled_log", {"lam": 2.0}),
                                     ("kl", {"interval": Interval(0.5, 10.0)})],
                         ids=["kl", "power0.5", "power1.5", "escort1.5", "scaled_log2", "kl-I"])
def test_one_row_solve_is_the_batch_loop_on_that_row(monkeypatch, kind, kw):
    # a one-row psi-solve runs _rtsafe on Python floats; the array loop on the
    # row duplicated gives the same psi and P to the bit after as many
    # evaluate calls.  theta up to 6 clips densities, and on I = (0.5, 10)
    # some rows have no member.  (Row 0 of a two-row solve is not the
    # reference: numpy may round a 1-row matmul differently from a 2-row one.)
    rng = np.random.default_rng(17)
    w = rng.uniform(0.5, 1.5, size=50)
    w /= w.sum()
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w), builtin_gauge(kind, **kw),
                                 rng.normal(size=(3, 50)), np.zeros(50))
    one, two = [], []

    def counted(evaluate, x, a, b):
        one.append(0)

        def ev(x, live):
            one[-1] += 1
            return evaluate(x, live)
        return _rtsafe(ev, x, a, b)

    for th in rng.normal(scale=0.3, size=(6, 3)).tolist() + [[6.0, -2.0, 1.0], [0.0, 0.0, 0.0]]:
        monkeypatch.setattr(dc, "_rtsafe", counted)
        got = solve_arrays(spec, np.array([th]))
        monkeypatch.setattr(dc, "_rtsafe", lambda *args: rtsafe_on_two_copies(*args, two))
        ref = solve_arrays(spec, np.array([th]))
        assert len(got) == len(ref) and all(u.tobytes() == v.tobytes() for u, v in zip(got, ref))
    assert one == two and len(one) == 8


def test_geometry_checks_batch_their_solves(monkeypatch):
    # the member and the 4n axis rows of the first differences (both step
    # sizes) are one solver call each; the tau-mass gate reads the exact
    # gradient on those rows and solves nothing of its own
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
    assert len(calls) == 2 and sum(calls) == 1 + 12
    calls.clear()
    assert dc.canonical_divergence_check(spec, th, th2) <= 1e-7
    assert calls == [1, 1]
    calls.clear()
    assert dc.hessian_check(simplex_spec(builtin_gauge("escort", q=1.5), m=4),
                            th).status == "not_applicable"
    assert calls == [1]


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
    (psi, (P, *_), ok), (psi_b, (P_b, *_), ok_b) = a, b
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
    psi, (P,), ok = dc._solve_psi(spec, thetas)
    assert ok.all()
    assert np.array_equal(psi, bracketed[0]) and np.array_equal(P, bracketed[1][0])


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


def tau_moments(spec, P):
    """eta = sum_x mu T tau(p), for one density or a batch of rows."""
    return (np.asarray(spec.gauge.tau.value(P), dtype=float) * spec.base.weights) @ spec.T.T


def bench_family(kind, seed, m=12, n=2, q=1.5):
    """A benchmark-style family (weights in [0.5, 1.5], T and theta normal) on
    the named gauge, and its theta."""
    g = {"kl": lambda: builtin_gauge("kl"), "power": lambda: builtin_gauge("power", q=q),
         "escort": lambda: builtin_gauge("escort", q=q),
         "scaled_log": lambda: builtin_gauge("scaled_log", lam=2.0), "pair": pair_gauge,
         "transformed": lambda: apply_equivalence(pair_gauge(), BENCH_TRANSFORM)}[kind]()
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=m)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w / w.sum()), g, rng.normal(size=(n, m)),
                                 np.zeros(m))
    return spec, rng.normal(scale=0.3, size=n)


@given(kind=st.sampled_from(["kl", "power", "pair", "transformed"]), q=st.floats(0.9, 1.8),
       m=st.integers(2, 50), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(kind="power", q=0.999, m=50, n=3, seed=1)
@example(kind="power", q=1.001, m=50, n=3, seed=2)
@settings(max_examples=40)
def test_hessian_check_resolves_the_metric(kind, q, m, n, seed):
    # first differences of eta and of the potential leave rounding only, so
    # a relative error of 1e-8 in the metric shows; near q = 1 this needs
    # ln_q and exp_q free of the cancellation in r**(1-q) - 1
    rep = dc.hessian_check(*bench_family(kind, seed, m, min(n, m - 1), q))
    assert rep.status == "ok" and rep.max_defect <= 1e-10


@pytest.mark.parametrize("kind", ["kl", "power", "escort", "scaled_log", "pair",
                                  "transformed"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_itau_gradient_matches_differences_of_the_tau_mass(kind, seed):
    # oracle: Richardson central differences of I_tau over members normalized
    # one at a time at theta +- h e_i and theta +- (h/2) e_i
    spec, th = bench_family(kind, seed)
    h = 1e-3
    rows = th + np.concatenate([s * h * np.eye(th.size) for s in (1.0, -1.0, 0.5, -0.5)])
    itau = np.array([spec.gauge.tau.value(dc.normalize(spec, row)[1]) @ spec.base.weights
                     for row in rows])
    up, down, up2, down2 = np.split(itau, 4)
    oracle = (4.0 * (up2 - down2) / h - (up - down) / (2.0 * h)) / 3.0
    np.testing.assert_allclose(dc._member(spec, th).itau_gradient(), oracle,
                               rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("kind", ["escort", "scaled_log"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eta_jacobian_is_metric_plus_itau_term(kind, seed):
    # d eta_j / d theta_i = g_ij + d_i I_tau d_j psi and grad Phi = eta +
    # psi grad I_tau, on gauges whose tau-mass varies
    spec, th = bench_family(kind, seed, m=50, n=3)
    m = dc._member(spec, th)
    d_itau = m.itau_gradient()
    assert np.max(np.abs(d_itau)) > 1e-3
    H, grad_phi, _, _ = dc._first_differences(m)
    tol = 1e-10 * max(1.0, np.max(np.abs(H)))
    np.testing.assert_allclose(H, m.metric() + np.outer(d_itau, m.grad), rtol=0, atol=tol)
    np.testing.assert_allclose(grad_phi, tau_moments(spec, m.p) + m.psi * d_itau,
                               rtol=0, atol=tol)


def test_escort_hessian_not_applicable():
    spec = simplex_spec(builtin_gauge("escort", q=1.5))
    rep = dc.hessian_check(spec, [0.1, 0.1])
    assert rep.status == "not_applicable"
    assert rep.itau_gradient > 1e-8


@pytest.mark.parametrize("make", [
    lambda: simplex_spec(builtin_gauge("escort", q=1.5)),
    lambda: bench_family("escort", 4, m=50, n=3, q=0.7)[0],
    lambda: bench_family("scaled_log", 5, m=50, n=3)[0],
], ids=["escort-simplex", "escort0.7", "scaled_log"])
def test_critical_point_of_a_varying_tau_mass_is_not_applicable(monkeypatch, make):
    # with c = 0 the density at theta = 0 is flat, where the gradient of a
    # varying tau-mass vanishes; on the axis rows it is about h times the
    # Hessian of I_tau, which the gate reads
    spec = make()
    th = np.zeros(spec.dim)
    assert np.max(np.abs(dc._member(spec, th).itau_gradient())) <= 1e-15
    calls = []
    solve = dc._solve_psi

    def counted(spec, thetas, psi0=None):
        calls.append(np.atleast_2d(thetas).shape[0])
        return solve(spec, thetas, psi0)

    monkeypatch.setattr(dc, "_solve_psi", counted)
    rep = dc.hessian_check(spec, th)
    assert rep.status == "not_applicable" and rep.hess_potential is None
    assert rep.itau_gradient > 1e-6
    assert calls == [1, 4 * spec.dim]
    with pytest.raises(DomainError):
        dc.canonical_divergence_check(spec, th, np.full(spec.dim, 0.1))
    with pytest.raises(DomainError):
        dc.canonical_divergence_check(spec, np.full(spec.dim, 0.1), th)


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
    obj = json.loads(json.dumps(cli._jsonable(rep)))
    assert obj["status"] == "ok"
    assert list(obj) == [f.name for f in fields(rep)]


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
        dc.pythagorean_project(spec, rho)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_project_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # no residual meets a negative or NaN tol, so the projection would run
    # every start and report that it did not converge
    with pytest.raises(DomainError, match="tol must be a positive finite real"):
        dc.pythagorean_project(coin_spec(), [0.5, 0.5], tol=tol)


def projection_family(kind, q, bounded, boxed, m, n, seed):
    """A family on the named gauge, on I = (0.5, 10) when bounded, and a rho
    with the tau-moments of one of its members: that member plus a step
    along which neither the mass nor any moment moves (tau is affine in t on
    every gauge drawn here)."""
    I = Interval(0.5, 10.0) if bounded else Interval(0.0, math.inf)
    g = {"kl": lambda: builtin_gauge("kl", interval=I),
         "power": lambda: builtin_gauge("power", q=q, interval=I),
         "pair": lambda: pair_gauge(I=I),
         "transformed": lambda: apply_equivalence(pair_gauge(I=I), BENCH_TRANSFORM)}[kind]()
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    T = rng.normal(size=(n, m))
    th = rng.normal(scale=0.3, size=n)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w), g, T, np.zeros(m))
    while True:  # on the bounded I a member needs every density value above 0.5
        try:
            p = dc.normalize(spec, th)[1]
            break
        except InfeasibleError:
            th = th / 2
    if boxed:
        half = rng.uniform(0.05, 0.5, size=n)
        spec = replace(spec, theta_box=np.column_stack([th - half, th + half]))
    null = np.linalg.svd(np.vstack([T, np.ones(m)]) * w)[2][n + 1:]
    delta = rng.normal(size=m - n - 1) @ null
    room = np.min(p - I.lo) / max(np.max(np.abs(delta)), 1e-300)
    return spec, p + rng.uniform(0.0, 0.9) * room * delta


@given(kind=st.sampled_from(["kl", "power", "pair", "transformed"]), q=st.floats(1.2, 1.8),
       bounded=st.booleans(), boxed=st.booleans(), m=st.integers(2, 12), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kind="pair", q=1.5, bounded=True, boxed=True, m=6, n=2, seed=3)
@example(kind="power", q=1.5, bounded=True, boxed=False, m=8, n=1, seed=4)
@settings(max_examples=40)
def test_projection_is_a_member_with_the_moments_of_rho(kind, q, bounded, boxed, m, n, seed):
    spec, rho = projection_family(kind, q, bounded, boxed, m, min(n, m - 1), seed)
    target = tau_moments(spec, rho)
    res = dc.pythagorean_project(spec, rho)
    np.testing.assert_allclose(dc.normalize(spec, res.theta)[1], res.p, rtol=0, atol=1e-10)
    scale = max(1.0, float(np.max(np.abs(target))))
    assert np.max(np.abs(tau_moments(spec, res.p) - target)) <= 1e-10 * scale
    dc.density_vector(spec, res.p)


def test_projection_solves_no_psi(monkeypatch):
    # the projection is one Newton on (theta, psi) and the density; it never
    # normalizes a trial theta
    calls = []
    solve = dc._solve_psi

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(dc, "_solve_psi", counted)
    for g in (builtin_gauge("kl"), builtin_gauge("power", q=1.5), pair_gauge(),
              apply_equivalence(pair_gauge(), BENCH_TRANSFORM)):
        spec = sub_spec(g, m=4)
        rho = np.array([0.1, 0.2, 0.3, 0.4])
        assert dc.pythagorean_project(spec, rho).moment_residual <= 1e-10
        assert dc.entropy_max_check(spec, rho).maximized
    assert calls == []


def test_projection_halves_a_step_that_leaves_the_domain_of_exp_q():
    # exp_q with q = 1.5 is defined for arguments below 2 only; from the cold
    # start the full first step takes one atom to about 3, so the step is
    # halved, and the projection still recovers rho, a member (its first
    # three atoms share T)
    g = builtin_gauge("power", q=1.5)
    args = []

    def recorded(u):
        args.append(float(np.max(u)))
        return g.exp_fn(u)

    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(4)), replace(g, exp_fn=recorded),
                                 np.array([[-1.0, -1.0, -1.0, 0.5]]), np.zeros(4))
    rho = np.array([0.04, 0.04, 0.04, 0.88])
    res = dc.pythagorean_project(spec, rho)
    assert args[1] >= g.ell_range[1]
    assert args[2] == pytest.approx(0.5 * (args[0] + args[1]), rel=1e-12)
    assert res.moment_residual <= 1e-10
    assert res.p == pytest.approx(rho, abs=1e-12)


def test_projection_keeps_a_start_whose_cold_density_leaves_I():
    # theta_box excludes 0 and every start theta in it has a member, but the
    # cold density of its first atom, exp(0.95 theta) >= 13, lies above
    # I = (0.5, 10); the start is taken again from its member
    g = builtin_gauge("kl", interval=Interval(0.5, 10.0))
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.array([0.05, 0.95])), g,
                                 np.array([[1.0, 0.0]]), np.zeros(2),
                                 theta_box=np.array([[2.7, 2.9]]))
    rho = dc.normalize(spec, [2.854])[1]
    res = dc.pythagorean_project(spec, rho)
    assert res.theta == pytest.approx([2.854], abs=1e-9)
    assert res.p == pytest.approx(rho, abs=1e-10)


# Draw 155 of the projection stress generator (ROADMAP item 1, seed 1): the pair
# gauge on (0, inf), no box, rho the member at theta* = (-7.37, 1.78, 1.68, 6.00),
# with densities from 1.3e-9 to 10.6
FLOOR_FAMILY = {
    "w": [0.11929881614184032, 0.08136380289282547, 0.09447288563044236, 0.03661085112868502,
          0.6682536442062068],
    "T": [[0.7433933365502896, 1.5434371750121356, -1.035565370454778, 0.3790209403244595,
           -0.02042082710444448],
          [0.4798989886404432, -0.5791185508571353, 1.2509363568774132, 0.6597835393138908,
           0.5421974034801685],
          [2.0710099791234406, -0.6948144462830553, -0.0505222843323399, 0.7127660752479942,
           1.037142871114371],
          [0.08914465585342667, 0.6772318752990303, 1.4780562545966762, -0.17321089535552586,
           -0.24211734571690632]],
    "rho": [9.120955180099701e-06, 1.2506326307932643e-09, 10.584549140918686,
            3.911005898598047e-06, 6.863883859639293e-05],
}


def test_projection_takes_a_done_point_at_the_rounding_floor():
    # the joint Jacobian is near singular there, so the step never settles; the
    # moments and the mass meet the stop rule and r is at rounding level, where
    # no step lowers the merit.  That point is taken, and it is the member at
    # its theta; without the floor rule every start breaks (NoSolutionError)
    w, T, rho = (np.array(FLOOR_FAMILY[k]) for k in ("w", "T", "rho"))
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w), pair_gauge(), T, np.zeros(w.size))
    res = dc.pythagorean_project(spec, rho)
    p = dc.normalize(spec, res.theta)[1]
    assert np.max(np.abs(p - res.p)) <= 1e-10 * max(1.0, np.max(np.abs(p)))
    target = tau_moments(spec, rho)
    assert res.moment_residual <= 1e-10 * max(1.0, np.max(np.abs(target)))
    assert np.all(spec.gauge.I.contains(res.p)) and abs(w @ res.p - 1.0) <= dc._MASS_TOL


@pytest.mark.parametrize("kind,w1", [("power", 0.4), ("escort", 0.5), ("pair", 0.5)])
def test_projection_retries_a_start_whose_cold_newton_stalls(kind, w1):
    # from a cold start (mass far from one) the joint step leaves theta_box
    # and the iteration stalls at its edge; the same start, taken again from
    # its member, converges (one psi-solve for that start)
    g = pair_gauge() if kind == "pair" else builtin_gauge(kind, q=1.5)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.array([w1, 1.0 - w1])), g,
                                 np.array([[1.0, 0.0]]), np.zeros(2),
                                 theta_box=np.array([[2.75, 3.25]]))
    rho = dc.normalize(spec, [3.0])[1]
    res = dc.pythagorean_project(spec, rho)
    assert res.theta == pytest.approx([3.0], abs=1e-9)
    assert res.p == pytest.approx(rho, abs=1e-10)


LEAN_KINDS = {"kl": lambda: builtin_gauge("kl"), "power": lambda: builtin_gauge("power", q=1.5),
              "escort": lambda: builtin_gauge("escort", q=1.5),
              "scaled_log": lambda: builtin_gauge("scaled_log", lam=2.0), "pair": pair_gauge,
              "transformed": lambda: apply_equivalence(pair_gauge(), BENCH_TRANSFORM)}

# (member kernel or ell evaluations, np.linalg.solve calls, iterations) per
# projection, as the projection took them when it built its rows and residual
# anew at each step and read exp_fn where it now reads the kernel; a far rho
# halves some steps
LEAN_PINNED = {
    ("kl", False): (5, 4, 5), ("power", False): (5, 4, 5), ("escort", False): (5, 4, 5),
    ("scaled_log", False): (5, 4, 5), ("pair", False): (6, 4, 5),
    ("transformed", False): (6, 4, 5),
    ("kl", True): (7, 6, 7), ("power", True): (8, 6, 7), ("escort", True): (11, 7, 8),
    ("scaled_log", True): (9, 6, 7), ("pair", True): (10, 7, 8), ("transformed", True): (10, 7, 8),
}


@pytest.mark.parametrize("kind,far", list(LEAN_PINNED))
def test_projection_takes_the_pinned_evaluations_and_solves(monkeypatch, kind, far):
    # same iterates, same work: a change to a step, its halving or the stop rule
    # moves these counts.  A 50-atom, 3-statistic family drawn as the benchmark's
    # builtin ones are, or with far, a rho whose moments lie far from the cold start's
    calls = {"f": 0, "solve": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    g = LEAN_KINDS[kind]()
    if g.exp_fn is not None:  # a fresh built-in: its fused kernel, one call per point
        object.__setattr__(g, "_member_kernel", counted("f", g._member_kernel))
    else:
        d = derived(g)
        g = replace(g, derived_fns=replace(d, ell=replace(d.ell, value=counted("f", d.ell.value))))
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, size=50)
    w /= w.sum()
    T = rng.normal(size=(3, 50))
    raw = rng.uniform(0.5, 1.5, size=50) * (np.exp(0.8 * T[0]) if far else 1.0)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w), g, T, np.zeros(50))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    res = dc.pythagorean_project(spec, raw / (w @ raw))
    assert (calls["f"], calls["solve"], res.iterations) == LEAN_PINNED[kind, far]
    assert res.moment_residual <= 1e-10


@pytest.mark.parametrize("kind", ["kl", "power", "escort", "scaled_log"])
def test_fused_and_composed_kernels_take_the_same_iterates(kind):
    # a copy of the built-in with the composed kernel (exp_fn, then chi, tau and
    # tau' at its p) patched in for the fused one: on 50-atom, 3-statistic
    # families drawn as the benchmark's are (every other rho far from the cold
    # start), both give the same projection iterations and, to 1e-13, the same
    # p and normalize
    g = LEAN_KINDS[kind]()
    composed = replace(g)
    object.__setattr__(composed, "_member_kernel", lambda z: _member_at(g, exp_htau(g, z)))
    rng = np.random.default_rng(23)
    for i in range(8):
        w = rng.uniform(0.5, 1.5, size=50)
        w /= w.sum()
        T = rng.normal(size=(3, 50))
        raw = rng.uniform(0.5, 1.5, size=50) * (np.exp(0.8 * T[0]) if i % 2 else 1.0)
        th = rng.normal(scale=0.3, size=3)
        fused, other = (dc.DiscreteFamilySpec(dc.DiscreteBase(w), h, T, np.zeros(50))
                        for h in (g, composed))
        a, b = (dc.pythagorean_project(spec, raw / (w @ raw)) for spec in (fused, other))
        assert a.iterations == b.iterations
        assert np.all(np.abs(a.p - b.p) <= 1e-13 * np.maximum(1.0, np.abs(a.p)))
        (psi_a, p_a), (psi_b, p_b) = dc.normalize(fused, th), dc.normalize(other, th)
        assert abs(psi_a - psi_b) <= 1e-13 * max(1.0, abs(psi_a))
        assert np.all(np.abs(p_a - p_b) <= 1e-13 * np.maximum(1.0, np.abs(p_a)))


@pytest.mark.parametrize("kind", ["kl", "power"])
@pytest.mark.parametrize("n", [1, 2])
def test_projection_matches_mpmath_moment_equations(kind, n):
    # an independent solve: sum mu T p = sum mu T rho and sum mu p = 1 (tau = id)
    # for (theta, psi) by mpmath.findroot at 50 digits from theta = 0, with
    # p = exp(u - psi - 1) on kl and (1 - (u - psi)/2)**-2 on power(1.5)
    import mpmath

    rng = np.random.default_rng(40 + n)
    w, T, raw = rng.uniform(0.5, 1.5, size=6), rng.normal(size=(n, 6)), rng.uniform(0.3, 2.0, 6)
    g = builtin_gauge("kl") if kind == "kl" else builtin_gauge("power", q=1.5)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w), g, T, np.zeros(6))
    rho = raw / (w @ raw)
    res = dc.pythagorean_project(spec, rho)
    with mpmath.workdps(50):
        W, Tm, R = ([mpmath.mpf(v) for v in a] for a in (w, T.ravel(), rho))

        def density(x):
            u = [mpmath.fsum(x[i] * Tm[i * 6 + j] for i in range(n)) - x[n] for j in range(6)]
            return [mpmath.exp(v - 1) if kind == "kl" else (1 - v / 2) ** -2 for v in u]

        def equations(*x):
            p = density(x)
            return [mpmath.fsum(W[j] * Tm[i * 6 + j] * (p[j] - R[j]) for j in range(6))
                    for i in range(n)] + [mpmath.fsum(W[j] * p[j] for j in range(6)) - 1]

        mass = mpmath.fsum(W)
        psi0 = mpmath.log(mass) - 1 if kind == "kl" else 2 * (mpmath.sqrt(mass) - 1)
        root = mpmath.findroot(equations, [mpmath.mpf(0)] * n + [psi0])
        p_ref = np.array([float(v) for v in density(list(root))])
        eta_ref = np.array([float(mpmath.fsum(W[j] * Tm[i * 6 + j] * R[j] for j in range(6)))
                            for i in range(n)])
    assert np.max(np.abs(res.p - p_ref)) <= 1e-10
    assert np.max(np.abs(T @ (w * res.p) - eta_ref)) <= 1e-10 * max(1.0, np.max(np.abs(eta_ref)))


def test_member_projection_is_identity_on_entropy():
    spec = sub_spec(builtin_gauge("kl"), m=3)
    _, p = dc.normalize(spec, [0.4])
    res = dc.entropy_max_check(spec, p)
    assert res.entropy_projected == pytest.approx(res.entropy_source, abs=1e-10)


# ---------------------------------------------------------------------------
# one read of h o tau per check, with the numbers of the reads it replaced
# ---------------------------------------------------------------------------


def check_family(kind, seed, m, n):
    """bench_family with a theta', a member p' at it and a rho in I of mass one."""
    spec, th = bench_family(kind, seed, m, n)
    rng = np.random.default_rng(seed + 100)
    th2 = rng.normal(scale=0.3, size=n)
    raw = rng.uniform(0.5, 1.5, size=m)
    return spec, th, th2, dc.normalize(spec, th2)[1], raw / (spec.base.weights @ raw)


def two_read_kernel(g, t, s):
    """d_htau as it read h o tau before: -s once at t and once at s."""
    d = derived(g)
    ht, hs = -d.s(t), -d.s(s)
    val = np.asarray(ht - hs - (g.tau.value(t) - g.tau.value(s)) * d.ell.value(s), dtype=float)
    val = np.where((val < 0) & (val > -1e-12 * (1.0 + np.abs(ht) + np.abs(hs))), 0.0, val)
    return val if val.ndim else float(val)


def two_read_canonical(spec, theta, theta2):
    """(canonical_divergence_check, D) with Phi from s_star and D from divergence
    over two_read_kernel, as the check took them before."""
    w, g = spec.base.weights, spec.gauge
    m = dc._member(spec, theta)
    m2 = dc._member(spec, theta2, m.warm(theta2))
    P = np.stack([m2.p, m.p])
    s_star = np.asarray(derived(g).s_star(P), dtype=float)
    tau_mass = np.asarray(g.tau.value(P), dtype=float) @ w
    phi2, phi = -(s_star @ w) + np.array([m2.psi, m.psi]) * tau_mass
    canon = phi2 - phi + float((m.theta - m2.theta) @ tau_moments(spec, m.p))
    D = float(w @ np.asarray(two_read_kernel(g, m.p, m2.p), dtype=float))
    return abs(canon - D), D


def counting(g, reads):
    """g whose derived s and s_star append the size of each read to reads."""
    d = derived(g)

    def counted(key, f):
        def value(u):
            reads[key].append(np.size(u))
            return f(u)
        return value

    return replace(g, derived_fns=replace(d, s=counted("s", d.s),
                                          s_star=counted("s_star", d.s_star)))


@pytest.mark.parametrize("kind,m,n", [("kl", 50, 3), ("pair", 4, 1), ("transformed", 4, 1)])
@pytest.mark.parametrize("call", ["d_htau", "divergence", "canonical", "entropy_max"])
def test_each_check_reads_h_tau_once(kind, m, n, call):
    # each call reads -s once, on its 2m densities together (on a pair gauge that
    # is one quadrature), and Phi takes s_star from that read
    spec, th, th2, p2, rho = check_family(kind, 3, m, n)
    reads = {"s": [], "s_star": []}
    probe = replace(spec, gauge=counting(spec.gauge, reads))
    {"d_htau": lambda: d_htau(probe.gauge, rho, p2),
     "divergence": lambda: dc.divergence(probe, rho, p2),
     "canonical": lambda: dc.canonical_divergence_check(probe, th, th2),
     "entropy_max": lambda: dc.entropy_max_check(probe, rho)}[call]()
    assert reads == {"s": [2 * m], "s_star": []}


@pytest.mark.parametrize("kind", ["kl", "power", "escort", "scaled_log"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_read_checks_give_the_two_read_numbers(kind, seed):
    # the builtins are elementwise, so one read on the stacked densities gives
    # the bits of one read per density
    spec, th, th2, p2, rho = check_family(kind, seed, 50, 3)
    g, w = spec.gauge, spec.base.weights
    assert np.array_equal(d_htau(g, rho, p2), two_read_kernel(g, rho, p2))
    for t, s in ((rho[:, None], p2[:5]), (float(rho[0]), float(p2[0]))):  # broadcast, scalar
        assert np.array_equal(d_htau(g, t, s), two_read_kernel(g, t, s))
    assert dc.divergence(spec, rho, p2) == float(w @ two_read_kernel(g, rho, p2))
    res = dc.entropy_max_check(spec, rho)
    assert (res.entropy_source, res.entropy_projected) == (dc.entropy(spec, rho),
                                                           dc.entropy(spec, res.projection.p))
    if kind in ("kl", "power"):  # tau = id: a constant tau-mass
        assert dc.canonical_divergence_check(spec, th, th2) == two_read_canonical(spec, th, th2)[0]


@pytest.mark.parametrize("kind", ["pair", "transformed"])
@pytest.mark.parametrize("m,n", [(4, 1), (12, 2)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_read_checks_keep_the_pair_numbers_to_the_quadrature_rule(kind, m, n, seed):
    # stacked, the quadrature of h o tau may refine once more for the half that
    # converged first; its rule is 1e-12 relative
    spec, th, th2, p2, rho = check_family(kind, seed, m, n)
    g, w = spec.gauge, spec.base.weights

    def close(a, b, scale=None):
        return np.all(np.abs(a - b) <= 1e-12 * np.abs(b if scale is None else scale))

    assert close(d_htau(g, rho, p2), two_read_kernel(g, rho, p2))
    assert close(dc.divergence(spec, rho, p2), float(w @ two_read_kernel(g, rho, p2)))
    res = dc.entropy_max_check(spec, rho)
    assert close(res.entropy_source, dc.entropy(spec, rho))
    assert close(res.entropy_projected, dc.entropy(spec, res.projection.p))
    defect, D = two_read_canonical(spec, th, th2)
    # the defect is at rounding level: it may move by the rule's share of D
    assert close(dc.canonical_divergence_check(spec, th, th2), defect, D)


# ---------------------------------------------------------------------------
# one read of each member: the solve's kernel outputs at its root
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["kl", "escort"])
def test_each_solve_reads_the_kernel_once_at_its_root(monkeypatch, kind):
    # the bracketed solve reads the member kernel at each iterate and once more at
    # the root, whose (p, chi, tau, tau') are the solve's outputs; no check reads
    # exp_fn or exp_htau after it
    g = LEAN_KINDS[kind]()
    fused, log, evals = g._member_kernel, [], []

    def kernel(z):
        log.append((z.copy(), fused(z)))
        return log[-1][1]

    def exp(*args):
        raise AssertionError("exp_fn or exp_htau read")

    probe = replace(g, exp_fn=exp)
    object.__setattr__(probe, "_member_kernel", kernel)
    for mod in (dc, gauge_module):
        monkeypatch.setattr(mod, "exp_htau", exp)
    monkeypatch.setattr(gauge_module, "_exp_htau", exp, raising=False)

    def counted(evaluate, x, a, b):
        def ev(x, live):
            evals.append(1)
            return evaluate(x, live)
        return _rtsafe(ev, x, a, b)

    monkeypatch.setattr(dc, "_rtsafe", counted)
    spec, th = bench_family(kind, 4, m=50, n=3)
    spec = replace(spec, gauge=probe)
    for thetas in (th[None], th + np.random.default_rng(4).normal(scale=0.3, size=(5, 3))):
        log.clear()
        evals.clear()
        psi, at, ok = dc._solve_psi(spec, thetas)
        assert ok.all() and len(log) == len(evals) + 1
        z, out = log[-1]
        assert z.tobytes() == (thetas @ spec.T - spec.c - psi[:, None]).tobytes()
        assert all(u is v for u, v in zip(at, out)) and len(at) == 4
    th2 = th + 0.1
    if kind == "kl":
        assert dc.hessian_check(spec, th).status == "ok"
        assert dc.canonical_divergence_check(spec, th, th2) <= 1e-7
    else:
        assert dc.conformal_check(spec, th, th2).defect <= 1e-7
    assert dc.entropy_max_check(spec, dc.normalize(spec, th2)[1]).maximized


@pytest.mark.parametrize("kind", ["kl", "power", "escort", "scaled_log"])
def test_member_reads_ell_d2_once_and_ell_d1_never(kind):
    # chi comes from the solve's kernel read; chi' = -ell''(p) chi^2 is one ell'' read
    g = LEAN_KINDS[kind]()
    ell, calls = derived(g).ell, {"value": 0, "d1": 0, "d2": 0}

    def counted(key, f):
        def call(t):
            calls[key] += 1
            return f(t)
        return call

    for key in calls:  # the derived functions read this ScalarFn's attributes
        object.__setattr__(ell, key, counted(key, getattr(ell, key)))
    spec, th = bench_family(kind, 5, m=50, n=3)
    spec = replace(spec, gauge=g)
    calls.update(value=0, d1=0, d2=0)
    m = dc._member(spec, th)
    assert calls == {"value": 1, "d1": 0, "d2": 1}  # the value read is ell(1 / sum mu)
    assert np.array_equal(m.chi1, -ell.d2(m.p) * m.chi ** 2)
    assert np.all(np.abs(m.chi - derived(g).chi(m.p)) <= 4 * np.spacing(m.chi))


def test_divergence_checks_each_density_once(monkeypatch):
    spec, th, th2, p2, rho = check_family("kl", 3, 50, 3)
    checked = []
    require = Interval.require
    monkeypatch.setattr(Interval, "require",
                        lambda self, x, what="argument": checked.append(what) or require(
                            self, x, what))
    assert dc.divergence(spec, rho, p2) > 0
    assert checked == ["density value"] * 2


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
    free = simplex_spec(builtin_gauge("power", q=1.5))
    for spec in (free, replace(free, theta_box=[[-1.0, 1.0], [-0.5, 0.5]])):
        obj = dc.spec_to_json(spec)
        spec2 = dc.spec_from_json(json.dumps(obj))
        assert ("theta_box" in obj) == (spec.theta_box is not None)
        assert (spec2.theta_box is None if spec.theta_box is None
                else spec2.theta_box.tolist() == spec.theta_box.tolist())
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
