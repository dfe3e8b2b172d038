import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from dgeo import (
    DomainError,
    EquivalenceTransform,
    Interval,
    ScalarFn,
    apply_equivalence,
    builtin_gauge,
    conjugate_fn,
    d_htau,
    delta_pair,
    derived,
    exp_htau,
    gauge_from_json,
    gauge_from_pair,
    gauge_to_json,
    legendre_conjugate,
)
from dgeo import discrete as dc
from dgeo.gauge import _exp_q_factory, _gauss_legendre, _gl_rule, _ln_q_range, _rtsafe
from conftest import rtsafe_on_two_copies


def all_builtins():
    return [
        builtin_gauge("kl"),
        builtin_gauge("power", q=1.2),
        builtin_gauge("power", q=1.5),
        builtin_gauge("power", q=2.0),
        builtin_gauge("escort", q=1.5),
        builtin_gauge("scaled_log", lam=2.0),
    ]


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20240801)


# ---------------------------------------------------------------------------
# builtin_gauge / derived
# ---------------------------------------------------------------------------


def test_kl_ell_at_one():
    g = builtin_gauge("kl")
    assert derived(g).ell.value(1.0) == pytest.approx(1.0, abs=1e-14)


def test_power_one_is_plain_log():
    g = builtin_gauge("power", q=1.0)
    assert derived(g).ell.value(1.0) == pytest.approx(0.0, abs=1e-14)
    assert derived(g).ell.value(4.0) == pytest.approx(math.log(4.0), rel=1e-14)


def test_power_ell_closed_form():
    g = builtin_gauge("power", q=1.5)
    # (r^{1-q} - 1)/(1-q) at r=4, q=1.5
    assert derived(g).ell.value(4.0) == pytest.approx(1.0, rel=1e-14)
    # bit for bit, with no shift added: (1 - 1)/(1 - q) is -0.0 for q > 1
    assert math.copysign(1.0, derived(g).ell.value(1.0)) == -1.0


@pytest.mark.parametrize("q", [0.3, 0.999, 1.5, 2.5, 3.0])
def test_power_h_keeps_its_range_against_mpmath(q):
    # h_q(r) = (r**(2-q) - 1) / ((1-q)(2-q)) - (r - 1) / (1-q) is finite at
    # r = 1e-160 for q = 3 although r**(1-q) there overflows
    mpmath = pytest.importorskip("mpmath")
    d = derived(builtin_gauge("power", q=q))
    rs = np.geomspace(1e-300, 1e300, 121)
    with np.errstate(over="ignore"):
        got = -np.asarray(d.s(rs), dtype=float)
    with mpmath.workdps(40):
        mq = mpmath.mpf(q)
        want = np.array([float((mpmath.mpf(r) ** (2 - mq) - 1) / ((1 - mq) * (2 - mq))
                               - (mpmath.mpf(r) - 1) / (1 - mq)) for r in rs])
    finite = np.isfinite(want)
    assert finite.sum() > 80
    np.testing.assert_array_equal(np.isfinite(got), finite)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12)
    if q == 3.0:
        assert d_htau(builtin_gauge("power", q=q), 1e-160, 1.0) == pytest.approx(5e159, rel=1e-14)


def test_derived_kl_values():
    d = derived(builtin_gauge("kl"))
    assert d.m(2.0) == pytest.approx(0.5, rel=1e-14)
    assert d.s_star(3.0) == pytest.approx(-3.0, rel=1e-14)


def test_derived_power_chi():
    d = derived(builtin_gauge("power", q=1.5))
    assert d.chi(4.0) == pytest.approx(8.0, rel=1e-14)


def test_invalid_parameters_raise():
    with pytest.raises(DomainError):
        builtin_gauge("power", q=-1.0)
    with pytest.raises(DomainError):
        builtin_gauge("scaled_log", lam=0.0)
    with pytest.raises(DomainError):
        builtin_gauge("nope")
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    for q in (0.0, -1.0, None):
        with pytest.raises(DomainError, match="escort gauge requires a finite q"):
            builtin_gauge("escort", q=q)
    with pytest.raises(DomainError, match="scaled_log gauge requires a finite lam"):
        builtin_gauge("scaled_log")
    for bad in (math.nan, math.inf):
        for kind in ("power", "escort"):
            with pytest.raises(DomainError, match=f"{kind} gauge requires a finite q"):
                builtin_gauge(kind, q=bad)
        with pytest.raises(DomainError, match="scaled_log gauge requires a finite lam"):
            builtin_gauge("scaled_log", lam=bad)
    for kind, a in (("escort", dict(q=200.0)), ("scaled_log", dict(lam=1e5))):
        with pytest.raises(DomainError, match="overflows"):
            builtin_gauge(kind, interval=Interval(1e-4, 1e4), **a)


def test_builtin_derivative_out_of_double_range_is_named():
    # tau' = 200 t**199 underflows and ell' = t**-200 overflows at t = 1e-4;
    # both are reported as such, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"t\*\*199 leaves double range at t = 0\.0001"):
            builtin_gauge("escort", q=200.0, interval=Interval(1e-4, 2.0))
        with pytest.raises(DomainError, match=r"t\*\*-400 leaves double range at t = 0\.0001"):
            builtin_gauge("power", q=400.0, interval=Interval(1e-4, 2.0))
        with pytest.raises(DomainError, match=r"t\*\*-400 leaves double range at t = 1e\+10"):
            builtin_gauge("power", q=400.0, interval=Interval(1.0, 1e10))
        builtin_gauge("escort", q=200.0, interval=Interval(0.5, 2.0))


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_scalarfn_derivatives_match_finite_differences(g, rng):
    d = derived(g)
    ts = rng.uniform(0.3, 4.0, size=12)
    for fn in (g.h, g.tau, d.ell):
        pts = ts if fn is not g.h else g.tau.value(ts)
        h_ = 1e-6 * np.maximum(1.0, np.abs(pts))
        fd1 = (np.asarray(fn.value(pts + h_)) - np.asarray(fn.value(pts - h_))) / (2 * h_)
        assert np.allclose(np.asarray(fn.d1(pts), dtype=float), fd1, rtol=1e-5, atol=1e-8)
        fd2 = (np.asarray(fn.d1(pts + h_)) - np.asarray(fn.d1(pts - h_))) / (2 * h_)
        assert np.allclose(np.asarray(fn.d2(pts), dtype=float), fd2, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# derived functions against a sympy oracle
# ---------------------------------------------------------------------------


def _sympy_cases():
    """(gauge, h(r), tau(t)) in sympy for each gauge the oracle covers."""
    sp = pytest.importorskip("sympy")
    r, t = sp.symbols("r t", positive=True)
    R = sp.Rational
    cases = [("kl", builtin_gauge("kl"), r * sp.log(r), t)]
    for qf, q in ((0.7, R(7, 10)), (1.5, R(3, 2))):
        cases.append((f"power({qf:g})", builtin_gauge("power", q=qf),
                      (r ** (2 - q) - 1) / ((1 - q) * (2 - q)) - (r - 1) / (1 - q), t))
        ln_q = ((r ** (1 / q)) ** (1 - q) - 1) / (1 - q)
        cases.append((f"escort({qf:g})", builtin_gauge("escort", q=qf), q * r * ln_q - r, t ** q))
    for lf, lam in ((0.5, R(1, 2)), (2.0, R(2))):
        cases.append((f"scaled_log({lf:g})", builtin_gauge("scaled_log", lam=lf),
                      (r * sp.log(r) - r) / lam, t ** lam))
    # the pair gauge's h is the integral of ell = log u + u/2 + 1 from a = 1
    h = r * sp.log(r) + r ** 2 / 4 - R(1, 4)
    pair = gauge_from_pair(*_log_half_pair(), a=1.0)
    cases.append(("pair", pair, h, t))
    a1, a2, a3, lam = R(3, 10), R(-1, 5), R(1, 10), R(3, 2)
    back = (r - a3) / lam
    cases.append(("pair~equiv", apply_equivalence(pair, EquivalenceTransform(0.3, -0.2, 0.1, 1.5)),
                  h.subs(r, back) - a1 * back - a2, lam * t + a3))
    return sp, r, t, cases


@pytest.mark.parametrize("name", ["kl", "power(0.7)", "escort(0.7)", "power(1.5)",
                                  "escort(1.5)", "scaled_log(0.5)", "scaled_log(2)", "pair",
                                  "pair~equiv"])
def test_derived_functions_match_sympy(name):
    """The values of the six derived functions, and ell' and ell'', against
    sympy expressions evaluated at 40 digits, on t in [1e-3, 1e3]: to 1e-12
    relative, and values that go through the pair gauges' quadrature (s and
    s_star) to 1e-10.  Where the exact f^(k)(t) is zero, the error is taken
    relative to the largest |f^(j)(t)| t^(j-k) over the other orders j <= 2."""
    mpmath = pytest.importorskip("mpmath")
    sp, r, t, cases = _sympy_cases()
    g, h, tau = next(c[1:] for c in cases if c[0] == name)
    ell = sp.diff(h, r).subs(r, tau)
    exact = {"ell": ell, "m": sp.diff(ell, t) * sp.diff(tau, t),
             "gamma": sp.diff(ell, t, 2) * sp.diff(tau, t), "chi": 1 / sp.diff(ell, t),
             "s": -h.subs(r, tau), "s_star": -tau * ell + h.subs(r, tau)}
    ts = np.geomspace(1e-3, 1e3, 25)
    d = derived(g)
    for fname, expr in exact.items():
        want = []
        for k in range(3):
            f = sp.lambdify(t, sp.diff(expr, t, k), "mpmath")
            with mpmath.workdps(40):
                want.append(np.array([float(f(mpmath.mpf(float(x)))) for x in ts]))
        fn = getattr(d, fname)
        fns = (fn.value, fn.d1, fn.d2) if fname == "ell" else (fn,)
        for k, f in enumerate(fns):
            tol = 1e-10 if fname in ("s", "s_star") and name.startswith("pair") else 1e-12
            scale = np.abs(want[k])
            alt = np.max([np.abs(want[j]) * ts ** (j - k) for j in range(3) if j != k], axis=0)
            scale = np.where(scale <= 1e-30 * alt, alt, scale)
            err = np.abs(np.asarray(f(ts), dtype=float) - want[k]) / scale
            assert np.all(err <= tol), (name, fname, k, float(np.max(err)))


def test_chi_d1_is_one_call_each_of_ell_d1_and_ell_d2(monkeypatch):
    # chi = 1 / ell' is one ell' call; chi' = -ell'' / ell'^2, which only
    # discrete._member reads, adds one call each of ell' and ell''
    tau, ell = _log_half_pair()
    calls = {"value": 0, "d1": 0, "d2": 0}

    def counted(key):
        def f(t):
            calls[key] += 1
            return getattr(ell, key)(t)
        return f

    g = gauge_from_pair(tau, ScalarFn(counted("value"), counted("d1"), counted("d2"),
                                      ell.domain), a=1.0)
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(2)), g, np.array([[1.0, -1.0]]),
                                 np.zeros(2))
    p = np.array([0.5, 2.0])
    monkeypatch.setattr(dc, "_solve_one", lambda spec, th, warm=None: (0.0, p))
    calls.update(value=0, d1=0, d2=0)
    derived(g).chi(p)
    assert calls == {"value": 0, "d1": 1, "d2": 0}
    calls.update(value=0, d1=0, d2=0)
    member = dc._member(spec, [0.0])
    assert calls == {"value": 0, "d1": 2, "d2": 1}
    assert np.array_equal(member.chi1, -ell.d2(p) / ell.d1(p) ** 2)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kl_kernel_example():
    g = builtin_gauge("kl")
    assert d_htau(g, 2.0, 1.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_kernel_zero_on_diagonal(g):
    for t in (0.4, 1.0, 2.7):
        assert d_htau(g, t, t) == 0.0


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_kernel_nonnegative_and_separating(g, rng):
    ts = rng.uniform(0.05, 8.0, size=1000)
    ss = rng.uniform(0.05, 8.0, size=1000)
    vals = d_htau(g, ts, ss)
    assert np.all(vals >= 0.0)
    tiny = vals <= 1e-12
    assert np.all(np.abs(ts[tiny] - ss[tiny]) <= 1e-5)


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_kernel_matches_quadrature(g, rng):
    d = derived(g)
    for _ in range(5):
        t, s = rng.uniform(0.2, 5.0, size=2)
        oracle, _ = integrate.quad(
            lambda u: (d.ell.value(u) - d.ell.value(s)) * g.tau.d1(u),
            s, t, epsabs=1e-13, epsrel=1e-13)
        assert d_htau(g, t, s) == pytest.approx(oracle, abs=1e-10)


def test_kernel_domain_error():
    g = builtin_gauge("kl", interval=Interval(0.5, 2.0))
    with pytest.raises(DomainError):
        d_htau(g, 3.0, 1.0)


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_kernel_derivative_fingerprints(g):
    # -d2/dtds at (t,t) = m(t); -d3/dtds2 at (t,t) = gamma(t)
    d = derived(g)
    for t in (0.7, 1.3, 2.4):
        eps = 2e-4 * max(1.0, t)

        def dd(a, b):
            return d_htau(g, a, b)

        mixed = (dd(t + eps, t + eps) - dd(t + eps, t - eps)
                 - dd(t - eps, t + eps) + dd(t - eps, t - eps)) / (4 * eps * eps)
        assert -mixed == pytest.approx(d.m(t), rel=1e-4)

        def ds2(a, b):
            return (dd(a, b + eps) - 2 * dd(a, b) + dd(a, b - eps)) / (eps * eps)

        third = (ds2(t + eps, t) - ds2(t - eps, t)) / (2 * eps)
        assert -third == pytest.approx(d.gamma(t), rel=2e-3, abs=1e-6)


# ---------------------------------------------------------------------------
# deformed exponential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5, 2.0])
def test_exp_q_at_zero(q):
    assert exp_htau(builtin_gauge("power", q=q), 0.0) == pytest.approx(1.0, rel=1e-14)


def test_exp_power2_closed_form():
    assert exp_htau(builtin_gauge("power", q=2.0), 0.5) == pytest.approx(2.0, rel=1e-13)


def test_exp_power_clips_to_infinity():
    g = builtin_gauge("power", q=1.5)
    assert exp_htau(g, 2.0) == math.inf
    assert exp_htau(g, 2.5) == math.inf
    assert exp_htau(g, 1.999999) < math.inf


def test_exp_clipping_on_bounded_interval():
    g = builtin_gauge("kl", interval=Interval(0.5, 2.0))
    assert exp_htau(g, math.log(0.4) + 1) == 0.0
    assert exp_htau(g, math.log(3.0) + 1) == math.inf
    assert exp_htau(g, 1.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("g", [builtin_gauge("kl"), builtin_gauge("scaled_log", lam=2.0)],
                         ids=lambda g: g.name)
def test_exp_overflow_is_the_clip_to_inf(g):
    # exp(u - c) overflows past u = 709 + c on q = 1, as the q != 1 branch
    # does at its clip: inf, with no RuntimeWarning (an error in this suite)
    assert exp_htau(g, 800.0) == math.inf
    out = exp_htau(g, np.array([1.0, 800.0, 1e6]))
    assert np.isfinite(out[0]) and np.all(out[1:] == math.inf)


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_exp_inverts_ell(g, rng):
    d = derived(g)
    ts = rng.uniform(0.1, 6.0, size=50)
    back = exp_htau(g, d.ell.value(ts))
    assert np.allclose(back, ts, rtol=1e-9)


def test_exp_rootfinding_path_matches_closed_form(rng):
    # strip the closed form to force the bracketed solver
    g = builtin_gauge("power", q=1.5)
    bare = GaugeTripleNoExp(g)
    us = rng.uniform(-4.0, 1.8, size=20)
    a = np.array([exp_htau(bare, u) for u in us])
    b = exp_htau(g, us)
    assert np.allclose(a, b, rtol=1e-10)


@pytest.mark.parametrize("tr", [None, EquivalenceTransform(a1=0.3, a2=-0.2, a3=0.1, lam=1.5)],
                         ids=["pair", "transformed"])
def test_exp_rootfinding_relative_accuracy_against_mpmath(tr):
    # ell = log t + t/2 + 1 from gauge_from_pair, and an equivalence transform
    # of it (ell2 = (ell - a1)/lam); the oracle solves x + e^x/2 + 1 = target
    # for x = log t at 50 digits
    mpmath = pytest.importorskip("mpmath")
    g = gauge_from_pair(*_log_half_pair(), a=1.0)
    a1, lam = 0.0, 1.0
    if tr is not None:
        g, a1, lam = apply_equivalence(g, tr), tr.a1, tr.lam
    us = [-30.0, -10.0, 0.0, 5.0, 30.0]
    ts = exp_htau(g, np.array(us))
    with mpmath.workdps(50):
        for u, t in zip(us, ts):
            target = lam * mpmath.mpf(u) + a1
            x = mpmath.findroot(lambda x: x + mpmath.exp(x) / 2 + 1 - target,
                                mpmath.log(2 * target) if target > 2 else target - 1)
            ref = mpmath.exp(x)
            assert 0.0 < t < math.inf
            assert float(abs((t - ref) / ref)) <= 1e-12, (u, t)


def _exp_q_nested_where(q, c, lo_ell, hi_ell, u):
    """The nested-where exp_q that _exp_q_factory replaced, kept as the oracle."""
    u = np.asarray(u, dtype=float)
    if q == 1.0:
        core = np.exp(u - c)
    else:
        a = (1.0 - q) * (u - c)
        with np.errstate(over="ignore", divide="ignore"):
            pow_ = np.exp(np.log1p(np.maximum(a, -1.0)) / (1.0 - q))
        core = np.where(a > -1.0, pow_, np.inf if q > 1.0 else 0.0)
    out = np.where(u >= hi_ell, np.inf, np.where(u <= lo_ell, 0.0, core))
    return out if out.ndim else float(out)


@pytest.mark.parametrize("q", [0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("I", [Interval(0.0, math.inf), Interval(0.2, math.inf),
                               Interval(0.0, 3.0), Interval(0.5, 2.0)],
                         ids=["0-inf", "0.2-inf", "0-3", "0.5-2"])
def test_exp_q_matches_the_nested_where_form(q, I):
    # NaN, +-inf, both clip ends and their neighbours, points beyond them and,
    # for q != 1, a = (1 - q)(u - c) at and below -1, on arrays and 0-d input
    c = 0.3
    lo, hi = (v + c for v in _ln_q_range(q, I))
    exp_q = _exp_q_factory(1.0, q, c, lo, hi)[0]
    u = [math.nan, math.inf, -math.inf, c, *np.linspace(-5.0, 5.0, 41)]
    for e in (lo, hi):
        if math.isfinite(e):
            u += [e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf), e - 1.0, e + 1.0]
    if q != 1.0:
        u += [c - 1.0 / (1.0 - q), c - 2.0 / (1.0 - q), c - 1.0 / (1.0 - q) * (1 - 1e-15)]
    u = np.array(u)
    for arg in (u, u[None, :]):
        got, ref = exp_q(arg), _exp_q_nested_where(q, c, lo, hi, arg)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    for v in u:
        got, ref = exp_q(np.float64(v)), _exp_q_nested_where(q, c, lo, hi, v)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(ref).tobytes()


def _ulps(a, b):
    """|a - b| in units in the last place of b; 0 where a == b, infinities included."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    with np.errstate(invalid="ignore"):
        return np.where(a == b, 0.0, np.abs(a - b) / np.spacing(np.abs(b)))


KERNEL_KINDS = [("kl", {})] + [(kind, {"q": q}) for kind in ("power", "escort")
                               for q in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5)] \
    + [("scaled_log", {"lam": lam}) for lam in (0.5, 2.0)]


@pytest.mark.parametrize("I", [Interval(0.0, math.inf), Interval(0.05, 20.0)],
                         ids=["0-inf", "0.05-20"])
@pytest.mark.parametrize("kind,kw", KERNEL_KINDS, ids=str)
def test_builtin_kernel_matches_exp_fn_chi_and_tau(kind, kw, I):
    # the fused kernel against exp_fn, derived chi, tau and tau' at its p: on
    # ell(t) for t across I or (1e-3, 1e3), and at, next to and beyond each
    # finite end of ell_range, where p clips to 0 (chi 0) or +inf; power(0.5)
    # on (0.05, 20) has both ends finite
    g = builtin_gauge(kind, interval=I, **kw)
    ends = (max(I.lo * (1 + 1e-9), 1e-3), min(I.hi * (1 - 1e-9), 1e3))
    z = [np.asarray(derived(g).ell.value(np.geomspace(*ends, 101)))]
    for e, out in zip(g.ell_range, (-1.0, 1.0)):
        if math.isfinite(e):
            z.append([e, np.nextafter(e, out * math.inf), e + out, e + out * 10 * max(1, abs(e))])
    z = np.concatenate(z)
    if kind == "power" and kw["q"] == 0.5 and I.lo > 0:
        assert all(map(math.isfinite, g.ell_range))
    with np.errstate(all="ignore"):
        p, chi, tau, tau1 = g._member_kernel(z)
        want = derived(g).chi(p), g.tau.value(p), g.tau.d1(p)
    assert p.tobytes() == g.exp_fn(z).tobytes()
    if any(map(math.isfinite, g.ell_range)):
        assert np.any((p == 0) | np.isinf(p))
    assert np.all(chi[p == 0] == 0.0)
    for got, ref in zip((chi, tau, np.ones_like(p) if tau1 is None else tau1), want):
        assert np.max(_ulps(got, ref)) <= 4


@pytest.mark.parametrize("kind,kw", KERNEL_KINDS, ids=str)
def test_builtin_kernel_matches_mpmath(kind, kw):
    # p = (1 + (1 - q)(z - c))**(1/(1-q)) (exp(z - c) at q = 1), chi = p**q,
    # tau = p**power and tau' = power p**(power - 1), at 30 digits, at three z
    mpmath = pytest.importorskip("mpmath")
    g = builtin_gauge(kind, **kw)
    power, q, c = {"kl": (1.0, 1.0, 1.0), "power": (1.0, kw.get("q"), 0.0),
                   "escort": (kw.get("q"), kw.get("q"), 0.0),
                   "scaled_log": (kw.get("lam"), 1.0, 0.0)}[kind]
    z = np.asarray(derived(g).ell.value(np.array([0.03, 1.7, 40.0])))
    with np.errstate(all="ignore"):
        got = g._member_kernel(z)
    with mpmath.workdps(30):
        for i, zi in enumerate(z):
            mq, a = mpmath.mpf(q), mpmath.mpf(float(zi)) - mpmath.mpf(c)
            pm = mpmath.exp(a) if q == 1.0 else (1 + (1 - mq) * a) ** (1 / (1 - mq))
            mp_power = mpmath.mpf(power)
            want = [pm, pm ** mq, pm ** mp_power, mp_power * pm ** (mp_power - 1)]
            for v, w in zip(got, want):
                v = 1.0 if v is None else v[i]
                assert abs(v - w) <= 1e-14 * abs(w)


@pytest.mark.parametrize("g_of,x0,a,b", [
    (lambda x: (x ** 3 - 2.0, 3.0 * x ** 2), 1.0, 0.0, 3.0),
    (lambda x: (np.expm1(x), np.exp(x)), 0.5, 0.0, 1.0),
    (lambda x: (x - 1.0, np.ones_like(x)), 1.5, -1.0, 1.0),
    (lambda x: (np.where(x < 0, -1.0, x - 0.5), np.where(x < 0, 0.0, 1.0)), -2.0, -4.0, 2.0),
    (lambda x: (np.where(x < 0, -1.0, x - 0.5), np.where(x < 0, -0.0, 1.0)), -2.0, -4.0, 2.0),
    (lambda x: (np.fmax(x - 0.5, 0.0) + np.fmin(x + 0.5, 0.0), 1.0 * (np.abs(x) > 0.5)),
     0.1, -2.0, 3.0),
    (lambda x: (np.where(x > 2.0, np.nan, x - 1.0), np.ones_like(x)), 3.0, 0.0, 4.0),
    (lambda x: (np.full_like(x, np.nan), np.ones_like(x)), 1.0, 0.0, 4.0),
    (lambda x: (x - 1.0, np.ones_like(x)), math.nan, 0.0, 4.0),
], ids=["interior", "root-at-a", "root-at-b", "dg+0", "dg-0", "g=dg=0", "nan-g-above-2",
        "nan-g", "nan-start"])
def test_rtsafe_one_element_is_the_array_loop(g_of, x0, a, b):
    # the one-element path on Python floats against the array loop on the
    # element duplicated: the same root to the bit and the same evaluate calls;
    # g / 0 must give numpy's +-inf or NaN, not raise
    calls = []

    def counted(x, live):
        calls.append(x.size)
        return g_of(x)

    root = _rtsafe(counted, *(np.array([v]) for v in (x0, a, b)))
    rounds = []
    ref = rtsafe_on_two_copies(lambda x, live: g_of(x), *(np.array([v]) for v in (x0, a, b)),
                               rounds)
    assert root.shape == (1,) and root.tobytes() == ref.tobytes()
    assert calls == [1] * rounds[0]


def GaugeTripleNoExp(g):
    from dataclasses import replace

    return replace(g, exp_fn=None)


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------


def test_identity_transform_is_identity(rng):
    g = builtin_gauge("power", q=1.5)
    g2 = apply_equivalence(g, EquivalenceTransform())
    ts = rng.uniform(0.2, 5.0, size=(20, 2))
    assert np.allclose(d_htau(g, ts[:, 0], ts[:, 1]), d_htau(g2, ts[:, 0], ts[:, 1]),
                       rtol=0, atol=1e-15)


def test_kl_rescaling_preserves_kernel(rng):
    g = builtin_gauge("kl")
    g2 = apply_equivalence(g, EquivalenceTransform(lam=2.0))
    ts = rng.uniform(0.2, 5.0, size=(20, 2))
    assert np.allclose(d_htau(g, ts[:, 0], ts[:, 1]), d_htau(g2, ts[:, 0], ts[:, 1]),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_fingerprints_invariant_under_equivalence(g, rng):
    tr = EquivalenceTransform(a1=rng.normal(), a2=rng.normal(), a3=rng.normal(),
                              lam=float(rng.uniform(0.5, 3.0)))
    g2 = apply_equivalence(g, tr)
    d1, d2 = derived(g), derived(g2)
    grid = np.geomspace(0.3, 4.0, 64)
    assert np.allclose(d1.m(grid), d2.m(grid), rtol=1e-12)
    assert np.allclose(d1.gamma(grid), d2.gamma(grid), rtol=1e-12)


def test_transformed_exp_consistency(rng):
    g = builtin_gauge("power", q=1.5)
    g2 = apply_equivalence(g, EquivalenceTransform(a1=0.7, a2=0.1, a3=-0.2, lam=2.5))
    d2 = derived(g2)
    ts = rng.uniform(0.3, 3.0, size=10)
    assert np.allclose(exp_htau(g2, d2.ell.value(ts)), ts, rtol=1e-9)


def test_invalid_lambda_raises():
    with pytest.raises(DomainError):
        EquivalenceTransform(lam=-1.0)


@pytest.mark.parametrize("field", ["a1", "a2", "a3", "lam"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_equivalence_transform_rejects_non_finite_values(field, value):
    # a NaN shift makes every kernel value NaN, and lam = inf the interval (nan, inf)
    with pytest.raises(DomainError, match="finite a1, a2, a3 and lam > 0"):
        EquivalenceTransform(**{field: value})


# ---------------------------------------------------------------------------
# gauge_from_pair
# ---------------------------------------------------------------------------


def _kl_pair():
    I = Interval(0.0, math.inf)
    tau = ScalarFn(lambda t: np.asarray(t, float) + 0.0,
                   lambda t: np.ones_like(np.asarray(t, float)),
                   lambda t: np.zeros_like(np.asarray(t, float)), I)
    ell = ScalarFn(lambda t: np.log(t) + 1.0,
                   lambda t: 1.0 / np.asarray(t, float),
                   lambda t: -np.asarray(t, float) ** -2.0, I)
    return tau, ell


def _log_half_pair():
    """tau = id and ell = log t + t/2 + 1 on (0, inf)."""
    tau, _ = _kl_pair()
    ell = ScalarFn(lambda t: np.log(t) + 0.5 * np.asarray(t, float) + 1.0,
                   lambda t: 1.0 / np.asarray(t, float) + 0.5,
                   lambda t: -np.asarray(t, float) ** -2.0, tau.domain)
    return tau, ell


def test_pair_reconstructs_kl(rng):
    tau, ell = _kl_pair()
    g = gauge_from_pair(tau, ell, a=1.0)
    kl = builtin_gauge("kl")
    for _ in range(8):
        t, s = rng.uniform(0.3, 4.0, size=2)
        assert d_htau(g, t, s) == pytest.approx(d_htau(kl, t, s), abs=1e-8)


def test_pair_kernel_evaluates_h_once_per_argument():
    # on a pair gauge every evaluation of h o tau is one quadrature per point;
    # the kernel reads it in t as -s, once, on both arguments stacked, and
    # never calls h.value, which would first invert tau
    tau, ell = _kl_pair()
    g = gauge_from_pair(tau, ell, a=1.0)
    d = derived(g)
    calls = {"h": [], "s": []}

    def counted(key, f):
        def value(u):
            calls[key].append(np.size(u))
            return f(u)
        return value

    probe = replace(g, h=replace(g.h, value=counted("h", g.h.value)),
                    derived_fns=replace(d, s=counted("s", d.s)))
    t, s = np.array([0.5, 1.0, 2.5]), np.array([1.5, 1.0, 0.7])
    assert np.array_equal(d_htau(probe, t, s), d_htau(g, t, s))
    assert calls == {"h": [], "s": [6]}


@pytest.mark.parametrize("tr", [None, EquivalenceTransform(0.3, -0.2, 0.1, 1.5)],
                         ids=["pair", "transformed"])
def test_pair_kernel_near_zero(tr):
    # tau2(1e-20) = 1.5e-20 + 0.1 rounds to 0.1, where h2's back map would ask
    # for h at the end of I; read in t, the kernel needs no back map
    g = gauge_from_pair(*_log_half_pair(), a=1.0)
    if tr is not None:
        g = apply_equivalence(g, tr)
    # h(r) = r log r + r^2/4 - 1/4, so d(0+, s) = h(0) - h(s) + s h'(s) = s + s^2/4
    assert d_htau(g, 1e-20, 0.5) == pytest.approx(0.5625, rel=1e-13)


def test_pair_kernel_zero_on_diagonal():
    tau, ell = _kl_pair()
    assert delta_pair(tau, ell, 1.7, 1.7) == 0.0


def test_pair_swap_symmetry(rng):
    tau, ell = _kl_pair()
    for _ in range(6):
        t, s = rng.uniform(0.4, 3.0, size=2)
        assert delta_pair(tau, ell, t, s) == pytest.approx(
            delta_pair(ell, tau, s, t), abs=1e-9)


_PAIR_TR = EquivalenceTransform(0.3, -0.2, 0.1, 1.5)


@pytest.mark.parametrize("transformed", [False, True], ids=["pair", "transformed"])
def test_pair_integrals_match_mpmath(transformed):
    """s = -h o tau, h.value and delta_pair of the pair gauge tau = id,
    ell = log t + t/2 + 1, whose h(r) = r log r + r^2/4 - 1/4, and of its
    transform (h2(tau2(t)) = h(t) - a1 t - a2, same kernel), against that
    closed form at 30 digits for t from 1e-300 to 1e3, to 1e-12 relative.
    h.value is taken at rho = tau(t) against the exact tau^{-1}(rho), except
    where rho rounds to the end a3 of tau2(I) (the transform at t < 4.7e-18;
    see the next test)."""
    mpmath = pytest.importorskip("mpmath")
    tau, ell = _log_half_pair()
    g = gauge_from_pair(tau, ell, a=1.0)
    a1, a2, a3, lam = 0.0, 0.0, 0.0, 1.0
    if transformed:
        g = apply_equivalence(g, _PAIR_TR)
        a1, a2, a3, lam = _PAIR_TR.a1, _PAIR_TR.a2, _PAIR_TR.a3, _PAIR_TR.lam
        tau, ell = g.tau, derived(g).ell
    ts = [1e-300, 1e-100, 1e-10, 1e-3, 0.1, 0.5, 2.0, 10.0, 100.0, 1e3]
    s = derived(g).s(np.array(ts))
    with mpmath.workdps(30):
        mp = mpmath.mpf

        def h_tau(t):
            return t * mpmath.log(t) + t ** 2 / 4 - mp(1) / 4 - mp(a1) * t - mp(a2)

        def kernel(t, s0):
            return h_tau(t) - h_tau(s0) - (t - s0) * (mpmath.log(s0) + s0 / 2 + 1 - mp(a1))

        def rel(got, want):
            return float(abs((mp(float(got)) - want) / want))

        for t, s_t in zip(ts, s):
            assert rel(s_t, -h_tau(mp(t))) <= 1e-12, ("s", t)
            rho = float(g.tau.value(t))
            t_exact = (mp(rho) - mp(a3)) / mp(lam)
            if t_exact > 0:
                assert rel(g.h.value(rho), h_tau(t_exact)) <= 1e-12, ("h", t)
            for s0 in (0.3, 3.0):
                assert rel(delta_pair(tau, ell, t, s0), kernel(mp(t), mp(s0))) <= 1e-12, (t, s0)


def test_pair_integral_at_an_end_of_I_is_never_nan():
    """An integration limit at an end of I, or one tau^{-1} cannot reach,
    raises DomainError or gives the limiting value; NaN limits raise."""
    tau, ell = _log_half_pair()
    g = gauge_from_pair(tau, ell, a=1.0)
    d, h2 = derived(g), apply_equivalence(g, _PAIR_TR).h
    cases = [(lambda: g.h.value(0.0), -0.25), (lambda: g.h.value(1e-320), -0.25),
             (lambda: g.h.value(math.inf), math.inf), (lambda: d.s(0.0), 0.25),
             (lambda: d.s_star(np.array([0.5, math.inf])), None),
             (lambda: h2.value(0.1), -0.05), (lambda: delta_pair(tau, ell, 0.0, 1.0), 1.25),
             (lambda: delta_pair(tau, ell, math.inf, 1.0), math.inf),
             (lambda: g.h.value(math.nan), None)]
    for i, (call, limit) in enumerate(cases):
        try:
            got = call()
        except DomainError:
            continue
        assert limit is not None and got == pytest.approx(limit, rel=1e-9), (i, got)


def test_pair_entropy_integrates_in_t_without_inverting_tau():
    """s.value on 50 points never calls tau.value (no tau^{-1}) and calls
    ell.value once per rule doubling; h.value inverts tau, then integrates
    the same way."""
    tau, ell = _log_half_pair()
    calls = {"tau": 0, "ell": 0}

    def counted(fn, key):
        def f(t):
            calls[key] += 1
            return fn(t)
        return f

    g = gauge_from_pair(ScalarFn(counted(tau.value, "tau"), tau.d1, tau.d2, tau.domain),
                        ScalarFn(counted(ell.value, "ell"), ell.d1, ell.d2, ell.domain), a=1.0)
    ts = np.geomspace(1e-3, 1e3, 50)
    calls.update(tau=0, ell=0)
    derived(g).s(ts)
    assert calls["tau"] == 0 and 1 <= calls["ell"] <= 4, calls
    calls.update(tau=0, ell=0)
    g.h.value(ts)
    assert calls["tau"] > 0 and 1 <= calls["ell"] <= 4, calls


def test_pair_rejects_nonmonotone():
    I = Interval(0.0, math.inf)
    tau = ScalarFn(lambda t: -np.asarray(t, float),
                   lambda t: -np.ones_like(np.asarray(t, float)),
                   lambda t: np.zeros_like(np.asarray(t, float)), I)
    _, ell = _kl_pair()
    with pytest.raises(DomainError):
        gauge_from_pair(tau, ell, a=1.0)


# ---------------------------------------------------------------------------
# Gauss-Legendre rule
# ---------------------------------------------------------------------------


def _mp_legendre_rule(n, idx):
    """Node and weight i (in ascending order) of the n-node rule for each i in idx,
    by Newton on P_n at 40 digits from the guess -cos(pi (i + 3/4)/(n + 1/2))."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(40):
        for i in idx:
            x = -mpmath.cos(mpmath.pi * (i + mpmath.mpf(3) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(50):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (p0 - x * p1) / (1 - x * x)  # P_n'(x)
                x, dx = x - p1 / dp, p1 / dp
                if abs(dx) < mpmath.mpf(10) ** -35:
                    break
            out.append((x, 2 / ((1 - x * x) * dp ** 2)))
    return out


@pytest.mark.parametrize("n", [16, 64, 256])
def test_gauss_legendre_rule_matches_mpmath(n):
    """Every node at n = 16 and 64, the first, second and middle one at 256,
    no further from a 40-digit rule than scipy's roots_legendre."""
    from scipy.special import roots_legendre

    idx = range(n) if n <= 64 else [0, 1, n // 2]
    ref = _mp_legendre_rule(n, idx)
    errors = []
    for x, w in (_gauss_legendre(n), roots_legendre(n)):
        errors.append((max(abs(float(x[i] - r[0])) for i, r in zip(idx, ref)),
                       max(abs(float(w[i] / r[1] - 1)) for i, r in zip(idx, ref))))
    (ex, ew), (ex_scipy, ew_scipy) = errors
    assert ex <= ex_scipy and ew <= ew_scipy
    assert ex <= 1e-16 and ew <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 64, 256])
def test_gauss_legendre_rule_is_symmetric_and_exact(n):
    x, w = _gauss_legendre(n)
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 4 * np.spacing(2.0)
    # exact for degree 2n - 1; x**(2n - 2) is the highest even monomial
    assert abs(w @ x ** (2 * n - 2) * (2 * n - 1) / 2.0 - 1.0) <= 1e-14


def test_shared_rules_are_read_only():
    from dgeo.qgauss import _radial_rule

    for arr in (*_gl_rule(16), _radial_rule(64)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# Legendre conjugation
# ---------------------------------------------------------------------------


def test_kl_conjugate_is_shifted_exp():
    g = builtin_gauge("kl")
    assert legendre_conjugate(g, 1.0) == pytest.approx(1.0, abs=1e-12)
    for u in (-1.0, 0.3, 2.2):
        assert legendre_conjugate(g, u) == pytest.approx(math.exp(u - 1.0), rel=1e-10)


def test_conjugate_convexity():
    g = builtin_gauge("power", q=1.5)
    us = np.linspace(-3.0, 1.5, 41)
    vals = np.array([legendre_conjugate(g, float(u)) for u in us])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-10)


@pytest.mark.parametrize("kind,q", [("kl", None), ("power", 1.5), ("power", 2.0)])
def test_double_conjugation_recovers_h(kind, q, rng):
    g = builtin_gauge(kind, q=q)
    star = conjugate_fn(g.h)
    star2 = conjugate_fn(star)
    rs = rng.uniform(0.4, 3.0, size=10)
    for r in rs:
        assert star2.value(float(r)) == pytest.approx(float(g.h.value(r)), abs=1e-8)


def test_double_conjugation_small_arguments():
    # r < 1/e makes the inner inverse land at negative values, exercising
    # the downward bracket expansion on a domain unbounded below
    g = builtin_gauge("kl")
    star2 = conjugate_fn(conjugate_fn(g.h))
    for r in (0.05, 0.15, 0.3):
        assert star2.value(r) == pytest.approx(float(g.h.value(r)), abs=1e-8)


def test_conjugate_domain_error():
    g = builtin_gauge("power", q=1.5)
    with pytest.raises(DomainError):
        legendre_conjugate(g, 5.0)  # above 1/(q-1) = 2


# ---------------------------------------------------------------------------
# identities and properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
def test_chi_m_tauprime_identity(g):
    d = derived(g)
    grid = np.geomspace(0.2, 5.0, 64)
    assert np.allclose(d.chi(grid) * d.m(grid), g.tau.d1(grid),
                       rtol=1e-9, atol=1e-12)


_KINDS = ("kl", "power", "escort", "scaled_log")


@given(kind=st.sampled_from(_KINDS), a=st.floats(0.3, 3.0),
       lo=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       width=st.one_of(st.floats(0.5, 20.0), st.just(math.inf)),
       u=st.floats(1e-3, 0.999), v=st.floats(1e-3, 0.999))
@settings(max_examples=200, deadline=None)
def test_kernel_nonnegative_property(kind, a, lo, width, u, v):
    # a random builtin gauge (its q or lam is a) on a random interval I:
    # d >= 0, d = 0 on the diagonal, and d > 0 off it beyond rounding
    g = builtin_gauge(kind, q=a, lam=a, interval=Interval(lo, lo + width))
    span = 20.0 if math.isinf(width) else width
    t, s = lo + u * span, lo + v * span
    assert d_htau(g, t, t) == 0.0 and d_htau(g, s, s) == 0.0
    d = d_htau(g, t, s)
    assert d >= 0.0
    if abs(t - s) > 1e-4 * max(t, s):
        assert d > 0.0, (t, s)


@given(i=st.integers(0, 5), a1=st.floats(-5.0, 5.0), a2=st.floats(-5.0, 5.0),
       a3=st.floats(-5.0, 5.0), lam=st.floats(0.2, 5.0),
       t=st.floats(0.05, 20.0), s=st.floats(0.05, 20.0))
@settings(max_examples=100, deadline=None)
def test_equivalence_preserves_kernel_m_and_gamma_property(i, a1, a2, a3, lam, t, s):
    # the kernel to rounding in the terms a1, a2, a3 and lam add; m and gamma
    # to 1e-12 relative on a grid, as ell2' = ell'/lam and tau2' = lam tau'
    g = all_builtins()[i]
    g2 = apply_equivalence(g, EquivalenceTransform(a1, a2, a3, lam))
    d1, d2 = derived(g), derived(g2)
    tt, ts = g.tau(t), g.tau(s)
    scale = (abs(d1.s(t)) + abs(d1.s(s)) + abs(a1) * (tt + ts) + abs(a2)
             + (tt + ts + abs(a3) / lam) * (abs(d1.ell(s)) + abs(a1)))
    assert abs(d_htau(g2, t, s) - d_htau(g, t, s)) <= 1e-13 * scale
    grid = np.geomspace(0.05, 20.0, 33)
    assert np.allclose(d2.m(grid), d1.m(grid), rtol=1e-12, atol=0)
    assert np.allclose(d2.gamma(grid), d1.gamma(grid), rtol=1e-12, atol=0)


@given(alpha=st.floats(0.1, 3.0), beta=st.floats(0.0, 2.0), c=st.floats(-2.0, 2.0),
       p=st.floats(0.5, 2.0), a=st.floats(0.5, 2.0), t=st.floats(1e-3, 1e3))
@settings(max_examples=50, deadline=None)
def test_exp_inverts_ell_on_pair_gauges_property(alpha, beta, c, p, a, t):
    # tau = t**p and ell = alpha log t + beta t + c on (0, inf): exp_htau
    # inverts ell by Newton-bisection, to 1e-12 relative in t
    I = Interval(0.0, math.inf)
    tau = ScalarFn(lambda x: np.asarray(x, float) ** p,
                   lambda x: p * np.asarray(x, float) ** (p - 1.0),
                   lambda x: p * (p - 1.0) * np.asarray(x, float) ** (p - 2.0), I)
    ell = ScalarFn(lambda x: alpha * np.log(x) + beta * np.asarray(x, float) + c,
                   lambda x: alpha / np.asarray(x, float) + beta,
                   lambda x: -alpha * np.asarray(x, float) ** -2.0, I)
    g = gauge_from_pair(tau, ell, a)
    ts = np.append(np.geomspace(1e-3, 1e3, 13), t)
    assert np.allclose(exp_htau(g, derived(g).ell(ts)), ts, rtol=1e-12, atol=0)


@given(u=st.floats(-30.0, 1.4))
@settings(max_examples=100, deadline=None)
def test_exp_monotone_property(u):
    g = builtin_gauge("power", q=1.5)
    assert exp_htau(g, u) <= exp_htau(g, u + 0.1)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def test_gauge_json_roundtrip():
    g = builtin_gauge("power", q=1.5)
    obj = gauge_to_json(g)
    assert obj == {"kind": "power", "q": 1.5, "lo": 0.0, "hi": None}
    g2 = gauge_from_json(obj)
    assert d_htau(g2, 2.0, 1.0) == pytest.approx(d_htau(g, 2.0, 1.0), rel=1e-14)


ALL_KINDS = [("kl", {}), ("power", {"q": 0.7}), ("power", {"q": 1.5}), ("power", {"q": 2.0}),
             ("escort", {"q": 0.7}), ("escort", {"q": 1.5}),
             ("scaled_log", {"lam": 0.5}), ("scaled_log", {"lam": 2.0})]
INTERVALS = [Interval(0.0, math.inf), Interval(0.5, 2.0), Interval(1e-4, 1e4)]


@pytest.mark.parametrize("I", INTERVALS, ids=lambda I: f"({I.lo:g},{I.hi:g})")
@pytest.mark.parametrize("kind,kw", ALL_KINDS, ids=lambda x: str(x))
def test_builtin_exp_matches_solver(kind, kw, I):
    # the closed form exp_q(u - c) against Newton-bisection on the same ell
    g = builtin_gauge(kind, interval=I, **kw)
    solver = replace(g, exp_fn=None)
    ell = derived(g).ell
    ends = [I.lo * (1 + 1e-9) if I.lo > 0 else 1e-6, I.hi * (1 - 1e-9) if I.hi < math.inf else 1e6]
    ts = np.concatenate([np.geomspace(*ends, 41), ends])
    u = np.asarray(ell.value(ts))
    assert np.allclose(exp_htau(g, u), ts, rtol=1e-10, atol=0)
    assert np.allclose(exp_htau(solver, u), exp_htau(g, u), rtol=1e-10, atol=0)
    # at and beyond a finite end of ell's range both clip to 0 and +inf
    lo_e, hi_e = g.ell_range
    for e, clipped, outward in ((lo_e, 0.0, -1.0), (hi_e, math.inf, 1.0)):
        if math.isfinite(e):
            out = np.array([e, np.nextafter(e, outward * math.inf),
                            e + outward * 1e-9 * max(1.0, abs(e))])
            assert np.all(exp_htau(g, out) == clipped)
            assert np.all(exp_htau(solver, out) == clipped)


@pytest.mark.parametrize("I", INTERVALS, ids=lambda I: f"({I.lo:g},{I.hi:g})")
@pytest.mark.parametrize("kind,kw", ALL_KINDS, ids=lambda x: str(x))
def test_gauge_json_roundtrip_is_bit_equal(kind, kw, I):
    g = builtin_gauge(kind, interval=I, **kw)
    obj = json.loads(json.dumps(gauge_to_json(g)))
    g2 = gauge_from_json(obj)
    assert gauge_to_json(g2) == gauge_to_json(g) and g2.name == g.name
    t = np.geomspace(max(I.lo, 1e-3) * 1.01, min(I.hi, 1e3) * 0.99, 17)
    assert np.array_equal(d_htau(g2, t, t[::-1]), d_htau(g, t, t[::-1]))


@pytest.mark.parametrize("obj", [
    {"kind": "power"},                    # no q
    {"kind": "power", "q": "abc"},
    {"kind": "escort", "q": [1.5]},
    {"kind": "escort", "q": math.nan},
    {"kind": "scaled_log", "lam": math.inf},
    {"kind": "kl", "hi": "x"},
    {"q": 1.5},                           # no kind
    {"kind": ["kl"]},
    ["kl"],
    "kl",
])
def test_malformed_gauge_descriptor_raises_domain_error(obj):
    with pytest.raises(DomainError):
        gauge_from_json(obj)


def test_gauge_json_all_kinds():
    for obj in ({"kind": "kl"}, {"kind": "escort", "q": 1.5},
                {"kind": "scaled_log", "lam": 2.0}, {"kind": "power", "q": 1.2}):
        g = gauge_from_json(obj)
        assert d_htau(g, 1.5, 1.5) == 0.0
