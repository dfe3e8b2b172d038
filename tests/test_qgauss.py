import dataclasses
import hashlib
import math
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import multivariate_normal, multivariate_t

from conftest import ks_critical, ks_statistic_vs_density, tan_quad
from dgeo.errors import DomainError, InfeasibleError
from dgeo.gauge import builtin_gauge, exp_htau
from dgeo import lln, qgauss as qg


def law(q, d=1, k=1, v=None, S=None):
    v = np.zeros(d) if v is None else np.asarray(v, dtype=float)
    S = np.eye(d) if S is None else np.asarray(S, dtype=float)
    return qg.repetition(qg.QGaussianParams(q, d, v, S), k)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_hypothesis_d_q_minus_one():
    with pytest.raises(DomainError):
        qg.QGaussianParams(2.0, 2, np.zeros(2), np.eye(2))
    with pytest.raises(DomainError):
        qg.QGaussianParams(0.8, 1, np.zeros(1), np.eye(1))


def test_variant_constraints():
    # the variant selects the F_ij statistics of a simulation, so SimConfig,
    # not QGaussianParams, checks that S fits it
    with pytest.raises(DomainError, match="identity variant requires S = I"):
        lln.SimConfig(1.2, 2, np.zeros(2), "identity", S=2 * np.eye(2))
    with pytest.raises(DomainError, match="trace_d variant requires tr S = d"):
        lln.SimConfig(1.2, 2, np.zeros(2), "trace_d", S=np.diag([1.5, 1.0]))
    lln.SimConfig(1.2, 2, np.zeros(2), "trace_d", S=np.diag([1.5, 0.5]))


def test_s_must_be_spd():
    with pytest.raises(DomainError):
        qg.QGaussianParams(1.2, 2, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("gap", [0.9e-12, 1e-12, 1.1e-12, -1.1e-12])
def test_symmetry_test_decides_as_allclose(gap):
    S = np.eye(2)
    S[0, 1] = gap  # |S - S^T| is exactly |gap|
    if np.allclose(S, S.T, rtol=0, atol=1e-12):
        assert abs(gap) <= 1e-12
        qg._check_spd(S)
    else:
        assert abs(gap) > 1e-12
        with pytest.raises(DomainError, match="must be symmetric"):
            qg._check_spd(S)


IDENTITY_TOL = 1e-12 + 1e-5  # np.allclose(S, I, atol=1e-12) on a diagonal entry


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("diag,off", [(1.0 + IDENTITY_TOL * (1 - 1e-6), 0.0),
                                      (1.0 + IDENTITY_TOL * (1 + 1e-6), 0.0),
                                      (1.0 - IDENTITY_TOL * (1 - 1e-6), 0.0),
                                      (1.0 - IDENTITY_TOL * (1 + 1e-6), 0.0),
                                      (1.0, 0.9e-12), (1.0, 1.1e-12)])
def test_identity_variant_decides_as_allclose(d, diag, off):
    S = np.full((d, d), off)
    np.fill_diagonal(S, diag)
    if np.allclose(S, np.eye(d), atol=1e-12):
        lln.SimConfig(1.2, d, np.zeros(d), "identity", S=S)
    else:
        with pytest.raises(DomainError, match="identity variant"):
            lln.SimConfig(1.2, d, np.zeros(d), "identity", S=S)
    # the margins sit on both sides of the rule
    assert np.allclose(S, np.eye(d), atol=1e-12) == (
        abs(diag - 1.0) <= IDENTITY_TOL and (d == 1 or off <= 1e-12))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_s_fails_before_the_symmetry_test(bad):
    S = np.array([[1.0, bad], [0.0, 1.0]])  # also asymmetric
    with pytest.raises(DomainError, match="must be finite"):
        qg._check_spd(S)
    with pytest.raises(DomainError, match="must be finite"):
        lln.SimConfig(1.2, 2, np.zeros(2), "identity", S=S)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_non_finite_q_rejected(q):
    with pytest.raises(DomainError):
        qg.QGaussianParams(q, 1, [0.0], [[1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_v_rejected(bad):
    with pytest.raises(DomainError):
        qg.QGaussianParams(1.2, 2, [0.0, bad], np.eye(2))


def test_non_finite_s_rejected():
    with pytest.raises(DomainError):
        qg.QGaussianParams(1.2, 1, [0.0], [[math.inf]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_densities_reject_non_finite_points(bad):
    # exp_q of a NaN base reads as an infinite density, so no point may be NaN
    p = qg.QGaussianParams(1.5, 2, [0.0, 0.0], np.eye(2))
    with pytest.raises(DomainError, match="finite"):
        qg.density(p, [0.3, bad])
    with pytest.raises(DomainError, match="finite"):
        qg.joint_density(qg.repetition(p, 2), [[0.3, 0.1], [bad, 0.0]])


@pytest.mark.parametrize("x", [[[1.0, 2.0, 3.0]], np.zeros((4, 2)), np.zeros((2, 2, 1))],
                         ids=["size-3", "two-points-as-2d", "wrong-trailing-3d"])
def test_joint_density_rejects_points_of_the_wrong_shape(x):
    # a 2-d input is one (k, d) point: a (2k, d) one used to return the
    # density of its first half, and one of size != k d a bare reshape error
    law = qg.repetition(qg.QGaussianParams(1.5, 2, [0.0, 0.0], np.eye(2)), 2)
    with pytest.raises(DomainError, match="trailing shape"):
        qg.joint_density(law, x)


def test_params_keep_private_read_only_arrays():
    # density and the cached t forms trust the checked v and S, so neither the
    # caller's arrays nor writes into p.v and p.S may change them afterwards
    v, S = np.zeros(2), np.eye(2)
    p = qg.QGaussianParams(1.2, 2, v, S)
    v[0], S[0, 0] = 5.0, -1.0
    assert p.v[0] == 0.0 and p.S[0, 0] == 1.0
    for arr in (p.v, p.S):
        with pytest.raises(ValueError):
            arr[0] = 2.0


@pytest.mark.parametrize("q,d", [(1.0, 1), (1.0, 3), (1.3, 2), (1.5, 3)])
def test_params_factor_s_once_into_read_only_values(q, d):
    # S^-1, log det S and lambda_q(S) are computed once per QGaussianParams,
    # with the bits of fresh inv, slogdet and _lambda calls, and cannot be
    # written or replaced
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d))
    p = qg.QGaussianParams(q, d, rng.normal(size=d), A @ A.T + 0.5 * np.eye(d))
    assert np.array_equal(p._S_inv, np.linalg.inv(p.S))
    assert p._logdet == np.linalg.slogdet(p.S)[1]
    assert p._lam == qg._lambda(p.q, p.d, p.S)
    assert p._S_inv is p._S_inv
    with pytest.raises(ValueError):
        p._S_inv[0, 0] = 2.0
    for name in ("_S_inv", "_logdet", "_lam"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("k", [1, 3])
def test_quad_form_matches_exact_einsum(d, k):
    # the coordinate-first quadratic form against an einsum over exact
    # rationals of the same float inputs, within 1e-15 Q
    rng = np.random.default_rng(10 * d + k)
    A = rng.normal(size=(d, d))
    S, v = A @ A.T + 0.5 * np.eye(d), rng.normal(size=d)
    x = v + rng.normal(scale=2.0, size=(12, k, d))
    exact = np.frompyfunc(Fraction, 1, 1)
    dx = exact(x) - exact(v)
    ref = np.einsum("nki,ij,nkj->n", dx, exact(S), dx)
    got = qg._quad_form(x, v, S)
    assert got.shape == (12,)
    for g, r in zip(got, ref):
        assert abs(Fraction(g) - r) <= Fraction(1e-15) * r


def test_exp_q_pow_is_inf_where_the_base_is_not_positive():
    # exp_q(u) for q = 1.5 is (1 - u/2)^-2 while u < 2, and inf from u = 2 on
    got = qg._exp_q_pow(np.array([-1.0, 0.5, 2.0, 3.0]), 1.5, 1.0)
    assert got[0] == 1.5 ** -2 and got[1] == 0.75 ** -2
    assert np.all(np.isinf(got[2:]))


# ---------------------------------------------------------------------------
# lambda_q
# ---------------------------------------------------------------------------


def test_lambda_gaussian_1d():
    assert qg.lambda_q(1.0, 1, [[1.0]]) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("q,d", [(1.2, 1), (1.5, 1)])
def test_lambda_normalizes_density_1d(q, d):
    p = qg.QGaussianParams(q, d, [0.4], [[1.3]])
    mass = tan_quad(lambda x: qg.density(p, np.array([[x]]))[0], center=0.4)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_lambda_normalizes_density_2d():
    p = qg.QGaussianParams(1.2, 2, [0.0, 0.0], np.eye(2))
    val, _ = integrate.dblquad(
        lambda u1, u2: qg.density(p, np.array([[math.tan(u1), math.tan(u2)]]))[0]
        / math.cos(u1) ** 2 / math.cos(u2) ** 2,
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, epsabs=1e-10)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_lambda_q_to_one_continuity():
    target = qg.lambda_q(1.0, 2, np.eye(2))
    gaps = [abs(qg.lambda_q(q, 2, np.eye(2)) - target) for q in (1.01, 1.001, 1.0001)]
    assert gaps[0] < 5e-2
    assert gaps[1] < 1e-2
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("q,d", [(q, d) for q in (1.001, 1.01, 1.1, 1.5, 1.9) for d in (1, 2, 3)
                                 if d * (q - 1.0) < 2.0])
def test_lambda_matches_mpmath(q, d):
    # lambda_q to rounding against 50 digits, at S = I and three random SPD S;
    # a difference of two lgamma near a = 1/(q - 1) loses up to 1e-12 relative
    import mpmath

    rng = np.random.default_rng(round(100 * q) + d)
    mats = [np.eye(d)] + [A @ A.T + 0.5 * np.eye(d) for A in rng.normal(size=(3, d, d))]
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        for S in mats:
            logz = (d * mpmath.log(qm - 1) + mpmath.log(mpmath.det(mpmath.matrix(S.tolist())
                                                                  / mpmath.pi))) / 2 \
                + mpmath.loggamma(1 / (qm - 1)) - mpmath.loggamma(1 / (qm - 1) - mpmath.mpf(d) / 2)
            ref = mpmath.expm1((1 - qm) * 2 / (2 + d * (1 - qm)) * logz) / (qm - 1)
            assert abs(qg.lambda_q(q, d, S) - ref) <= 1e-14 * abs(ref)


def test_lambda_domain_errors():
    with pytest.raises(DomainError):
        qg.lambda_q(3.5, 1, [[1.0]])
    with pytest.raises(DomainError):
        qg.lambda_q(0.5, 1, [[1.0]])


def test_lambda_non_finite_q_rejected():
    with pytest.raises(DomainError):
        qg.lambda_q(math.nan, 1, [[1.0]])


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_max_at_center():
    p = qg.QGaussianParams(1.5, 1, [0.7], [[1.0]])
    lam = qg.lambda_q(1.5, 1, [[1.0]])
    assert qg.density(p, [0.7]) == pytest.approx((1 + 0.5 * lam) ** -2.0, rel=1e-12)
    assert qg.density(p, [0.7]) > qg.density(p, [0.9])


def test_density_symmetry():
    p = qg.QGaussianParams(1.3, 2, [0.5, -0.5], np.diag([1.0, 2.0]))
    z = np.array([0.3, 0.8])
    assert qg.density(p, p.v + z) == pytest.approx(qg.density(p, p.v - z), rel=1e-14)


def test_density_q1_matches_gaussian():
    S = np.array([[1.2, 0.3], [0.3, 0.8]])
    p = qg.QGaussianParams(1.0, 2, [0.3, -0.2], S)
    ref = multivariate_normal(p.v, np.linalg.inv(S) / 2.0)
    rng = np.random.default_rng(0)
    for x in rng.normal(size=(5, 2)):
        assert qg.density(p, x) == pytest.approx(ref.pdf(x), rel=1e-12)


def test_density_positive_everywhere():
    p = qg.QGaussianParams(1.5, 1, [0.0], [[1.0]])
    assert qg.density(p, [50.0]) > 0.0


def t_oracle(q, v, M, lam, x):
    """scipy's multivariate t density of exp_q(-|x - v|^2_M - lam) on R^D:
    dof 2/(q-1) - D and shape (1 + (q-1) lam)/((q-1) dof) M^-1."""
    dof = 2.0 / (q - 1.0) - M.shape[0]
    shape = (1.0 + (q - 1.0) * lam) / ((q - 1.0) * dof) * np.linalg.inv(M)
    return multivariate_t(v, shape, df=dof).pdf(x)


def test_densities_match_scipy_multivariate_t():
    """density against lambda_q's t form, and joint_density against the
    embedded law exp_{q_k}(-|x - V|^2_Sigma - a_k nu_k), Sigma = a_k beta_k
    (I_k (x) S), on R^{dk}.  q - 1 stays above 5% of its range: near q = 1
    the large dof costs scipy's log-gamma difference its last digits."""
    rng = np.random.default_rng(16)
    for _ in range(60):
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        q = 1.0 + rng.uniform(0.05, 0.95) * 1.9 / d
        A = rng.normal(scale=0.7, size=(d, d))
        S, v = A @ A.T + 0.5 * np.eye(d), rng.normal(size=d)
        p = qg.QGaussianParams(q, d, v, S)
        x = v + rng.normal(size=(50, d))
        ref = t_oracle(q, v, S, qg.lambda_q(q, d, S), x)
        np.testing.assert_allclose(qg.density(p, x), ref, rtol=1e-12, atol=0)

        l = qg.repetition(p, k)
        Sigma = l.a_k * l.beta_k * np.kron(np.eye(k), S)
        X = v + rng.normal(size=(20, k, d))
        ref = t_oracle(l.q_k, np.tile(v, k), Sigma, l.a_k * l.nu_k, X.reshape(20, d * k))
        np.testing.assert_allclose(qg.joint_density(l, X), ref, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# repetition constants
# ---------------------------------------------------------------------------


def test_constants_example():
    l1 = law(1.5, d=1, k=1)
    assert l1.a_k == pytest.approx(2.0)
    assert l1.q_k == pytest.approx(1.25)


def test_constants_q1_branch():
    S = np.array([[2.0, 0.2], [0.2, 0.5]])
    l = qg.repetition(qg.QGaussianParams(1.0, 2, np.zeros(2), S), 3)
    assert l.beta_k == pytest.approx(np.linalg.det(S) ** (-1 / 2), rel=1e-12)
    assert l.nu_k == pytest.approx(3.0 * math.log(math.pi), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_dof_independent_of_k(k):
    l = law(1.5, d=1, k=k)
    assert l.nu_dof == pytest.approx(2.0 / 0.5 + 3.0, rel=1e-13)


def test_dof_formula_2d():
    l = law(1.4, d=2, k=3)
    assert l.nu_dof == pytest.approx(2.0 / 0.4 + 6.0, rel=1e-13)


@pytest.mark.parametrize("q", [1.0, 1.01, 1.2, 1.5, 2.5])
def test_det_beta_k_s_independent_of_s(q):
    # beta_k(S) is proportional to det(S)^(-1/d), so det(beta_k(S) S) = beta_k(I)^d
    rng = np.random.default_rng(int(q * 100))
    for d in (1, 2, 3):
        if d * (q - 1.0) >= 2.0:
            continue
        A = rng.normal(size=(d, d))
        S = A @ A.T + 0.5 * np.eye(d)
        for k in (1, 2, 7):
            beta = law(q, d=d, k=k, S=S).beta_k
            assert np.linalg.det(beta * S) == pytest.approx(law(q, d=d, k=k).beta_k ** d,
                                                            rel=1e-12)


def test_validation_and_t_forms_run_once(monkeypatch):
    """density trusts the S that QGaussianParams checked, repetition computes
    its constants once, and each law builds the block B of its t form at most
    once however many moments are read; the escort mass builds nothing."""
    calls = {}

    def counted(name, real):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    p = qg.QGaussianParams(1.3, 2, [0.1, -0.2], [[1.2, 0.3], [0.3, 0.8]])
    for name in ("_check_spd", "_constants"):
        monkeypatch.setattr(qg, name, counted(name, getattr(qg, name)))
    block = cached_property(counted("_block", qg.RepetitionLaw._block.func))
    block.__set_name__(qg.RepetitionLaw, "_block")
    monkeypatch.setattr(qg.RepetitionLaw, "_block", block)
    qg.density(p, np.zeros((4, 2)))
    l = qg.repetition(p, 2)
    qg.escort_mass(l), qg.escort_moment(l), qg.escort_moment(l, (1,))
    assert calls == {"_constants": 1}
    qg.fij_pair_moments(l, 0, 1)
    assert calls["_block"] == 1
    qg.fi_pair_moments(l, 1), qg.coordinate_moments(l), qg.joint_factor(l)
    qg.escort_mass(l), qg.escort_cov(l), qg.escort_moment(l, (0, 1)), qg.joint_t_params(l)
    assert calls == {"_constants": 1, "_block": 1}


@pytest.mark.parametrize("q", [1.01, 1.3, 1.5])
def test_t_form_log_det_closed_form_matches_slogdet(q):
    # log det((q-1) beta_k S/pi) = -d lgamma(s_k)/s_k, s_k = a_k/(q - 1), by the
    # definition of beta_k
    rng = np.random.default_rng(int(q * 100))
    for d in (1, 2, 3):
        if d * (q - 1.0) >= 2.0:
            continue
        A = rng.normal(size=(d, d))
        S = A @ A.T + 0.5 * np.eye(d)
        for k in range(1, 6):
            l = law(q, d=d, k=k, S=S)
            s_k = l.a_k / (q - 1.0)
            closed = -d * math.lgamma(s_k) / s_k
            logdet = np.linalg.slogdet((q - 1.0) * l.beta_k * S / math.pi)[1]
            assert abs(closed - logdet) <= 1e-13


def test_embedding_normalizer_identity():
    # a_k nu_k equals the closed-form normalizer of the embedded family
    for q, d, k in ((1.5, 1, 2), (1.2, 2, 2), (1.3, 1, 4)):
        l = law(q, d=d, k=k)
        V, Sigma, lam = qg.embed_joint(l)
        assert lam == pytest.approx(qg.lambda_q(l.q_k, d * k, Sigma), rel=1e-10, abs=1e-12)


def test_exp_qk_power_identity():
    l = law(1.5, d=1, k=2)
    g_qk = builtin_gauge("power", q=l.q_k)
    us = np.linspace(-5.0, 1.0 / (l.q_k - 1.0) - 0.01, 50)
    lhs = exp_htau(g_qk, us)
    rhs = qg._exp_q_pow(us / l.a_k, l.base.q, l.a_k)
    assert np.allclose(lhs, rhs, rtol=1e-12)


# ---------------------------------------------------------------------------
# joint density
# ---------------------------------------------------------------------------


def test_joint_q1_is_product_of_gaussians():
    S = np.array([[1.1]])
    l = qg.repetition(qg.QGaussianParams(1.0, 1, [0.5], S), 3)
    cov = np.linalg.inv(2.0 * l.beta_k * S)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(0.5, 1.0, size=(3, 1))
        prod = np.prod([multivariate_normal([0.5], cov).pdf(xi) for xi in x])
        assert qg.joint_density(l, x) == pytest.approx(prod, rel=1e-12)


def test_joint_k1_differs_from_base_density():
    p = qg.QGaussianParams(1.5, 1, [0.0], [[1.0]])
    l = qg.repetition(p, 1)
    x = np.array([[1.0]])
    assert abs(qg.joint_density(l, x) - qg.density(p, [1.0])) > 1e-3


def test_joint_normalization_k2():
    l = law(1.3, d=1, k=2)
    val, _ = integrate.dblquad(
        lambda u1, u2: qg.joint_density(l, np.array([[[math.tan(u1)], [math.tan(u2)]]]))[0]
        / math.cos(u1) ** 2 / math.cos(u2) ** 2,
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, epsabs=1e-10)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_joint_normalization_k3_tensor_grid():
    # independent oracle: tensor Gauss-Legendre on the tangent-transformed cube
    l = law(1.5, d=1, k=3)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    u = 0.5 * math.pi * nodes
    w = 0.5 * math.pi * weights / np.cos(u) ** 2
    t = np.tan(u)
    g1, g2, g3 = np.meshgrid(t, t, t, indexing="ij")
    pts = np.stack([g1, g2, g3], axis=-1)[..., None]
    vals = qg.joint_density(l, pts.reshape(-1, 3, 1)).reshape(g1.shape)
    mass = np.einsum("i,j,k,ijk->", w, w, w, vals)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_scale_invariance_of_joint():
    rng = np.random.default_rng(2)
    l1 = law(1.5, d=1, k=2, S=[[1.0]])
    ls = law(1.5, d=1, k=2, S=[[3.7]])
    for _ in range(10):
        x = rng.normal(size=(2, 1))
        assert qg.joint_density(l1, x) == pytest.approx(qg.joint_density(ls, x), rel=1e-12)


def test_scale_invariance_2d():
    S = np.array([[1.3, 0.2], [0.2, 0.9]])
    l1 = qg.repetition(qg.QGaussianParams(1.2, 2, [0.1, -0.3], S), 2)
    l2 = qg.repetition(qg.QGaussianParams(1.2, 2, [0.1, -0.3], 2.5 * S), 2)
    x = np.array([[0.4, 0.1], [-0.2, 0.6]])
    assert qg.joint_density(l1, x) == pytest.approx(qg.joint_density(l2, x), rel=1e-12)


# ---------------------------------------------------------------------------
# marginal consistency
# ---------------------------------------------------------------------------


def test_marginal_q1_exact():
    res = qg.marginal_check(law(1.0, k=2), law(1.0, k=1), xs=np.array([0.0, 0.7, -1.3]))
    assert res.max_defect <= 1e-12
    v, S = [0.4, -0.6], [[1.5, 0.5], [0.5, 0.8]]
    res = qg.marginal_check(law(1.0, d=2, k=4, v=v, S=S), law(1.0, d=2, k=1, v=v, S=S))
    assert res.max_defect <= 1e-12


def test_marginal_q12_one_out():
    res = qg.marginal_check(law(1.2, k=2), law(1.2, k=1))
    assert res.points.shape[0] == 9
    assert res.max_defect <= 1e-6


def test_marginal_q15_two_out():
    res = qg.marginal_check(law(1.5, k=3), law(1.5, k=1),
                            xs=np.array([-0.5, 0.0, 0.8]), epsabs=1e-9)
    assert res.max_defect <= 1e-5


@st.composite
def marginal_laws(draw):
    """(law of k + k' repetitions, law of k) for q in {1} u [1.001, 1 + 1.9/d),
    d <= 3, k, k' <= 4, an SPD S and a v."""
    d = draw(st.integers(1, 3))
    q = 1.0 + draw(st.one_of(st.just(0.0), st.floats(0.001, 1.9 / d, exclude_max=True)))
    k, kp = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)))
    S = A.reshape(d, d) @ A.reshape(d, d).T + 0.2 * np.eye(d)
    v = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    p = qg.QGaussianParams(q, d, v, S)
    return qg.repetition(p, k + kp), qg.repetition(p, k)


def marginal_defect(big, small):
    """Largest defect of marginal_check relative to the shorter joint."""
    res = qg.marginal_check(big, small)
    return float(np.max(res.defects / qg.joint_density(
        small, res.points.reshape(-1, small.k, small.base.d))))


@given(laws=marginal_laws())
@settings(max_examples=200)
def test_marginal_consistency_property(laws):
    assert marginal_defect(*laws) <= 1e-10


def test_marginal_consistency_near_q_one():
    # _constants takes 1/(q_k - 1) as a_k/(q - 1): from the rounded q_k the
    # joints disagree here by 2.5e-10 (1.5e-13 this way)
    assert marginal_defect(law(1.001, k=3), law(1.001, k=1)) <= 1e-10


def test_marginal_requires_shared_parameters():
    with pytest.raises(DomainError):
        qg.marginal_check(law(1.2, k=2), law(1.3, k=1))


def test_marginal_shared_base_skips_the_parameter_comparison(monkeypatch):
    # laws built from one QGaussianParams need no allclose on v and S; laws
    # from equal but distinct parameters are still compared, and a
    # mismatch in S alone is still rejected
    p = qg.QGaussianParams(1.5, 1, np.zeros(1), np.eye(1))
    with monkeypatch.context() as mp:
        mp.setattr(qg.np, "allclose", lambda *a, **k: pytest.fail("allclose called"))
        assert qg.marginal_check(qg.repetition(p, 2), qg.repetition(p, 1)).max_defect <= 1e-5
    assert qg.marginal_check(law(1.5, k=2), law(1.5, k=1)).max_defect <= 1e-5
    with pytest.raises(DomainError):
        qg.marginal_check(law(1.5, k=2, S=[[2.0]]), law(1.5, k=1))


def _marginal_integrals(law_big, law_small, xs):
    """marginal_check's integrals themselves: against a zero target its
    defects are the integrals."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qg, "_exp_q_pow", lambda u, q, a: np.zeros(len(u)))
        return qg.marginal_check(law_big, law_small, xs=xs).defects


def test_marginal_two_out_matches_mpmath_integral():
    """A Cartesian 2-D integral over the last two blocks of the k = 3 joint
    (d = 1, q = 1.5) at 30 digits.  The integrand is even in each y - v,
    so it is 4 times the integral over one quadrant."""
    import mpmath

    big, small = law(1.5, k=3, v=[0.3]), law(1.5, k=1, v=[0.3])
    x = -0.4
    with mpmath.workdps(30):
        q, a, beta, nu, v = (mpmath.mpf(c) for c in (1.5, big.a_k, big.beta_k, big.nu_k, 0.3))

        def rho(y1, y2):
            r = (x - v) ** 2 + (y1 - v) ** 2 + (y2 - v) ** 2
            return (1 + (q - 1) * (beta * r + nu)) ** (a / (1 - q))

        ref = float(4 * mpmath.quad(rho, [v, mpmath.inf], [v, mpmath.inf]))
    assert abs(_marginal_integrals(big, small, [x])[0] - ref) <= 1e-12
    assert abs(qg.joint_density(small, np.array([[[x]]]))[0] - ref) <= 1e-12


def test_marginal_d2_matches_nested_quadrature():
    """d = 2, k' = 1 with S != I and v != 0 against nested 1-D quadratures of
    joint_density over the trailing block: checks the whitening by S and
    the det(S)^(-k'/2) factor."""
    v, S = [0.4, -0.6], [[1.5, 0.5], [0.5, 0.8]]
    big, small = law(1.3, d=2, k=2, v=v, S=S), law(1.3, d=2, k=1, v=v, S=S)
    x = np.array([0.9, -0.2])

    def inner(y1):
        return tan_quad(lambda y2: qg.joint_density(big, np.array([x, [y1, y2]])),
                        center=v[1])

    ref = tan_quad(inner, center=v[0])
    assert _marginal_integrals(big, small, x.reshape(1, 2))[0] == pytest.approx(ref, rel=1e-10)
    assert qg.marginal_check(big, small, xs=x.reshape(1, 1, 2)).max_defect <= 1e-12


MARGINAL_GRID = [(1.2, 1, 1, 3), (1.5, 1, 2, 3), (1.3, 3, 1, 1), (1.2, 2, 2, 3)]


@pytest.mark.parametrize("q,d,k,kp", MARGINAL_GRID)
def test_marginal_any_d_and_kprime(q, d, k, kp):
    """Odd n = d k' (3, 3, 3) and a larger even one (6), on the default grid."""
    v = np.linspace(-0.5, 0.5, d)
    S = np.eye(d) + 0.2 * (np.ones((d, d)) - np.eye(d))
    res = qg.marginal_check(law(q, d=d, k=k + kp, v=v, S=S), law(q, d=d, k=k, v=v, S=S))
    assert res.points.shape == (9, k * d)
    assert res.abserr.shape == (9,) and np.all(res.abserr <= 1e-10)
    assert res.max_defect <= 1e-12


@pytest.mark.parametrize("q,d,k,kp", MARGINAL_GRID + [(1.0, 2, 1, 2)])
def test_marginal_target_is_the_joint_density(q, d, k, kp):
    # the target reuses the integral's quadratic form; its defects must be
    # |integral - joint_density| to the bit, as when joint_density formed the
    # target, for laws of one QGaussianParams and of two equal ones
    v = np.linspace(-0.5, 0.5, d)
    S = np.eye(d) + 0.2 * (np.ones((d, d)) - np.eye(d))
    p = qg.QGaussianParams(q, d, v, S)
    shared = qg.marginal_check(qg.repetition(p, k + kp), qg.repetition(p, k))
    big, small = law(q, d=d, k=k + kp, v=v, S=S), law(q, d=d, k=k, v=v, S=S)
    assert big.base is not small.base and big.base.q == small.base.q
    apart = qg.marginal_check(big, small)
    pts = apart.points
    fine = _marginal_integrals(big, small, pts)
    want = np.abs(fine - qg.joint_density(small, pts.reshape(-1, k, d)))
    for res in (shared, apart):
        assert np.array_equal(res.points, pts) and np.array_equal(res.defects, want)


def test_marginal_check_forms_one_quadratic_form(monkeypatch):
    # one |x - v|^2_S per row serves the radial integral and the target
    calls = []
    real = qg._quad_form
    monkeypatch.setattr(qg, "_quad_form", lambda x, v, S: calls.append(x.shape) or real(x, v, S))
    p = qg.QGaussianParams(1.3, 2, [0.2, -0.1], [[1.0, 0.3], [0.3, 0.8]])
    for k, kp in ((1, 1), (2, 3)):
        calls.clear()
        qg.marginal_check(qg.repetition(p, k + kp), qg.repetition(p, k))
        assert calls == [(9, k, 2)]


def test_marginal_points_layout():
    big, small = law(1.3, d=2, k=3), law(1.3, d=2, k=2)
    res = qg.marginal_check(big, small, xs=[0.5, -1.0])
    assert res.points.shape == (2, 4)
    assert np.all(res.points[0] == 0.5) and np.all(res.points[1] == -1.0)
    rows = np.array([[[0.1, 0.2], [0.3, -0.4]], [[1.0, 0.0], [0.0, 1.0]]])
    by_block = qg.marginal_check(big, small, xs=rows)
    flat = qg.marginal_check(big, small, xs=rows.reshape(2, 4))
    assert np.array_equal(by_block.points, rows.reshape(2, 4))
    assert np.array_equal(by_block.defects, flat.defects)


@pytest.mark.parametrize("k_big,k_small,kw", [
    (2, 2, {}), (1, 2, {}),
    (3, 2, dict(xs=np.zeros((3, 3)))), (3, 2, dict(xs=np.zeros((4, 2, 3)))),
    (3, 2, dict(xs=[0.0, math.nan])), (3, 2, dict(xs=[[0.0, math.inf]])), (3, 2, dict(xs=[])),
    (3, 2, dict(epsabs=0.0)), (3, 2, dict(epsabs=-1e-10)), (3, 2, dict(epsabs=math.nan)),
    (3, 2, dict(epsabs=math.inf)),
], ids=["kprime-0", "kprime-negative", "trailing-3", "trailing-2x3", "nan", "inf", "empty",
        "epsabs-0", "epsabs-negative", "epsabs-nan", "epsabs-inf"])
def test_marginal_rejects_bad_input(k_big, k_small, kw):
    with pytest.raises(DomainError):
        qg.marginal_check(law(1.5, k=k_big), law(1.5, k=k_small), **kw)


def test_marginal_raises_instead_of_returning_unconverged():
    # 3e6 standard deviations from v, the 4096-node rule misses 1e-10 relative
    with pytest.raises(InfeasibleError):
        qg.marginal_check(law(1.5, k=3), law(1.5, k=1), xs=[1e6], epsabs=1e-300)


def test_marginal_check_calls_no_scipy_quadrature(monkeypatch):
    class NoIntegrate:
        def __getattr__(self, name):
            raise AssertionError(f"integrate.{name} called")

    monkeypatch.setattr(qg, "integrate", NoIntegrate())
    assert qg.marginal_check(law(1.5, k=3), law(1.5, k=1)).max_defect <= 1e-12


def test_radial_rule_is_not_built_at_import():
    src = str(Path(qg.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import dgeo.cli, dgeo.qgauss as qg; "
            "print(qg._radial_rule.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "0"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampler_gaussian_mean():
    l = qg.repetition(qg.QGaussianParams(1.0, 1, [0.7], [[1.0]]), 1)
    n = 100_000
    x = qg.sample_joint(l, n, seed=123).ravel()
    sigma = math.sqrt(qg.central_second(l, 0, 0))
    assert abs(x.mean() - 0.7) <= 4 * sigma / math.sqrt(n)


def test_sampler_deterministic():
    l = law(1.5, k=2)
    a = qg.sample_joint(l, 100, seed=7)
    b = qg.sample_joint(l, 100, seed=7)
    assert np.array_equal(a, b)


# SHA-256 of sample_joint(repetition(p, 7), 5, seed=3).tobytes(); the second
# was re-recorded when _constants stopped reading 1/(q_k - 1) from the rounded
# q_k (its scale moved by 1.7e-16); seeded draws must not change otherwise
SAMPLE_HASHES = [
    ((1.5, 1, [0.3], [[1.2]]),
     "61084d834ebaf5f09ef0d71d7e52fd6b5ca70755c933d098659bb96b3d1b357e"),
    ((1.3, 2, [0.1, -0.4], [[1.2, 0.3], [0.3, 0.8]]),
     "b6e56cf95d370e0e3c197bfeb38de68231d0114205c9947f2c62fd97127e95e9"),
]


@pytest.mark.parametrize("args,digest", SAMPLE_HASHES)
def test_sampler_bit_identical(args, digest):
    l = qg.repetition(qg.QGaussianParams(*args), 7)
    draws = qg.sample_joint(l, 5, seed=3)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


def test_sampler_ks_against_quadrature_cdf():
    l = law(1.5, d=1, k=1)
    n = 100_000
    x = qg.sample_joint(l, n, seed=20240802).ravel()

    def pdf(t):
        t = np.asarray(t, dtype=float)
        return qg.joint_density(l, t.reshape(-1, 1, 1)).reshape(t.shape)

    dist = ks_statistic_vs_density(x, pdf, center=0.0)
    assert dist < ks_critical(n, alpha=0.01)


def test_sampler_pair_covariance_and_dependence():
    l = law(1.5, d=1, k=2)
    n = 100_000
    s = qg.sample_joint(l, n, seed=99)
    x1, x2 = s[:, 0, 0], s[:, 1, 0]
    # coordinates are uncorrelated
    se = math.sqrt(qg.central_fourth(l, 0, 1, 0, 1) / n)
    assert abs(np.mean(x1 * x2)) <= 3 * se
    # but dependent: E[x1^2 x2^2] exceeds the product of variances
    m22 = qg.central_fourth(l, 0, 0, 1, 1)
    var = qg.central_second(l, 0, 0)
    emp = np.mean(x1 ** 2 * x2 ** 2)
    assert m22 > var ** 2 * 1.5
    se22 = np.std(x1 ** 2 * x2 ** 2) / math.sqrt(n)
    assert abs(emp - m22) <= 4 * se22


# ---------------------------------------------------------------------------
# escort integrals
# ---------------------------------------------------------------------------


def test_escort_center_ratio_is_v():
    l = law(1.5, d=1, k=2, v=[1.3])
    assert qg.escort_moment(l, (0,)) / qg.escort_moment(l) == pytest.approx(1.3, rel=1e-12)


def test_escort_mass_matches_quadrature():
    l = law(1.5, d=1, k=1)
    oracle = tan_quad(lambda x: qg.joint_density(l, np.array([[[x]]]))[0] ** l.q_k)
    assert qg.escort_mass(l) == pytest.approx(oracle, abs=1e-8)


def test_escort_second_moment_matches_quadrature():
    l = law(1.5, d=1, k=1, v=[0.4])
    oracle = tan_quad(lambda x: x * x * qg.joint_density(l, np.array([[[x]]]))[0] ** l.q_k,
                      center=0.4)
    assert qg.escort_moment(l, (0, 0)) == pytest.approx(oracle, abs=1e-7)


def test_escort_mass_independent_of_v_and_scale():
    base = qg.escort_mass(law(1.5, d=1, k=2))
    assert qg.escort_mass(law(1.5, d=1, k=2, v=[2.0])) == pytest.approx(base, rel=1e-12)
    assert qg.escort_mass(law(1.5, d=1, k=2, S=[[5.0]])) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_mean_is_center():
    l = law(1.5, d=2, k=1, v=[0.3, -0.7], S=np.eye(2))
    m = qg.coordinate_moments(l, 1)
    assert m.mean == -0.7


def test_second_moment_matches_quadrature():
    l = law(1.5, d=1, k=1)
    assert l.nu_dof == 7.0
    oracle = tan_quad(lambda x: x * x * qg.joint_density(l, np.array([[[x]]]))[0])
    assert qg.coordinate_moments(l).var == pytest.approx(oracle, abs=1e-7)


def test_fourth_moment_matches_quadrature():
    l = law(1.5, d=1, k=1)
    oracle = tan_quad(lambda x: x ** 4 * qg.joint_density(l, np.array([[[x]]]))[0])
    assert qg.coordinate_moments(l).central4 == pytest.approx(oracle, abs=1e-7)


def test_pair_moment_matches_quadrature():
    l = law(1.5, d=1, k=2)
    oracle, _ = integrate.dblquad(
        lambda u1, u2: math.tan(u1) ** 2 * math.tan(u2) ** 2
        * qg.joint_density(l, np.array([[[math.tan(u1)], [math.tan(u2)]]]))[0]
        / math.cos(u1) ** 2 / math.cos(u2) ** 2,
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, epsabs=1e-11)
    assert qg.fi_pair_moments(l)[1] == pytest.approx(oracle, abs=1e-6)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_fij_pair_moments_against_quadrature():
    # the quartic integrand trips scipy's slow-convergence heuristic but the
    # value is stable and cross-checked against the closed form below
    l = law(1.4, d=1, k=2, v=[0.6])
    m_raw2 = qg.coordinate_moments(l).raw2

    def z(t):
        return t * t - m_raw2

    # E[Z^2] from the k=1 marginal
    l1 = law(1.4, d=1, k=1, v=[0.6])
    ez2_oracle = tan_quad(lambda x: z(x) ** 2 * qg.joint_density(l1, np.array([[[x]]]))[0],
                          center=0.6)
    ez12_oracle, _ = integrate.dblquad(
        lambda u1, u2: z(0.6 + math.tan(u1)) * z(0.6 + math.tan(u2))
        * qg.joint_density(l, np.array([[[0.6 + math.tan(u1)], [0.6 + math.tan(u2)]]]))[0]
        / math.cos(u1) ** 2 / math.cos(u2) ** 2,
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, epsabs=1e-10)
    ez2, ez12 = qg.fij_pair_moments(l)
    assert ez2 == pytest.approx(ez2_oracle, abs=1e-6)
    assert ez12 == pytest.approx(ez12_oracle, abs=1e-6)


def test_gaussian_moments_q1():
    l = law(1.0, d=1, k=2)
    var = qg.central_second(l, 0, 0)
    assert qg.central_fourth(l, 0, 0, 0, 0) == pytest.approx(3 * var * var, rel=1e-12)
    assert qg.central_fourth(l, 0, 0, 1, 1) == pytest.approx(var * var, rel=1e-12)


# ---------------------------------------------------------------------------
# block algebra against a dense Kronecker oracle
# ---------------------------------------------------------------------------


def dense_oracle(l):
    """Joint and escort t laws built densely on R^{dk} from the embedded
    density exp_{q_k}(-|x - V|^2_Sigma - lam), Sigma = a_k beta_k (I_k (x) S).

    For q_k > 1, rho^p is proportional to (1 + (q_k-1) Q / t)^(-p/(q_k-1))
    with t = 1 + (q_k-1) lam: a t law with dof 2p/(q_k-1) - D and scale
    t/(dof (q_k-1)) Sigma^{-1} (p = 1 joint, p = q_k escort).  For q = 1
    both are Gaussian with covariance Sigma^{-1}/2.
    """
    p = l.base
    D = p.d * l.k
    Sigma = l.a_k * l.beta_k * np.kron(np.eye(l.k), p.S)
    Sigma_inv = np.linalg.inv(Sigma)
    if p.q == 1.0:
        cov = Sigma_inv / 2.0
        return {"dof": math.inf, "scale": cov, "mass": 1.0, "escort_cov": cov}
    qp, lam = l.q_k, l.a_k * l.nu_k
    t = 1.0 + (qp - 1.0) * lam
    dof = 2.0 / (qp - 1.0) - D
    s = qp / (qp - 1.0)
    dof_e = 2.0 * s - D
    _, logdet = np.linalg.slogdet((qp - 1.0) * Sigma / math.pi)
    log_mass = (D / 2.0 - s) * math.log(t) - 0.5 * logdet \
        + math.lgamma(s - D / 2.0) - math.lgamma(s)
    scale_e = t / (dof_e * (qp - 1.0)) * Sigma_inv
    return {"dof": dof, "scale": t / (dof * (qp - 1.0)) * Sigma_inv,
            "mass": math.exp(log_mass), "escort_cov": scale_e * dof_e / (dof_e - 2.0)}


def dense_fourth(W, dof, a, b, c, d):
    pairs = W[a, b] * W[c, d] + W[a, c] * W[b, d] + W[a, d] * W[b, c]
    return pairs if math.isinf(dof) else pairs * dof * dof / ((dof - 2.0) * (dof - 4.0))


@pytest.mark.parametrize("q", [1.0, 1.2, 1.5])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_block_algebra_matches_dense_oracle(q, d, k):
    rng = np.random.default_rng(100 * d + k)
    A = rng.normal(size=(d, d))
    S = A @ A.T + 0.5 * np.eye(d)
    l = qg.repetition(qg.QGaussianParams(q, d, rng.normal(size=d), S), k)
    ref = dense_oracle(l)
    D = d * k

    assert qg.escort_mass(l) == pytest.approx(ref["mass"], rel=1e-12)
    np.testing.assert_allclose(qg.escort_cov(l), ref["escort_cov"], rtol=1e-12, atol=0)
    dof, mu, scale = qg.joint_t_params(l)
    assert dof == pytest.approx(ref["dof"], rel=1e-12)
    np.testing.assert_array_equal(mu, np.tile(l.base.v, k))
    np.testing.assert_allclose(scale, ref["scale"], rtol=1e-12, atol=0)

    W = ref["scale"] if math.isinf(dof) else ref["scale"] * ref["dof"] / (ref["dof"] - 2.0)
    for a in range(D):
        for b in range(D):
            got = qg.central_second(l, a, b)
            if a // d != b // d:
                assert got == 0.0
            assert got == pytest.approx(W[a, b], rel=1e-12)
    quads = [tuple(rng.integers(0, D, size=4)) for _ in range(200)]
    quads += [(0, 0, 0, 0), (0, 0, D - 1, D - 1), (0, D - 1, 0, D - 1)]
    for a, b, c, e in quads:
        assert qg.central_fourth(l, a, b, c, e) == pytest.approx(
            dense_fourth(ref["scale"], ref["dof"], a, b, c, e), rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 1.3])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_dense_views_equal_kronecker_products(q, d, k):
    # S and S^-1 both have negative off-diagonal entries for d = 3, where the
    # Kronecker product writes -0.0 off the blocks and the views +0.0
    S = np.array([[1.7, -0.4, 0.3], [-0.4, 1.2, 0.5], [0.3, 0.5, 1.0]])[:d, :d]
    l = qg.repetition(qg.QGaussianParams(q, d, np.linspace(0.4, -0.2, d), S), k)
    if d == 3:
        assert np.any(S < 0) and np.any(np.linalg.inv(S) < 0)
    eye = np.eye(k)
    _, _, scale = qg.joint_t_params(l)
    _, Sigma, _ = qg.embed_joint(l)
    for got, block in ((qg.escort_cov(l), l._block), (scale, l._block),
                       (Sigma, l.a_k * l.beta_k * S)):
        assert np.array_equal(got, np.kron(eye, block))
        off = np.kron(eye, np.ones((d, d))) == 0
        assert not np.any(np.signbit(got[off]))


@pytest.mark.parametrize("q,d,k", [(q, d, k) for q in (1.0, 1.0001, 1.01, 1.3, 1.9)
                                   for d in (1, 2, 3) for k in (1, 2, 7) if d * (q - 1.0) < 2.0])
def test_escort_covariance_is_the_joint_scale(q, d, k):
    # the escort is the joint's t form at s_k + 1: dof + 2 and scale
    # B dof/(dof + 2), whose covariance is B itself, bit for bit
    l = qg.repetition(oracle_params(q, d), k)
    assert np.array_equal(qg.escort_cov(l), qg.joint_t_params(l)[2])


def test_moment_index_out_of_range():
    l = law(1.5, d=2, k=3)
    with pytest.raises(DomainError):
        qg.central_second(l, 0, 6)
    with pytest.raises(DomainError):
        qg.central_fourth(l, -1, 0, 0, 0)
    # flat escort coordinates run over 0..k d - 1 and the coordinates of one
    # repetition over 0..d - 1; a negative index is no index from the end
    l1 = law(1.5, d=1, k=3, v=[0.4])
    for call in (lambda: qg.escort_moment(l1, (5,)), lambda: qg.escort_moment(l1, (0, 5)),
                 lambda: qg.escort_moment(l1, (-1,)), lambda: qg.escort_moment(l1, (3, 0)),
                 lambda: qg.fij_pair_moments(l1, 0, 3), lambda: qg.fij_pair_moments(l1, -1, 0),
                 lambda: qg.fi_pair_moments(l1, 1), lambda: qg.coordinate_moments(l1, 1)):
        with pytest.raises(DomainError, match="coordinate index out of range"):
            call()
    assert qg.escort_moment(l1, (2,)) == qg.escort_mass(l1) * 0.4


# ---------------------------------------------------------------------------
# natural coordinates
# ---------------------------------------------------------------------------


def natural_params(V, Sigma):
    """Natural coordinates of exp_q(-|x-V|^2_Sigma - psi): the linear part
    2 Sigma V followed by -(2 - delta_ab) Sigma_ab for a <= b."""
    V, Sigma = np.asarray(V, dtype=float), np.asarray(Sigma, dtype=float)
    iu = np.triu_indices(V.size)
    return np.concatenate([2.0 * Sigma @ V, -(2.0 - (iu[0] == iu[1])) * Sigma[iu]])


def psi_natural(qp, theta, D):
    """Normalizer |V|^2_Sigma + lambda_{qp}(Sigma) at natural coordinates theta."""
    iu = np.triu_indices(D)
    Sigma = np.zeros((D, D))
    Sigma[iu] = -theta[D:] / (2.0 - (iu[0] == iu[1]))
    Sigma = Sigma + Sigma.T - np.diag(np.diag(Sigma))
    V = np.linalg.solve(Sigma, theta[:D]) / 2.0
    return float(V @ Sigma @ V) + qg.lambda_q(qp, D, Sigma)


def test_psi_natural_midpoint_convex():
    l = law(1.5, d=1, k=2)
    qp, D = l.q_k, 2
    rng = np.random.default_rng(8)
    _, _, lam = qg.embed_joint(l)
    for _ in range(20):
        mk = []
        for _ in range(2):
            A = rng.normal(size=(D, D)) * 0.3
            Sigma = A @ A.T + np.eye(D)
            mk.append(natural_params(rng.normal(size=D), Sigma))
        mid = 0.5 * (mk[0] + mk[1])
        lhs = psi_natural(qp, mid, D)
        rhs = 0.5 * (psi_natural(qp, mk[0], D) + psi_natural(qp, mk[1], D))
        assert lhs <= rhs + 1e-9


def test_log_likelihood_stationarity_via_psi():
    # grad psi equals escort moments / escort mass on the embedded family
    l = law(1.5, d=1, k=1, v=[0.4])
    V, Sigma, _ = qg.embed_joint(l)
    th = natural_params(V, Sigma)
    h = 1e-6
    grads = []
    for i in range(th.size):
        e = np.zeros(th.size)
        e[i] = h
        grads.append((psi_natural(l.q_k, th + e, 1) - psi_natural(l.q_k, th - e, 1))
                     / (2 * h))
    mass = qg.escort_mass(l)
    expected = [qg.escort_moment(l, (0,)) / mass, qg.escort_moment(l, (0, 0)) / mass]
    assert np.allclose(grads, expected, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, -1])
def test_mle_rejects_k_below_one_before_any_arithmetic(k):
    # the suite turns RuntimeWarnings into errors, so a mean of no data fails here
    with pytest.raises(DomainError, match="^k must be a positive integer$"):
        qg.mle(1.5, 1, k, [])


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_non_integer_k_is_rejected(k):
    # repetition built a law at k = 2.5, and mle took 5 values as k*d = 2.5*2
    # and then failed in reshape with a bare TypeError
    p = qg.QGaussianParams(1.5, 2, [0.0, 0.0], np.eye(2))
    with pytest.raises(DomainError, match="^k must be a positive integer$"):
        qg.repetition(p, k)
    with pytest.raises(DomainError, match="^k must be a positive integer$"):
        qg.mle(1.5, 2, k, range(5))
    assert qg.repetition(p, np.int64(2)).k == 2


@pytest.mark.parametrize("d,k,family,most", [(1, 1600, "identity_mean_only", 2),
                                             (2, 400, "full", 5)])
def test_mle_factors_each_matrix_once(monkeypatch, d, k, family, most):
    # one eigvalsh per checked matrix and one slogdet in _constants; the full
    # fit adds one inv of S, shared by the t form and the tangents, and the
    # scatter's eigvalsh and inv.  The mean-only defect reads no B, so no
    # inv of S, and row norms of the tangents take no call
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, counted(name, real))
    x = np.random.default_rng(d).standard_t(7, size=(k, d))
    res = qg.mle(1.3, d, k, x, family)
    assert len(calls) <= most, calls
    assert np.array_equal(res.v, x.mean(axis=0)) and res.defect <= 1e-6


@pytest.mark.parametrize("d", [2.0, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"])
def test_non_integer_d_is_rejected(d):
    # the d rule, not a bare TypeError from np.zeros or reshape
    with pytest.raises(DomainError, match="^d must be a positive integer$"):
        qg.QGaussianParams(1.5, d)
    with pytest.raises(DomainError, match="^d must be a positive integer$"):
        qg.lambda_q(1.5, d)
    with pytest.raises(DomainError, match="^d must be a positive integer$"):
        qg.mle(1.5, d, 3, range(6))
    assert qg.QGaussianParams(1.5, np.int64(2)).d == 2


@pytest.mark.parametrize("d", [0, -1])
def test_mle_checks_d_before_the_data_size(d):
    # the d rule comes before the size check, whose k*d would be -3 at d = -1
    with pytest.raises(DomainError, match="^d must be a positive integer$"):
        qg.mle(1.5, d, 3, [])


@pytest.mark.parametrize("d,x,family,what", [
    (1, [[1e308], [1e308], [1e308]], "identity_mean_only", "sum"),
    (2, [[1e308, 0.0], [1e308, 1.0], [0.0, 2.0]], "full", "sum"),
    (2, [[1e200, 1.0], [-1e200, 2.0], [0.0, 5.0]], "full", "scatter"),
    # the sum is finite, but a point minus the mean is not
    (2, [[1.7e308, 1.0], [-1.7e308, 2.0], [-1.7e308, 5.0]], "full", "scatter"),
], ids=["sum-d1", "sum-d2", "scatter", "scatter-centering"])
def test_mle_refuses_data_beyond_double_range(d, x, family, what):
    # the suite turns RuntimeWarnings into errors, so an overflow warning fails here
    with pytest.raises(DomainError, match=f"^the data's {what} leaves double range$"):
        qg.mle(1.5, d, 3, x, family)


@pytest.mark.parametrize("family", ["identity_mean_only", "full"])
def test_mle_takes_data_of_shape_k_d_or_flat_only(family):
    x = np.array([[0.1, 2.0], [0.9, 1.1], [-0.4, -0.7], [1.3, 0.2]])
    res = qg.mle(1.3, 2, 4, x, family)
    flat = qg.mle(1.3, 2, 4, x.ravel(), family)
    assert np.array_equal(flat.v, res.v) and np.array_equal(flat.S, res.S)
    assert flat.defect == res.defect
    # a (d, k) array holds k*d values too, but read row-major it is other points
    with pytest.raises(DomainError, match=r"^data must be of shape \(4, 2\) or \(8,\), "
                                          r"not \(2, 4\)$"):
        qg.mle(1.3, 2, 4, x.T, family)
    for bad in (x.reshape(1, 8), x.reshape(2, 2, 2), x[None]):
        with pytest.raises(DomainError, match="^data must be of shape"):
            qg.mle(1.3, 2, 4, bad, family)
    with pytest.raises(DomainError, match="^data must be of shape"):
        qg.mle(1.3, 1, 3, [[0.3, 1.7, -0.5]], family)
    with pytest.raises(DomainError, match="^data must be of shape"):
        qg.mle(1.3, 1, 1, 0.83, family)


def _moved_law(q, d, k, family, seed):
    """Data x of shape (k, d) and a law away from their fit: v is the mean
    moved by 0.1 per coordinate and, for the full family, S is a fixed SPD
    matrix with trace d moved by a small symmetric trace-free step."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(7, size=(k, d)) + rng.normal(size=d)
    v = x.mean(axis=0) + 0.1
    S = np.eye(d)
    if family == "full":
        S = S + 0.3 * (np.ones((d, d)) - np.eye(d)) / d
        A = rng.normal(size=(d, d))
        E = A + A.T - 2.0 * np.trace(A) / d * np.eye(d)
        S = S + 0.05 * E / max(1.0, np.abs(E).max())
    return x, law(q, d, k, v, S)


def _ambient_defect(l, x, family):
    """The stationarity defect on R^{dk}: the raw escort moments of every flat
    coordinate and of every pair i <= j in one repetition, minus the escort
    mass times the data's statistics, projected on the tangent block of
    _slice_tangents repeated k times."""
    d, k = l.base.d, l.k
    mass = qg.escort_mass(l)
    r = []
    for m in range(k):
        at = m * d
        r += [qg.escort_moment(l, (at + i,)) - mass * x[m, i] for i in range(d)]
        r += [qg.escort_moment(l, (at + i, at + j)) - mass * x[m, i] * x[m, j]
              for i, j in zip(*np.triu_indices(d))]
    U = np.tile(qg._slice_tangents(l, family), k)
    return float(np.max(np.abs(U @ np.array(r)) / np.linalg.norm(U, axis=1)))


@pytest.mark.parametrize("family", ["identity_mean_only", "full"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_stationarity_defect_matches_the_ambient_residual(d, k, family):
    for seed in range(3):
        x, l = _moved_law(1.3, d, k, family, seed)
        got = qg._stationarity_defect(l, x.sum(axis=0), _scatter(x), family)
        ref = _ambient_defect(l, x, family)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
        assert got > 1e-3  # away from the fit


def _scatter(x):
    """The scatter of the rows of x about their mean, as mle forms it."""
    centered = x - x.sum(axis=0) / len(x)
    return centered.T @ centered


def _full_residual_defect(l, x, family):
    """The defect with the whole residual, linear and quadratic, against
    every tangent row, whichever columns of the tangents are zero.  The
    quadratic part k (v v^T + B) - X^T X is formed as k (B + e v^T + m e^T) - M,
    with m the mean of x, e = v - m and M the scatter of x about m."""
    p = l.base
    d, k = p.d, l.k
    iu = np.triu_indices(d)
    xsum = x.sum(axis=0)
    e = p.v - xsum / k
    second = l._block + np.outer(e, p.v) + np.outer(xsum / k, e)
    r = qg.escort_mass(l) * np.concatenate([k * p.v - xsum, (k * second - _scatter(x))[iu]])
    T = qg._slice_tangents(l, family)
    nrm = np.sqrt(np.einsum("ij,ij->i", T, T)) * math.sqrt(k)
    return float(np.max(np.abs(T @ r) / nrm))


MLE_GRID = [(q, d, k, family) for q in (1.0, 1.3, 1.5) for d in (1, 2, 3) for k in (1, 3, 400)
            for family in ("identity_mean_only", "full")
            if not (family == "full" and 1 < d and k <= d)]  # a singular scatter


@pytest.mark.parametrize("q,d,k,family", MLE_GRID)
def test_mle_defect_is_the_full_residual_defect(q, d, k, family):
    rng = np.random.default_rng(d * 1000 + k)
    x = rng.standard_t(7, size=(k, d)) + rng.normal(size=d)
    res = qg.mle(q, d, k, x, family)
    fit = law(q, d, k, res.v, res.S)
    assert res.defect == _full_residual_defect(fit, x, family)


def test_mle_k1_returns_data_point():
    for q in (1.0, 1.3, 1.5):
        res = qg.mle(q, 1, 1, np.array([[0.83]]), "identity_mean_only")
        assert res.v == pytest.approx([0.83], abs=1e-10)


def test_mle_mean_is_sample_mean():
    x = np.array([[0.3], [1.7], [-0.5]])
    res = qg.mle(1.5, 1, 3, x, "identity_mean_only")
    assert res.v == pytest.approx([0.5], abs=1e-9)


def test_mle_defect_small_d1():
    rng = np.random.default_rng(9)
    for k in (1, 2, 3):
        x = rng.normal(size=(k, 1))
        res = qg.mle(1.5, 1, k, x, "full")
        assert res.defect <= 1e-6


def test_mle_q1_gaussian_reduction():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 2))
    res = qg.mle(1.0, 2, 5, x, "identity_mean_only")
    assert res.v == pytest.approx(x.mean(axis=0), abs=1e-10)


def test_mle_full_2d_stationarity():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 2))
    res = qg.mle(1.4, 2, 6, x, "full")
    assert abs(np.trace(res.S) - 2.0) <= 1e-10
    assert res.defect <= 1e-5
    assert res.v == pytest.approx(x.mean(axis=0), abs=1e-8)


def test_mle_full_2d_singular_scatter():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # collinear
    with pytest.raises(InfeasibleError):
        qg.mle(1.4, 2, 3, x, "full")


def test_mle_likelihood_is_maximized_at_fit():
    l_obj = law(1.5, d=1, k=3)
    x = np.array([[0.3], [1.7], [-0.5]])
    res = qg.mle(1.5, 1, 3, x, "identity_mean_only")

    def loglik(v):
        li = law(1.5, d=1, k=3, v=[v])
        return qg.joint_density(li, x)

    best = loglik(res.v[0])
    for dv in (-0.05, -0.01, 0.01, 0.05):
        assert loglik(res.v[0] + dv) < best


@pytest.mark.parametrize("family", ["identity_mean_only", "full"])
def test_mle_scale_k_1e5(family):
    # a dense dk x dk matrix here would need ~320 GB, so any dense path
    # fails at once instead of slowly
    k = 100_000
    rng = np.random.default_rng(12)
    x = np.array([0.4, -1.1]) + rng.standard_t(7, size=(k, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
    res = qg.mle(1.3, 2, k, x, family)
    assert res.v == pytest.approx(x.mean(axis=0), abs=1e-10)
    assert res.defect <= 1e-6


def test_slice_tangents_match_finite_differences():
    # the exact tangents against central differences of natural_params of
    # (v, a_k beta_k(S) S), each constant recomputed from the moved S
    q, d, k = 1.4, 3, 5
    v = np.array([0.3, -0.1, 0.6])
    S = np.array([[1.5, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 0.6]])
    l = qg.repetition(qg.QGaussianParams(q, d, v, S), k)
    iu = np.triu_indices(d)

    def theta(vv, SS):
        a_k, _, beta_k, _ = qg._constants(q, d, k, SS)
        return natural_params(vv, a_k * beta_k * SS)[: d + iu[0].size]

    h = 1e-6
    fd = [(theta(v + h * e, S) - theta(v - h * e, S)) / (2 * h) for e in np.eye(d)]
    for a, b in zip(*iu):
        if a == b == d - 1:
            continue
        E = np.zeros((d, d))
        E[a, b] = E[b, a] = 1.0
        if a == b:
            E[d - 1, d - 1] = -1.0
        fd.append((theta(v, S + h * E) - theta(v, S - h * E)) / (2 * h))
    exact = qg._slice_tangents(l, "full")
    assert len(exact) == len(fd) == d + d * (d + 1) // 2 - 1
    for u, ref in zip(exact, fd):
        np.testing.assert_allclose(u, ref, rtol=1e-7, atol=1e-7 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# closed forms against 50-digit radial quadrature
# ---------------------------------------------------------------------------


ORACLE_GRID = [(q, d, k) for q in (1.01, 1.2, 1.5, 2.5) for d in (1, 2, 3) for k in (1, 2, 7)
               if d * (q - 1.0) < 2.0]


def oracle_params(q, d):
    S = np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d))
    S[0, 0] = 1.7
    return qg.QGaussianParams(q, d, np.linspace(0.4, -0.2, d), S)


def radial(f, D, det_M, r0, maxdegree=5):
    """Integral over R^D of f(y^T M y), det M = det_M, as a 1-D integral in
    the radius r = |y|_M: 2 pi^{D/2}/Gamma(D/2) det(M)^{-1/2} times
    int_0^inf f(r^2) r^{D-1} dr, by mpmath.quad in x = r/r0.  With r0 near
    the peak of the integrand, degree 5 is good to ~1e-14 on ORACLE_GRID."""
    import mpmath

    area = 2 * mpmath.pi ** (mpmath.mpf(D) / 2) / mpmath.gamma(mpmath.mpf(D) / 2)
    inner = mpmath.quad(lambda x: f((r0 * x) ** 2) * (r0 * x) ** (D - 1), [0, mpmath.inf],
                        maxdegree=maxdegree)
    return area / mpmath.sqrt(det_M) * r0 * inner


@pytest.mark.parametrize("q,d", sorted({(q, d) for q, d, _ in ORACLE_GRID}))
def test_lambda_q_normalizes_density_mpmath(q, d):
    import mpmath

    p = oracle_params(q, d)
    with mpmath.workdps(50):
        mq, lam = mpmath.mpf(q), mpmath.mpf(qg.lambda_q(q, d, p.S))
        mass = radial(lambda Q: (1 + (mq - 1) * (Q + lam)) ** (-1 / (mq - 1)), d,
                      mpmath.mpf(np.linalg.det(p.S)), mpmath.sqrt(d))
    assert abs(mass - 1) <= 1e-13


@pytest.mark.parametrize("q,d,k", ORACLE_GRID)
def test_joint_constants_normalize_mpmath(q, d, k):
    """(a_k, q_k, beta_k, nu_k) make exp_{q_k}(-a_k (beta_k Q + nu_k)) a
    probability density on R^{dk}."""
    import mpmath

    l = qg.repetition(oracle_params(q, d), k)
    D = d * k
    with mpmath.workdps(50):
        a, qk, beta, nu = (mpmath.mpf(c) for c in (l.a_k, l.q_k, l.beta_k, l.nu_k))
        mass = radial(lambda Q: (1 + (qk - 1) * a * (beta * Q + nu)) ** (-1 / (qk - 1)), D,
                      mpmath.mpf(np.linalg.det(l.base.S)) ** k, mpmath.sqrt(D / (a * beta)))
    # _constants takes 1/(q_k - 1) as a_k/(q - 1): from the rounded q_k the mass
    # at q = 1.01 was 5.3e-12 off 1
    assert abs(mass - 1) <= 1e-12


@pytest.mark.parametrize("q,d,k", ORACLE_GRID)
def test_escort_mass_and_second_moment_mpmath(q, d, k):
    """The escort integrals of 1 and of Q = |x - v|^2 in one complex quadrature.
    Within a block E[(x - v)_a (x - v)_b] = (S^-1)_ab E[Q]/(d k); across
    blocks it is 0."""
    import mpmath

    p = oracle_params(q, d)
    l = qg.repetition(p, k)
    D = d * k
    with mpmath.workdps(50):
        mq, a, qk, beta, nu = (mpmath.mpf(c) for c in (q, l.a_k, l.q_k, l.beta_k, l.nu_k))
        # rho^{q_k} = (1 + (q-1)(beta_k Q + nu_k))^(-a_k q_k/(q-1))
        both = radial(lambda Q: (1 + (mq - 1) * (beta * Q + nu)) ** (-a * qk / (mq - 1))
                      * mpmath.mpc(1, Q), D, mpmath.mpf(np.linalg.det(p.S)) ** k,
                      mpmath.sqrt(D / (a * beta)))
    mass, mQ = float(both.real), float(both.imag)
    assert qg.escort_mass(l) == pytest.approx(mass, rel=1e-12)
    S_inv, V = np.linalg.inv(p.S), np.tile(p.v, k)
    for i, j in {(0, 0), (0, d - 1), (0, D - 1), (D - 1, D - 1)}:
        cov = S_inv[i % d, j % d] * mQ / D if i // d == j // d else 0.0
        assert qg.escort_moment(l, (i, j)) == pytest.approx(mass * V[i] * V[j] + cov, rel=1e-12)


@pytest.mark.parametrize("q", [1.0001, 1.001, 1.01, 1.5])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_escort_mass_is_a_ratio_of_integrals_mpmath(q, d, k):
    """escort_mass is the integral of rho^{q_k} over that of rho, both taken
    with the law's own constants, so the joint's rounding of 1 cancels; the
    exponent of rho^{q_k} is (a_k + q - 1)/(q - 1), not from the rounded q_k."""
    import mpmath

    p = oracle_params(q, d)
    l = qg.repetition(p, k)
    D = d * k
    with mpmath.workdps(50):
        mq, a, beta, nu = (mpmath.mpf(c) for c in (q, l.a_k, l.beta_k, l.nu_k))
        s = a / (mq - 1)

        def both(Q):  # rho^{q_k} + i rho
            base = 1 + (mq - 1) * (beta * Q + nu)
            return mpmath.mpc(base ** (-s - 1), base ** -s)

        det, r0 = mpmath.mpf(np.linalg.det(p.S)) ** k, mpmath.sqrt(D / (a * beta))
        ratios = [I.real / I.imag for I in (radial(both, D, det, r0, m) for m in (6, 7))]
        assert abs(ratios[1] / ratios[0] - 1) <= 1e-14  # the oracle holds
    assert qg.escort_mass(l) == pytest.approx(float(ratios[1]), rel=1e-13)
