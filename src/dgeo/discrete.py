"""Deformed exponential families on a finite weighted sample space.

A family is specified by positive weights mu(x), a gauge, an n-by-|X|
statistic matrix T, an offset c and a natural-parameter domain.  Members
have densities

    p_theta(x) = exp_g(<theta, T(x)> - c(x) - psi(theta)),

where exp_g is the gauge's deformed exponential and psi(theta) is the
unique normalizer making the weighted mass one.  The module computes
densities, divergences, entropies, the induced metric and connection in
theta coordinates, verifies the Hessian-potential identity g = d eta / d theta
by first differences of eta = grad Phi, and the canonical-divergence identity,
where the tau-mass is constant as its exact gradient reads it, projects by
moment matching in one Newton on (theta, psi), with no psi-solve per step,
and checks affine reparametrization invariance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleError, NoSolutionError
from .gauge import (_NEWTON_SETTLED, _X_TABLE, GaugeTriple, _coordinate, _rtsafe, derived,
                    d_htau, exp_htau, gauge_from_json, gauge_to_json)

# Not scipy.optimize, which no dgeo code calls: perfbench/tracer.py looks the
# name up to save it before it patches in its brentq stand-in.  Goes with
# that stand-in (ROADMAP item 2, the benchmark refresh).
optimize = None

__all__ = [
    "DiscreteBase",
    "DiscreteFamilySpec",
    "GeometryReport",
    "ProjectionResult",
    "EntropyMaxResult",
    "normalize",
    "density_vector",
    "divergence",
    "entropy",
    "psi_gradient",
    "psi_hessian",
    "metric",
    "connection_raw",
    "hessian_check",
    "canonical_divergence_check",
    "conformal_check",
    "pythagorean_project",
    "entropy_max_check",
    "affine_reparam_check",
    "spec_from_json",
    "spec_to_json",
]

_RANK_TOL = 1e-10
_FD_STEP = 1e-4    # hessian_check's difference step, relative to max(1, |theta_i|)
_ITAU_FLAT = 1e-8  # largest |d I_tau / d theta_i| taken for a constant tau-mass


@dataclass(frozen=True)
class DiscreteBase:
    """Finite sample space with positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0) or not np.all(np.isfinite(w)):
            raise DomainError("weights must be a non-empty 1-d array of positive finite reals")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class DiscreteFamilySpec:
    """Statistics T (n x |X|), offset c and gauge defining the family.

    The rows of T together with the all-ones row must be linearly
    independent (checked through singular values), which makes the
    representation minimal and theta identifiable.
    """

    base: DiscreteBase
    gauge: GaugeTriple
    T: np.ndarray
    c: np.ndarray
    theta_box: Optional[np.ndarray] = None

    def __post_init__(self):
        T = np.atleast_2d(np.asarray(self.T, dtype=float))
        c = np.asarray(self.c, dtype=float)
        m = self.base.size
        if T.shape[1] != m or c.shape != (m,):
            raise DomainError(f"T must be (n, {m}) and c length {m}")
        n = T.shape[0]
        if n > m - 1:
            raise DomainError("family dimension must satisfy n <= |X| - 1")
        stacked = np.vstack([T, np.ones(m)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] <= _RANK_TOL * sv[0]:
            raise DomainError("rows of T together with the ones row are linearly dependent")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "c", c)
        if self.theta_box is not None:
            box = np.asarray(self.theta_box, dtype=float)
            if box.shape != (n, 2):
                raise DomainError(f"theta_box must be ({n}, 2)")
            object.__setattr__(self, "theta_box", box)

    @property
    def dim(self) -> int:
        return self.T.shape[0]


def _in_box(spec: DiscreteFamilySpec, th: np.ndarray) -> np.ndarray:
    """Whether each row of th (shape (..., n)) lies in theta_box."""
    if spec.theta_box is None:
        return np.ones(th.shape[:-1], dtype=bool)
    return np.all((th >= spec.theta_box[:, 0]) & (th <= spec.theta_box[:, 1]), axis=-1)


def _theta_vec(spec: DiscreteFamilySpec, theta) -> np.ndarray:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (spec.dim,):
        raise DomainError(f"theta must have length {spec.dim}")
    if not np.all(np.isfinite(th)):
        raise DomainError("theta must be finite")
    if not _in_box(spec, th):
        raise DomainError("theta outside theta_box")
    return th


def density_vector(spec: DiscreteFamilySpec, values, tol: float = 1e-10) -> np.ndarray:
    """Validate a candidate density: values in I and weighted mass one."""
    p = np.asarray(values, dtype=float)
    if p.shape != (spec.base.size,):
        raise DomainError(f"density must have length {spec.base.size}")
    spec.gauge.I.require(p, "density value")
    mass = float(spec.base.weights @ p)
    if abs(mass - 1.0) > tol:
        raise DomainError(f"density mass {mass} deviates from 1 beyond {tol}")
    return p


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


_NO_MEMBER = "no member at this theta: the mass cannot reach one with every density value inside I"


_FLAT_ITER = 40    # flat Newton steps before a row falls back to the bracketed path
_FLAT_DX = 4.0     # cap on each flat Newton step, in the x of gauge._coordinate
_MASS_TOL = 1e-12  # |sum mu p - 1| allowed of a member


def _solve_psi(spec: DiscreteFamilySpec, thetas: np.ndarray,
               warm=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi (B,), densities (B, |X|) and a has-a-member flag for each row of thetas.

    With u = <theta, T> - c, a gauge with a closed-form exp_fn takes the
    bracketed path (``_psi_bracketed``) for every row.  Any other gauge
    takes the flat Newton of ``_psi_flat`` on (p, psi); rows it does not
    settle, or whose result fails the member test, take the bracketed
    path, so the flags mean the same on either path.  warm is None or a
    first-order (psi, p) from a nearby member (``Member.warm``); a row
    starts cold, from p = 1 / sum(mu) and psi = the mu-mean of u minus
    ell(1 / sum(mu)), when there is none or its warm p is not inside I.
    """
    g = spec.gauge
    w = spec.base.weights
    U = np.atleast_2d(thetas) @ spec.T - spec.c
    if not g.I.contains(1.0 / w.sum()):   # the mass lies between sum(mu)*lo and sum(mu)*hi
        return np.full(len(U), np.nan), np.full(U.shape, np.nan), np.zeros(len(U), dtype=bool)
    c = float(derived(g).ell.value(1.0 / w.sum()))

    def cold():
        return U @ w / w.sum() - c

    def member(P):
        return np.all(np.isfinite(P) & (P > g.I.lo) & (P < g.I.hi), axis=1) \
            & (np.abs(P @ w - 1.0) <= _MASS_TOL)

    psi0 = cold() if warm is None else np.broadcast_to(warm[0], (len(U),))
    if g.exp_fn is not None:
        psi, P = _psi_bracketed(g, w, U, psi0, c)
        return psi, P, member(P)
    P0 = np.full(U.shape, 1.0 / w.sum())
    start = cold()
    if warm is not None:
        Pw = np.broadcast_to(warm[1], U.shape)
        inside = np.all(g.I.contains(Pw), axis=1)
        P0[inside], start[inside] = Pw[inside], psi0[inside]
    psi, P = _psi_flat(g, w, U, start, P0)
    rest = ~member(P)
    if rest.any():
        psi[rest], P[rest] = _psi_bracketed(g, w, U[rest], psi0[rest], c)
    return psi, P, member(P)


def _psi_flat(g: GaugeTriple, w: np.ndarray, U: np.ndarray, psi: np.ndarray,
              P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton on ell(p) = u - psi and sum mu p = 1 together, for all rows at once.

    With r = ell(p) - u + psi and chi = 1/ell'(p) the step is closed form:
    dpsi = (sum mu p - 1 - sum mu chi r) / sum mu chi and dp = -chi (r + dpsi).
    It is taken in the x of ``_coordinate`` (dx = dp / (dt/dx), capped at
    _FLAT_DX), so p stays inside I.  A row is settled by a step whose |dx|
    and |dpsi| / max(1, |psi|) are all below _NEWTON_SETTLED; that step is
    still taken, which leaves an error of about its square.  Rows that are
    not settled after _FLAT_ITER steps, or whose x leaves the range of
    ``_X_TABLE``, stop with NaN densities.
    """
    ell = derived(g).ell
    tmap, xmap = _coordinate(g.I)
    psi = psi.copy()
    out = np.full(U.shape, np.nan)
    live = np.arange(len(U))
    with np.errstate(all="ignore"):
        x = xmap(P)
        for _ in range(_FLAT_ITER):
            t, dtdx = tmap(x)
            chi = 1.0 / np.asarray(ell.d1(t), dtype=float)
            r = np.asarray(ell.value(t), dtype=float) - U[live] + psi[live, None]
            dpsi = (t @ w - 1.0 - (chi * r) @ w) / (chi @ w)
            dx = -chi * (r + dpsi[:, None]) / dtdx
            settled = np.all(np.abs(dx) <= _NEWTON_SETTLED, axis=1) \
                & (np.abs(dpsi) <= _NEWTON_SETTLED * np.maximum(1.0, np.abs(psi[live])))
            x = x + np.clip(dx, -_FLAT_DX, _FLAT_DX)
            psi[live] += dpsi
            lost = ~np.all((x >= _X_TABLE[0]) & (x <= _X_TABLE[-1]), axis=1)  # NaN too
            if settled.any():
                out[live[settled & ~lost]] = tmap(x[settled & ~lost])[0]
            keep = ~(settled | lost)
            live, x = live[keep], x[keep]
            if live.size == 0:
                break
    return psi, out


def _psi_bracketed(g: GaugeTriple, w: np.ndarray, U: np.ndarray, psi0: np.ndarray,
                   c: float) -> tuple[np.ndarray, np.ndarray]:
    """psi by safeguarded Newton-bisection on -log mass, with p = exp_htau(u - psi).

    -log mass is increasing in psi with slope sum mu chi(p) / mass.  With
    c = ell(1 / sum(mu)), every p is >= (<=) 1 / sum(mu) at psi = min u - c
    (max u - c), which brackets the root.
    """
    chi = derived(g).chi
    lo_e, hi_e = g.ell_range
    a = np.maximum(U.min(axis=1) - c, U.max(axis=1) - hi_e)
    b = np.minimum(U.max(axis=1) - c, U.min(axis=1) - lo_e)

    def evaluate(x, live):
        P = np.asarray(exp_htau(g, U[live] - x[:, None]), dtype=float)
        mass = P @ w
        return -np.log(mass), (np.asarray(chi.value(P), dtype=float) @ w) / mass

    psi = _rtsafe(evaluate, psi0, a, b)
    with np.errstate(all="ignore"):
        return psi, np.asarray(exp_htau(g, U - psi[:, None]), dtype=float)


def _solve_one(spec: DiscreteFamilySpec, th: np.ndarray, warm=None) -> tuple[float, np.ndarray]:
    psi, P, ok = _solve_psi(spec, th[None], warm)
    if not ok[0]:
        raise InfeasibleError(_NO_MEMBER)
    return float(psi[0]), P[0]


def normalize(spec: DiscreteFamilySpec, theta) -> tuple[float, np.ndarray]:
    """The normalizer psi and density for a natural parameter.

    psi is the unique root of sum_x exp_g(<theta,T(x)> - c(x) - psi) mu(x) = 1
    (the mass is strictly decreasing in psi).  A gauge with a closed-form
    deformed exponential finds it by safeguarded Newton-bisection on psi.
    Any other gauge solves for psi and the density together by one flat
    Newton iteration, and falls back to the bracketed search, which
    inverts ell at every step, where that does not settle.  If the mass
    cannot reach one with every density value strictly inside I, the
    family has no member at this theta and an InfeasibleError is raised.
    """
    return _solve_one(spec, _theta_vec(spec, theta))


# ---------------------------------------------------------------------------
# divergence / entropy
# ---------------------------------------------------------------------------


def divergence(spec: DiscreteFamilySpec, p, p2) -> float:
    """Weighted sum of the divergence kernel between two densities."""
    p = density_vector(spec, p)
    p2 = density_vector(spec, p2)
    return float(spec.base.weights @ np.asarray(d_htau(spec.gauge, p, p2), dtype=float))


def entropy(spec: DiscreteFamilySpec, p) -> float:
    """Weighted trace-form entropy sum_x s(p(x)) mu(x) with s = -h o tau."""
    p = density_vector(spec, p)
    return float(spec.base.weights @ np.asarray(derived(spec.gauge).s.value(p), dtype=float))


# ---------------------------------------------------------------------------
# psi derivatives, metric, connection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    """A member p_theta with chi and chi' at p, the tau-escort weights
    mu tau' chi, the escort mean grad of T (the gradient of psi) and
    resid = T - grad."""

    spec: DiscreteFamilySpec
    theta: np.ndarray
    psi: float
    p: np.ndarray
    chi: np.ndarray
    chi1: np.ndarray
    tau_w: np.ndarray
    grad: np.ndarray
    resid: np.ndarray

    def psi_hessian(self) -> np.ndarray:
        w = self.spec.base.weights
        return (self.resid * (w * self.chi * self.chi1)) @ self.resid.T / float(w @ self.chi)

    def metric(self) -> np.ndarray:
        return (self.resid * self.tau_w) @ self.resid.T

    def potential(self) -> float:
        return float(_potential(self.spec, self.psi, self.p))

    def itau_gradient(self) -> np.ndarray:
        """d I_tau / d theta = sum mu tau' chi (T - grad psi), since dp / d theta
        = chi (T - grad psi)."""
        return self.resid @ self.tau_w

    def flat(self) -> bool:
        return bool(np.max(np.abs(self.itau_gradient())) <= _ITAU_FLAT)

    def connection(self) -> np.ndarray:
        return np.einsum("ij,k->ijk", -self.psi_hessian(), self.itau_gradient())

    def warm(self, thetas: np.ndarray):
        """First-order psi and p at nearby thetas: dpsi = dtheta grad and
        dp = chi dtheta resid.  p is None for a gauge with exp_fn, whose
        solve starts from psi alone."""
        dth = thetas - self.theta
        p = None if self.spec.gauge.exp_fn else self.p + self.chi * (dth @ self.resid)
        return self.psi + dth @ self.grad, p


def _member(spec: DiscreteFamilySpec, theta, warm=None) -> Member:
    th = _theta_vec(spec, theta)
    psi, p = _solve_one(spec, th, warm)
    d = derived(spec.gauge)
    w = spec.base.weights
    chi = np.asarray(d.chi.value(p), dtype=float)
    grad = (spec.T @ (w * chi)) / float(w @ chi)
    return Member(spec, th, psi, p, chi, np.asarray(d.chi.d1(p), dtype=float),
                  w * np.asarray(spec.gauge.tau.d1(p), dtype=float) * chi, grad,
                  spec.T - grad[:, None])


def psi_gradient(spec: DiscreteFamilySpec, theta) -> np.ndarray:
    """Gradient of psi: escort-reweighted statistic means."""
    return _member(spec, theta).grad


def psi_hessian(spec: DiscreteFamilySpec, theta) -> np.ndarray:
    return _member(spec, theta).psi_hessian()


def metric(spec: DiscreteFamilySpec, theta) -> np.ndarray:
    """Metric in theta coordinates induced by the divergence."""
    return _member(spec, theta).metric()


def connection_raw(spec: DiscreteFamilySpec, theta) -> np.ndarray:
    """g(nabla_i partial_j, partial_k) = -hess(psi)_ij * d_k(tau-mass)."""
    return _member(spec, theta).connection()


# ---------------------------------------------------------------------------
# Hessian structure and canonical divergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometryReport:
    theta: np.ndarray
    g: np.ndarray
    christoffel_raw: np.ndarray
    potential: float
    hess_potential: Optional[np.ndarray]
    max_defect: float
    connection_max: float
    itau_gradient: float  # max_i |d I_tau / d theta_i|
    status: str  # "ok" or "not_applicable"
    message: str = ""

    def to_json(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in vars(self).items()}


def _tau_mass(spec: DiscreteFamilySpec, P: np.ndarray):
    return np.asarray(spec.gauge.tau.value(P), dtype=float) @ spec.base.weights


def _tau_moments(spec: DiscreteFamilySpec, P: np.ndarray) -> np.ndarray:
    """eta = sum_x mu T tau(p), for one density or a batch of rows."""
    return (np.asarray(spec.gauge.tau.value(P), dtype=float) * spec.base.weights) @ spec.T.T


def _potential(spec: DiscreteFamilySpec, psi, P: np.ndarray):
    """-sum_x mu s_star(p) + psi * I_tau(p), for one density or a batch of rows."""
    s_star = np.asarray(derived(spec.gauge).s_star.value(P), dtype=float)
    return -(s_star @ spec.base.weights) + psi * _tau_mass(spec, P)


def _itau_gradients(spec: DiscreteFamilySpec, P: np.ndarray) -> np.ndarray:
    """``Member.itau_gradient`` at each row of P: grad psi is sum mu chi T / sum mu chi."""
    w = spec.base.weights
    chi = np.asarray(derived(spec.gauge).chi.value(P), dtype=float)
    tau_w = w * np.asarray(spec.gauge.tau.d1(P), dtype=float) * chi
    return tau_w @ spec.T.T - ((w * chi) @ spec.T.T) * (tau_w.sum(1) / (chi @ w))[:, None]


def _first_differences(m: Member) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """d eta_j / d theta_i and the gradient of the potential, by Richardson
    central differences on one batched solve at theta +- h e_i, theta +- (h/2) e_i;
    (eta, Phi) at theta, evaluated in the same batch; and the largest
    |d I_tau / d theta_i| on those rows."""
    h = _FD_STEP * np.maximum(1.0, np.abs(m.theta))
    pts = m.theta + np.concatenate([s * np.diag(h) for s in (1.0, -1.0, 0.5, -0.5)])
    if not np.all(_in_box(m.spec, pts)):
        raise DomainError("theta outside theta_box")
    psi, P, ok = _solve_psi(m.spec, pts, m.warm(pts))
    if not np.all(ok):
        raise InfeasibleError(_NO_MEMBER)
    psi, P = np.append(psi, m.psi), np.vstack([P, m.p])
    f = np.column_stack([_tau_moments(m.spec, P), _potential(m.spec, psi, P)])
    up, down, up2, down2 = np.split(f[:-1], 4)
    d = (4.0 * (up2 - down2) / h[:, None] - (up - down) / (2.0 * h[:, None])) / 3.0
    return d[:, :-1], d[:, -1], f[-1], float(np.max(np.abs(_itau_gradients(m.spec, P))))


def hessian_check(spec: DiscreteFamilySpec, theta) -> GeometryReport:
    """Compare the metric g with the Hessian of the potential Phi.

    Since dp / d theta_i = chi (T_i - d_i psi), d eta_j / d theta_i = g_ij +
    d_i I_tau d_j psi and grad Phi = eta + psi grad I_tau, so g is the Hessian
    of Phi where the tau-mass I_tau is constant (for tau = id, everywhere).
    A zero gradient at theta alone is not enough, as psi times the Hessian
    of I_tau remains; so the exact gradient is read at theta and, when it is
    at most _ITAU_FLAT there, on the 4n axis rows that the first differences
    solve.  If some entry read exceeds _ITAU_FLAT the status is
    "not_applicable", and itau_gradient is the largest entry read.  Otherwise
    max_defect is the larger of |d eta / d theta - g| (d eta / d theta is
    hess_potential) and |grad Phi - eta|.
    """
    m = _member(spec, theta)
    G = m.metric()
    gamma = m.connection()
    d_itau = float(np.max(np.abs(m.itau_gradient())))
    if d_itau <= _ITAU_FLAT:
        H, grad, at, d_rows = _first_differences(m)
        d_itau = max(d_itau, d_rows)
    if d_itau > _ITAU_FLAT:
        return GeometryReport(m.theta, G, gamma, m.potential(), None, math.nan,
                              float(np.max(np.abs(gamma))), d_itau, "not_applicable",
                              "tau-mass varies across the family; the Hessian-potential "
                              "identity requires it constant")
    defect = float(max(np.max(np.abs(H - G)), np.max(np.abs(grad - at[:-1]))))
    return GeometryReport(m.theta, G, gamma, float(at[-1]), H, defect,
                          float(np.max(np.abs(gamma))), d_itau, "ok")


def canonical_divergence_check(spec: DiscreteFamilySpec, theta, theta2) -> float:
    """|Phi(th') - Phi(th) + <th - th', grad Phi(th)> - D(p, p')|; a DomainError
    where some |d I_tau / d theta_i| at th or th' exceeds _ITAU_FLAT, so that
    the tau-mass is not taken for constant."""
    th2 = _theta_vec(spec, theta2)
    m = _member(spec, theta)
    m2 = _member(spec, th2, m.warm(th2)) if m.flat() else None
    if m2 is None or not m2.flat():
        raise DomainError("canonical divergence check needs a constant tau-mass")
    phi2, phi = _potential(spec, np.array([m2.psi, m.psi]), np.stack([m2.p, m.p]))
    canon = phi2 - phi + float((m.theta - th2) @ _tau_moments(spec, m.p))
    return abs(canon - divergence(spec, m.p, m2.p))


@dataclass(frozen=True)
class ConformalCheck:
    defect: float
    grad_defect: float
    itau: float


def conformal_check(spec: DiscreteFamilySpec, theta, theta2) -> ConformalCheck:
    """Canonical divergence of the rescaled structure versus D/Itau.

    Needs tau/chi constant on I (true for the escort gauges).  Also
    reports how far grad(psi) is from the tau-escort mean.
    """
    d = derived(spec.gauge)
    lo, hi = spec.gauge.I.finite_slice()
    grid = np.geomspace(max(lo, 0.05), min(hi, 20.0), 64)
    ratio = np.asarray(spec.gauge.tau.value(grid), dtype=float) \
        / np.asarray(d.chi.value(grid), dtype=float)
    if float(np.max(ratio) - np.min(ratio)) > 1e-10:
        raise DomainError("conformal check needs tau/chi constant on I")
    th2 = _theta_vec(spec, theta2)
    m = _member(spec, theta)
    psi2, p2 = _solve_one(spec, th2, m.warm(th2))
    itau = float(_tau_mass(spec, m.p))
    canon = psi2 - m.psi + float((m.theta - th2) @ m.grad)
    defect = abs(canon - divergence(spec, m.p, p2) / itau)
    grad_escort = _tau_moments(spec, m.p) / itau
    return ConformalCheck(defect, float(np.max(np.abs(m.grad - grad_escort))), itau)


# ---------------------------------------------------------------------------
# projection by moment matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionResult:
    theta: np.ndarray
    p: np.ndarray
    moment_residual: float
    itau_residual: float
    iterations: int


def pythagorean_project(spec: DiscreteFamilySpec, rho, theta0=None,
                        tol: float = 1e-10, max_iter: int = 100,
                        restarts: int = 10, seed: int = 0) -> ProjectionResult:
    """Member of the family matching the tau-moments of rho.

    Solves I_{T tau}(p) = I_{T tau}(rho) and sum mu p = 1 for (theta, psi)
    by one damped Newton.  A gauge with exp_fn takes p = exp_fn(u - psi),
    u = <theta, T> - c; any other gauge carries p in the x of
    ``_coordinate`` and adds r = ell(p) - u + psi = 0.  With chi = 1/ell'(p),
    a = mu tau' chi and b = mu chi, dp = chi (dtheta T - dpsi - r) gives one
    (n+1)-square system for (dtheta, dpsi); p moves by dp (dx = dp / (dt/dx),
    capped at _FLAT_DX).  No psi is solved per step.  A step is halved while
    theta leaves theta_box, x leaves ``_X_TABLE``, p leaves I or the merit
    max(|F|, |r|) does not drop.  It stops when the moment residual is at
    most tol * scale and |sum mu p - 1| at most _MASS_TOL, and without exp_fn
    once a full step below _NEWTON_SETTLED has been taken.  Each start
    begins cold (psi = the mu-mean of u minus ell(1 / sum(mu)), p = 1 / sum(mu));
    a start whose iteration stops short, its cold p outside I or its step
    stalled at the edge of theta_box, is taken once more from the member at
    its theta, the only psi-solve.  The tau-mass mismatch is reported as a
    residual (an extra constraint only when tau != id).
    """
    rho = density_vector(spec, rho)
    target = _tau_moments(spec, rho)
    scale = max(1.0, float(np.max(np.abs(target))))
    g, w, T, d = spec.gauge, spec.base.weights, spec.T, derived(spec.gauge)
    tmap, xmap = _coordinate(g.I)
    p0 = 1.0 / w.sum()  # the cold start; in I, since rho in I has sum mu rho = 1
    x0, ell0 = xmap(p0), float(d.ell.value(p0))
    ones = np.ones(w.size)
    S = np.vstack([T, -ones])  # d(u - psi) = (dtheta, dpsi) @ S

    def evaluate(th, psi, x):
        """p, dt/dx, F = (moments, mass), r, and whether the point is admissible."""
        u = th @ T - spec.c
        if g.exp_fn is not None:
            p, dtdx, ok = np.asarray(exp_htau(g, u - psi), dtype=float), None, True
        else:
            (p, dtdx), ok = tmap(x), np.all((x >= _X_TABLE[0]) & (x <= _X_TABLE[-1]))
        r = np.zeros_like(p) if dtdx is None else np.asarray(d.ell.value(p), dtype=float) - u + psi
        F = np.append(_tau_moments(spec, p) - target, p @ w - 1.0)
        return p, dtdx, F, r, bool(ok and _in_box(spec, th) and np.all(g.I.contains(p)))

    def thetas():
        yield np.zeros(spec.dim) if theta0 is None else _theta_vec(spec, theta0)
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            if spec.theta_box is not None:
                yield rng.uniform(spec.theta_box[:, 0], spec.theta_box[:, 1])
            else:
                yield rng.normal(scale=1.0, size=spec.dim)

    def starts():  # (theta, psi, x), each drawn only when the one before fails
        for th in thetas():
            yield th, float((th @ T - spec.c) @ w) * p0 - ell0, np.full(w.size, x0)
            if _in_box(spec, th):  # once more, from the member at th
                psi, P, has = _solve_psi(spec, th[None])
                if has[0]:
                    yield th, float(psi[0]), xmap(P[0])

    best = None
    total_iter = 0
    with np.errstate(all="ignore"):
        for th, psi, x in starts():
            p, dtdx, F, r, ok = evaluate(th, psi, x)
            if not ok:
                continue
            settled = g.exp_fn is not None
            for _ in range(max_iter):
                total_iter += 1
                norm = float(np.abs(F[:-1]).max())
                if best is None or norm < best[0]:
                    best = (norm, th.copy(), p)
                done = norm <= tol * scale and abs(F[-1]) <= _MASS_TOL
                if done and settled:
                    itau_res = abs(float(_tau_mass(spec, p)) - float(_tau_mass(spec, rho)))
                    return ProjectionResult(th, p, norm, itau_res, total_iter)
                chi = np.asarray(d.chi.value(p), dtype=float)
                R = np.vstack([T * np.asarray(g.tau.d1(p), dtype=float), ones]) * (w * chi)
                try:  # J = R S^T: rows T a and b, columns (T, -1)
                    step = np.linalg.solve(R @ S.T, R @ r - F)
                except np.linalg.LinAlgError:
                    break
                dx = 0.0 if dtdx is None else np.clip(
                    chi * (step @ S - r) / dtdx, -_FLAT_DX, _FLAT_DX)
                small = dtdx is not None and max(
                    np.abs(dx).max(), abs(step[-1]) / max(1.0, abs(psi))) <= _NEWTON_SETTLED
                merit = max(np.abs(F).max(), np.abs(r).max())
                alpha = 1.0
                while alpha >= 1e-8:
                    trial = (th + alpha * step[:-1], psi + alpha * step[-1], x + alpha * dx)
                    p_t, dtdx_t, F_t, r_t, ok = evaluate(*trial)
                    if ok and (small and done or max(np.abs(F_t).max(), np.abs(r_t).max())
                               < (1 - 1e-4 * alpha) * merit):
                        (th, psi, x), p, dtdx, F, r = trial, p_t, dtdx_t, F_t, r_t
                        settled = g.exp_fn is not None or small and alpha == 1.0
                        break
                    alpha *= 0.5
                else:
                    break
    raise NoSolutionError(
        "moment matching did not converge; the constraints may be infeasible",
        best=None if best is None else {"theta": best[1], "residual": best[0]})


@dataclass(frozen=True)
class EntropyMaxResult:
    entropy_source: float
    entropy_projected: float
    maximized: bool
    projection: ProjectionResult


def entropy_max_check(spec: DiscreteFamilySpec, rho, tol: float = 1e-10) -> EntropyMaxResult:
    """Projected member has no smaller entropy when the offset c vanishes."""
    if np.any(spec.c != 0):
        raise DomainError("entropy maximality requires a vanishing offset c")
    proj = pythagorean_project(spec, rho)
    e_rho = entropy(spec, rho)
    e_star = entropy(spec, proj.p)
    return EntropyMaxResult(e_rho, e_star, e_star >= e_rho - tol, proj)


# ---------------------------------------------------------------------------
# affine reparametrization
# ---------------------------------------------------------------------------


def affine_reparam_check(spec: DiscreteFamilySpec, A, v1, v2, thetas=None,
                         seed: int = 0) -> float:
    """Max density gap between a representation and its affine transform.

    The transformed representation uses theta' = A theta + v1,
    T' = A^{-T}(T - v2 1^T) and c' = c + <A^{-1} v1, T - v2 1^T>, under
    which member densities are unchanged and psi' = psi - <theta, v2>.
    """
    A = np.asarray(A, dtype=float)
    n = spec.dim
    if A.shape != (n, n):
        raise DomainError(f"A must be ({n}, {n})")
    if abs(np.linalg.det(A)) < 1e-12:
        raise DomainError("A must be invertible")
    v1 = np.asarray(v1, dtype=float).reshape(n)
    v2 = np.asarray(v2, dtype=float).reshape(n)

    T2 = np.linalg.solve(A.T, spec.T - v2[:, None])
    c2 = spec.c + np.linalg.solve(A, v1) @ (spec.T - v2[:, None])
    spec2 = DiscreteFamilySpec(spec.base, spec.gauge, T2, c2)

    if thetas is None:
        rng = np.random.default_rng(seed)
        thetas = [np.zeros(n)] + [rng.normal(scale=0.5, size=n) for _ in range(4)]

    ths = np.array([_theta_vec(spec, th) for th in thetas])
    psi, P, ok = _solve_psi(spec, ths)
    psi2, P2, ok2 = _solve_psi(spec2, ths @ A.T + v1)
    if not (ok.all() and ok2.all()):
        raise InfeasibleError(_NO_MEMBER)
    return float(max(np.max(np.abs(P - P2)), np.max(np.abs(psi2 - (psi - ths @ v2)))))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def spec_from_json(obj) -> DiscreteFamilySpec:
    """Family spec from {"weights", "gauge", "T", "c", "theta_box"?}.  A malformed
    spec raises DomainError."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise DomainError("a family spec must be a JSON object")
    try:
        weights = obj["weights"]
        gauge = gauge_from_json(obj["gauge"])
        T = obj["T"]
        c = obj["c"]
    except KeyError as exc:
        raise DomainError(f"family spec is missing field {exc}") from exc
    box = obj.get("theta_box")
    try:
        return DiscreteFamilySpec(DiscreteBase(np.asarray(weights, dtype=float)), gauge,
                                  np.asarray(T, dtype=float), np.asarray(c, dtype=float),
                                  None if box is None else np.asarray(box, dtype=float))
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. a string where a number belongs
        raise DomainError(f"malformed family spec: {exc}") from None


def spec_to_json(spec: DiscreteFamilySpec) -> dict:
    out = {
        "weights": spec.base.weights.tolist(),
        "gauge": gauge_to_json(spec.gauge),
        "T": spec.T.tolist(),
        "c": spec.c.tolist(),
    }
    if spec.theta_box is not None:
        out["theta_box"] = spec.theta_box.tolist()
    return out
