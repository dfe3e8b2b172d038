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
and checks affine reparametrization invariance.  A check reads h o tau (as -s)
once, on all its densities, and shares it between Phi and D or two entropies.
Each member is read once: the psi-solve hands the member kernel's (p, chi, tau,
tau') at its root to ``Member``, the first differences and the potential, which
read no gauge function for them again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleError, NoSolutionError
from .gauge import (_NEWTON_SETTLED, _X_TABLE, GaugeTriple, _coordinate, _kernel, _member_at,
                    _no_unknown_keys, _rtsafe, derived, d_htau, exp_htau, gauge_from_json,
                    gauge_to_json)

# d_htau and exp_htau, which this module does not call, and optimize, not
# scipy.optimize, which no dgeo code calls: perfbench/tracer.py looks each name
# up to save it before it patches in its counting wrapper or brentq stand-in.
# They go with those (ROADMAP item 2, the benchmark refresh).
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
_FD_SIGNS = np.array([1.0, -1.0, 0.5, -0.5])[:, None, None]  # its rows, in units of the step
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


def _in_box(spec: DiscreteFamilySpec, th: np.ndarray):
    """Whether each row of th (shape (..., n)) lies in theta_box; True without one."""
    if spec.theta_box is None:
        return True
    return ((th >= spec.theta_box[:, 0]) & (th <= spec.theta_box[:, 1])).all(axis=-1)


def _theta_vec(spec: DiscreteFamilySpec, theta) -> np.ndarray:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (spec.dim,):
        raise DomainError(f"theta must have length {spec.dim}")
    if not np.isfinite(th).all():
        raise DomainError("theta must be finite")
    if not _in_box(spec, th):
        raise DomainError("theta outside theta_box")
    return th


def density_vector(spec: DiscreteFamilySpec, values) -> np.ndarray:
    """Validate a candidate density: values in I and weighted mass one to 1e-10."""
    p = np.asarray(values, dtype=float)
    if p.shape != (spec.base.size,):
        raise DomainError(f"density must have length {spec.base.size}")
    spec.gauge.I.require(p, "density value")
    mass = float(spec.base.weights @ p)
    if abs(mass - 1.0) > 1e-10:
        raise DomainError(f"density mass {mass} deviates from 1 beyond 1e-10")
    return p


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


_NO_MEMBER = "no member at this theta: the mass cannot reach one with every density value inside I"


_FLAT_ITER = 40    # flat Newton steps before a row falls back to the bracketed path
_FLAT_DX = 4.0     # cap on each flat Newton step, in the x of gauge._coordinate
_MASS_TOL = 1e-12  # |sum mu p - 1| allowed of a member
_PROJ_STEPS = 100  # Newton steps per projection start
_PROJ_RESTARTS = 10  # random projection starts after theta = 0, drawn from default_rng(0)
_PROJ_FLOOR = 1e-12  # max |r| / max(1, |psi|) of a point the projection takes at the rounding floor


def _solve_psi(spec: DiscreteFamilySpec, thetas: np.ndarray,
               warm=None) -> tuple[np.ndarray, tuple, np.ndarray]:
    """psi (B,), the member kernel's outputs at the densities and a has-a-member
    flag for each row of thetas.

    With u = <theta, T> - c, a gauge with a closed-form exp_fn takes the
    bracketed path (``_psi_bracketed``) for every row, and the kernel's
    (p, chi, tau, tau') at its root are the outputs, each (B, |X|) (tau' may
    be None: ``GaugeTriple``).  Any other gauge takes the flat Newton of
    ``_psi_flat`` on (p, psi); rows it does not settle, or whose result
    fails the member test, take the bracketed path, so the flags mean the
    same on either path.  Its outputs are (p,) alone: a caller that reads
    chi, tau or tau' composes them at p (``gauge._member_at``).  warm is None or a
    first-order (psi, p) from a nearby member (``Member.warm``); a row
    starts cold, from p = 1 / sum(mu) and psi = the mu-mean of u minus
    ell(1 / sum(mu)), when there is none or its warm p is not inside I.
    """
    g = spec.gauge
    w = spec.base.weights
    U = np.atleast_2d(thetas) @ spec.T - spec.c
    mass = w.sum()
    p0 = 1.0 / mass
    if not g.I.lo < p0 < g.I.hi:   # the mass lies between sum(mu)*lo and sum(mu)*hi
        return np.full(len(U), np.nan), (np.full(U.shape, np.nan),), np.zeros(len(U), dtype=bool)
    c = float(derived(g).ell.value(p0))

    def cold():
        return U @ w / mass - c

    def member(P):
        return ((P > g.I.lo) & (P < g.I.hi)).all(axis=1) & (np.abs(P @ w - 1.0) <= _MASS_TOL)

    psi0 = cold() if warm is None else np.broadcast_to(warm[0], (len(U),))
    if g.exp_fn is not None:
        psi, at = _psi_bracketed(g, w, U, psi0, c)
        return psi, at, member(at[0])
    P0 = np.full(U.shape, p0)
    start = cold()
    if warm is not None:
        Pw = np.broadcast_to(warm[1], U.shape)
        inside = g.I.contains(Pw).all(axis=1)
        P0[inside], start[inside] = Pw[inside], psi0[inside]
    psi, P = _psi_flat(g, w, U, start, P0)
    rest = ~member(P)
    if rest.any():
        psi[rest], at = _psi_bracketed(g, w, U[rest], psi0[rest], c)
        P[rest] = at[0]
    return psi, (P,), member(P)


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
                   c: float) -> tuple[np.ndarray, tuple]:
    """psi by safeguarded Newton-bisection on -log mass, with p = exp_htau(u - psi),
    and the member kernel's (p, chi, tau, tau') at the root.

    -log mass is increasing in psi with slope sum mu chi(p) / mass, p and chi from
    the gauge's member kernel.  With c = ell(1 / sum(mu)), every p is >= (<=)
    1 / sum(mu) at psi = min u - c (max u - c), which brackets the root.
    """
    kernel = g._member_kernel
    lo_e, hi_e = g.ell_range
    a = np.maximum(U.min(axis=1) - c, U.max(axis=1) - hi_e)
    b = np.minimum(U.max(axis=1) - c, U.min(axis=1) - lo_e)

    def evaluate(x, live):
        P, chi = kernel(U[live] - x[:, None])[:2]
        mass = P @ w
        return -np.log(mass), (chi @ w) / mass

    psi = _rtsafe(evaluate, psi0, a, b)
    with np.errstate(all="ignore"):
        return psi, kernel(U - psi[:, None])


def _solve_one(spec: DiscreteFamilySpec, th: np.ndarray, warm=None) -> tuple[float, list]:
    """psi and the solve's outputs (``_solve_psi``) at one theta, or InfeasibleError."""
    psi, at, ok = _solve_psi(spec, th[None], warm)
    if not ok[0]:
        raise InfeasibleError(_NO_MEMBER)
    return float(psi[0]), [None if v is None else v[0] for v in at]


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
    psi, at = _solve_one(spec, _theta_vec(spec, theta))
    return psi, at[0]


# ---------------------------------------------------------------------------
# divergence / entropy
# ---------------------------------------------------------------------------


def divergence(spec: DiscreteFamilySpec, p, p2) -> float:
    """Weighted sum of the divergence kernel between two densities, each checked
    once (``density_vector``)."""
    p, p2 = density_vector(spec, p), density_vector(spec, p2)
    return float(spec.base.weights @ np.asarray(_kernel(spec.gauge, p, p2), dtype=float))


def entropy(spec: DiscreteFamilySpec, p) -> float:
    """Weighted trace-form entropy sum_x s(p(x)) mu(x) with s = -h o tau."""
    p = density_vector(spec, p)
    return float(spec.base.weights @ np.asarray(derived(spec.gauge).s(p), dtype=float))


# ---------------------------------------------------------------------------
# psi derivatives, metric, connection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    """A member p_theta with chi, chi' and tau at p, the tau-escort weights
    mu tau' chi, the escort mean grad of T (the gradient of psi) and
    resid = T - grad.  p, chi, tau and tau' are the solve's reads at its
    root; chi' = -ell''(p) chi^2 is one read of ell''."""

    spec: DiscreteFamilySpec
    theta: np.ndarray
    psi: float
    p: np.ndarray
    chi: np.ndarray
    chi1: np.ndarray
    tau: np.ndarray
    tau_w: np.ndarray
    grad: np.ndarray
    resid: np.ndarray

    def psi_hessian(self) -> np.ndarray:
        w = self.spec.base.weights
        return (self.resid * (w * self.chi * self.chi1)) @ self.resid.T / float(w @ self.chi)

    def metric(self) -> np.ndarray:
        return (self.resid * self.tau_w) @ self.resid.T

    def potential(self) -> float:
        return float(_potential(self.spec, self.psi, self.p, self.tau))

    def itau_gradient(self) -> np.ndarray:
        """d I_tau / d theta = sum mu tau' chi (T - grad psi), since dp / d theta
        = chi (T - grad psi)."""
        return self.resid @ self.tau_w

    def flat(self) -> bool:
        return bool(np.max(np.abs(self.itau_gradient())) <= _ITAU_FLAT)

    def connection(self) -> np.ndarray:
        return -self.psi_hessian()[:, :, None] * self.itau_gradient()

    def warm(self, thetas: np.ndarray):
        """First-order psi and p at nearby thetas: dpsi = dtheta grad and
        dp = chi dtheta resid.  p is None for a gauge with exp_fn, whose
        solve starts from psi alone."""
        dth = thetas - self.theta
        p = None if self.spec.gauge.exp_fn else self.p + self.chi * (dth @ self.resid)
        return self.psi + dth @ self.grad, p


def _member(spec: DiscreteFamilySpec, theta, warm=None) -> Member:
    th = _theta_vec(spec, theta)
    psi, at = _solve_one(spec, th, warm)
    p, chi, tau, tau1 = at if len(at) == 4 else _member_at(spec.gauge, at[0])
    w = spec.base.weights
    w_chi = w * chi
    grad = (spec.T @ w_chi) / float(w @ chi)
    chi1 = -np.asarray(derived(spec.gauge).ell.d2(p), dtype=float) * chi ** 2
    return Member(spec, th, psi, p, chi, chi1, tau, w_chi if tau1 is None else w_chi * tau1,
                  grad, spec.T - grad[:, None])


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


def _potential(spec: DiscreteFamilySpec, psi, P: np.ndarray, tau: np.ndarray, hts=None):
    """-sum_x mu s_star(p) + psi * I_tau(p), for one density or a batch of rows, with
    s_star = h o tau - tau ell from tau (at P) and hts (-s at P), read here when None."""
    w, d = spec.base.weights, derived(spec.gauge)
    hts = -np.asarray(d.s(P), dtype=float) if hts is None else hts
    return -((hts - tau * np.asarray(d.ell.value(P), dtype=float)) @ w) + psi * (tau @ w)


def _first_differences(m: Member) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """d eta_j / d theta_i and the gradient of the potential, by Richardson
    central differences on one batched solve at theta +- h e_i, theta +- (h/2) e_i;
    (eta, Phi) at theta, evaluated in the same batch; and the largest
    |d I_tau / d theta_i| on those rows (``Member.itau_gradient``, grad psi =
    sum mu chi T / sum mu chi), all from the solve's tau, chi and tau'."""
    spec, w = m.spec, m.spec.base.weights
    h = _FD_STEP * np.maximum(1.0, np.abs(m.theta))
    pts = m.theta + (_FD_SIGNS * np.diag(h)).reshape(-1, h.size)
    if not np.all(_in_box(spec, pts)):
        raise DomainError("theta outside theta_box")
    psi, at, ok = _solve_psi(spec, pts, m.warm(pts))
    if not ok.all():
        raise InfeasibleError(_NO_MEMBER)
    P, chi, tau, tau1 = at if len(at) == 4 else _member_at(spec.gauge, at[0])
    w_chi = w * chi
    tau_w = w_chi if tau1 is None else w_chi * tau1
    d_itau = tau_w @ spec.T.T - (w_chi @ spec.T.T) * (tau_w.sum(1) / (chi @ w))[:, None]
    psi, P, tau = np.append(psi, m.psi), np.vstack([P, m.p]), np.vstack([tau, m.tau])
    f = np.column_stack([(tau * w) @ spec.T.T, _potential(spec, psi, P, tau)])
    up, down, up2, down2 = np.split(f[:-1], 4)
    d = (4.0 * (up2 - down2) / h[:, None] - (up - down) / (2.0 * h[:, None])) / 3.0
    return d[:, :-1], d[:, -1], f[-1], float(np.abs(d_itau).max())


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
    # one read of h o tau at (p', p) serves Phi and D; members need no density_vector
    w, P = spec.base.weights, np.stack([m2.p, m.p])
    hts = -np.asarray(derived(spec.gauge).s(P), dtype=float)
    phi2, phi = _potential(spec, np.array([m2.psi, m.psi]), P, np.stack([m2.tau, m.tau]), hts)
    canon = phi2 - phi + float((m.theta - th2) @ ((m.tau * w) @ spec.T.T))
    return abs(canon - float(w @ _kernel(spec.gauge, m.p, m2.p, hts[::-1])))


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
        / np.asarray(d.chi(grid), dtype=float)
    if float(np.max(ratio) - np.min(ratio)) > 1e-10:
        raise DomainError("conformal check needs tau/chi constant on I")
    th2 = _theta_vec(spec, theta2)
    m = _member(spec, theta)
    psi2, at2 = _solve_one(spec, th2, m.warm(th2))
    w = spec.base.weights
    itau = float(m.tau @ w)
    canon = psi2 - m.psi + float((m.theta - th2) @ m.grad)
    defect = abs(canon - divergence(spec, m.p, at2[0]) / itau)
    grad_escort = ((m.tau * w) @ spec.T.T) / itau
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


def pythagorean_project(spec: DiscreteFamilySpec, rho, tol: float = 1e-10) -> ProjectionResult:
    """Member of the family matching the tau-moments of rho.

    Solves I_{T tau}(p) = I_{T tau}(rho) and sum mu p = 1 for (theta, psi)
    by one damped Newton.  A gauge with exp_fn reads p = exp_fn(u - psi), u = <theta, T> - c,
    and chi, tau(p) and tau'(p) from one call of its member kernel, and carries no r or x;
    any other gauge carries p in the x of ``_coordinate`` and adds r = ell(p) - u + psi = 0.
    With chi = 1/ell'(p), the rows R = (T mu tau' chi; mu chi) and dp = chi (dtheta T - dpsi - r)
    give one (n+1)-square system R S^T (dtheta, dpsi) = R r - F, F = (moments, mass), the
    moments by mu T formed once; R and F are filled in place.  p moves by dp
    (dx = dp / (dt/dx), capped at _FLAT_DX).  No psi is solved per step.  A step is halved while
    theta leaves theta_box, x leaves ``_X_TABLE``, p leaves I or the merit
    max(|F|, |r|) does not drop.  It stops when the moment residual is at
    most tol * scale and |sum mu p - 1| at most _MASS_TOL, and without exp_fn
    once a full step below _NEWTON_SETTLED has been taken, within
    _PROJ_STEPS steps.  The starts are theta = 0, then _PROJ_RESTARTS draws
    from default_rng(0), uniform in theta_box or N(0, 1) without one.  Each
    start begins cold (psi = the mu-mean of u minus ell(1 / sum(mu)), p = 1 / sum(mu));
    a start whose iteration stops short, its cold p outside I or its step
    stalled at the edge of theta_box, is taken once more from the member at
    its theta, the only psi-solve.  Where no step lowers the merit, a point
    that meets the stop rule but for settling is taken if max |r| is at most
    _PROJ_FLOOR * max(1, |psi|) (the rounding floor).  The tau-mass mismatch
    is reported as a residual (an extra constraint only when tau != id).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be a positive finite real")
    rho = density_vector(spec, rho)
    g, w, T, d, box = spec.gauge, spec.base.weights, spec.T, derived(spec.gauge), spec.theta_box
    wT, tau_rho = w * T, np.asarray(g.tau.value(rho), dtype=float)
    target = wT @ tau_rho
    scale = max(1.0, float(np.max(np.abs(target))))
    closed, kernel = g.exp_fn is not None, g._member_kernel
    tmap, xmap = _coordinate(g.I)
    p0 = 1.0 / w.sum()  # the cold start; in I, since rho in I has sum mu rho = 1
    x0, ell0 = 0.0 if closed else np.full(w.size, xmap(p0)), float(d.ell.value(p0))
    S = np.vstack([T, -np.ones(w.size)])  # d(u - psi) = (dtheta, dpsi) @ S
    R, F = np.empty_like(S), np.empty(spec.dim + 1)

    def evaluate(th, psi, x):
        """(p, chi, tau, tau') at the point, r, dt/dx and, if the point is admissible,
        its moment norm max |F[:-1]| and merit max(|F|, |r|) (else None); fills F."""
        u = th @ T - spec.c
        if closed:
            at, r, dtdx, ok = kernel(u - psi), None, None, True
        else:
            (p, dtdx), ok = tmap(x), _X_TABLE[0] <= x.min() and x.max() <= _X_TABLE[-1]
            r, at = np.asarray(d.ell.value(p), dtype=float) - u + psi, _member_at(g, p)
        p = at[0]
        np.subtract(wT @ at[2], target, out=F[:-1])
        F[-1] = p @ w - 1.0
        if not (ok and (box is None or _in_box(spec, th)) and g.I.lo < p.min()
                and p.max() < g.I.hi):
            return at, r, dtdx, None
        *moments, mass = F.tolist()  # max keeps NaN only as its first argument
        norm = math.nan if any(map(math.isnan, moments)) else max(map(abs, moments))
        return at, r, dtdx, (norm, max(norm, abs(mass), 0.0 if r is None else np.abs(r).max()))

    def thetas():
        yield np.zeros(spec.dim)
        rng = np.random.default_rng(0)
        for _ in range(_PROJ_RESTARTS):
            if box is not None:
                yield rng.uniform(box[:, 0], box[:, 1])
            else:
                yield rng.normal(scale=1.0, size=spec.dim)

    def starts():  # (theta, psi, x), each drawn only when the one before fails
        for th in thetas():
            yield th, float((th @ T - spec.c) @ w) * p0 - ell0, x0
            if _in_box(spec, th):  # once more, from the member at th
                psi, at, has = _solve_psi(spec, th[None])
                if has[0]:
                    yield th, float(psi[0]), x0 if closed else xmap(at[0][0])

    def result(th, p, norm, tau):
        return ProjectionResult(th, p, norm, abs(float(tau @ w) - float(tau_rho @ w)), total_iter)

    best = None
    total_iter = 0
    with np.errstate(all="ignore"):
        for th, psi, x in starts():
            at, r, dtdx, fit = evaluate(th, psi, x)
            if fit is None:
                continue
            settled = closed
            for _ in range(_PROJ_STEPS):
                total_iter += 1
                norm, before = fit
                p, chi, tau, tau1 = at
                if best is None or norm < best[0]:
                    best = (norm, th.copy(), p)
                done = norm <= tol * scale and abs(F[-1]) <= _MASS_TOL
                if done and settled:
                    return result(th, p, norm, tau)
                np.multiply(w, chi, out=R[-1])
                np.multiply(T, R[-1] if tau1 is None else tau1 * R[-1], out=R[:-1])
                try:  # J = R S^T: rows T a and b, columns (T, -1)
                    step = np.linalg.solve(R @ S.T, -F if closed else R @ r - F)
                except np.linalg.LinAlgError:
                    break
                dx = 0.0 if closed else np.clip(
                    chi * (step @ S - r) / dtdx, -_FLAT_DX, _FLAT_DX)
                small = not closed and max(
                    np.abs(dx).max(), abs(step[-1]) / max(1.0, abs(psi))) <= _NEWTON_SETTLED
                alpha = 1.0
                while alpha >= 1e-8:
                    trial = (th + alpha * step[:-1], psi + alpha * step[-1], x + alpha * dx)
                    at_t, r_t, dtdx_t, fit_t = evaluate(*trial)
                    if fit_t and (small and done or fit_t[1] < (1 - 1e-4 * alpha) * before):
                        (th, psi, x), at, r, dtdx, fit = trial, at_t, r_t, dtdx_t, fit_t
                        settled = closed or small and alpha == 1.0
                        break
                    alpha *= 0.5
                else:  # no step lowers the merit: at the rounding floor a done point is taken
                    if done and np.abs(r).max() <= _PROJ_FLOOR * max(1.0, abs(psi)):
                        return result(th, p, norm, tau)
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


def entropy_max_check(spec: DiscreteFamilySpec, rho) -> EntropyMaxResult:
    """Projected member has no smaller entropy, to 1e-10, when the offset c vanishes."""
    if np.any(spec.c != 0):
        raise DomainError("entropy maximality requires a vanishing offset c")
    proj = pythagorean_project(spec, rho)  # checks rho by density_vector
    # one read of s on (rho, p*); each entropy is the dot product of ``entropy``
    s = np.asarray(derived(spec.gauge).s(np.stack([rho, proj.p])), dtype=float)
    e_rho, e_star = (float(spec.base.weights @ row) for row in s)
    return EntropyMaxResult(e_rho, e_star, e_star >= e_rho - 1e-10, proj)


# ---------------------------------------------------------------------------
# affine reparametrization
# ---------------------------------------------------------------------------


def affine_reparam_check(spec: DiscreteFamilySpec, A, v1, v2) -> float:
    """Max density and psi gap between a representation and its affine
    transform, at theta = 0 and 4 draws of N(0, 0.25) from default_rng(0).

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

    rng = np.random.default_rng(0)
    ths = np.array([_theta_vec(spec, th) for th in
                    [np.zeros(n)] + [rng.normal(scale=0.5, size=n) for _ in range(4)]])
    psi, (P, *_), ok = _solve_psi(spec, ths)
    psi2, (P2, *_), ok2 = _solve_psi(spec2, ths @ A.T + v1)
    if not (ok.all() and ok2.all()):
        raise InfeasibleError(_NO_MEMBER)
    return float(max(np.max(np.abs(P - P2)), np.max(np.abs(psi2 - (psi - ths @ v2)))))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def spec_from_json(obj) -> DiscreteFamilySpec:
    """Family spec from {"weights", "gauge", "T", "c", "theta_box"?}.  A malformed
    spec, or one with any other key, raises DomainError."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise DomainError("a family spec must be a JSON object")
    _no_unknown_keys(obj, {"weights", "gauge", "T", "c", "theta_box"}, "family spec")
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
