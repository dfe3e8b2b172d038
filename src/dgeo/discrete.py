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
projects by moment matching and checks affine reparametrization invariance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize  # noqa: F401  (unused; perfbench/tracer.py patches it)

from .errors import DomainError, InfeasibleError, NoSolutionError
from .gauge import (_NEWTON_SETTLED, _X_TABLE, GaugeTriple, _coordinate, _rtsafe, derived,
                    d_htau, exp_htau, gauge_from_json, gauge_to_json)

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
    """A member p_theta with chi, chi' and tau' at p, the escort mean grad of T
    (the gradient of psi) and resid = T - grad."""

    spec: DiscreteFamilySpec
    theta: np.ndarray
    psi: float
    p: np.ndarray
    chi: np.ndarray
    chi1: np.ndarray
    taup: np.ndarray
    grad: np.ndarray
    resid: np.ndarray

    def psi_hessian(self) -> np.ndarray:
        w = self.spec.base.weights
        return (self.resid * (w * self.chi * self.chi1)) @ self.resid.T / float(w @ self.chi)

    def metric(self) -> np.ndarray:
        return (self.resid * (self.spec.base.weights * self.taup * self.chi)) @ self.resid.T

    def potential(self) -> float:
        return float(_potential(self.spec, self.psi, self.p))

    def connection(self) -> np.ndarray:
        d_itau = self.resid @ (self.spec.base.weights * self.taup * self.chi)
        return np.einsum("ij,k->ijk", -self.psi_hessian(), d_itau)

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
                  np.asarray(spec.gauge.tau.d1(p), dtype=float), grad, spec.T - grad[:, None])


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
    itau_spread: float
    status: str  # "ok" or "not_applicable"
    message: str = ""

    def to_json(self) -> dict:
        return {
            "theta": self.theta.tolist(),
            "g": self.g.tolist(),
            "christoffel_raw": self.christoffel_raw.tolist(),
            "potential": self.potential,
            "hess_potential": None if self.hess_potential is None
            else self.hess_potential.tolist(),
            "max_defect": self.max_defect,
            "connection_max": self.connection_max,
            "itau_spread": self.itau_spread,
            "status": self.status,
            "message": self.message,
        }


def _tau_mass(spec: DiscreteFamilySpec, P: np.ndarray):
    return np.asarray(spec.gauge.tau.value(P), dtype=float) @ spec.base.weights


def _tau_moments(spec: DiscreteFamilySpec, P: np.ndarray) -> np.ndarray:
    """eta = sum_x mu T tau(p), for one density or a batch of rows."""
    return (np.asarray(spec.gauge.tau.value(P), dtype=float) * spec.base.weights) @ spec.T.T


def _potential(spec: DiscreteFamilySpec, psi, P: np.ndarray):
    """-sum_x mu s_star(p) + psi * I_tau(p), for one density or a batch of rows."""
    s_star = np.asarray(derived(spec.gauge).s_star.value(P), dtype=float)
    return -(s_star @ spec.base.weights) + psi * _tau_mass(spec, P)


def _itau_spread(spec: DiscreteFamilySpec, m: Member, step: float = 0.01) -> float:
    """Range of the tau-mass over m and the 2n probes around it that have a member."""
    th = m.theta
    probes = th + np.vstack([-np.eye(th.size), np.eye(th.size)]) \
        * (step * np.maximum(1.0, np.abs(th)))
    probes = probes[_in_box(spec, probes)]
    _, P, ok = _solve_psi(spec, probes, m.warm(probes))
    vals = np.append(_tau_mass(spec, P[ok]), _tau_mass(spec, m.p))
    return float(np.max(vals) - np.min(vals))


def _first_differences(m: Member) -> tuple[np.ndarray, np.ndarray]:
    """d eta_j / d theta_i and the gradient of the potential, by Richardson
    central differences on one batched solve at theta +- h e_i, theta +- (h/2) e_i."""
    h = _FD_STEP * np.maximum(1.0, np.abs(m.theta))
    pts = m.theta + np.concatenate([s * np.diag(h) for s in (1.0, -1.0, 0.5, -0.5)])
    if not np.all(_in_box(m.spec, pts)):
        raise DomainError("theta outside theta_box")
    psi, P, ok = _solve_psi(m.spec, pts, m.warm(pts))
    if not np.all(ok):
        raise InfeasibleError(_NO_MEMBER)
    f = np.column_stack([_tau_moments(m.spec, P), _potential(m.spec, psi, P)])
    up, down, up2, down2 = np.split(f, 4)
    d = (4.0 * (up2 - down2) / h[:, None] - (up - down) / (2.0 * h[:, None])) / 3.0
    return d[:, :-1], d[:, -1]


def hessian_check(spec: DiscreteFamilySpec, theta) -> GeometryReport:
    """Compare the metric g with the Hessian of the potential Phi.

    grad Phi is the tau-moment vector eta, so first differences on the 4n axis
    rows around theta give max_defect = the larger of |d eta / d theta - g|
    (d eta / d theta is hess_potential) and |grad Phi - eta|.  Applicable only
    when the tau-mass is constant across the family (automatic for tau = id);
    otherwise the status is "not_applicable" and no Hessian is attempted.
    """
    m = _member(spec, theta)
    G = m.metric()
    gamma = m.connection()
    pot = m.potential()
    spread = _itau_spread(spec, m)
    if spread > 1e-8:
        return GeometryReport(m.theta, G, gamma, pot, None, math.nan,
                              float(np.max(np.abs(gamma))), spread, "not_applicable",
                              "tau-mass varies across the family; the Hessian-potential "
                              "identity requires it constant")
    H, grad = _first_differences(m)
    defect = float(max(np.max(np.abs(H - G)), np.max(np.abs(grad - _tau_moments(spec, m.p)))))
    return GeometryReport(m.theta, G, gamma, pot, H, defect,
                          float(np.max(np.abs(gamma))), spread, "ok")


def canonical_divergence_check(spec: DiscreteFamilySpec, theta, theta2) -> float:
    """|Phi(th') - Phi(th) + <th - th', grad Phi(th)> - D(p, p')|."""
    th2 = _theta_vec(spec, theta2)
    m = _member(spec, theta)
    if _itau_spread(spec, m) > 1e-8:
        raise DomainError("canonical divergence check needs a constant tau-mass")
    psi2, p2 = _solve_one(spec, th2, m.warm(th2))
    canon = float(_potential(spec, psi2, p2)) - m.potential() \
        + float((m.theta - th2) @ _tau_moments(spec, m.p))
    return abs(canon - divergence(spec, m.p, p2))


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

    Solves I_{T tau}(p_theta) = I_{T tau}(rho) by damped Newton with the
    analytic Jacobian; the tau-mass mismatch is reported as a residual
    (it is an extra constraint only when tau != id).
    """
    rho = density_vector(spec, rho)
    target = _tau_moments(spec, rho)
    w = spec.base.weights
    scale = max(1.0, float(np.max(np.abs(target))))

    def F_and_J(th, near=None):
        m = _member(spec, th, None if near is None else near.warm(th))
        F = _tau_moments(spec, m.p) - target
        J = (spec.T * (w * m.taup * m.chi)) @ m.resid.T
        return F, J, m

    rng = np.random.default_rng(seed)
    n = spec.dim
    starts = [np.zeros(n) if theta0 is None else _theta_vec(spec, theta0)]
    for _ in range(restarts):
        if spec.theta_box is not None:
            starts.append(rng.uniform(spec.theta_box[:, 0], spec.theta_box[:, 1]))
        else:
            starts.append(rng.normal(scale=1.0, size=n))

    best = None
    total_iter = 0
    for th0 in starts:
        th = np.asarray(th0, dtype=float).copy()
        try:
            F, J, m = F_and_J(th)
        except (InfeasibleError, DomainError):
            continue
        for it in range(max_iter):
            total_iter += 1
            norm = float(np.max(np.abs(F)))
            if best is None or norm < best[0]:
                best = (norm, th.copy(), m.p)
            if norm <= tol * scale:
                itau_res = abs(float(_tau_mass(spec, m.p)) - float(_tau_mass(spec, rho)))
                return ProjectionResult(th, m.p, norm, itau_res, total_iter)
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            alpha = 1.0
            while alpha >= 1e-8:
                try:
                    F_new, J_new, m_new = F_and_J(th + alpha * step, m)
                except (InfeasibleError, DomainError):
                    alpha *= 0.5
                    continue
                if np.max(np.abs(F_new)) < (1 - 1e-4 * alpha) * np.max(np.abs(F)):
                    th = th + alpha * step
                    F, J, m = F_new, J_new, m_new
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
