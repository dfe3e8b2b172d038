"""Gauge pairs and the scalar machinery derived from them.

A *gauge* is a pair of smooth functions ``(h, tau)`` on an open interval
``I`` inside ``(0, inf)`` with ``tau' > 0`` on ``I`` and ``h'' > 0`` on
``tau(I)``.  Everything else in this package is built from such a pair:
the pointwise divergence kernel

    d(t, s) = h(tau(t)) - h(tau(s)) - (tau(t) - tau(s)) * h'(tau(s)),

the deformed exponential (the clipped inverse of ``ell = h' o tau``), the
derived functions ``(ell, m, gamma, chi, s, s_star)``, equivalence
transforms that leave the kernel invariant, and Legendre conjugation.

The four built-in gauges are one family: tau(t) = t**p and ell = ln_q + c,
with ln_q the deformed logarithm (t**(1-q) - 1)/(1-q) (log t at q = 1):

    kind        kl          power(q)    escort(q)   scaled_log(lam)
    (p, q, c)   (1, 1, 1)   (1, q, 0)   (q, q, 0)   (lam, 1, 0)

Their tau, ell and clipped deformed exponential exp_q(u - c) come from one
code path; only h keeps a closed form per kind.  One builder
(``_derived_from``) makes the derived functions of every gauge by the
chain rule, so each value and first and second derivative is exact in
those of ell and tau, except m'', gamma', gamma'' and chi'' (they need
ell'''), which are central differences.  Custom gauges invert ell by
safeguarded root-finding (``exp_htau``); the normalizers in ``discrete``
call it only as a fallback, since they solve for psi and the density
together by one flat Newton step per iteration in the coordinate of
``_coordinate``.  A pair gauge's h o tau is a vectorised Gauss-Legendre
integral in t, and the kernel reads it in t (as -s), with no inversion
of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError, InfeasibleError

# Not scipy's modules, which no dgeo code calls: perfbench/tracer.py looks
# both names up to save them before it patches in its solver stand-ins.
# They go with those stand-ins (ROADMAP item 2, the benchmark refresh).
integrate = optimize = None

__all__ = [
    "Interval",
    "ScalarFn",
    "GaugeTriple",
    "DerivedFunctions",
    "EquivalenceTransform",
    "builtin_gauge",
    "derived",
    "d_htau",
    "exp_htau",
    "apply_equivalence",
    "gauge_from_pair",
    "delta_pair",
    "legendre_conjugate",
    "conjugate_fn",
    "gauge_to_json",
    "gauge_from_json",
    "log_grid",
]

_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS ** (1.0 / 3.0)


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); endpoints may be 0, -inf or +inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"empty interval ({self.lo}, {self.hi})")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x > self.lo) & (x < self.hi)

    def require(self, x, what: str = "argument"):
        if not np.all(self.contains(x)):
            raise DomainError(f"{what} outside the open interval ({self.lo}, {self.hi})")

    def finite_slice(self, pad: float = 1e-6) -> tuple[float, float]:
        """A finite closed slice safely inside the open interval."""
        lo = self.lo if math.isfinite(self.lo) else -1e8
        hi = self.hi if math.isfinite(self.hi) else 1e8
        span = hi - lo
        a = lo + pad * min(span, 1.0) if math.isfinite(self.lo) else lo
        if self.lo == 0.0:
            a = max(a, 1e-8)
        b = hi - pad * min(span, 1.0) if math.isfinite(self.hi) else hi
        return a, b


def log_grid(lo: float, hi: float, n: int = 64) -> np.ndarray:
    """Log-uniform grid on a compact subinterval (geometric when lo > 0)."""
    if lo > 0:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _fd_step(t: np.ndarray, domain: Interval, rel: float) -> np.ndarray:
    """rel times max(1, |t|), capped by t's distance to each finite end of the
    domain so that a stencil of half-width 2 steps stays inside it, and
    rounded down to a power of two so that t + k*step is exact in floating
    point (otherwise a step far below |t| would carry a rounding error of
    eps |t| / step)."""
    scale = np.maximum(1.0, np.abs(t))
    if math.isfinite(domain.lo):
        scale = np.minimum(scale, t - domain.lo)
    if math.isfinite(domain.hi):
        scale = np.minimum(scale, domain.hi - t)
    return np.exp2(np.floor(np.log2(rel * scale)))


def _fd_d1(f: Callable, domain: Interval) -> Callable:
    def d1(t):
        t = np.asarray(t, dtype=float)
        h = _fd_step(t, domain, _FD_STEP)
        return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)

    return d1


def _fd_d2(f: Callable, domain: Interval) -> Callable:
    def d2(t):
        t = np.asarray(t, dtype=float)
        h = _fd_step(t, domain, _EPS ** 0.25)
        return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)) / (
            12 * h * h
        )

    return d2


@dataclass(frozen=True)
class ScalarFn:
    """A real function with first and second derivatives on an open domain."""

    value: Callable
    d1: Callable
    d2: Callable
    domain: Interval

    @classmethod
    def from_value(cls, value: Callable, domain: Interval) -> "ScalarFn":
        """Wrap a plain callable, deriving d1/d2 by central differences."""
        return cls(value=value, d1=_fd_d1(value, domain), d2=_fd_d2(value, domain),
                   domain=domain)

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class DerivedFunctions:
    """The six scalar functions a gauge generates.

    ell     = h' o tau                (monotone representation)
    m(t)    = ell'(t) tau'(t)         (metric density)
    gamma   = ell''(t) tau'(t)        (connection density)
    chi     = 1 / ell'                (escort reweighting)
    s       = -h o tau                (entropy density)
    s_star  = -tau * ell + h o tau    (dual entropy / potential density)
    """

    ell: ScalarFn
    m: ScalarFn
    gamma: ScalarFn
    chi: ScalarFn
    s: ScalarFn
    s_star: ScalarFn


@dataclass(frozen=True)
class EquivalenceTransform:
    """Kernel-preserving reparametrization (a1, a2, a3, lam) with lam > 0."""

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("equivalence transform requires lam > 0")


@dataclass(frozen=True)
class GaugeTriple:
    """A gauge (h, tau) on I, with cached derived data.

    ``ell_range`` is the image of ``ell`` over I (used for clipping the
    deformed exponential); ``exp_fn`` is an optional closed-form inverse.
    """

    h: ScalarFn
    tau: ScalarFn
    I: Interval
    name: str
    ell_range: tuple[float, float]
    exp_fn: Optional[Callable] = None
    derived_fns: Optional[DerivedFunctions] = None
    descriptor: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        if self.I.lo < 0:
            raise DomainError("gauge interval must lie inside (0, inf)")
        a, b = self.I.finite_slice()
        probe = log_grid(a, b, 16)
        td1 = np.asarray(self.tau.d1(probe), dtype=float)
        if not np.all(td1 > 0):
            raise DomainError(f"tau' must be positive on I for gauge '{self.name}'")
        hd2 = np.asarray(self.h.d2(self.tau.value(probe)), dtype=float)
        if not np.all(hd2 > 0):
            raise DomainError(f"h'' must be positive on tau(I) for gauge '{self.name}'")


# ----------------------------------------------------------------------------
# Deformed logarithms, shared by every built-in gauge
# ----------------------------------------------------------------------------


def _ln_q(r, q: float):
    # expm1 keeps full precision as q -> 1, where r**(1-q) - 1 cancels;
    # + 0.0 keeps ln_q(1) = 0.0 / (1 - q), which is -0.0 for q > 1
    r = np.asarray(r, dtype=float)
    if q == 1.0:
        return np.log(r)
    return (np.expm1((1.0 - q) * np.log(r)) + 0.0) / (1.0 - q)


def _h_q(r, q: float):
    # integral of ln_q from 1 to r; r**(2-q) - r stands for r expm1(x) where that overflows
    r = np.asarray(r, dtype=float)
    if q == 1.0:
        return r * np.log(r) - r + 1.0
    if q == 2.0:
        return (r - 1.0) - np.log(r)
    with np.errstate(all="ignore"):  # both branches are evaluated
        x = (1.0 - q) * np.log(r)
        r_ell = np.where(x < 700.0, r * np.expm1(x), r ** (2.0 - q) - r) / (1.0 - q)
    return (r_ell - (r - 1.0)) / (2.0 - q)


def _ln_q_range(q: float, I: Interval) -> tuple[float, float]:
    """Image of ln_q over I: ln_q(0+) is -1/(1-q) for q < 1 and ln_q(inf) is
    1/(q-1) for q > 1, both infinite otherwise."""
    def at(t):
        if t == 0.0:
            return -1.0 / (1.0 - q) if q < 1.0 else -math.inf
        if math.isinf(t):
            return 1.0 / (q - 1.0) if q > 1.0 else math.inf
        return float(_ln_q(t, q))

    return at(I.lo), at(I.hi)


def _exp_q_factory(q: float, c: float, lo_ell: float, hi_ell: float) -> Callable:
    """exp_q(u - c), the inverse of ell = ln_q + c, clipped to 0 at or below
    lo_ell and to +inf at or above hi_ell."""
    def exp_q(u):
        u = np.asarray(u, dtype=float)
        if q == 1.0:
            core = np.exp(u - c)
        else:  # (1 + a)**(1/(1-q)) through log1p(a), full precision as q -> 1
            a = (1.0 - q) * (u - c)
            with np.errstate(over="ignore", divide="ignore"):  # log1p(-1) = -inf
                pow_ = np.exp(np.log1p(np.maximum(a, -1.0)) / (1.0 - q))
            core = np.where(a > -1.0, pow_, np.inf if q > 1.0 else 0.0)
        out = np.where(u >= hi_ell, np.inf, np.where(u <= lo_ell, 0.0, core))
        return out if out.ndim else float(out)

    return exp_q


# ----------------------------------------------------------------------------
# Built-in gauges
# ----------------------------------------------------------------------------


def _power_fn(p: float, I: Interval) -> ScalarFn:
    # t**p
    return ScalarFn(lambda t: np.asarray(t, dtype=float) ** p,
                    lambda t: p * np.asarray(t, dtype=float) ** (p - 1.0),
                    lambda t: p * (p - 1.0) * np.asarray(t, dtype=float) ** (p - 2.0), I)


def _kl(_):
    # h(r) = r log r
    return (1.0, 1.0, 1.0), (lambda r: np.asarray(r, float) * np.log(r),
                             lambda r: np.log(r) + 1.0, lambda r: 1.0 / np.asarray(r, float))


def _power(q):
    # h = the integral of ln_q from 1
    return (1.0, q, 0.0), (lambda r: _h_q(r, q), lambda r: _ln_q(r, q),
                           lambda r: np.asarray(r, float) ** (-q))


def _escort(q):
    # h(r) = q r ln_q(r^(1/q)) - r
    def h(r):
        r = np.asarray(r, dtype=float)
        return q * r * _ln_q(r ** (1.0 / q), q) - r

    def h_d1(r):
        r = np.asarray(r, dtype=float)
        return q * _ln_q(r ** (1.0 / q), q) + r ** (1.0 / q - 1.0) - 1.0

    return (q, q, 0.0), (h, h_d1, lambda r: (1.0 / q) * np.asarray(r, float) ** (1.0 / q - 2.0))


def _scaled_log(lam):
    # h(r) = (r log r - r) / lam
    def h(r):
        r = np.asarray(r, dtype=float)
        return (r * np.log(r) - r) / lam

    return (lam, 1.0, 0.0), (h, lambda r: np.log(r) / lam,
                             lambda r: 1.0 / (lam * np.asarray(r, float)))


# kind -> (name of its parameter, parameter -> ((p, q, c), (h, h', h'')))
_BUILTINS = {"kl": (None, _kl), "power": ("q", _power), "escort": ("q", _escort),
             "scaled_log": ("lam", _scaled_log)}


def builtin_gauge(kind: str, q: float | None = None, lam: float | None = None,
                  interval: Interval | None = None) -> GaugeTriple:
    """Construct one of the built-in gauges on ``interval`` (default (0, inf)).

    Every built-in has tau(t) = t**p and ell = h' o tau = ln_q + c, where
    ln_q(t) = (t**(1-q) - 1)/(1-q) (log t at q = 1) is the deformed
    logarithm:

        kind                p     q     c     h
        "kl"                1     1     1     r log r
        "power"    (q)      1     q     0     integral of ln_q from 1
        "escort"   (q)      q     q     0     q r ln_q(r**(1/q)) - r
        "scaled_log" (lam)  lam   1     0     (r log r - r)/lam

    tau, ell, the image of ell over the interval and the deformed
    exponential exp_q(u - c), clipped to that image, follow from (p, q, c)
    alone; h keeps a closed form per kind.  h, tau and ell carry
    closed-form derivatives and the derived functions follow by the chain
    rule (``_derived_from``).
    """
    I = interval or Interval(0.0, math.inf)
    if I.lo < 0:
        raise DomainError("gauge interval must lie inside (0, inf)")
    if not isinstance(kind, str) or kind not in _BUILTINS:
        raise DomainError(f"unknown gauge kind {kind!r}")
    pname, family = _BUILTINS[kind]
    a = {"q": q, "lam": lam}.get(pname)
    if pname and (a is None or not 0.0 < a < math.inf):
        raise DomainError(f"{kind} gauge requires a finite {pname} > 0, got {a}")
    (p, q, c), h_fns = family(a)

    try:
        h = ScalarFn(*h_fns, Interval(I.lo ** p, I.hi ** p))
    except OverflowError:
        raise DomainError(f"tau(I) = I**{p:g} overflows on I = ({I.lo:g}, {I.hi:g})") from None
    for t in (I.lo, I.hi):
        for e in (p - 1.0, -q):  # tau' = p t**(p-1) and ell' = t**(-q)
            if 0.0 < t < math.inf and abs(e * math.log(t)) >= math.log(np.finfo(float).max):
                raise DomainError(f"t**{e:g} leaves double range at t = {t:g} on I")
    tau = _power_fn(p, I)
    # adding c = 0 would turn ln_q(1) = -0.0 (q > 1) into +0.0
    ell = ScalarFn((lambda t: _ln_q(t, q) + c) if c else (lambda t: _ln_q(t, q)),
                   lambda t: np.asarray(t, float) ** (-q),
                   lambda t: -q * np.asarray(t, float) ** (-q - 1.0), I)
    ell_range = tuple(v + c for v in _ln_q_range(q, I))
    params = {pname: a} if pname else {}
    return GaugeTriple(h, tau, I, kind + "".join(f"({v:g})" for v in params.values()),
                       ell_range, _exp_q_factory(q, c, *ell_range),
                       _derived_from(lambda t: h.value(tau.value(t)), tau, ell, I),
                       {"kind": kind, **params, "lo": I.lo,
                        "hi": None if math.isinf(I.hi) else I.hi})


# ----------------------------------------------------------------------------
# Derived functions for gauges without precomputed closed forms
# ----------------------------------------------------------------------------


def derived(g: GaugeTriple) -> DerivedFunctions:
    """The derived functions of a gauge (cached on every gauge this module builds)."""
    if g.derived_fns is not None:
        return g.derived_fns

    h, tau = g.h, g.tau

    def ell_d1(t):
        return h.d2(tau.value(t)) * tau.d1(t)

    ell = ScalarFn(lambda t: h.d1(tau.value(t)), ell_d1, _fd_d1(ell_d1, g.I), g.I)
    return _derived_from(lambda t: h.value(tau.value(t)), tau, ell, g.I)


def _derived_from(h_tau: Callable, tau: ScalarFn, ell: ScalarFn, I: Interval) -> DerivedFunctions:
    """m, gamma, chi, s and s_star from h o tau (as a function of t), tau and ell = h' o tau.

    Values and derivatives follow from those of ell and tau by the chain
    rule: m' = ell'' tau' + ell' tau'', chi' = -ell'' / ell'^2,
    s' = -ell tau', s'' = -(m + ell tau''), s_star' = -tau ell' and
    s_star'' = -(m + tau ell'').  Only m'', gamma', gamma'' and chi'' would
    need ell''', so those four are central differences.
    """

    def m_v(t):
        return ell.d1(t) * tau.d1(t)

    def m_d1(t):
        return ell.d2(t) * tau.d1(t) + ell.d1(t) * tau.d2(t)

    def gamma_v(t):
        return ell.d2(t) * tau.d1(t)

    def chi_v(t):
        return 1.0 / ell.d1(t)

    def chi_d1(t):
        return -ell.d2(t) / ell.d1(t) ** 2

    def s_d1(t):
        return -ell.value(t) * tau.d1(t)

    def s_d2(t):
        return -(m_v(t) + ell.value(t) * tau.d2(t))

    def ss_v(t):
        return -tau.value(t) * ell.value(t) + h_tau(t)

    def ss_d1(t):
        return -tau.value(t) * ell.d1(t)

    def ss_d2(t):
        return -(m_v(t) + tau.value(t) * ell.d2(t))

    return DerivedFunctions(
        ell=ell,
        m=ScalarFn(m_v, m_d1, _fd_d1(m_d1, I), I),
        gamma=ScalarFn(gamma_v, _fd_d1(gamma_v, I), _fd_d2(gamma_v, I), I),
        chi=ScalarFn(chi_v, chi_d1, _fd_d1(chi_d1, I), I),
        s=ScalarFn(lambda t: -h_tau(t), s_d1, s_d2, I),
        s_star=ScalarFn(ss_v, ss_d1, ss_d2, I),
    )


# ----------------------------------------------------------------------------
# Kernel, deformed exponential, conjugation
# ----------------------------------------------------------------------------


def d_htau(g: GaugeTriple, t, s):
    """Divergence kernel d(t, s) >= 0 with equality iff t == s.

    h(tau(t)) is read as -s(t), a function of t, so no gauge inverts tau here."""
    g.I.require(t, "t")
    g.I.require(s, "s")
    d = derived(g)
    ht = -d.s.value(t)
    hs = -d.s.value(s)
    val = np.asarray(ht - hs - (g.tau.value(t) - g.tau.value(s)) * d.ell.value(s), dtype=float)
    scale = 1.0 + np.abs(ht) + np.abs(hs)
    val = np.where((val < 0) & (val > -1e-12 * scale), 0.0, val)
    return val if val.ndim else float(val)


def _rtsafe(evaluate: Callable, x, a, b) -> np.ndarray:
    """Roots of increasing functions by ``rtsafe`` (Numerical Recipes 9.4) on arrays.

    evaluate(x, live) gives g and dg/dx at x for the elements indexed by
    live.  Each element takes a Newton step only inside its bracket [a, b]
    and bisects otherwise, and stops once a Newton step is below
    _NEWTON_SETTLED (the error is then about its square) or the bracket
    has shrunk to rounding.
    """
    with np.errstate(all="ignore"):
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        out = x.copy()
        live = np.arange(x.size)
        dx_old = b - a
        for _ in range(200):
            if live.size == 0:
                break
            g, dg = evaluate(x, live)
            a = np.where(g < 0, x, a)
            b = np.where(g > 0, x, b)
            newton = x - g / dg
            inside = (newton >= a) & (newton <= b)
            settled = inside & (np.abs(newton - x) <= _NEWTON_SETTLED)
            bisect = ~settled & (~inside | (np.abs(2 * g) > np.abs(dx_old * dg)))
            x_new = np.where(bisect, 0.5 * (a + b), newton)
            dx_old = x_new - x
            out[live] = x_new
            done = settled | (np.abs(dx_old) <= 4 * _EPS * np.maximum(1.0, np.abs(x)))
            if done.any():
                keep = ~done
                live, x_new, a, b, dx_old = (v[keep] for v in (live, x_new, a, b, dx_old))
            x = x_new
    return out


_NEWTON_SETTLED = 1e-8
# brackets for _solve_increasing, in the coordinate x of _coordinate
_X_TABLE = np.concatenate([[-700.0, -350.0, -175.0, -88.0], np.linspace(-44.0, 44.0, 23),
                           [88.0, 175.0, 350.0, 700.0]])


def _coordinate(domain: Interval) -> tuple[Callable, Callable]:
    """x -> (t, dt/dx) onto the domain, exponential toward each finite end (sinh
    on R), so that a step in x is a relative step in t or in its distance
    to a finite end; and its inverse t -> x."""
    lo, hi = domain.lo, domain.hi
    if math.isfinite(lo) and math.isfinite(hi):
        width = hi - lo

        def tmap(x):
            e = np.exp(-np.abs(x))
            s = e / (1.0 + e)
            return np.where(x < 0, lo + width * s, hi - width * s), width * s * (1.0 - s)
        return tmap, lambda t: np.log((t - lo) / (hi - t))
    if math.isfinite(lo) or math.isfinite(hi):
        end, sign = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)

        def tmap(x):
            e = np.exp(sign * x)
            return end + sign * e, e
        return tmap, lambda t: sign * np.log(sign * (t - end))
    return (lambda x: (np.sinh(x), np.cosh(x))), np.arcsinh


@lru_cache(maxsize=8)
def _gl_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1], read-only."""
    x, w = roots_legendre(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _doubling(integral: Callable, n_nodes: int, n_max: int, epsabs: float, epsrel: float,
              what: str) -> tuple[np.ndarray, np.ndarray]:
    """(I_2n, |I_2n - I_n|) at the first n = n_nodes, 2 n_nodes, ... where every element
    has |I_2n - I_n| <= max(epsabs, epsrel |I_2n|); InfeasibleError past n_max nodes."""
    coarse = integral(n_nodes)
    while n_nodes < n_max:
        n_nodes *= 2
        fine = integral(n_nodes)
        abserr = np.abs(fine - coarse)
        if np.all(abserr <= np.maximum(epsabs, epsrel * np.abs(fine))):
            return fine, abserr
        coarse = fine
    raise InfeasibleError(f"{what} unconverged at {n_max} nodes ({np.max(abserr):.3g})")


def _gl_integrate(f: Callable, domain: Interval, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Integral of f from a to b inside the domain, with its error estimate, for all
    elements of a and b at once: Gauss-Legendre in the x of ``_coordinate`` on panels
    of length <= 2, 16 nodes per panel doubled until |I_2n - I_n| <= max(1e-12,
    1e-12 |I_2n|) (InfeasibleError past 256)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    domain.require([a, b], "integration limit")
    tmap, xmap = _coordinate(domain)
    xa, xb = xmap(a.ravel()), xmap(b.ravel())
    n = np.maximum(1, np.ceil(np.abs(xb - xa) / 2.0)).astype(np.intp)  # panels per element
    row = np.repeat(np.arange(n.size), n)
    half = ((xb - xa) / (2 * n))[row]
    mid = xa[row] + (2 * (np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)) + 1) * half

    def integral(n_nodes):
        u, w = _gl_rule(n_nodes)
        t, dtdx = tmap(mid[:, None] + half[:, None] * u)
        return np.bincount(row, (f(t) * dtdx) @ w * half, minlength=n.size)

    val, abserr = _doubling(integral, 16, 256, 1e-12, 1e-12, "Gauss-Legendre quadrature")
    return val.reshape(a.shape), abserr.reshape(a.shape)


def _table(f: Callable, domain: Interval):
    """f on the points of ``_X_TABLE`` where it is not NaN: (tmap, x, f)."""
    tmap = _coordinate(domain)[0]
    with np.errstate(all="ignore"):
        F = np.asarray(f(tmap(_X_TABLE)[0]), dtype=float)
    return tmap, _X_TABLE[~np.isnan(F)], F[~np.isnan(F)]


def _image(f: Callable, domain: Interval) -> tuple[float, float]:
    """Image of an increasing f over the domain as far as the solver reaches
    it (the ends of its table); values beyond 1e10 in size count as infinite."""
    _, _, F = _table(f, domain)
    return (-math.inf if F[0] < -1e10 else float(F[0]),
            math.inf if F[-1] > 1e10 else float(F[-1]))


def _solve_increasing(f: Callable, df: Callable, y, domain: Interval):
    """Elementwise t in the domain with f(t) = y for increasing f, to a relative
    tolerance; targets beyond f's values at the table's ends give the
    nearer end of the domain."""
    y = np.asarray(y, dtype=float)
    yf = y.ravel()
    tmap, X, F = _table(f, domain)
    k = np.searchsorted(F, yf)   # NaN sorts last
    out = np.where(k == 0, domain.lo, domain.hi)
    out[np.isnan(yf)] = math.nan
    idx = np.flatnonzero((k > 0) & (k < X.size))
    k, yt = k[idx], yf[idx]
    a, b = X[k - 1], X[k]
    with np.errstate(all="ignore"):
        x0 = a + (yt - F[k - 1]) / (F[k] - F[k - 1]) * (b - a)

    def evaluate(x, live):
        t, dtdx = tmap(x)
        return np.asarray(f(t), dtype=float) - yt[live], np.asarray(df(t), dtype=float) * dtdx

    out[idx] = tmap(_rtsafe(evaluate, x0, a, b))[0]
    out = out.reshape(y.shape)
    return out if out.ndim else float(out)


def exp_htau(g: GaugeTriple, u):
    """Deformed exponential: the inverse of ell, clipped to 0 / +inf outside.

    Built-in gauges use their closed form; others invert ell at all points
    at once by safeguarded Newton-bisection to a relative tolerance in t.
    """
    if g.exp_fn is not None:
        return g.exp_fn(u)
    lo_e, hi_e = g.ell_range
    ell = derived(g).ell
    u = np.asarray(u, dtype=float)
    t = _solve_increasing(ell.value, ell.d1, u, g.I)
    out = np.where(u >= hi_e, np.inf, np.where(u <= lo_e, 0.0, t))
    return out if out.ndim else float(out)


def legendre_conjugate(g: GaugeTriple, r_star: float) -> float:
    """Value of the convex conjugate of h at r_star in h'(tau(I))."""
    lo_e, hi_e = g.ell_range
    if not (lo_e < r_star < hi_e):
        raise DomainError(f"r_star={r_star} outside the image of h' over tau(I)")
    t = exp_htau(g, r_star)
    return float(g.tau.value(t)) * r_star + float(derived(g).s.value(t))


def conjugate_fn(f: ScalarFn) -> ScalarFn:
    """Legendre conjugate of a strictly convex ScalarFn, as a ScalarFn.

    The conjugate's domain is the image of f' over f.domain as the solver
    reaches it (``_image``); the inverse of f' is computed for all arguments
    at once by the bracketed Newton-bisection of ``_solve_increasing``, so
    this works for quadrature-backed functions too.
    """
    dom = Interval(*_image(f.d1, f.domain))

    def d1(y):
        return _solve_increasing(f.d1, f.d2, y, f.domain)

    def value(y):
        x = d1(y)
        return x * np.asarray(y, dtype=float) - f.value(x)

    def d2(y):
        return 1.0 / f.d2(d1(y))

    return ScalarFn(value, d1, d2, dom)


# ----------------------------------------------------------------------------
# Equivalence transforms
# ----------------------------------------------------------------------------


def apply_equivalence(g: GaugeTriple, tr: EquivalenceTransform) -> GaugeTriple:
    """Transformed gauge with identical divergence kernel.

    New pair: tau2 = lam*tau + a3 and h2(rho) = h((rho-a3)/lam)
    - a1*(rho-a3)/lam - a2, so that h(r) = h2(lam*r + a3) + a1*r + a2.
    """
    a1, a2, a3, lam = tr.a1, tr.a2, tr.a3, tr.lam
    h1, tau1 = g.h, g.tau

    J2 = Interval(lam * h1.domain.lo + a3 if math.isfinite(h1.domain.lo) else -math.inf,
                  lam * h1.domain.hi + a3 if math.isfinite(h1.domain.hi) else math.inf)

    def back(rho):
        return (np.asarray(rho, dtype=float) - a3) / lam

    h2 = ScalarFn(
        value=lambda rho: h1.value(back(rho)) - a1 * back(rho) - a2,
        d1=lambda rho: (h1.d1(back(rho)) - a1) / lam,
        d2=lambda rho: h1.d2(back(rho)) / lam ** 2,
        domain=J2)
    tau2 = ScalarFn(
        value=lambda t: lam * tau1.value(t) + a3,
        d1=lambda t: lam * tau1.d1(t),
        d2=lambda t: lam * tau1.d2(t),
        domain=g.I)

    derived1 = derived(g)
    ell2 = ScalarFn(lambda t: (derived1.ell.value(t) - a1) / lam,
                    lambda t: derived1.ell.d1(t) / lam,
                    lambda t: derived1.ell.d2(t) / lam, g.I)

    lo_e, hi_e = g.ell_range
    rng2 = ((lo_e - a1) / lam, (hi_e - a1) / lam)

    exp_fn2 = None
    if g.exp_fn is not None:
        base = g.exp_fn

        def exp_fn2(u):
            return base(lam * np.asarray(u, dtype=float) + a1)

    return GaugeTriple(h2, tau2, g.I, f"{g.name}~equiv", rng2, exp_fn2, _derived_from(
        lambda t: -derived1.s.value(t) - a1 * tau1.value(t) - a2, tau2, ell2, g.I), None)


# ----------------------------------------------------------------------------
# Construction from a (tau, ell) pair
# ----------------------------------------------------------------------------


def delta_pair(tau: ScalarFn, ell: ScalarFn, t: float, s: float) -> float:
    """Kernel of a (tau, ell) pair: the integral of (ell(u) - ell(s)) tau'(u)
    from s to t by the composite Gauss-Legendre rule of ``_gl_integrate``."""
    tau.domain.require([t, s], "kernel argument")
    ls = float(ell.value(s))
    return float(_gl_integrate(lambda u: (ell.value(u) - ls) * tau.d1(u), tau.domain, s, t)[0])


def gauge_from_pair(tau: ScalarFn, ell: ScalarFn, a: float) -> GaugeTriple:
    """Recover a gauge from monotone (tau, ell) with base point a in I.

    h o tau is the integral of ell tau' from a to t (``_gl_integrate``), read
    by s and s_star with no inversion of tau.  h(r) is that integral at
    t = tau^{-1}(r); h'(r) = ell(t) and h''(r) = ell'(t)/tau'(t) are exact.
    """
    I = tau.domain
    I.require(a, "base point a")
    lo_p, hi_p = I.finite_slice(pad=1e-4)
    probe = log_grid(lo_p, hi_p, 32)
    if not np.all(np.asarray(tau.d1(probe), dtype=float) > 0):
        raise DomainError("tau must be strictly increasing on I")
    if not np.all(np.asarray(ell.d1(probe), dtype=float) > 0):
        raise DomainError("ell must be strictly increasing on I")

    Jt = Interval(*_image(tau.value, I))

    def h_tau(t):
        out = _gl_integrate(lambda u: ell.value(u) * tau.d1(u), I, a, t)[0]
        return out if out.ndim else float(out)

    def at_inverse(f):  # r -> f(tau^{-1}(r))
        return lambda r: f(_solve_increasing(tau.value, tau.d1, r, I))

    h = ScalarFn(at_inverse(h_tau), at_inverse(ell.value),
                 at_inverse(lambda t: ell.d1(t) / tau.d1(t)), Jt)

    return GaugeTriple(h, tau, I, f"pair(a={a:g})", _image(ell.value, I), None,
                       _derived_from(h_tau, tau, ell, I), None)


# ----------------------------------------------------------------------------
# JSON descriptors
# ----------------------------------------------------------------------------


def gauge_to_json(g: GaugeTriple) -> dict:
    if g.descriptor is None:
        raise DomainError("only built-in gauges have a JSON descriptor")
    return dict(g.descriptor)


def gauge_from_json(obj: dict) -> GaugeTriple:
    """Build a gauge from {"kind": ..., "q"/"lam": ..., "lo": ..., "hi": ...}; "lam"
    may be spelled "lambda" and defaults to 1.  A malformed descriptor raises
    DomainError."""
    if not isinstance(obj, dict):
        raise DomainError(f"gauge descriptor must be a JSON object, not {obj!r}")
    raw = {"q": obj.get("q"), "lam": obj.get("lam", obj.get("lambda", 1.0)),
           "lo": obj.get("lo") or 0.0, "hi": obj.get("hi")}
    try:
        num = {k: None if v is None else float(v) for k, v in raw.items()}
    except (TypeError, ValueError):
        raise DomainError(f"gauge descriptor {obj!r} has a non-numeric parameter") from None
    hi = math.inf if num["hi"] is None else num["hi"]
    return builtin_gauge(obj.get("kind"), num["q"], num["lam"], Interval(num["lo"], hi))
