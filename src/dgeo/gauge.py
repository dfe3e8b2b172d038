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

Their tau, ell, h' = ell o tau^-1, h'' = ell'/tau' o tau^-1, the image of ell and
the clipped deformed exponential exp_q(u - c) come from (p, q, c) by one code
path; only h keeps a closed form per kind.  exp_q is the p of each one's fused
member kernel z -> (p, chi, tau(p), tau'(p)) (``_exp_q_factory``), which any
other gauge composes from ``exp_htau``, chi and tau (``_member_at``).  One builder
(``_derived_from``) makes the derived functions of every gauge, each
exact in h o tau, tau, ell and the derivatives of ell and tau; only ell
carries derivatives of its own.  Custom gauges invert ell by
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
        if not self.contains(x).all():
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


@dataclass(frozen=True)
class ScalarFn:
    """A real function with first and second derivatives on an open domain."""

    value: Callable
    d1: Callable
    d2: Callable
    domain: Interval

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

    ell is a ScalarFn (ell' and ell'' are read); the others map t -> value.
    """

    ell: ScalarFn
    m: Callable
    gamma: Callable
    chi: Callable
    s: Callable
    s_star: Callable


@dataclass(frozen=True)
class EquivalenceTransform:
    """Kernel-preserving reparametrization (a1, a2, a3, lam) with lam > 0."""

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.a1, self.a2, self.a3, self.lam))) and self.lam > 0):
            raise DomainError("equivalence transform requires finite a1, a2, a3 and lam > 0")


@dataclass(frozen=True)
class GaugeTriple:
    """A gauge (h, tau) on I, with its derived functions ``derived_fns``.

    ``ell_range`` is the image of ``ell`` over I (used for clipping the
    deformed exponential); ``exp_fn`` is an optional closed-form inverse.
    ``_member_kernel`` maps an array z to (p, chi, tau, tau') at p = exp_htau(z),
    with no check of z.
    """

    h: ScalarFn
    tau: ScalarFn
    I: Interval
    name: str
    ell_range: tuple[float, float]
    derived_fns: DerivedFunctions
    exp_fn: Optional[Callable] = None
    descriptor: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_member_kernel", lambda z: _member_at(self, _exp_htau(self, z)))
        if self.I.lo < 0:
            raise DomainError("gauge interval must lie inside (0, inf)")
        a, b = self.I.finite_slice()
        probe = log_grid(a, b, 16)
        with np.errstate(all="ignore"):  # a large exponent leaves double range: refused below
            td1 = np.asarray(self.tau.d1(probe), dtype=float)
            # ell' = h''(tau) tau' with tau' > 0: h'' > 0 on tau(I), read in t, no tau^-1
            ld1 = np.asarray(self.derived_fns.ell.d1(probe), dtype=float)
        for what, v in (("tau'", td1), ("ell' = h''(tau) tau'", ld1)):
            if not np.isfinite(v).all():
                raise DomainError(f"{what} leaves double range on I for gauge '{self.name}'")
        if not (td1 > 0).all():
            raise DomainError(f"tau' must be positive on I for gauge '{self.name}'")
        if not (ld1 > 0).all():
            raise DomainError(f"h'' must be positive on tau(I) for gauge '{self.name}'")


# ----------------------------------------------------------------------------
# Deformed logarithms, shared by every built-in gauge
# ----------------------------------------------------------------------------


def _ln_q(r, q: float, p: float = 1.0):
    # ln_q(r**(1/p)), read at log(r)/p, where r**(1/p) may leave double range; expm1
    # keeps full precision as q -> 1, where r**(1-q) - 1 cancels; + 0.0 keeps
    # ln_q(1) = 0.0 / (1 - q), which is -0.0 for q > 1
    x = np.log(np.asarray(r, dtype=float))
    if p != 1.0:
        x = x / p
    if q == 1.0:
        return x
    return (np.expm1((1.0 - q) * x) + 0.0) / (1.0 - q)


def _h_q(r, q: float):
    # integral of ln_q from 1 to r; r**(2-q) - r stands for r expm1(x) where that overflows
    r = np.asarray(r, dtype=float)
    if q == 1.0:
        return r * np.log(r) - r + 1.0
    if q == 2.0:
        return (r - 1.0) - np.log(r)
    with np.errstate(all="ignore"):  # log 0, and both branches of the where are evaluated
        L = np.log(r)
        if 1.5 < q < 3.0:  # where the division by 2 - q below cancels: this form tends
            # to q = 2's; q = 1.5 and 3 keep the form below, bit for bit
            return (np.expm1((2.0 - q) * L) / (2.0 - q) - (r - 1.0)) / (1.0 - q)
        x = (1.0 - q) * L
        r_ell = np.where(x < 700.0, r * np.expm1(x), r ** (2.0 - q) - r) / (1.0 - q)
    return (r_ell - (r - 1.0)) / (2.0 - q)


def _ln_q_range(q: float, I: Interval) -> tuple[float, float]:
    """Image of ln_q over I: ln_q at its ends, where log 0 = -inf and expm1(-inf) = -1."""
    with np.errstate(divide="ignore"):
        return tuple(float(_ln_q(t, q)) for t in (I.lo, I.hi))


def _exp_q_factory(power: float, q: float, c: float, lo_ell: float, hi_ell: float):
    """exp_q(u - c), the inverse of ell = ln_q + c, clipped to 0 at or below lo_ell
    and to +inf at or above hi_ell, and the member kernel of the built-in with
    tau = t**power; exp_q is the kernel's p.  The kernel skips a clip whose bound is
    infinite: only u = -inf (+inf) meets it, where p is already 0 (inf).

    The kernel takes an array z under ignored errors: p = exp_q(z), chi = p**q as
    p / base, base = 1 + (1 - q)(z - c) (chi is p at q = 1), tau = p with tau' None
    at power 1, the escort's tau = chi and tau' = q / base, else p**power and its
    derivative; at a clipped z, their values at p = 0 and +inf."""
    def core(u):  # unclipped, and a (None at q = 1): (1 + a)**(1/(1-q)) by log1p, exact
        # as q -> 1; a <= -1, NaN: log1p(-1) = -inf
        a = None if q == 1.0 else (1.0 - q) * (u - c)
        return np.exp(u - c if a is None else np.log1p(np.fmax(a, -1.0)) / (1.0 - q)), a

    with np.errstate(divide="ignore"):  # (p, chi, tau, tau') at p = 0 and p = +inf
        ends = np.array([[0.0], [math.inf]]) ** [1.0, 1.0, 1.0, power - 1.0] * [1, 1, 1, power]
    clips = [(cmp, bound, at) for cmp, bound, at in zip(
        (np.less_equal, np.greater_equal), (lo_ell, hi_ell), ends) if math.isfinite(bound)]
    # the kernel's outputs that are arrays of their own: chi is p at q = 1, tau is p or chi
    own = [0] + [1] * (q != 1.0) + [2] * (power not in (1.0, q)) + [3] * (power != 1.0)

    def exp_q(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):  # overflow is the clip to +inf; chi is inf/inf at +-inf
            p = member(np.atleast_1d(u))[0]
        return p if u.ndim else float(p[0])

    def member(z):
        p, a = core(z)
        chi = p if a is None else p / (base := 1.0 + a)
        out = ((p, chi, p, None) if power == 1.0 else (p, chi, chi, q / base) if power == q
               else (p, chi, p ** power, power * p ** (power - 1.0)))
        for cmp, bound, at in clips:
            hit = cmp(z, bound)
            for i in own:
                out[i][hit] = at[i]
        return out

    return exp_q, member


# ----------------------------------------------------------------------------
# Built-in gauges and their derived functions
# ----------------------------------------------------------------------------


# kind -> (name of its parameter, parameter -> ((p, q, c), h)); h' and h'' follow from
# tau = t**p and ell = ln_q + c (``builtin_gauge``)
_BUILTINS = {
    "kl": (None, lambda _: ((1.0, 1.0, 1.0), lambda r: r * np.log(r))),
    "power": ("q", lambda q: ((1.0, q, 0.0), lambda r: _h_q(r, q))),
    "escort": ("q", lambda q: ((q, q, 0.0), lambda r: q * r * _ln_q(r ** (1.0 / q), q) - r)),
    "scaled_log": ("lam", lambda lam: ((lam, 1.0, 0.0), lambda r: (r * np.log(r) - r) / lam)),
}


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

    tau, ell, h' = ell o tau^-1 (ln_q at log(r)/p, plus c), h'' = ell'/tau' at
    tau^-1(r) = r**((1-q)/p - 1)/p, the image of ell over the interval (ln_q at
    its ends) and the deformed exponential exp_q(u - c), clipped to that image,
    follow from (p, q, c) alone; only h keeps a closed form per kind.  The
    derived functions follow from h o tau, tau and ell (``_derived_from``).
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
    (p, q, c), h_fn = family(a)

    def ln_q(k):  # r -> ln_q(r**(1/k)) + c; adding c = 0 would turn ln_q(1) = -0.0 into +0.0
        return (lambda r: _ln_q(r, q, k) + c) if c else (lambda r: _ln_q(r, q, k))

    e_h2 = -q if p == 1.0 else (1.0 - q) / p - 1.0
    try:
        h = ScalarFn(lambda r: h_fn(np.asarray(r, dtype=float)), ln_q(p),
                     lambda r: np.asarray(r, dtype=float) ** e_h2 / p,
                     Interval(I.lo ** p, I.hi ** p))
    except OverflowError:
        raise DomainError(f"tau(I) = I**{p:g} overflows on I = ({I.lo:g}, {I.hi:g})") from None
    for t in (I.lo, I.hi):
        for e in (p - 1.0, -q):  # tau' = p t**(p-1) and ell' = t**(-q)
            if 0.0 < t < math.inf and abs(e * math.log(t)) >= math.log(np.finfo(float).max):
                raise DomainError(f"t**{e:g} leaves double range at t = {t:g} on I")
    tau = ScalarFn(lambda t: np.asarray(t, dtype=float) ** p,
                   lambda t: p * np.asarray(t, dtype=float) ** (p - 1.0),
                   lambda t: p * (p - 1.0) * np.asarray(t, dtype=float) ** (p - 2.0), I)
    ell = ScalarFn(ln_q(1.0), lambda t: np.asarray(t, float) ** (-q),
                   lambda t: -q * np.asarray(t, float) ** (-q - 1.0), I)
    ell_range = tuple(v + c for v in _ln_q_range(q, I))
    params = {pname: a} if pname else {}
    exp_q, member = _exp_q_factory(p, q, c, *ell_range)
    g = GaugeTriple(h, tau, I, kind + "".join(f"({v:g})" for v in params.values()),
                    ell_range, _derived_from(lambda t: h.value(tau.value(t)), tau, ell), exp_q,
                    {"kind": kind, **params, "lo": I.lo, "hi": None if math.isinf(I.hi) else I.hi})
    object.__setattr__(g, "_member_kernel", member)
    return g


def derived(g: GaugeTriple) -> DerivedFunctions:
    """The derived functions of a gauge (``g.derived_fns``)."""
    return g.derived_fns


def _derived_from(h_tau: Callable, tau: ScalarFn, ell: ScalarFn) -> DerivedFunctions:
    """m, gamma, chi, s and s_star from h o tau (as a function of t), tau and
    ell = h' o tau, each exact in those and in the derivatives of ell and tau."""
    return DerivedFunctions(
        ell=ell,
        m=lambda t: ell.d1(t) * tau.d1(t),
        gamma=lambda t: ell.d2(t) * tau.d1(t),
        chi=lambda t: 1.0 / ell.d1(t),
        s=lambda t: -h_tau(t),
        s_star=lambda t: -tau.value(t) * ell.value(t) + h_tau(t),
    )


# ----------------------------------------------------------------------------
# Kernel, deformed exponential, conjugation
# ----------------------------------------------------------------------------


def d_htau(g: GaugeTriple, t, s):
    """Divergence kernel d(t, s) >= 0 with equality iff t == s.

    h(tau(t)) is read as -s(t), a function of t, so no gauge inverts tau here,
    and it is read once, on t and s together (one quadrature on a pair gauge)."""
    g.I.require(t, "t")
    g.I.require(s, "s")
    return _kernel(g, t, s)


def _kernel(g: GaugeTriple, t, s, hts=None):
    """d_htau without its checks; hts is h o tau at t and s stacked after
    np.broadcast_arrays (-s of ``derived``), read here when it is None."""
    d = derived(g)
    if hts is None:
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        if t.shape != s.shape:
            t, s = np.broadcast_arrays(t, s)
        hts = -d.s(np.stack([t, s]))
    ht, hs = hts
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

    One element takes the same iterates and evaluate calls on Python floats
    (``_rtsafe_one``): numpy's per-call cost would dominate a one-row solve.
    """
    with np.errstate(all="ignore"):
        if x.size == 1:
            return np.array([_rtsafe_one(evaluate, x.item(), a.item(), b.item())])
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


def _rtsafe_one(evaluate: Callable, x: float, a: float, b: float) -> float:
    """_rtsafe's iteration on one element, written so that NaN takes the same branches."""
    live, x, dx_old = np.zeros(1, dtype=np.intp), (x if a < x < b else 0.5 * (a + b)), b - a
    for _ in range(200):
        g, dg = (v.item() for v in evaluate(np.array([x]), live))
        a, b = (x if g < 0 else a), (x if g > 0 else b)
        newton = x - (g / dg if dg else g * math.copysign(math.inf, dg))  # numpy's g / +-0
        inside = a <= newton <= b
        settled = inside and abs(newton - x) <= _NEWTON_SETTLED
        bisect = not settled and (not inside or abs(2 * g) > abs(dx_old * dg))
        x_old, x = x, (0.5 * (a + b) if bisect else newton)
        dx_old = x - x_old
        if settled or abs(dx_old) <= 4 * _EPS * max(abs(x_old), 1.0):  # max(nan, 1.0) is nan
            break
    return x


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


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-node Gauss-Legendre rule on [-1, 1]:
    Newton on the three-term recurrence of P_n from Tricomi's guesses, for x >= 0,
    mirrored.  w = 2 (1 - x^2)/g^2 with g = (1 - x^2) P_n', which is stationary at a
    node, and 1 - x^2 at the last iterate corrected by its Newton step to first order."""
    x = np.cos(np.pi * (4 * np.arange(1, (n + 3) // 2) - 1) / (4 * n + 2)) \
        * (1.0 - (n - 1) / (8.0 * n ** 3))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        g = n * (p0 - x * p1)  # (1 - x^2) P_n'(x)
        dx = p1 * (1.0 - x) * (1.0 + x) / g
        x, x0 = x - dx, x
        if np.max(np.abs(dx)) <= _EPS:
            break
    w = 2.0 * ((1.0 - x0) * (1.0 + x0) + 2.0 * x0 * dx) / g ** 2
    x[n // 2:] = 0.0  # the middle node of an odd rule
    return np.concatenate([-x, x[::-1][n % 2:]]), np.concatenate([w, w[::-1][n % 2:]])


@lru_cache(maxsize=8)
def _gl_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``_gauss_legendre(n_nodes)``, read-only, as every caller shares it."""
    x, w = _gauss_legendre(n_nodes)
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
        if (abserr <= np.maximum(epsabs, epsrel * np.abs(fine))).all():
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
    A non-finite u raises DomainError; the member kernels and the solvers
    read ``_exp_htau``, which takes any u.
    """
    if not np.isfinite(u).all():
        raise DomainError("u must be finite")
    return _exp_htau(g, u)


def _exp_htau(g: GaugeTriple, u):
    if g.exp_fn is not None:
        return g.exp_fn(u)
    lo_e, hi_e = g.ell_range
    ell = derived(g).ell
    u = np.asarray(u, dtype=float)
    t = _solve_increasing(ell.value, ell.d1, u, g.I)
    out = np.where(u >= hi_e, np.inf, np.where(u <= lo_e, 0.0, t))
    return out if out.ndim else float(out)


def _member_at(g: GaugeTriple, p):
    """(p, chi, tau, tau') at the densities p: the member kernel of a gauge at exp_htau(z)."""
    p = np.asarray(p, dtype=float)
    return p, *(np.asarray(f(p), dtype=float) for f in (g.derived_fns.chi, g.tau.value, g.tau.d1))


def legendre_conjugate(g: GaugeTriple, r_star: float) -> float:
    """Value of the convex conjugate of h at r_star in h'(tau(I)).

    Raises DomainError unless t = exp_htau(r_star) lies inside I, tau(t) is
    positive and finite, and the value is finite: t or tau(t) may leave
    double range although r_star is inside the image.
    """
    lo_e, hi_e = g.ell_range
    if not (lo_e < r_star < hi_e):
        raise DomainError(f"r_star={r_star} outside the image of h' over tau(I)")
    with np.errstate(all="ignore"):  # refused below
        t = exp_htau(g, r_star)
        tau = float(g.tau.value(t))
        val = tau * r_star + float(derived(g).s(t))
    if not (g.I.contains(t) and 0.0 < tau < math.inf and math.isfinite(val)):
        raise DomainError(f"the conjugate at r_star={r_star} leaves double range")
    return val


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
    # the transform's affine maps must stay finite where the gauge is probed,
    # and its shifts must come back off tau and h o tau there, each to within
    # 1e-8 max(1, |value|) (relative alone would refuse where tau is tiny)
    probe = log_grid(*g.I.finite_slice(), 16)
    with np.errstate(all="ignore"):
        t1, ht = tau1.value(probe), -derived1.s(probe)
        parts = np.concatenate([np.float64(lam) ** np.array([2.0, -2.0]), lam * t1 + a3,
                                a1 * t1 + a2, (derived1.ell.value(probe) - a1) / lam])
        trips = [(t1, (lam * t1 + a3 - a3) / lam), (ht, (ht - a1 * t1 - a2) + a1 * t1 + a2)]
        kept = all(np.all(np.abs(b - v) <= 1e-8 * np.maximum(1.0, np.abs(v))) for v, b in trips)
    if not np.all(np.isfinite(parts)):
        raise DomainError("equivalence transform overflows on the gauge's interval")
    if not kept:
        raise DomainError("equivalence transform shifts tau or h o tau beyond rounding on "
                          "the gauge's interval")
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

    return GaugeTriple(h2, tau2, g.I, f"{g.name}~equiv", rng2, _derived_from(
        lambda t: -derived1.s(t) - a1 * tau1.value(t) - a2, tau2, ell2), exp_fn2)


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

    return GaugeTriple(h, tau, I, f"pair(a={a:g})", _image(ell.value, I),
                       _derived_from(h_tau, tau, ell))


# ----------------------------------------------------------------------------
# JSON descriptors
# ----------------------------------------------------------------------------


def gauge_to_json(g: GaugeTriple) -> dict:
    if g.descriptor is None:
        raise DomainError("only built-in gauges have a JSON descriptor")
    return dict(g.descriptor)


def gauge_from_json(obj: dict) -> GaugeTriple:
    """Build a gauge from {"kind": ..., "q"/"lam": ..., "lo": ..., "hi": ...}; "lam"
    may be spelled "lambda" and defaults to 1.  A malformed descriptor, or one with a
    key its kind does not take, raises DomainError."""
    if not isinstance(obj, dict):
        raise DomainError(f"gauge descriptor must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if isinstance(kind, str) and kind in _BUILTINS:
        params = {"q": ("q",), "lam": ("lam", "lambda")}.get(_BUILTINS[kind][0], ())
        _no_unknown_keys(obj, {"kind", "lo", "hi", *params}, f"gauge descriptor of kind {kind!r}")
    raw = {"q": obj.get("q"), "lam": obj.get("lam", obj.get("lambda", 1.0)),
           "lo": obj.get("lo") or 0.0, "hi": obj.get("hi")}
    try:
        num = {k: None if v is None else float(v) for k, v in raw.items()}
    except (TypeError, ValueError):
        raise DomainError(f"gauge descriptor {obj!r} has a non-numeric parameter") from None
    hi = math.inf if num["hi"] is None else num["hi"]
    return builtin_gauge(kind, num["q"], num["lam"], Interval(num["lo"], hi))


def _no_unknown_keys(obj: dict, known, what: str):
    """DomainError naming the first key of the JSON object obj that is not in known."""
    for key in obj:
        if key not in known:
            raise DomainError(f"{what} has unknown field {key!r}")
