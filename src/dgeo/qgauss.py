"""q-Gaussian families on R^d and their consistent joint densities.

A q-Gaussian has density exp_q(-|x-v|^2_S - lambda_q(S)) with the
normalizer lambda_q(S) in closed form.  For each sample length k the
family carries a joint density rho_{q,k} on (R^d)^k built from the
constants (a_k, q_k, beta_k, nu_k); the joints are mutually consistent
(integrating out trailing coordinates recovers the shorter joint), which
defines dependent, identically distributed sequences.

The joint is (1 + (q-1)(beta_k |x-v|^2_S + nu_k))^{-s_k} on R^{dk}, with
s_k = a_k/(q-1).  For q > 1, with t = 1 + (q-1) nu_k, it is an elliptical
Student-t law (Kotz and Nadarajah, Multivariate t Distributions, 2004) with
dof = 2 s_k - dk = 2/(q-1) + 3d and scale I_k (x) B for the one d-by-d block
B = t/((q-1) beta_k dof) S^{-1}, the same for every k.  As a_k q_k = a_k + q - 1,
the escort rho^{q_k} is the same form at s_k + 1: a t law with dof + 2 and
scale B dof/(dof + 2), so its covariance is B itself.  Its mass is the
joint's, 1, times Gamma(s_k + 1 - dk/2) Gamma(s_k) / (Gamma(s_k - dk/2)
Gamma(s_k + 1) t) = dof/(2 s_k t), with no gamma function left.  For q = 1
both are i.i.d. Gaussians: B = S^{-1}/(2 beta_k), dof = inf, escort mass 1.

S is factored once per QGaussianParams: S^-1, log det S and lambda_q(S) are
read-only values computed on first use.  Each RepetitionLaw builds B once,
and sampling, moments and escort integrals read it by index.  The quadratic
forms of density, joint_density and marginal_check go through _quad_form.
The dense dk-by-dk matrices exist only in the public views embed_joint,
joint_t_params and escort_cov, each written block by block by _block_diag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleError
from .gauge import _doubling, _gauss_legendre

# Not scipy.integrate, which no dgeo code calls: perfbench/tracer.py looks the
# name up to save it before it patches in its quad/dblquad stand-in.  Goes
# with that stand-in (ROADMAP item 2, the benchmark refresh).
integrate = None

__all__ = [
    "QGaussianParams",
    "RepetitionLaw",
    "MLEResult",
    "MarginalCheckResult",
    "lambda_q",
    "density",
    "repetition",
    "joint_density",
    "joint_t_params",
    "embed_joint",
    "joint_factor",
    "sample_joint",
    "escort_mass",
    "escort_mean",
    "escort_cov",
    "escort_moment",
    "central_second",
    "central_fourth",
    "coordinate_moments",
    "fi_pair_moments",
    "fij_pair_moments",
    "marginal_check",
    "mle",
]


def _check_spd(S) -> np.ndarray:
    """A checked float copy of S."""
    try:
        S = np.atleast_2d(np.array(S, dtype=float))
    except ValueError:  # ragged rows
        raise DomainError("S must be square") from None
    if S.shape[0] != S.shape[1]:
        raise DomainError("S must be square")
    if not np.isfinite(S).all():
        raise DomainError("S must be finite")
    if np.abs(S - S.T).max() > 1e-12:  # decides as allclose(S, S.T, rtol=0, atol=1e-12)
        raise DomainError("S must be symmetric")
    if np.linalg.eigvalsh(S)[0] <= 0:  # the eigenvalues come back ascending
        raise DomainError("S must be positive definite")
    return S


def _check_positive_int(n, name: str) -> None:
    """Raise DomainError unless n is an int or numpy integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class QGaussianParams:
    """Parameters (q, d, v, S) of a q-Gaussian; q >= 1 and d(q-1) < 2."""

    q: float
    d: int
    v: Optional[np.ndarray] = None  # defaults to zeros
    S: Optional[np.ndarray] = None  # defaults to the identity

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise DomainError("q must be finite")
        if self.q < 1.0:
            raise DomainError("q must be at least 1")
        # d < 1 raises TypeError for a d that is no number, as isfinite does for q
        if self.d < 1 or isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)):
            raise DomainError("d must be a positive integer")
        if self.d * (self.q - 1.0) >= 2.0:
            raise DomainError("need d(q-1) < 2")
        v = np.zeros(self.d) if self.v is None else np.array(self.v, dtype=float)
        if v.size != self.d or not np.isfinite(v).all():
            raise DomainError(f"v must be finite, of length {self.d}")
        v = v.reshape(self.d)
        S = _check_spd(np.eye(self.d) if self.S is None else self.S)
        if S.shape != (self.d, self.d):
            raise DomainError(f"S must be ({self.d}, {self.d})")
        for name, arr in (("v", v), ("S", S)):  # private read-only copies stay valid
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # S^-1, log det S and lambda_q(S), each computed on first use; S is a
    # private read-only copy, so they stay valid
    @cached_property
    def _S_inv(self) -> np.ndarray:
        S_inv = np.linalg.inv(self.S)
        S_inv.setflags(write=False)
        return S_inv

    @cached_property
    def _logdet(self) -> float:
        return float(np.linalg.slogdet(self.S)[1])

    @cached_property
    def _lam(self) -> float:
        return _lambda(self.q, self.d, self.S)


def lambda_q(q: float, d: int, S=None) -> float:
    """Normalizer making exp_q(-|x-v|^2_S - lambda) integrate to one (S = I by default)."""
    return QGaussianParams(q, d, S=S)._lam


def _lambda(q: float, d: int, S: np.ndarray) -> float:
    """lambda_q for parameters that are already checked."""
    sign, logdet = np.linalg.slogdet(S / math.pi)
    if q == 1.0:
        return -0.5 * logdet
    logz = 0.5 * logdet + _log_gamma_ratio(q, d)
    c = 2.0 / (2.0 + d * (1.0 - q))
    # lambda = -ln_q(exp(c*logz)) evaluated in log space
    return math.expm1((1.0 - q) * c * logz) / (q - 1.0)


def _log_gamma_ratio(q: float, d: int) -> float:
    """(d/2) log(q - 1) + log Gamma(a) / Gamma(a - d/2) at a = 1/(q - 1) > d/2, to rounding.

    Gamma(a) / Gamma(a - k), k = d // 2, is the product of a - j for j = 1..k, and
    (q - 1)(a - j) = 1 - j (q - 1).  An odd d leaves log Gamma(y) / Gamma(y - 1/2) at
    y = a - k.  Raised by m steps to y + m >= 16, that is the sum of log(1 - 1/(2(y + i)))
    for i < m, plus (1/2) log w and an even series in 1/w at w = y + m - 3/4, whose
    sixth term is below rounding there; (q - 1) w = 1 - (k + 3/4 - m)(q - 1).
    """
    e, k = q - 1.0, d // 2
    terms = [math.log1p(-j * e) for j in range(1, k + 1)]
    if d % 2:
        y = 1.0 / e - k
        m = max(0, math.ceil(16.0 - y))
        iw2 = (y + m - 0.75) ** -2
        series = iw2 * (1 / 64 - iw2 * (5 / 2048 - iw2 * (61 / 49152 - iw2 * (
            1385 / 1048576 - iw2 * 50521 / 20971520))))
        terms += [math.log1p(-0.5 / (y + i)) for i in range(m)]
        terms += [0.5 * math.log1p(-(k + 0.75 - m) * e), series]
    return math.fsum(terms)


def density(params: QGaussianParams, x) -> np.ndarray | float:
    """Pointwise density at x (shape (..., d)); strictly positive on R^d."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != params.d or not np.isfinite(pts).all():
        raise DomainError(f"points must be finite, with trailing dimension {params.d}")
    Q = _quad_form(pts.reshape(-1, 1, params.d), params.v, params.S).reshape(pts.shape[:-1])
    out = _exp_q_pow(-Q - params._lam, params.q, 1.0)
    return float(out[0]) if squeeze else out


def _quad_form(x: np.ndarray, v: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Sum over m of |x_m - v|^2_S, shape (n,), for points x of shape (n, k, d).

    The differences go into a (d, k, n) array, coordinate axes first, so that
    every loop numpy runs is over the n points: the broadcast x - v runs n k
    inner loops of length d, which at d <= 3 cost more than the arithmetic."""
    n, k, d = x.shape
    dx = np.subtract(x.T, v[:, None, None], order="C").reshape(d, k * n)
    return np.einsum("jn,jn->n", (S @ dx).reshape(d * k, n), dx.reshape(d * k, n))


def _exp_q_pow(u: np.ndarray, q: float, a: float) -> np.ndarray:
    """exp_q(u)**a, stable for q -> 1 handled by the exact q = 1 branch."""
    if q == 1.0:
        return np.exp(a * u)
    base = 1.0 + (1.0 - q) * u
    with np.errstate(over="ignore"):
        out = np.maximum(base, 1e-300) ** (a / (1.0 - q))
    out[base <= 0] = np.inf
    return out


# ---------------------------------------------------------------------------
# repetition constants and joint densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionLaw:
    """Joint-density description for k dependent repetitions.

    The joint is a Student-t law on R^{dk} (see the module doc): nu_dof is
    its degrees of freedom, 2/(q-1) + 3d for every k (math.inf when q = 1),
    which exceeds 4d, so its second and fourth moments are finite.
    """

    base: QGaussianParams
    k: int
    a_k: float
    q_k: float
    beta_k: float
    nu_k: float
    nu_dof: float

    @cached_property
    def _block(self) -> np.ndarray:
        """The block B of the joint's scale I_k (x) B, built on first use."""
        p = self.base
        if p.q == 1.0:
            return p._S_inv / (2.0 * self.beta_k)
        t = 1.0 + (p.q - 1.0) * self.nu_k
        return t / ((p.q - 1.0) * self.beta_k * self.nu_dof) * p._S_inv

    @property
    def _escort_mass(self) -> float:
        """Integral of rho^{q_k}: dof/(2 s_k t), s_k = a_k/(q-1) (the module doc)."""
        q = self.base.q
        if q == 1.0:
            return 1.0
        return self.nu_dof * (q - 1.0) / (2.0 * self.a_k * (1.0 + (q - 1.0) * self.nu_k))

    def _entry(self, a: int, b: int) -> float:
        """Entry (a, b) of I_k (x) B, read without forming the matrix."""
        d = self.base.d
        # _check_index's rule, inline: a moment reads up to 15 entries
        if not (0 <= a < self.k * d and 0 <= b < self.k * d):
            raise DomainError(f"coordinate index out of range 0..{self.k * d - 1}")
        return float(self._block[a % d, b % d]) if a // d == b // d else 0.0


def _constants(q: float, d: int, k: int, S: np.ndarray) -> tuple[float, float, float, float]:
    a_k = 1.0 + (k + 3) * d * (q - 1.0) / 2.0
    q_k = 1.0 + (q - 1.0) / a_k
    if q == 1.0:
        sign, logdet = np.linalg.slogdet(S)
        return a_k, q_k, math.exp(-logdet / d), d * k / 2.0 * math.log(math.pi)
    a_0 = 1.0 + 3 * d * (q - 1.0) / 2.0
    # 1/(q_k - 1) = a_k/(q - 1) = s_k (and so for q_0), not from the rounded q_k
    s_k = a_k / (q - 1.0)
    sign, logdet = np.linalg.slogdet((q - 1.0) * S / math.pi)
    log_beta = -logdet / d - math.lgamma(s_k) / s_k
    log_g = math.lgamma(s_k) / a_k - math.lgamma(a_0 / (q - 1.0)) / a_0
    nu_k = math.expm1((1.0 - q) * log_g) / (q - 1.0)
    return a_k, q_k, math.exp(log_beta), nu_k


def repetition(params: QGaussianParams, k: int) -> RepetitionLaw:
    """Constants (a_k, q_k, beta_k, nu_k) and the t degrees of freedom."""
    _check_positive_int(k, "k")
    q, d = params.q, params.d
    a_k, q_k, beta_k, nu_k = _constants(q, d, k, params.S)
    # d(q-1) < 2 makes nu_dof = 2/(q-1) + 3d > 4
    nu_dof = math.inf if q == 1.0 else 2.0 * a_k / (q - 1.0) - d * k
    return RepetitionLaw(params, k, a_k, q_k, beta_k, nu_k, nu_dof)


def joint_density(law: RepetitionLaw, x) -> np.ndarray | float:
    """Joint density at x (shape (..., k, d)); a product of Gaussians at q = 1.
    A 2-d x is one point, of shape exactly (k, d)."""
    p = law.base
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 2
    pts = x[None] if squeeze else x
    if pts.shape[-2:] != (law.k, p.d) or not np.isfinite(pts).all():
        raise DomainError(f"points must be finite, with trailing shape ({law.k}, {p.d})")
    Q = law.beta_k * _quad_form(pts.reshape(-1, law.k, p.d), p.v, p.S).reshape(pts.shape[:-2])
    out = _exp_q_pow(-Q - law.nu_k, p.q, law.a_k)
    return float(out.reshape(-1)[0]) if squeeze else out


def _block_diag(k: int, B: np.ndarray) -> np.ndarray:
    """I_k (x) B as a dense (kd, kd) array, with B written into the k
    diagonal blocks of zeros.  That is O(k d^2) writes instead of the
    O((kd)^2) products of the Kronecker product, which it equals except that
    every off-block zero is +0.0 (the product gives -0.0 where B < 0)."""
    d = B.shape[0]
    out = np.zeros((k, d, k, d))
    out[np.arange(k), :, np.arange(k), :] = B
    return out.reshape(k * d, k * d)


def embed_joint(law: RepetitionLaw) -> tuple[np.ndarray, np.ndarray, float]:
    """The joint as a single deformed Gaussian on R^{dk}.

    Returns (V, Sigma, lam) with rho = exp_{q_k}(-|x - V|^2_Sigma - lam),
    where Sigma = a_k beta_k (I_k (x) S) and lam = a_k nu_k, which equals
    the closed-form normalizer of the embedded family.  Sigma is a dense
    O((kd)^2) view from _block_diag, kept for callers; the library itself
    never builds it.
    """
    p = law.base
    V = np.tile(p.v, law.k)
    Sigma = _block_diag(law.k, law.a_k * law.beta_k * p.S)
    return V, Sigma, law.a_k * law.nu_k


def _check_index(n: int, *idx: int) -> None:
    """Raise DomainError unless every index is in 0..n-1: n = k d for a flat
    coordinate of the joint, n = d for a coordinate of one repetition."""
    for a in idx:
        if not 0 <= a < n:
            raise DomainError(f"coordinate index out of range 0..{n - 1}")


def joint_t_params(law: RepetitionLaw) -> tuple[float, np.ndarray, np.ndarray]:
    """Student-t form (dof, location, scale) of the joint on R^{dk}.

    The scale is I_k (x) B; for q = 1 it is the Gaussian covariance and dof
    is inf.  The scale is a dense O((kd)^2) view from _block_diag, kept for
    callers; the library itself never builds it.
    """
    return law.nu_dof, np.tile(law.base.v, law.k), _block_diag(law.k, law._block)


def joint_factor(law: RepetitionLaw) -> tuple[float, np.ndarray]:
    """(dof, A) of the t representation of the joint.

    A is the lower Cholesky factor of the block B of the joint's scale
    I_k (x) B, so one joint draw is x_m = v + sqrt(dof/W) A z_m for
    m = 1..k, with z_m i.i.d. standard normal in R^d and one
    chi-square(dof) variable W shared by the whole draw; for q = 1, dof is
    inf and the factor sqrt(dof/W) is 1.
    """
    return law.nu_dof, np.linalg.cholesky(law._block)


def sample_joint(law: RepetitionLaw, n: int, seed) -> np.ndarray:
    """Draw n exact samples of the joint, shape (n, k, d).

    Uses the t representation of joint_factor: all n k d standard
    normals are drawn first, then one chi-square(dof) mixing variable W
    per sample (the source of the dependence across repetitions); q = 1
    falls back to plain Gaussian sampling.  The block structure keeps the
    cost at O(n k d^2) so long dependent paths stay cheap.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = law.base
    dof, A = joint_factor(law)
    z = rng.standard_normal((n, law.k, p.d))
    draws = z @ A.T
    if math.isfinite(dof):
        w = rng.chisquare(dof, size=n)
        draws *= np.sqrt(dof / w)[:, None, None]
    return p.v + draws


# ---------------------------------------------------------------------------
# escort integrals (the q_k-power reweighting)
# ---------------------------------------------------------------------------


def escort_mass(law: RepetitionLaw) -> float:
    """Integral of rho^{q_k}; independent of v and of S."""
    return law._escort_mass


def escort_mean(law: RepetitionLaw) -> np.ndarray:
    return np.tile(law.base.v, law.k)


def escort_cov(law: RepetitionLaw) -> np.ndarray:
    """Covariance of the normalized escort law on R^{dk}: the joint's scale
    I_k (x) B (see the module doc).

    A dense O((kd)^2) view from _block_diag, kept for callers; the library
    itself never builds it.
    """
    return _block_diag(law.k, law._block)


def escort_moment(law: RepetitionLaw, idx: Optional[tuple] = None) -> float:
    """Raw escort integral of 1, x_a or x_a x_b over R^{dk}.

    idx=None gives the escort mass, (a,) the first moment of flat
    coordinate a, and (a, b) the second moment; all unnormalized.
    """
    mass = law._escort_mass
    if idx is None:
        return mass
    if len(idx) not in (1, 2):
        raise DomainError("idx must be None, (a,) or (a, b)")
    _check_index(law.k * law.base.d, *idx)
    V = escort_mean(law)
    if len(idx) == 1:
        return mass * float(V[idx[0]])
    a, b = idx
    return mass * float(V[a] * V[b] + law._entry(a, b))


# ---------------------------------------------------------------------------
# moments of the joint law
# ---------------------------------------------------------------------------


def central_second(law: RepetitionLaw, a: int, b: int) -> float:
    """E[Y_a Y_b] for the centered joint coordinates; exactly 0.0 across
    repetitions.  The covariance is the scale entry times dof/(dof-2)."""
    x, dof = law._entry(a, b), law.nu_dof
    return x if math.isinf(dof) else x * dof / (dof - 2.0)


def central_fourth(law: RepetitionLaw, a: int, b: int, c: int, d: int) -> float:
    """E[Y_a Y_b Y_c Y_d]; elliptical-t closed form (Isserlis at q = 1)."""
    s, dof = law._entry, law.nu_dof
    x = s(a, b) * s(c, d) + s(a, c) * s(b, d) + s(a, d) * s(b, c)  # Isserlis sum
    return x if math.isinf(dof) else x * dof * dof / ((dof - 2.0) * (dof - 4.0))


@dataclass(frozen=True)
class CoordinateMoments:
    mean: float
    var: float
    central4: float
    raw2: float
    raw4: float


def coordinate_moments(law: RepetitionLaw, i: int = 0) -> CoordinateMoments:
    """Moments of one coordinate of one repetition (any block, by symmetry)."""
    _check_index(law.base.d, i)
    v = float(law.base.v[i])
    var = central_second(law, i, i)
    c4 = central_fourth(law, i, i, i, i)
    return CoordinateMoments(mean=v, var=var, central4=c4,
                             raw2=v * v + var,
                             raw4=v ** 4 + 6 * v * v * var + c4)


def fi_pair_moments(law: RepetitionLaw, i: int = 0) -> tuple[float, float]:
    """(E[Y1^4], E[Y1^2 Y2^2]) for coordinate i across two repetitions."""
    if law.k < 2:
        raise DomainError("pair moments need k >= 2")
    _check_index(law.base.d, i)
    b = law.base.d + i
    return central_fourth(law, i, i, i, i), central_fourth(law, i, i, b, b)


def fij_pair_moments(law: RepetitionLaw, i: int = 0, j: int = 0) -> tuple[float, float]:
    """(E[Z1^2], E[Z1 Z2]) for Z = x_i x_j centered at its joint mean."""
    if law.k < 2:
        raise DomainError("pair moments need k >= 2")
    d = law.base.d
    _check_index(d, i, j)
    vi, vj = float(law.base.v[i]), float(law.base.v[j])
    W_ij = central_second(law, i, j)
    W_ii = central_second(law, i, i)
    W_jj = central_second(law, j, j)
    ez2 = (vi * vi * W_jj + vj * vj * W_ii + 2 * vi * vj * W_ij
           + central_fourth(law, i, j, i, j) - W_ij ** 2)
    ez12 = central_fourth(law, i, j, d + i, d + j) - W_ij ** 2
    return ez2, ez12


# ---------------------------------------------------------------------------
# marginal consistency by radial quadrature
# ---------------------------------------------------------------------------


# marginal_check's default rows v + t sd, read-only
_T_GRID = np.linspace(-2.0, 2.0, 9)[:, None]
_T_GRID.setflags(write=False)


@lru_cache(maxsize=8)
def _radial_rule(n_nodes: int) -> np.ndarray:
    """Rows tan^2 u, log tan u and log(w sec^2 u) of the n-node Gauss-Legendre
    rule (u, w) on [0, pi/2] (``_gauss_legendre``); read-only, as every caller shares it."""
    x, w = _gauss_legendre(n_nodes)
    u = np.pi / 4 * (x + 1.0)
    rule = np.stack([np.tan(u) ** 2, np.log(np.tan(u)), np.log(np.pi / 4 * w / np.cos(u) ** 2)])
    rule.setflags(write=False)
    return rule


@dataclass(frozen=True)
class MarginalCheckResult:
    points: np.ndarray   # (rows, k d) head coordinates
    defects: np.ndarray  # |integral - rho_k| per row
    abserr: np.ndarray   # quadrature error estimate |I_2N - I_N| per row

    @property
    def max_defect(self) -> float:
        return float(self.defects.max())


def marginal_check(law_big: RepetitionLaw, law_small: RepetitionLaw,
                   xs=None, epsabs: float = 1e-10) -> MarginalCheckResult:
    """Integrate the longer joint over its trailing k' = law_big.k - law_small.k
    blocks and compare with the shorter joint at the rows of xs.

    xs has trailing shape (k d,) or (k, d); a 1-D xs sets every head
    coordinate of a row to one value (default: rows v + t sd, t in [-2, 2]).
    The joint is g(r0 + sum_j (y_j - v)^T S (y_j - v)) in the trailing blocks
    y_j, so with n = d k' the integral over them is the radial one
    2 pi^{n/2}/Gamma(n/2) det(S)^{-k'/2} int_0^inf g(r0 + s^2) s^{n-1} ds, taken
    for all rows at once by Gauss-Legendre in u on [0, pi/2], s = tan(u)/sqrt(beta_k):
    64 nodes, doubled until every row has |I_2N - I_N| <= max(epsabs,
    1e-10 |I_2N|); InfeasibleError past 4096 nodes.  One quadratic form
    r0 = sum_m |x_m - v|^2_S per row serves both the integral and the target,
    the shorter joint exp_q(-beta_k' r0 - nu_k')^a_k' as joint_density forms it.
    """
    pb, ps = law_big.base, law_small.base
    if pb is not ps and ((pb.q, pb.d) != (ps.q, ps.d) or not np.allclose(pb.v, ps.v)
                         or not np.allclose(pb.S, ps.S)):
        raise DomainError("both laws must share (q, d, v, S)")
    k, d, kp = law_small.k, pb.d, law_big.k - law_small.k
    if kp < 1 or not (math.isfinite(epsabs) and epsabs > 0):
        raise DomainError("need law_big.k > law_small.k and a finite epsabs > 0")
    if xs is None:
        sd = np.sqrt([max(central_second(law_small, i, i), 1e-6) for i in range(d)])
        xs = np.tile(pb.v + _T_GRID * sd, k)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim <= 1:
        xs = np.repeat(xs.reshape(-1, 1), k * d, axis=1)
    elif xs.shape[-1] != k * d and xs.shape[-2:] != (k, d):
        raise DomainError(f"points must have trailing shape ({k * d},) or ({k}, {d})")
    xs = xs.reshape(-1, k * d)
    if xs.size == 0 or not np.isfinite(xs).all():
        raise DomainError("points must be finite and not empty")

    q, a, beta, n = pb.q, law_big.a_k, law_big.beta_k, d * kp
    Q = _quad_form(xs.reshape(-1, k, d), pb.v, pb.S)
    z0 = beta * Q[:, None] + law_big.nu_k
    log_c = math.log(2.0) + n / 2 * math.log(math.pi / beta) - math.lgamma(n / 2) \
        - kp / 2 * pb._logdet

    def integral(n_nodes):
        t2, log_t, log_ws = _radial_rule(n_nodes)
        z = z0 + t2  # the joint is exp_q(-z)^a
        log_g = -a * z if q == 1.0 else a / (1.0 - q) * np.log1p((q - 1.0) * z)
        return np.exp(log_g + ((n - 1) * log_t + log_ws + log_c)).sum(axis=1)

    fine, abserr = _doubling(integral, 64, 4096, epsabs, 1e-10, "radial quadrature")
    if ps is not pb:  # equal to allclose only: the target keeps its own form
        Q = _quad_form(xs.reshape(-1, k, d), ps.v, ps.S)
    target = _exp_q_pow(-(law_small.beta_k * Q) - law_small.nu_k, q, law_small.a_k)
    return MarginalCheckResult(xs, np.abs(fine - target), abserr)


# ---------------------------------------------------------------------------
# maximum likelihood on the embedded family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLEResult:
    v: np.ndarray
    S: np.ndarray
    defect: float


@lru_cache(maxsize=8)
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d), read-only, as every caller shares it."""
    iu = np.triu_indices(d)
    for a in iu:
        a.setflags(write=False)
    return iu


def _slice_tangents(law: RepetitionLaw, family: str) -> np.ndarray:
    """Tangent directions of the fitted family in one block of the ambient
    statistic space, one per row (linear parts then quadratic parts i <= j).
    The full tangent repeats this block k times, once per repetition.

    The block is [2 Sig v, -(2 - delta_ij) Sig_ij] with Sig = a_k beta_k S.
    A move e of v gives [2 Sig e, 0].  As beta_k is proportional to
    det(S)^(-1/d), a move E of S moves Sig by a_k beta_k (E - tr(S^-1 E)/d S).
    """
    p, d = law.base, law.base.d
    c = law.a_k * law.beta_k
    iu = _triu(d)
    lin = np.zeros((d, d + iu[0].size))
    lin[:, :d] = 2.0 * (c * p.S).T
    if family != "full" or d == 1:
        return lin
    # symmetric trace-free directions E of S: E_ab + E_ba, and E_aa - E_dd,
    # for every a <= b but the last, a = b = d - 1
    a, b = iu[0][:-1], iu[1][:-1]
    m = np.arange(a.size)
    E = np.zeros((a.size, d, d))
    E[m, a, b] = E[m, b, a] = 1.0
    E[m[a == b], d - 1, d - 1] = -1.0
    tr = np.einsum("ij,mji->m", p._S_inv, E)  # tr(S^-1 E) for each E
    dSig = c * (E - (tr / d)[:, None, None] * p.S)
    quad = np.concatenate([2.0 * dSig @ p.v, -(2.0 - (iu[0] == iu[1])) * dSig[:, iu[0], iu[1]]],
                          axis=1)
    return np.concatenate([lin, quad])


def _stationarity_defect(law: RepetitionLaw, xsum: np.ndarray, M, family: str) -> float:
    """Tangent-projected residual of the escort-moment condition, for data
    with column sums xsum and scatter M about their mean xsum / k.

    At the maximizer the escort statistic integrals match the data
    statistics times the escort mass along every direction the family
    can move; the returned defect is the largest violation over a
    unit-norm tangent basis.  Every tangent repeats one block u_b in each
    of the k repetitions, so u . r = u_b . (sum over m of the block
    residuals) and |u| = sqrt(k) |u_b|: only Sum_m x_m and M are needed.
    The residual is formed only where a tangent reads it.  Its linear part
    is mass (k v - Sum_m x_m).  Its quadratic part on i <= j, with B the escort's
    covariance and X^T X = M + k xbar xbar^T, xbar = xsum / k, is
    mass (k (v v^T + B) - X^T X) = mass (k (B + e v^T + xbar e^T) - M), e = v - xbar,
    zero at the fit, so that no term leaves double range.  It is formed only for the
    full family at d >= 2; otherwise the tangents are the linear block alone, whose
    quadratic columns are zero.
    """
    p = law.base
    d, k = p.d, law.k
    T = _slice_tangents(law, family)  # no row is zero, as S is positive definite
    r = k * p.v - xsum
    if len(T) == d:  # the linear block alone
        T = T[:, :d]
    else:
        xbar, e = xsum / k, p.v - xsum / k
        second = law._block + e[:, None] * p.v + xbar[:, None] * e
        r = np.concatenate([r, (k * second - M)[_triu(d)]])
    nrm = np.sqrt(np.einsum("ij,ij->i", T, T)) * math.sqrt(k)
    return float((np.abs(T @ (law._escort_mass * r)) / nrm).max())


def mle(q: float, d: int, k: int, x, family: str = "identity_mean_only") -> MLEResult:
    """Maximum-likelihood fit of the joint law to data x in (R^d)^k.

    family "identity_mean_only" fits the center v with S = I_d; "full"
    also fits S up to the trace normalization tr S = d (the joints only
    see S up to scale).  The objective is strictly concave in v with
    maximizer the sample mean, taken in closed form; for "full" the scale
    is the closed-form stationary point S proportional to the inverse
    scatter matrix, which requires the scatter of the data around the
    mean to be nonsingular.  The reported defect is the tangent-projected
    escort-moment residual, zero at a true maximizer.  Cost O(kd^2 + d^3).

    d and k are positive integers (not bools), and x holds the k points as
    an array of shape (k, d) or flat, of shape (k d,), read point by point;
    any other shape, a (d, k) array included, raises DomainError.  So do
    data that are not finite, or whose sum or scatter around the mean
    leaves double range.
    """
    _check_positive_int(d, "d")
    _check_positive_int(k, "k")
    x = np.asarray(x, dtype=float)
    if x.size != k * d:
        raise DomainError(f"data must hold k*d = {k * d} values, not {x.size}")
    if x.shape not in ((k, d), (k * d,)):
        raise DomainError(f"data must be of shape ({k}, {d}) or ({k * d},), not {x.shape}")
    x = x.reshape(k, d)
    if not np.isfinite(x).all():
        raise DomainError("data must be finite")
    if family not in ("identity_mean_only", "full"):
        raise DomainError(f"unknown family {family!r}")

    with np.errstate(over="ignore"):
        xsum = x.sum(axis=0)
    if not np.isfinite(xsum).all():
        raise DomainError("the data's sum leaves double range")
    v = xsum / k  # the bits of x.mean(axis=0)
    if family == "identity_mean_only" or d == 1:
        S, M = np.eye(d), None
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            centered = x - v
            M = centered.T @ centered
        if not np.isfinite(M).all():
            raise DomainError("the data's scatter leaves double range")
        if np.linalg.eigvalsh(M)[0] <= 1e-12 * max(1.0, float(np.abs(M).max())):
            raise InfeasibleError("scatter matrix is singular; full-family fit undetermined")
        S = np.linalg.inv(M)
        S *= d / S.trace()
    law = repetition(QGaussianParams(q, d, v, S), k)
    return MLEResult(v, S, _stationarity_defect(law, xsum, M, family))
