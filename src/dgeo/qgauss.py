"""q-Gaussian families on R^d and their consistent joint densities.

A q-Gaussian has density exp_q(-|x-v|^2_S - lambda_q(S)) with the
normalizer lambda_q(S) in closed form.  For each sample length k the
family carries a joint density rho_{q,k} on (R^d)^k built from the
constants (a_k, q_k, beta_k, nu_k); the joints are mutually consistent
(integrating out trailing coordinates recovers the shorter joint), which
defines dependent, identically distributed sequences.

The joint (a = a_k) and its escort rho^{q_k} (a = a_k q_k) are one law,
exp_q(-beta_k |x-v|^2_S - nu_k)^a on R^{dk}.  For q > 1, with s = a/(q-1)
and t = 1 + (q-1) nu_k, it is an elliptical Student-t law (Kotz and
Nadarajah, Multivariate t Distributions, 2004) with dof = 2s - dk and
scale I_k (x) B for the one d-by-d block B = t/((q-1) beta_k dof) S^{-1};
its mass is t^{dk/2-s} det((q-1) beta_k S/pi)^{-k/2} Gamma(s-dk/2)/Gamma(s),
which is 1 for the joint.  The joint's dof is 2/(q-1) + 3d and its B the
same for every k.  For q = 1 both are i.i.d. Gaussians: B = S^{-1}/(2 beta_k),
dof = inf and mass 1.

_t_form builds (mass, dof, B) once per law and form, and sampling, moments
and escort integrals read it by index.  The dense dk-by-dk matrices exist
only in the public views embed_joint, joint_t_params and escort_cov, each
written block by block by _block_diag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaln, roots_legendre

from .errors import DomainError, InfeasibleError
from .gauge import _doubling

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
    "natural_params",
    "natural_to_location_scale",
    "psi_natural",
]


def _check_spd(S: np.ndarray, name: str = "S") -> np.ndarray:
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.shape[0] != S.shape[1]:
        raise DomainError(f"{name} must be square")
    if not np.all(np.isfinite(S)):
        raise DomainError(f"{name} must be finite")
    if np.max(np.abs(S - S.T)) > 1e-12:  # decides as allclose(S, S.T, rtol=0, atol=1e-12)
        raise DomainError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(S)) <= 0:
        raise DomainError(f"{name} must be positive definite")
    return S


@dataclass(frozen=True)
class QGaussianParams:
    """Parameters (q, d, v, S) of a q-Gaussian; q >= 1 and d(q-1) < 2."""

    q: float
    d: int
    v: np.ndarray
    S: np.ndarray
    variant: str = "full"  # full | identity | trace_d

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise DomainError("q must be finite")
        if self.q < 1.0:
            raise DomainError("q must be at least 1")
        if self.d < 1:
            raise DomainError("d must be a positive integer")
        if self.d * (self.q - 1.0) >= 2.0:
            raise DomainError("need d(q-1) < 2")
        v = np.array(self.v, dtype=float).reshape(self.d)
        if not np.all(np.isfinite(v)):
            raise DomainError("v must be finite")
        S = _check_spd(np.array(self.S, dtype=float))
        if S.shape != (self.d, self.d):
            raise DomainError(f"S must be ({self.d}, {self.d})")
        eye = np.eye(self.d)  # the next test decides as allclose(S, eye, atol=1e-12)
        if self.variant == "identity" and np.any(np.abs(S - eye) > 1e-12 + 1e-5 * eye):
            raise DomainError("identity variant requires S = I")
        if self.variant == "trace_d" and abs(np.trace(S) - self.d) > 1e-10:
            raise DomainError("trace_d variant requires tr S = d")
        if self.variant not in ("full", "identity", "trace_d"):
            raise DomainError(f"unknown variant {self.variant!r}")
        for name, arr in (("v", v), ("S", S)):  # private read-only copies stay valid
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def lambda_q(q: float, d: int, S) -> float:
    """Normalizer making exp_q(-|x-v|^2_S - lambda) integrate to one."""
    p = QGaussianParams(q, d, [0.0] * d, S)
    return _lambda(p.q, p.d, p.S)


def _lambda(q: float, d: int, S: np.ndarray) -> float:
    """lambda_q for parameters that are already checked."""
    sign, logdet = np.linalg.slogdet(S / math.pi)
    if q == 1.0:
        return -0.5 * logdet
    logz = 0.5 * (d * math.log(q - 1.0) + logdet) \
        + gammaln(1.0 / (q - 1.0)) - gammaln(1.0 / (q - 1.0) - d / 2.0)
    c = 2.0 / (2.0 + d * (1.0 - q))
    # lambda = -ln_q(exp(c*logz)) evaluated in log space
    return math.expm1((1.0 - q) * c * logz) / (q - 1.0)


def density(params: QGaussianParams, x) -> np.ndarray | float:
    """Pointwise density at x (shape (..., d)); strictly positive on R^d."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != params.d or not np.all(np.isfinite(pts)):
        raise DomainError(f"points must be finite, with trailing dimension {params.d}")
    dx = pts - params.v
    Q = np.einsum("...i,...i->...", dx @ params.S, dx)
    lam = _lambda(params.q, params.d, params.S)
    out = _exp_q_pow(-Q - lam, params.q, 1.0)
    return float(out[0]) if squeeze else out


def _exp_q_pow(u, q: float, a: float):
    """exp_q(u)**a, stable for q -> 1 handled by the exact q = 1 branch."""
    u = np.asarray(u, dtype=float)
    if q == 1.0:
        return np.exp(a * u)
    base = 1.0 + (1.0 - q) * u
    with np.errstate(over="ignore"):
        out = np.where(base > 0, np.maximum(base, 1e-300) ** (a / (1.0 - q)), np.inf)
    return out


# ---------------------------------------------------------------------------
# repetition constants and joint densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionLaw:
    """Joint-density description for k dependent repetitions.

    nu_dof is the Student-t degrees of freedom of the joint on R^{dk};
    it equals 2/(q-1) + 3d for every k (math.inf when q = 1).
    """

    base: QGaussianParams
    k: int
    a_k: float
    q_k: float
    beta_k: float
    nu_k: float
    nu_dof: float

    # the t forms of the joint and of its escort, each built on first use
    @cached_property
    def _joint(self) -> _TForm:
        return _t_form(self, self.a_k)

    @cached_property
    def _escort(self) -> _TForm:
        return _t_form(self, self.a_k * self.q_k)


def _constants(q: float, d: int, k: int, S: np.ndarray) -> tuple[float, float, float, float]:
    a_k = 1.0 + (k + 3) * d * (q - 1.0) / 2.0
    q_k = 1.0 + (q - 1.0) / a_k
    if q == 1.0:
        sign, logdet = np.linalg.slogdet(S)
        return a_k, q_k, math.exp(-logdet / d), d * k / 2.0 * math.log(math.pi)
    a_0 = 1.0 + 3 * d * (q - 1.0) / 2.0
    q_0 = 1.0 + (q - 1.0) / a_0
    sign, logdet = np.linalg.slogdet((q - 1.0) * S / math.pi)
    log_beta = -logdet / d + (1.0 - q_k) * gammaln(1.0 / (q_k - 1.0))
    log_g = gammaln(1.0 / (q_k - 1.0)) / a_k - gammaln(1.0 / (q_0 - 1.0)) / a_0
    nu_k = math.expm1((1.0 - q) * log_g) / (q - 1.0)
    return a_k, q_k, math.exp(log_beta), nu_k


def repetition(params: QGaussianParams, k: int) -> RepetitionLaw:
    """Constants (a_k, q_k, beta_k, nu_k) and the t degrees of freedom."""
    if k < 1:
        raise DomainError("k must be a positive integer")
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
    if pts.shape[-2:] != (law.k, p.d) or not np.all(np.isfinite(pts)):
        raise DomainError(f"points must be finite, with trailing shape ({law.k}, {p.d})")
    dx = pts - p.v
    Q = law.beta_k * np.einsum("...ki,...ki->...", dx @ p.S, dx)
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


@dataclass(frozen=True)
class _TForm:
    """The law exp_q(-beta_k |x-v|^2_S - nu_k)^a on R^{dk} as a t law: its
    mass, dof and the block B of its scale I_k (x) B (see the module doc).
    Every law ``repetition`` builds has dof > 4d, so its second and fourth
    moments are finite."""

    mass: float
    dof: float
    block: np.ndarray
    k: int

    def entry(self, a: int, b: int) -> float:
        """Entry (a, b) of I_k (x) B, read without forming the matrix."""
        d = self.block.shape[0]
        if not (0 <= a < self.k * d and 0 <= b < self.k * d):
            raise DomainError(f"coordinate index out of range 0..{self.k * d - 1}")
        return float(self.block[a % d, b % d]) if a // d == b // d else 0.0

    def second(self, x):
        """Covariance from scale entries x: x dof/(dof-2)."""
        if math.isinf(self.dof):
            return x
        return x * self.dof / (self.dof - 2.0)

    def fourth(self, x):
        """Fourth moment from its Isserlis sum x of scale entries."""
        if math.isinf(self.dof):
            return x
        return x * self.dof * self.dof / ((self.dof - 2.0) * (self.dof - 4.0))


def _t_form(law: RepetitionLaw, a: float) -> _TForm:
    """exp_q(-beta_k |x-v|^2_S - nu_k)^a on R^{dk} as a t law; a = a_k gives
    the joint and a = a_k q_k the escort."""
    p = law.base
    S_inv = np.linalg.inv(p.S)
    if p.q == 1.0:
        return _TForm(1.0, math.inf, S_inv / (2.0 * law.beta_k), law.k)
    D = p.d * law.k
    s = a / (p.q - 1.0)
    dof = 2.0 * s - D  # > 0: s - D/2 >= 1/(q-1) + 3d/2 for a >= a_k
    _, logdet = np.linalg.slogdet((p.q - 1.0) * law.beta_k * p.S / math.pi)
    log_mass = (D / 2.0 - s) * math.log1p((p.q - 1.0) * law.nu_k) - 0.5 * law.k * logdet \
        + gammaln(s - D / 2.0) - gammaln(s)
    block = (1.0 + (p.q - 1.0) * law.nu_k) / ((p.q - 1.0) * law.beta_k * dof) * S_inv
    return _TForm(math.exp(log_mass), dof, block, law.k)


def joint_t_params(law: RepetitionLaw) -> tuple[float, np.ndarray, np.ndarray]:
    """Student-t form (dof, location, scale) of the joint on R^{dk}.

    The scale is I_k (x) B; for q = 1 it is the Gaussian covariance and dof
    is inf.  The scale is a dense O((kd)^2) view from _block_diag, kept for
    callers; the library itself never builds it.
    """
    f = law._joint
    return f.dof, np.tile(law.base.v, law.k), _block_diag(law.k, f.block)


def joint_factor(law: RepetitionLaw) -> tuple[float, np.ndarray]:
    """(dof, A) of the t representation of the joint.

    A is the lower Cholesky factor of the block B of the joint's scale
    I_k (x) B, so one joint draw is x_m = v + sqrt(dof/W) A z_m for
    m = 1..k, with z_m i.i.d. standard normal in R^d and one
    chi-square(dof) variable W shared by the whole draw; for q = 1, dof is
    inf and the factor sqrt(dof/W) is 1.
    """
    f = law._joint
    return f.dof, np.linalg.cholesky(f.block)


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
    """Integral of rho^{q_k}; independent of v and of the scale of S."""
    return law._escort.mass


def escort_mean(law: RepetitionLaw) -> np.ndarray:
    return np.tile(law.base.v, law.k)


def escort_cov(law: RepetitionLaw) -> np.ndarray:
    """Covariance of the normalized escort law on R^{dk}.

    A dense O((kd)^2) view from _block_diag, kept for callers; the library
    itself never builds it.
    """
    f = law._escort
    return _block_diag(law.k, f.second(f.block))


def escort_moment(law: RepetitionLaw, idx: Optional[tuple] = None) -> float:
    """Raw escort integral of 1, x_a or x_a x_b over R^{dk}.

    idx=None gives the escort mass, (a,) the first moment of flat
    coordinate a, and (a, b) the second moment; all unnormalized.
    """
    f = law._escort
    if idx is None:
        return f.mass
    V = escort_mean(law)
    if len(idx) == 1:
        return f.mass * float(V[idx[0]])
    if len(idx) == 2:
        a, b = idx
        return f.mass * float(V[a] * V[b] + f.second(f.entry(a, b)))
    raise DomainError("idx must be None, (a,) or (a, b)")


# ---------------------------------------------------------------------------
# moments of the joint law
# ---------------------------------------------------------------------------


def central_second(law: RepetitionLaw, a: int, b: int) -> float:
    """E[Y_a Y_b] for the centered joint coordinates; exactly 0.0 across
    repetitions."""
    f = law._joint
    return f.second(f.entry(a, b))


def central_fourth(law: RepetitionLaw, a: int, b: int, c: int, d: int) -> float:
    """E[Y_a Y_b Y_c Y_d]; elliptical-t closed form (Isserlis at q = 1)."""
    s = law._joint.entry
    return law._joint.fourth(s(a, b) * s(c, d) + s(a, c) * s(b, d) + s(a, d) * s(b, c))


@dataclass(frozen=True)
class CoordinateMoments:
    mean: float
    var: float
    central4: float
    raw2: float
    raw4: float


def coordinate_moments(law: RepetitionLaw, i: int = 0) -> CoordinateMoments:
    """Moments of one coordinate of one repetition (any block, by symmetry)."""
    if not 0 <= i < law.base.d:
        raise DomainError("coordinate index out of range")
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
    b = law.base.d + i
    return central_fourth(law, i, i, i, i), central_fourth(law, i, i, b, b)


def fij_pair_moments(law: RepetitionLaw, i: int = 0, j: int = 0) -> tuple[float, float]:
    """(E[Z1^2], E[Z1 Z2]) for Z = x_i x_j centered at its joint mean."""
    if law.k < 2:
        raise DomainError("pair moments need k >= 2")
    d = law.base.d
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


@lru_cache(maxsize=8)
def _radial_rule(n_nodes: int) -> np.ndarray:
    """Rows tan^2 u, log tan u and log(w sec^2 u) of the n-node Gauss-Legendre
    rule (u, w) on [0, pi/2]; read-only, as every caller shares it."""
    x, w = roots_legendre(n_nodes)
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
        return float(np.max(self.defects))


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
    1e-10 |I_2N|); InfeasibleError past 4096 nodes.
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
        xs = np.tile(pb.v + np.linspace(-2.0, 2.0, 9)[:, None] * sd, k)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim <= 1:
        xs = np.repeat(xs.reshape(-1, 1), k * d, axis=1)
    elif xs.shape[-1] != k * d and xs.shape[-2:] != (k, d):
        raise DomainError(f"points must have trailing shape ({k * d},) or ({k}, {d})")
    xs = xs.reshape(-1, k * d)
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise DomainError("points must be finite and not empty")

    dx = xs.reshape(-1, k, d) - pb.v
    q, a, beta, n = pb.q, law_big.a_k, law_big.beta_k, d * kp
    z0 = beta * np.einsum("rmi,rmi->r", dx @ pb.S, dx)[:, None] + law_big.nu_k
    log_c = math.log(2.0) + n / 2 * math.log(math.pi / beta) - gammaln(n / 2) \
        - kp / 2 * np.linalg.slogdet(pb.S)[1]

    def integral(n_nodes):
        t2, log_t, log_ws = _radial_rule(n_nodes)
        z = z0 + t2  # the joint is exp_q(-z)^a
        log_g = -a * z if q == 1.0 else a / (1.0 - q) * np.log1p((q - 1.0) * z)
        return np.exp(log_g + ((n - 1) * log_t + log_ws + log_c)).sum(axis=1)

    fine, abserr = _doubling(integral, 64, 4096, epsabs, 1e-10, "radial quadrature")
    target = joint_density(law_small, xs.reshape(-1, k, d))
    return MarginalCheckResult(xs, np.abs(fine - target), abserr)


# ---------------------------------------------------------------------------
# natural coordinates of the deformed Gaussian family on R^D
# ---------------------------------------------------------------------------


def natural_params(V, Sigma) -> np.ndarray:
    """Natural coordinates of exp_q(-|x-V|^2_Sigma - psi): the linear part
    2 Sigma V followed by -(2 - delta_ab) Sigma_ab for a <= b."""
    V = np.asarray(V, dtype=float)
    Sigma = _check_spd(Sigma, "Sigma")
    D = V.size
    iu = np.triu_indices(D)
    lin = 2.0 * Sigma @ V
    quad = -(2.0 - (iu[0] == iu[1])) * Sigma[iu]
    return np.concatenate([lin, quad])


def natural_to_location_scale(theta, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert natural_params; raises if the scale part is not positive."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != D + D * (D + 1) // 2:
        raise DomainError("natural parameter has the wrong length")
    lin, quad = theta[:D], theta[D:]
    Sigma = np.zeros((D, D))
    iu = np.triu_indices(D)
    Sigma[iu] = -quad / (2.0 - (iu[0] == iu[1]))
    Sigma = Sigma + Sigma.T - np.diag(np.diag(Sigma))
    Sigma = _check_spd(Sigma, "scale part of theta")
    V = np.linalg.solve(Sigma, lin) / 2.0
    return V, Sigma


def psi_natural(qp: float, theta, D: int) -> float:
    """Normalizer |V|^2_Sigma + lambda_{qp}(Sigma) in natural coordinates."""
    V, Sigma = natural_to_location_scale(theta, D)
    return float(V @ Sigma @ V) + lambda_q(qp, D, Sigma)


# ---------------------------------------------------------------------------
# maximum likelihood on the embedded family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLEResult:
    v: np.ndarray
    S: np.ndarray
    defect: float
    iterations: int
    converged: bool


@lru_cache(maxsize=8)
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d), read-only, as every caller shares it."""
    iu = np.triu_indices(d)
    for a in iu:
        a.setflags(write=False)
    return iu


def _slice_tangents(law: RepetitionLaw, family: str) -> list[np.ndarray]:
    """Tangent directions of the fitted family in one block of the ambient
    statistic space (linear parts then quadratic parts i <= j).  The full
    tangent repeats this block k times, once per repetition.

    The block is [2 Sig v, -(2 - delta_ij) Sig_ij] with Sig = a_k beta_k S.
    A move e of v gives [2 Sig e, 0].  As beta_k is proportional to
    det(S)^(-1/d), a move E of S moves Sig by a_k beta_k (E - tr(S^-1 E)/d S).
    """
    p, d = law.base, law.base.d
    c = law.a_k * law.beta_k
    iu = _triu(d)
    Sig = c * p.S
    tangents = [np.concatenate([2.0 * Sig[:, l], np.zeros(iu[0].size)]) for l in range(d)]
    if family == "full" and d >= 2:
        S_inv = np.linalg.inv(p.S)
        # symmetric trace-free directions of S: E_ab + E_ba, and E_aa - E_dd
        for a, b in zip(*iu):
            if a == b == d - 1:
                continue
            E = np.zeros((d, d))
            E[a, b] = E[b, a] = 1.0
            if a == b:
                E[d - 1, d - 1] = -1.0
            dSig = c * (E - np.trace(S_inv @ E) / d * p.S)
            tangents.append(np.concatenate([2.0 * dSig @ p.v,
                                            -(2.0 - (iu[0] == iu[1])) * dSig[iu]]))
    return tangents


def _stationarity_defect(law: RepetitionLaw, x: np.ndarray, family: str) -> float:
    """Tangent-projected residual of the escort-moment condition.

    At the maximizer the escort statistic integrals match the data
    statistics times the escort mass along every direction the family
    can move; the returned defect is the largest violation over a
    unit-norm tangent basis.  Every tangent repeats one block u_b in each
    of the k repetitions, so u . r = u_b . (sum over m of the block
    residuals) and |u| = sqrt(k) |u_b|: only Sum_m x_m and X^T X are needed.
    """
    p = law.base
    d, k = p.d, law.k
    f = law._escort
    iu = _triu(d)
    second = np.outer(p.v, p.v) + f.second(f.block)
    r = f.mass * np.concatenate([k * p.v - x.sum(axis=0), (k * second - x.T @ x)[iu]])

    defect = 0.0
    for u in _slice_tangents(law, family):
        nrm = float(np.linalg.norm(u)) * math.sqrt(k)
        if nrm > 0:
            defect = max(defect, abs(float(u @ r)) / nrm)
    return defect


def mle(q: float, d: int, k: int, x, family: str = "identity_mean_only") -> MLEResult:
    """Maximum-likelihood fit of the joint law to data x in (R^d)^k.

    family "identity_mean_only" fits the center v with S = I_d; "full"
    also fits S up to the trace normalization tr S = d (the joints only
    see S up to scale).  The objective is strictly concave in v with
    maximizer the sample mean, taken in closed form; for "full" the scale
    is the closed-form stationary point S proportional to the inverse
    scatter matrix, which requires the scatter of the data around the
    mean to be nonsingular.  The reported defect is the tangent-projected
    escort-moment residual, zero at a true maximizer.  Cost O(kd^2 + d^3);
    iterations is always 0.
    """
    x = np.asarray(x, dtype=float)
    if x.size != k * d:
        raise DomainError(f"data must hold k*d = {k * d} values, not {x.size}")
    x = x.reshape(k, d)
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    if family not in ("identity_mean_only", "full"):
        raise DomainError(f"unknown family {family!r}")

    v = x.mean(axis=0)
    if family == "identity_mean_only" or d == 1:
        S, variant = np.eye(d), "identity"
    else:
        centered = x - v
        M = centered.T @ centered
        if np.min(np.linalg.eigvalsh(M)) <= 1e-12 * max(1.0, float(np.max(np.abs(M)))):
            raise InfeasibleError("scatter matrix is singular; full-family fit undetermined")
        S = np.linalg.inv(M)
        S *= d / np.trace(S)
        variant = "trace_d"
    law = repetition(QGaussianParams(q, d, v, S, variant), k)
    return MLEResult(v, S, _stationarity_defect(law, x, family), 0, True)
