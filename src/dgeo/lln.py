"""Law-of-large-numbers experiments for dependent identically distributed
sequences drawn from the joint q-Gaussian laws.

One simulated path of length k_max is a single draw of the k_max-fold
joint; because the joints are marginal-consistent, every prefix of that
draw has exactly the law of the shorter joint, so running averages along
the path probe the dependent law of large numbers directly.  Paths are
never materialised: the standard normals behind them stream through a
fixed buffer and only their sums between checkpoints are kept, so memory
is O(buffer + reps x checkpoints) whatever k_max is; so is the table:
``SimReport.averages_csv_blocks`` encodes averages.csv in numpy, a block of
reps at a time (``_csv_rows``), into bytes held once.  Rep r draws from
SeedSequence(seed, spawn_key=(r,)), hashed in bulk for all reps.  The module
also evaluates the fourth-moment and second-moment Chebyshev-type tail
bounds, compares them against empirical exceedance frequencies with
Wilson confidence intervals, and demonstrates summability of the bound
series (the Borel-Cantelli step behind almost-sure convergence).
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .errors import DomainError
from . import qgauss as qg

__all__ = [
    "SimConfig",
    "SimReport",
    "BoundValues",
    "BoundRow",
    "BoundTable",
    "SummabilityTable",
    "run_lln",
    "chebyshev_bounds",
    "verify_bounds",
    "borel_cantelli_summability",
    "wilson_interval",
]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation campaign (fully determines output)."""

    q: float
    d: int
    v: tuple
    variant: str = "identity"  # identity | trace_d
    k_max: int = 10_000
    reps: int = 100
    seed: int = 0
    eps_grid: tuple = (0.25, 0.5, 1.0)
    S: Optional[tuple] = None  # row tuples; defaults to the identity

    def __post_init__(self):
        if self.variant not in ("identity", "trace_d"):
            raise DomainError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "v", tuple(float(x) for x in np.asarray(self.v).reshape(-1)))
        if self.S is not None:
            S = np.asarray(self.S, dtype=float)
            object.__setattr__(self, "S", tuple(tuple(row) for row in S))
        S = self.params().S  # checks q, d, v and S, non-finite values included
        eye = np.eye(self.d)  # the next test decides as allclose(S, eye, atol=1e-12)
        if self.variant == "identity" and np.any(np.abs(S - eye) > 1e-12 + 1e-5 * eye):
            raise DomainError("identity variant requires S = I")
        if self.variant == "trace_d" and abs(np.trace(S) - self.d) > 1e-10:
            raise DomainError("trace_d variant requires tr S = d")
        if self.k_max < 1 or not 1 <= self.reps < 2 ** 32:  # one-word spawn keys
            raise DomainError("k_max must be positive and reps in [1, 2**32)")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, not {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        if not self.eps_grid:
            raise DomainError("eps_grid must be a non-empty list")
        for e in self.eps_grid:  # verify_bounds takes k from 1 to k_max
            _check_eps(e, 1, self.k_max, prefix="eps_grid: ")

    @classmethod
    def from_json(cls, obj: dict) -> "SimConfig":
        """Inverse of ``to_json``: q, d and v are required, other keys default as above."""
        if not isinstance(obj, dict):
            raise DomainError("a simulation config must be a JSON object")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
        if missing:
            raise DomainError(f"simulation config is missing {', '.join(missing)}")
        try:
            return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})
        except DomainError:
            raise
        except (TypeError, ValueError) as exc:  # e.g. a string where a number belongs
            raise DomainError(f"malformed simulation config: {exc}") from None

    def params(self) -> qg.QGaussianParams:
        return qg.QGaussianParams(self.q, self.d, self.v, self.S)

    def k_schedule(self) -> list[int]:
        return _decades(self.k_max)

    def stat_labels(self) -> list[str]:
        labels = [f"F{i + 1}" for i in range(self.d)]
        if self.variant == "trace_d":
            labels += [f"F{i + 1}{j + 1}" for i in range(self.d) for j in range(i, self.d)]
        return labels

    def to_json(self) -> dict:
        return {
            "q": self.q, "d": self.d, "v": list(self.v), "variant": self.variant,
            "k_max": self.k_max, "reps": self.reps, "seed": self.seed,
            "eps_grid": list(self.eps_grid),
            "S": None if self.S is None else [list(r) for r in self.S],
        }


def _decades(k_end: int) -> list[int]:
    """The checkpoints 10, 100, ... below k_end, then k_end itself."""
    ks = []
    k = 10
    while k < k_end:
        ks.append(k)
        k *= 10
    return ks + [k_end]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class SimReport:
    """Running averages and deviations per (checkpoint, rep, statistic); a --out
    bundle holds their table averages.csv once, as bytes encoded by rep blocks."""

    config: SimConfig
    k_schedule: list
    stat_labels: list
    targets: np.ndarray          # (n_stats,)
    averages: np.ndarray         # (reps, n_checkpoints, n_stats)
    deviations: np.ndarray       # same shape, |avg - target|

    def exceedance(self, eps: float, stat: int = 0) -> np.ndarray:
        """Fraction of reps with |avg_k - target| > eps, per checkpoint."""
        return (self.deviations[:, :, stat] > eps).mean(axis=0)

    def median_deviation(self, stat: int = 0) -> np.ndarray:
        return np.median(self.deviations[:, :, stat], axis=0)

    def averages_csv(self) -> str:
        return b"".join(self.averages_csv_blocks()).decode()

    def averages_csv_blocks(self):
        """averages.csv as ASCII bytes, one memoryview per block (_csv_rows): the header,
        then the rows of _CSV_BLOCK reps at a time."""
        ks, labs = zip(*[(f"{k},", f"{lab},") for k in self.k_schedule for lab in self.stat_labels])
        yield memoryview(b"k,rep,stat,average,deviation\n")
        for lo in range(0, len(self.averages), _CSV_BLOCK):
            reps = [[f"{r},"] for r in range(lo, min(lo + _CSV_BLOCK, len(self.averages)))]
            yield _csv_rows([ks, reps, labs], np.stack([a[lo:lo + _CSV_BLOCK].reshape(
                len(reps), len(ks)) for a in (self.averages, self.deviations)], axis=-1))

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "k_schedule": list(self.k_schedule),
            "stat_labels": list(self.stat_labels),
            "targets": [float(t) for t in self.targets],
            "median_deviation": {lab: [float(x) for x in self.median_deviation(si)]
                                 for si, lab in enumerate(self.stat_labels)},
            "seed_convention": "SeedSequence(seed, spawn_key=(rep,))",
        }


def _csv_rows(texts: list, x) -> memoryview:
    """ASCII bytes of CSV rows: the texts (lists of str, each ending in its ","), then the
    floats along x's last axis as format(v, ".17g"), the leading axes broadcast.  A float
    takes 47 columns, NUL in those of sign, "0.000", 17 digits, ".", the same 17 digits,
    exponent and "," that it leaves out.  As in Grisu3 (Loitsch 2010), its digits
    round(|v| 10**(16 - E)) come from a double-double product good to 1e-14, and format
    gives those it cannot prove: 0, nan, inf, |v| outside (1e-200, 1e200), E = floor(log10
    |v|) off by one, a fraction within 1e-9 of 1/2, or 17 nines that round up."""
    flat = np.asarray(x, float).ravel()
    pow10, pairs, exps, cells = _g17_tables()
    ax = np.abs(flat)
    ok = (ax > 1e-200) & (ax < 1e200)
    ax[~ok] = 1.0
    E = np.floor(np.log10(ax)).astype(np.int64)
    hi, hh, hl, lo = pow10[:, 200 - E]
    ah = 134217729.0 * ax - (134217729.0 * ax - ax)  # Dekker's split: ax * hi is exact below
    p = ax * hi
    r = ((ah * hh - p) + ah * hl + (ax - ah) * hh) + (ax - ah) * hl + ax * lo  # |v| 10**(16-E) - p
    f = r - np.floor(r)
    ok &= (np.abs(f - 0.5) > 1e-9) & ((p - 1e16) + r >= 0) & ((p - 1e17) + r < -0.5)
    N = p.astype(np.int64) + np.floor(r).astype(np.int64) + (f > 0.5)  # 17 digits
    u = np.stack([N // 10 ** 8 % 10 ** 8, N % 10 ** 8], -1).astype(np.int32)[..., None]
    digits = np.concatenate([(N // 10 ** 16 + 48).astype(np.uint8)[:, None], pairs[  # 1 + 2 x 8
        u // 10 ** np.arange(6, -1, -2, dtype=np.int32) % 100].view(np.uint8).reshape(-1, 16)], 1)
    last = 16 - np.argmax(digits[:, ::-1] != 48, axis=1)  # %g strips trailing zeros
    kind = np.where((E >= -4) & (E < 17), E + 4, 21 + (np.abs(E) >= 100))
    chars = cells[((flat < 0) * 23 + kind) * 17 + last]  # 0xff where a digit goes
    chars[:, 6:23] &= digits
    chars[:, 24:41] &= digits
    chars[:, 42:46] &= exps[E + 201].view(np.uint8).reshape(-1, 4)
    for i in np.flatnonzero(~ok):
        chars[i, :-1] = list(format(float(flat[i]), ".17g").encode().ljust(46, b"\0"))
    chars.reshape(np.shape(x) + (47,))[..., -1, -1] = ord("\n")
    del flat, ax, ok, E, hi, hh, hl, lo, ah, p, r, f, N, u, digits, last, kind  # off the peak
    cells = [np.array(t, "S").view(np.uint8).reshape(np.shape(t) + (-1,)) for t in texts]
    cells.append(chars.reshape(*np.shape(x)[:-1], -1))
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in cells))
    rows = np.concatenate([np.broadcast_to(c, shape + c.shape[-1:]) for c in cells], -1).ravel()
    return memoryview(rows[rows != 0])  # a boolean index builds no index array, np.compress does


@functools.cache
def _g17_tables() -> tuple:
    """10**(16 - E) as hi + lo, hi split in halves, for E = 200 .. -201; the ASCII digit
    pairs and exponents; the cells by sign, kind (E + 4 in fixed notation, 21 or 22 for 2
    or 3 exponent digits) and last non-zero digit.  Built on first use, not at import."""
    hi = np.array([10 ** max(k, 0) / 10 ** max(-k, 0) for k in range(-184, 218)])  # rounds right
    lo = [(10 ** max(k, 0) * b - a * 10 ** max(-k, 0)) / (b * 10 ** max(-k, 0))
          for k, (a, b) in zip(range(-184, 218), map(float.as_integer_ratio, hi))]
    hh = 134217729.0 * hi - (134217729.0 * hi - hi)
    sign, kind, last = (a.ravel()[:, None] for a in np.indices((2, 23, 17)))
    dot, col = np.where(kind < 4, last, np.where(kind < 21, kind - 4, 0)), np.arange(17)
    used = np.concatenate([sign > 0, np.arange(5) < np.where(kind < 4, 5 - kind, 0), col <= dot,
                           last > dot, (col > dot) & (col <= last),
                           kind >= np.array([21, 21, 22, 21, 21, 0])], axis=1)
    chars = np.array(list(b"-0.000" + b"\xff" * 17 + b"." + b"\xff" * 17 + b"e\xff\xff\xff\xff,"))
    return (np.array([hi, hh, hi - hh, lo]),
            np.array([f"{i:02d}" for i in range(100)], "S").view("u2"),
            np.array([f"{e:+04d}" for e in range(-201, 202)], "S").view("u4"),
            np.where(used, chars, 0).astype(np.uint8))


def _targets(cfg: SimConfig) -> np.ndarray:
    law1 = qg.repetition(cfg.params(), 1)
    vals = [float(cfg.v[i]) for i in range(cfg.d)]
    if cfg.variant == "trace_d":
        for i in range(cfg.d):
            for j in range(i, cfg.d):
                vals.append(cfg.v[i] * cfg.v[j] + qg.central_second(law1, i, j))
    return np.asarray(vals)


_CHUNK = 1 << 17  # standard normals per buffer fill in _run_reps
_CSV_BLOCK = 128  # reps per encoded block of averages.csv, which bounds its working set

# numpy's SeedSequence hash constants (INIT_A, MULT_A, INIT_B, MULT_B, MIX_MULT_L, MIX_MULT_R)
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R, _M32 = (
    0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF)


def _child_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """Row r - lo is SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64): numpy's
    hash, in Python ints up to the spawn word r, then in uint32 arrays over r."""
    h = _INIT_A

    def hashmix(x, mult=_MULT_A):
        nonlocal h
        x, h = x ^ h, h * mult & _M32
        x = x * h & _M32
        return x ^ x >> 16

    def mix(x, y):
        x = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
        return x ^ x >> 16

    ent = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    ent += [0] * (4 - len(ent))  # a spawned sequence pads the seed words to the pool size
    pool = [hashmix(w) for w in ent[:4]]
    for src, dst in [(i, j) for i in range(4) for j in range(4) if i != j]:
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in ent[4:] + [np.arange(lo, hi, dtype=np.uint32)]:  # later words, then r
        pool = [mix(p, hashmix(w)) for p in pool]
    h = _INIT_B  # generate_state: 8 words, 2 per uint64
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(np.random.bit_generator.ISeedSequence):
    """One precomputed PCG64 seed, handed to PCG64 as a seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _run_reps(cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    """Averages for reps lo..hi-1; rep r uses child stream SeedSequence(seed, spawn_key=(r,)).

    One _child_words call hashes the PCG64 seeds of all those streams.
    Streams the standard normals z of each path through one buffer of
    about _CHUNK numbers (B whole reps, or one rep K steps at a time) and
    keeps only the sums of z, and of z_i z_j for trace_d, over the pieces
    between checkpoints.  Each rep draws its chi-square W after its last
    normal, so every z and W stream is that of
    qgauss.sample_joint(law, 1, rng); one _averages call then turns the
    sums of all reps into averages.
    """
    d, k_max = cfg.d, cfg.k_max
    dof, A = qg.joint_factor(qg.repetition(cfg.params(), k_max))
    ks = np.asarray(cfg.k_schedule())
    iu, ju = np.triu_indices(d)  # the order of the F_ij labels
    n_cols = d + iu.size if cfg.variant == "trace_d" else d
    K = min(k_max, max(1, _CHUNK // d))  # steps per fill
    B = max(1, _CHUNK // (k_max * d))    # reps per fill
    buf = np.empty(B * K * d)
    prod = np.empty(B * K if n_cols > d else 0)  # z_i z_j of one pair (i, j)
    v = np.asarray(cfg.v)
    seg = np.zeros((hi - lo, ks.size, n_cols))  # sums over the pieces between checkpoints
    chi2 = []  # the chi-square draw W of each rep
    words = _child_words(cfg.seed, lo, hi)
    for b0 in range(0, hi - lo, B):
        rngs = [np.random.Generator(np.random.PCG64(_Words(w))) for w in words[b0:b0 + B]]
        nb = len(rngs)
        for c0 in range(0, k_max, K):
            n = min(K, k_max - c0)
            z = buf[:nb * n * d].reshape(nb, n, d)
            for rng, row in zip(rngs, z):
                rng.standard_normal(out=row)
            z = z.reshape(nb * n, d)
            # pieces start at the fill's first step and at every checkpoint inside it
            starts = np.concatenate([[0], ks[(ks > c0) & (ks < c0 + n)] - c0])
            first = int(np.searchsorted(ks, c0, side="right"))
            idx = (np.arange(nb)[:, None] * n + starts).ravel()
            piece = seg[b0:b0 + nb, first:first + starts.size]
            piece[..., :d] += np.add.reduceat(z, idx, axis=0).reshape(nb, starts.size, d)
            for p in range(n_cols - d):
                x = np.multiply(z[:, iu[p]], z[:, ju[p]], out=prod[:nb * n])
                piece[..., d + p] += np.add.reduceat(x, idx).reshape(nb, starts.size)
        if math.isfinite(dof):
            chi2 += [rng.chisquare(dof) for rng in rngs]
    s = np.sqrt(dof / np.array(chi2)) if math.isfinite(dof) else np.ones(hi - lo)
    return _averages(np.cumsum(seg, axis=1), s, A, v, ks)


def _averages(S: np.ndarray, s: np.ndarray, A: np.ndarray, v: np.ndarray,
              ks: np.ndarray) -> np.ndarray:
    """Checkpoint averages of paths x_m = v + s A z_m, one scale s per rep.

    S holds the prefix sums S1 = sum z (first d columns) and, for
    trace_d, S2 = sum z_i z_j (i <= j) at the checkpoints ks.  The
    averages are v + s A S1/k and, with m = s A S1 and M2 = s^2 A S2 A^T,
    v_i v_j + (v_i m_j + v_j m_i + M2_ij)/k.
    """
    d = v.size
    iu, ju = np.triu_indices(d)
    kk = ks[:, None]
    m = s[:, None, None] * _times(A, S[..., :d])
    out = np.empty_like(S)
    out[..., :d] = v + m / kk
    if S.shape[-1] > d:
        S2 = np.empty(S.shape[:2] + (d, d))
        S2[..., iu, ju] = S2[..., ju, iu] = S[..., d:]
        M2 = (s * s)[:, None, None, None] * _times(A, np.swapaxes(_times(A, S2), -1, -2))
        out[..., d:] = v[iu] * v[ju] + (v[iu] * m[..., ju] + v[ju] * m[..., iu]
                                         + M2[..., iu, ju]) / kk
    return out


def _times(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x for every vector x along the last axis of X.

    Elementwise, in a fixed order of terms, so a rep's result does not
    depend on the other reps in the array (a BLAS product may round a row
    differently by its position).
    """
    out = X[..., :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + X[..., j:j + 1] * A[:, j]
    return out


def run_lln(cfg: SimConfig, workers: int = 1) -> SimReport:
    """Simulate dependent paths and collect running averages.

    Each rep draws one length-k_max path from the joint law (prefixes
    then carry the exact shorter joints); averages are recorded on the
    log-spaced checkpoint schedule.  The path itself is never stored:
    _run_reps streams its normals through a buffer of about _CHUNK
    numbers, so memory is O(buffer + reps x checkpoints).  Rep r always
    uses the r-th child stream spawned from the root seed and draws
    exactly what sample_joint would, and a rep's arithmetic does not
    depend on the other reps, so results are bit-identical for any
    worker count.
    """
    ks = cfg.k_schedule()
    labels = cfg.stat_labels()
    targets = _targets(cfg)
    if workers <= 1 or cfg.reps < 2 * workers:
        averages = _run_reps(cfg, 0, cfg.reps)
    else:
        from concurrent.futures import ProcessPoolExecutor

        edges = np.linspace(0, cfg.reps, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_reps, [cfg] * workers, edges[:-1], edges[1:]))
        averages = np.concatenate(parts, axis=0)
    deviations = np.abs(averages - targets[None, None, :])
    return SimReport(cfg, ks, labels, targets, averages, deviations)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _check_eps(eps: float, *ks: int, prefix: str = "") -> None:
    """Refuse eps unless it is positive and each k is >= 1 with k**3 eps**4, which the
    bounds divide by, a normal double; that grows with k, so check a range at its ends."""
    try:
        ok = eps > 0 and all(k >= 1 and np.finfo(float).tiny <= float(k) ** 3 * eps ** 4
                             <= np.finfo(float).max for k in ks)
    except OverflowError:  # eps**4, float(k) or float(k)**3 beyond double range
        ok = False
    if not ok:
        raise DomainError(f"{prefix}need k >= 1 and a positive finite eps "
                          "with k**3 eps**4 inside double range")


@dataclass(frozen=True)
class BoundValues:
    bound_F: float
    bound_FF: float


def _bound_F(ey4: float, ey22: float, k, eps: float):
    """Fourth-moment bound E(Y1^4)/(k^3 eps^4) + 3(k-1) E(Y1^2 Y2^2)/(k^3 eps^4)."""
    return ey4 / (k ** 3 * eps ** 4) + 3.0 * (k - 1) * ey22 / (k ** 3 * eps ** 4)


def _bound_FF(ez2: float, ez12: float, k, eps: float):
    """Second-moment bound E(Z1^2)/(k eps^2) + (k-1) E(Z1 Z2)/(k eps^2)."""
    return ez2 / (k * eps ** 2) + (k - 1) * ez12 / (k * eps ** 2)


def chebyshev_bounds(cfg: SimConfig, k: int, eps: float,
                     i: int = 0, j: int = 0) -> BoundValues:
    """Tail bounds for the averaged statistics at sample length k.

    bound_F is the fourth-moment inequality (``_bound_F``) for F_i and
    bound_FF the second-moment inequality (``_bound_FF``) for F_ij, with the
    moments taken from the one- and two-fold joint laws.
    """
    _check_eps(eps, k)
    law2 = qg.repetition(cfg.params(), 2)
    return BoundValues(bound_F=float(_bound_F(*qg.fi_pair_moments(law2, i), k, eps)),
                       bound_FF=float(_bound_FF(*qg.fij_pair_moments(law2, i, j), k, eps)))


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise DomainError("n must be positive")
    z = _Z99
    phat = successes / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2 * n)
    rad = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    return (center - rad) / denom, (center + rad) / denom


@dataclass(frozen=True)
class BoundRow:
    k: int
    eps: float
    stat: str
    exceedance: float
    wilson_lo: float
    wilson_hi: float
    bound: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class BoundTable:
    rows: list

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        lines = ["k,eps,stat,exceedance,wilson_lo,wilson_hi,bound,passed,note"]
        for r in self.rows:
            lines.append(f"{r.k},{_fmt(r.eps)},{r.stat},{_fmt(r.exceedance)},"
                         f"{_fmt(r.wilson_lo)},{_fmt(r.wilson_hi)},{_fmt(r.bound)},"
                         f"{int(r.passed)},{r.note}")
        return "\n".join(lines) + "\n"


def verify_bounds(cfg: SimConfig, report: Optional[SimReport] = None) -> BoundTable:
    """Empirical exceedance frequencies against the theoretical bounds.

    A cell passes when the Wilson 99% lower confidence bound of the
    exceedance frequency does not exceed the bound value.  Averages of
    products F_ij (trace_d variant) are bounded too, but carry a note
    that no almost-sure convergence claim backs them.
    """
    if cfg.reps < 100:
        raise DomainError("need reps >= 100 for a meaningful binomial interval")
    if report is None:
        report = run_lln(cfg)
    law2 = qg.repetition(cfg.params(), 2)
    pairs = [(a, b) for a in range(cfg.d) for b in range(a, cfg.d)]
    rows = []
    for si, lab in enumerate(report.stat_labels):
        if si < cfg.d:  # the bounds' moments, once per statistic
            bound_of, moments, note = _bound_F, qg.fi_pair_moments(law2, si), ""
        else:
            bound_of, moments = _bound_FF, qg.fij_pair_moments(law2, *pairs[si - cfg.d])
            note = "no almost-sure guarantee on the trace slice"
        for ci, k in enumerate(report.k_schedule):
            for eps in cfg.eps_grid:
                exceed = int(np.sum(report.deviations[:, ci, si] > eps))
                lo, hi = wilson_interval(exceed, cfg.reps)
                bound = min(float(bound_of(*moments, k, eps)), 1.0)
                rows.append(BoundRow(k, eps, lab, exceed / cfg.reps, lo, hi, bound,
                                     lo <= bound + 1e-12, note))
    return BoundTable(rows)


@dataclass(frozen=True)
class SummabilityTable:
    eps: float
    checkpoints: np.ndarray
    partial_sums: np.ndarray
    terms_times_k2: np.ndarray
    final_relative_change: float


def borel_cantelli_summability(cfg: SimConfig, eps: float,
                               k_terms: int = 100_000) -> SummabilityTable:
    """Partial sums of the fourth-moment bound series.

    The terms behave like a constant times k^{-2}, so the series
    converges; summable tail probabilities are what upgrade convergence
    in probability to almost-sure convergence.  final_relative_change
    compares the last partial sum with the one at the previous checkpoint
    (at k = 1 when k_terms < 10).
    """
    if k_terms < 2:
        raise DomainError("k_terms must be at least 2")
    _check_eps(eps, 1, k_terms)
    ks = np.arange(1, k_terms + 1, dtype=float)
    checkpoints = np.asarray(_decades(k_terms))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        terms = _bound_F(*qg.fi_pair_moments(qg.repetition(cfg.params(), 2), 0), ks, eps)
        sums = np.cumsum(terms)
        scaled = terms[checkpoints - 1] * checkpoints ** 2
    if not (math.isfinite(sums[-1]) and np.isfinite(scaled).all()):
        raise DomainError(f"the summability sums leave double range at eps = {eps:g}")
    partial = sums[checkpoints - 1]
    prev = sums[checkpoints[-2] - 1] if checkpoints.size > 1 else sums[0]
    rel_change = float((partial[-1] - prev) / partial[-1])
    return SummabilityTable(eps, checkpoints, partial, scaled, rel_change)
