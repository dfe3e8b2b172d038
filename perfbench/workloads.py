"""The four benchmark workloads: inputs from a seed, ops, and their checks.

Every input (families, theta and rho vectors, gauge-pair parameters, MLE
data, LLN seeds and configs) is drawn with numpy from the workload seed;
dgeo only receives the generated numbers.  An op is one public call; its
check pins the output to the tolerances of ``tests/test_acceptance.py``
(or to a structural identity where that file pins none).

A workload is a pool of rounds, each a fixed list of ops.  The timed run
cycles through the pool; the traced run replays the first
``trace_rounds`` rounds, so its counts are fixed by the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dgeo.cli as cli
import dgeo.discrete as dc
import dgeo.gauge as gg
import dgeo.lln as lln
import dgeo.qgauss as qg


@dataclass
class Op:
    """One public call.  latency says which latency sample it feeds:
    "p50" (op_p50_ms), "tail" (op_tail_ms), "both" or ""."""

    name: str
    fn: Callable[[], object]
    check: Callable[[object], bool]
    latency: str = ""
    weight: int = 1  # work units for ops_per_s: path steps in lln run, else 1


@dataclass
class Workload:
    name: str
    rounds: list          # list of list[Op]
    warmup: list          # list[Op], run during set-up
    trace_rounds: int
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# lln-long / lln-short: `dgeo lln run --out` through in-process cli.main
# ---------------------------------------------------------------------------

POOL_LLN = 8
LONG = {"q": 1.5, "d": 1, "k_max": 10_000_000, "reps": 3}
SHORT = {"q": 1.3, "d": 2, "k_max": 1000, "reps": 5000}


def _cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _bundle_ok(outdir: Path) -> bool:
    """Every file in the manifest exists with the recorded SHA-256 and size."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    for entry in manifest["files"]:
        data = (outdir / entry["name"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"] or len(data) != entry["bytes"]:
            return False
    return bool(manifest["files"])


def _final_deviations(outdir: Path, k_max: int) -> np.ndarray:
    rows = (outdir / "averages.csv").read_text().splitlines()[1:]
    return np.asarray([float(r.split(",")[4]) for r in rows
                       if int(r.split(",", 1)[0]) == k_max])


def _eps_star(q: float, d: int, k: int, target: float = 1e-9) -> float:
    """Smallest eps (to rounding) at which chebyshev_bounds gives bound_F <= target.

    bound_F scales as eps**-4, so one evaluation at eps = 1 fixes it."""
    cfg = lln.SimConfig(q=q, d=d, v=(0.0,) * d, k_max=k, reps=1)
    eps = (lln.chebyshev_bounds(cfg, k, 1.0).bound_F / target) ** 0.25 * (1 + 1e-12)
    if not lln.chebyshev_bounds(cfg, k, eps).bound_F <= target:
        raise RuntimeError("eps* does not reach the bound target")
    return eps


def _lln_long(rng: np.random.Generator, out: Path) -> Workload:
    c = LONG
    bundle = out / "bundle"
    eps = _eps_star(c["q"], c["d"], c["k_max"])

    def run_op(v: float, seed: int, k_max: int, reps: int) -> Op:
        argv = ["lln", "run", "--q", str(c["q"]), "--d", "1", "--v", repr(v),
                "--variant", "identity", "--k-max", str(k_max), "--reps", str(reps),
                "--seed", str(seed), "--workers", "1", "--out", str(bundle)]

        def check(res) -> bool:
            rc, _ = res
            devs = _final_deviations(bundle, k_max)
            return rc == 0 and _bundle_ok(bundle) and devs.size == reps \
                and bool(np.all(devs < eps))

        return Op("cli.main lln run", lambda: _cli(argv), check, "both", k_max * reps)

    rounds = [[run_op(float(rng.normal()), int(rng.integers(2**31)), c["k_max"], c["reps"])]
              for _ in range(POOL_LLN)]
    warm = [run_op(float(rng.normal()), int(rng.integers(2**31)), 100_000, c["reps"])]
    return Workload("lln-long", rounds, warm, 1, {"eps_star": eps, **c})


def _lln_short(rng: np.random.Generator, out: Path) -> Workload:
    c = SHORT
    bundle = out / "bundle"
    out.mkdir(parents=True, exist_ok=True)

    def run_op(i: int, k_max: int, reps: int) -> Op:
        A = rng.normal(size=(2, 2))
        S = A @ A.T + 0.5 * np.eye(2)
        S *= 2.0 / np.trace(S)
        config = {"q": c["q"], "d": 2, "v": rng.normal(scale=0.5, size=2).tolist(),
                  "variant": "trace_d", "k_max": k_max, "reps": reps,
                  "seed": int(rng.integers(2**31)), "eps_grid": [0.25, 0.5, 1.0],
                  "S": S.tolist()}
        path = out / f"config-{i}.json"
        path.write_text(json.dumps(config))
        argv = ["lln", "run", "--config", str(path), "--workers", "1", "--out", str(bundle)]

        def check(res) -> bool:
            rc, stdout = res
            return rc == 0 and json.loads(stdout).get("bounds_all_pass") is True \
                and _bundle_ok(bundle)

        return Op("cli.main lln run", lambda: _cli(argv), check, "both", k_max * reps)

    rounds = [[run_op(i, c["k_max"], c["reps"])] for i in range(POOL_LLN)]
    warm = [run_op(POOL_LLN, 100, 100)]
    return Workload("lln-short", rounds, warm, 1, dict(c))


# ---------------------------------------------------------------------------
# geometry: discrete public checks on builtin and custom gauges
# ---------------------------------------------------------------------------

POOL_GEOMETRY = 32
BUILTIN_BLOCKS = 4           # per round; each block covers all four builtin gauges
BUILTIN_SIZE = (50, 3)       # atoms, statistics
CUSTOM_SIZE = (4, 1)
CUSTOM_TRANSFORM = gg.EquivalenceTransform(a1=0.3, a2=-0.2, a3=0.1, lam=1.5)
BUILTINS = (("kl", {}), ("power", {"q": 1.5}), ("escort", {"q": 1.5}),
            ("scaled_log", {"lam": 2.0}))


def _family(gauge, size, rng):
    m, n = size
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(w), gauge, rng.normal(size=(n, m)),
                                 np.zeros(m))
    th, th2 = rng.normal(scale=0.3, size=(2, n))
    raw = rng.uniform(0.5, 1.5, size=m)
    return spec, th, th2, raw / (w @ raw)


def _nonneg(x) -> bool:
    return math.isfinite(x) and x >= 0.0


def _check_ops(kind: str, spec, th, th2, rho, lat: str) -> list:
    """The checks that apply to a gauge: with tau = id (kl, power, custom)
    the Hessian, canonical-divergence and Pythagorean identities hold; the
    escort gauge has the conformal identity; every gauge projects."""
    st: dict = {"rho": rho}
    w = spec.base.weights

    def project():
        res = dc.pythagorean_project(spec, rho)
        st["p*"] = res.p
        return res

    def member():
        psi, st["p'"] = dc.normalize(spec, th2)
        return psi, st["p'"]

    def div(key, a, b):
        def call():
            st[key] = dc.divergence(spec, st[a], st[b])
            return st[key]
        return call

    def gap_ok(d):
        gap = st["D(rho,p')"] - st["D(rho,p*)"] - d
        return _nonneg(d) and abs(gap) <= 1e-9

    proj = Op("discrete.pythagorean_project", project,
              lambda r: r.moment_residual <= 1e-9, lat)
    ent = Op("discrete.entropy_max_check", lambda: dc.entropy_max_check(spec, rho),
             lambda r: bool(r.maximized), lat)
    if kind == "escort":
        return [Op("discrete.conformal_check", lambda: dc.conformal_check(spec, th, th2),
                   lambda r: r.defect <= 1e-7 and r.grad_defect <= 1e-8, lat),
                proj, ent]
    if kind == "scaled_log":
        return [proj, ent]
    return [
        Op("discrete.hessian_check", lambda: dc.hessian_check(spec, th),
           lambda r: r.status == "ok" and r.max_defect <= 1e-5, lat),
        Op("discrete.canonical_divergence_check",
           lambda: dc.canonical_divergence_check(spec, th, th2), lambda r: r <= 1e-7, lat),
        proj,
        Op("discrete.normalize", member,
           lambda r: math.isfinite(r[0]) and abs(float(w @ r[1]) - 1.0) <= 1e-12),
        Op("discrete.divergence", div("D(rho,p')", "rho", "p'"), _nonneg),
        Op("discrete.divergence", div("D(rho,p*)", "rho", "p*"), _nonneg),
        Op("discrete.divergence", div("D(p*,p')", "p*", "p'"), gap_ok),
        ent,
    ]


def _custom_gauges() -> tuple:
    """gauge_from_pair of tau = id, ell = log t + t / 2 + 1, and an
    apply_equivalence transform of it.  Fixed, so that the cost of a
    custom check depends on the seed only through its family."""
    interval = gg.Interval(0.0, math.inf)
    tau = gg.ScalarFn(lambda t: np.asarray(t, dtype=float) + 0.0,
                      lambda t: np.ones_like(np.asarray(t, dtype=float)),
                      lambda t: np.zeros_like(np.asarray(t, dtype=float)), interval)
    ell = gg.ScalarFn(lambda t: np.log(t) + 0.5 * np.asarray(t, dtype=float) + 1.0,
                      lambda t: 1.0 / np.asarray(t, dtype=float) + 0.5,
                      lambda t: -np.asarray(t, dtype=float) ** -2.0, interval)
    pair = gg.gauge_from_pair(tau, ell, a=1.0)
    return pair, gg.apply_equivalence(pair, CUSTOM_TRANSFORM)


def _geometry(rng: np.random.Generator, out: Path) -> Workload:
    builtin = [(kind, gg.builtin_gauge(kind, **kw)) for kind, kw in BUILTINS]
    custom = _custom_gauges()

    def builtin_block():
        ops = []
        for kind, g in builtin:
            ops += _check_ops(kind, *_family(g, BUILTIN_SIZE, rng), "p50")
        return ops

    rounds = []
    for _ in range(POOL_GEOMETRY):
        ops = [op for _ in range(BUILTIN_BLOCKS) for op in builtin_block()]
        for g in custom:
            ops += _check_ops("custom", *_family(g, CUSTOM_SIZE, rng), "tail")
        rounds.append(ops)
    spec, th, _, _ = _family(custom[1], CUSTOM_SIZE, rng)
    warm = builtin_block() + [Op("discrete.normalize", lambda: dc.normalize(spec, th),
                                 lambda r: math.isfinite(r[0]))]
    return Workload("geometry", rounds, warm, 2,
                    {"builtin_size": BUILTIN_SIZE, "custom_size": CUSTOM_SIZE,
                     "builtin_blocks_per_round": BUILTIN_BLOCKS})


# ---------------------------------------------------------------------------
# qgauss-laws: quadrature, MLE, escort and moments, batched density
# ---------------------------------------------------------------------------

POOL_QGAUSS = 16
MLE_K = (1600, 400)          # d = 1 identity family, d = 2 full family
ESCORT_K = 200
DENSITY_BATCH = (3, 2000)
MARGINAL2_OFFSETS = (-0.5, 0.7)   # k' = 2 evaluation points relative to v


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _mle_ok(x):
    def check(res) -> bool:
        return bool(np.max(np.abs(res.v - x.mean(axis=0))) <= 1e-10) and res.defect <= 1e-6
    return check


def _cov_ok(C) -> bool:
    """Escort covariance: symmetric, identical positive d-by-d blocks, zero
    coupling between repetitions."""
    d = 2
    top = np.max(np.abs(C))
    blocks_equal = np.allclose(C[:d, :d], C[-d:, -d:], rtol=1e-10, atol=0)
    return (C.shape == (2 * ESCORT_K, 2 * ESCORT_K) and _finite(C)
            and np.allclose(C, C.T, rtol=0, atol=1e-12 * top)
            and bool(np.all(np.diag(C) > 0)) and blocks_equal
            and np.max(np.abs(C[:d, d:])) <= 1e-12 * top)


def _qgauss_round(rng) -> list:
    v1 = float(rng.normal())
    p1 = qg.QGaussianParams(1.5, 1, np.array([v1]), np.eye(1))
    law1, law2, law3 = (qg.repetition(p1, k) for k in (1, 2, 3))
    xs = v1 + np.asarray(MARGINAL2_OFFSETS)
    x1 = v1 + rng.standard_t(7, size=(MLE_K[0], 1))

    v2 = rng.normal(size=2)
    A = rng.normal(size=(2, 2))
    S = A @ A.T + 0.5 * np.eye(2)
    S *= 2.0 / np.trace(S)
    p2 = qg.QGaussianParams(1.3, 2, v2, S)
    law = qg.repetition(p2, ESCORT_K)
    x2 = v2 + rng.standard_t(7, size=(MLE_K[1], 2))
    pts = v2 + rng.normal(scale=1.5, size=(*DENSITY_BATCH, 2))

    def moments_ok(m) -> bool:
        return _finite([m.var, m.central4]) and m.var > 0 and m.central4 >= m.var ** 2 \
            and abs(m.raw2 - (v2[1] ** 2 + m.var)) <= 1e-12 * max(1.0, m.raw2)

    # op_p50_ms comes from the k' = 1 check (quad) and op_tail_ms from the
    # k' = 2 check (dblquad) alone: the median of the other calls would fall
    # in the gap between two clusters of unrelated calls and jump between them
    ops = [
        Op("qgauss.marginal_check", lambda: qg.marginal_check(law2, law1),
           lambda r: r.max_defect <= 1e-5, "p50"),
        Op("qgauss.marginal_check", lambda: qg.marginal_check(law3, law1, xs=xs, epsabs=1e-9),
           lambda r: r.max_defect <= 1e-5, "tail"),
        Op("qgauss.mle", lambda: qg.mle(1.5, 1, MLE_K[0], x1, "identity_mean_only"),
           _mle_ok(x1)),
        Op("qgauss.mle", lambda: qg.mle(1.3, 2, MLE_K[1], x2, "full"), _mle_ok(x2)),
        Op("qgauss.escort_mass", lambda: qg.escort_mass(law),
           lambda r: math.isfinite(r) and r > 0),
        Op("qgauss.escort_cov", lambda: qg.escort_cov(law), _cov_ok),
        Op("qgauss.central_second", lambda: qg.central_second(law, 0, 2),
           lambda r: r == 0.0),
        Op("qgauss.coordinate_moments", lambda: qg.coordinate_moments(law, 1), moments_ok),
        Op("qgauss.fi_pair_moments", lambda: qg.fi_pair_moments(law, 0),
           lambda r: _finite(r) and 0 < r[1] <= r[0]),
        Op("qgauss.fij_pair_moments", lambda: qg.fij_pair_moments(law, 0, 1),
           lambda r: _finite(r) and r[0] > 0),
    ]
    for batch in pts:
        ops.append(Op("qgauss.density", lambda b=batch: qg.density(p2, b),
                      lambda r: r.shape == (DENSITY_BATCH[1],) and _finite(r)
                      and bool(np.all(r > 0))))
    return ops


def _qgauss_laws(rng: np.random.Generator, out: Path) -> Workload:
    rounds = [_qgauss_round(rng) for _ in range(POOL_QGAUSS)]
    v = float(rng.normal())
    p1 = qg.QGaussianParams(1.5, 1, np.array([v]), np.eye(1))
    law1, law2 = qg.repetition(p1, 1), qg.repetition(p1, 2)
    x = v + rng.standard_t(7, size=(20, 1))
    warm = [Op("qgauss.marginal_check", lambda: qg.marginal_check(law2, law1, xs=[v]),
               lambda r: r.max_defect <= 1e-5),
            Op("qgauss.mle", lambda: qg.mle(1.5, 1, 20, x), _mle_ok(x)),
            Op("qgauss.escort_cov", lambda: qg.escort_cov(law2), _finite)]
    return Workload("qgauss-laws", rounds, warm, 1,
                    {"mle_k": MLE_K, "escort_k": ESCORT_K, "density_batch": DENSITY_BATCH})


_MAKE = {
    "lln-long": _lln_long,
    "lln-short": _lln_short,
    "geometry": _geometry,
    "qgauss-laws": _qgauss_laws,
}


def build(name: str, seed: int, out: Path) -> Workload:
    """Inputs of one workload; the same seed gives the same inputs."""
    return _MAKE[name](np.random.default_rng(seed), out)
