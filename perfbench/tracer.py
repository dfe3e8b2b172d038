"""Outside-in tracing of dgeo's layers for the traced benchmark run.

The tracer replaces public functions at the module bindings their callers
use (``dgeo.discrete.normalize``, ``dgeo.discrete.exp_htau``,
``dgeo.lln.SimReport.averages_csv``, ``dgeo.cli.write_bundle``, ...) with
wrappers that record one span per call, and gives each of ``dgeo.gauge``,
``dgeo.discrete`` and ``dgeo.qgauss`` its own stand-in for the scipy
``optimize``/``integrate`` modules, so solver calls and objective or
integrand evaluations are attributed to the layer that made them.  No
library code changes; wrappers exist only in the process that calls
``install``.

A span is (name, op id, parent span, start, end).  Self time is a span's
duration minus the time its child spans cover.  The other counts
(``points``, ``evals``, ``bytes``, ...) are derived from arguments and
results at the same boundaries; ``bytes`` values are computed from array
shapes, not measured.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list[tuple] = []     # (name_idx, op_id, parent, t0, t1)
        self.keep_spans = True
        self.op_id = -1
        self._stack: list[list] = []      # [span_idx, name, t0, child_time]
        self.count: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.count.clear()
        self.total_s.clear()
        self.self_s.clear()

    def open(self, name: str) -> None:
        idx = -1
        if self.keep_spans:
            idx = len(self.spans)
            nid = self._name_idx.get(name)
            if nid is None:
                nid = self._name_idx[name] = len(self.names)
                self.names.append(name)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((nid, self.op_id, parent, 0.0, 0.0))
        self._stack.append([idx, name, _now(), 0.0])

    def close(self) -> None:
        t1 = _now()
        idx, name, t0, child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][3] += dur
        self.count[name + ".calls"] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if idx >= 0:
            nid, op, parent, _, _ = self.spans[idx]
            self.spans[idx] = (nid, op, parent, t0, t1)

    def parent_names(self) -> list[str]:
        return [frame[1] for frame in self._stack]

    def wrap(self, name: str, fn, after=None):
        """Span around fn; after(args, kwargs, result) may add counts."""
        tr = self

        def traced(*args, **kwargs):
            tr.open(name)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                tr.count[name + ".raised"] += 1
                raise
            finally:
                tr.close()
            if after is not None:
                after(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        """fn with each evaluation counted under key (no span: too fine)."""
        count = self.count

        def evaluated(*args):
            count[key] += 1
            return fn(*args)

        return evaluated

    def write(self, path) -> None:
        """Spans of the recorded pass as compressed columns plus names."""
        arr = np.asarray([s[:3] for s in self.spans], dtype=np.int64).reshape(-1, 3)
        times = np.asarray([s[3:] for s in self.spans], dtype=float).reshape(-1, 2)
        np.savez_compressed(path, name=arr[:, 0], op=arr[:, 1], parent=arr[:, 2],
                            start=times[:, 0], end=times[:, 1],
                            names=np.asarray(self.names, dtype=str))


class _SolverModule:
    """Stand-in for scipy.optimize / scipy.integrate inside one dgeo module."""

    def __init__(self, real, layer: str, tracer: Tracer, names):
        self._real = real
        for fname in names:
            setattr(self, fname, _traced_solver(real, fname, f"{layer}.{fname}", tracer))

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _traced_solver(real, fname: str, key: str, tracer: Tracer):
    fn = getattr(real, fname)

    def solver(func, *args, **kwargs):
        return fn(tracer.counted(key + ".evals", func), *args, **kwargs)

    return tracer.wrap(key, solver)


def install(tracer: Tracer) -> list[tuple]:
    """Patch dgeo's module bindings; returns what restore() needs."""
    from scipy import integrate, optimize

    import dgeo.cli as cli
    import dgeo.discrete as dc
    import dgeo.gauge as gg
    import dgeo.lln as lln
    import dgeo.qgauss as qg

    saved: list[tuple] = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    count = tracer.count

    def add(key, n):
        count[key] += n

    # gauge: inversion, kernel and the scipy solvers gauge calls itself.
    # Calls on a gauge with a closed-form inverse (exp_fn: the builtins)
    # count under *_closed, so gauge.exp_htau and gauge.d_htau cover only
    # the custom gauges' Brent inversion and quadrature.
    def by_gauge(fname, after=None):
        custom = tracer.wrap(f"gauge.{fname}", getattr(gg, fname), after and after(fname))
        closed = tracer.wrap(f"gauge.{fname}_closed", getattr(gg, fname),
                             after and after(f"{fname}_closed"))

        def dispatch(g, *args):
            return (custom if g.exp_fn is None else closed)(g, *args)

        return dispatch

    def points(key):
        return lambda a, k, r: add(f"gauge.{key}.points", np.size(a[1]))

    exp_htau, d_htau = by_gauge("exp_htau", points), by_gauge("d_htau")
    for mod in (gg, dc):
        patch(mod, "exp_htau", exp_htau)
        patch(mod, "d_htau", d_htau)
    patch(gg, "optimize", _SolverModule(optimize, "gauge", tracer, ("brentq",)))
    patch(gg, "integrate", _SolverModule(integrate, "gauge", tracer, ("quad",)))

    # discrete: normalize and the public checks
    patch(dc, "optimize", _SolverModule(optimize, "discrete", tracer, ("brentq",)))

    def under_hessian(a, k, r):
        if "discrete.hessian_check" in tracer.parent_names():
            add("discrete.hessian_check.normalize_calls", 1)

    patch(dc, "normalize", tracer.wrap("discrete.normalize", dc.normalize, under_hessian))
    patch(dc, "pythagorean_project", tracer.wrap(
        "discrete.pythagorean_project", dc.pythagorean_project,
        lambda a, k, r: add("discrete.pythagorean_project.iterations", r.iterations)))
    for fname in ("hessian_check", "canonical_divergence_check", "conformal_check",
                  "entropy_max_check", "divergence"):
        patch(dc, fname, tracer.wrap(f"discrete.{fname}", getattr(dc, fname)))

    # qgauss: laws, sampling, dense algebra, quadrature
    patch(qg, "integrate", _SolverModule(integrate, "qgauss", tracer, ("quad", "dblquad")))

    def dense_bytes(a, k, r):
        law = a[0]
        add("qgauss.dense.bytes", (law.k * law.base.d) ** 2 * 8)

    patch(qg, "embed_joint", tracer.wrap("qgauss.embed_joint", qg.embed_joint, dense_bytes))
    patch(qg, "joint_t_params", tracer.wrap("qgauss.joint_t_params", qg.joint_t_params,
                                            dense_bytes))
    patch(qg, "sample_joint", tracer.wrap(
        "qgauss.sample_joint", qg.sample_joint,
        lambda a, k, r: add("qgauss.sample_joint.bytes", r.nbytes)))
    patch(qg, "joint_density", tracer.wrap(
        "qgauss.joint_density", qg.joint_density,
        lambda a, k, r: add("qgauss.joint_density.points", np.size(r))))
    for fname in ("repetition", "central_second", "marginal_check", "mle", "escort_mass",
                  "escort_cov", "density", "coordinate_moments", "fi_pair_moments",
                  "fij_pair_moments"):
        patch(qg, fname, tracer.wrap(f"qgauss.{fname}", getattr(qg, fname)))

    # lln: simulation, bounds, CSV
    def path_bytes(a, k, r):
        cfg = a[0]
        add("lln.path.bytes", cfg.reps * cfg.k_max * len(cfg.stat_labels()) * 8)

    patch(lln, "run_lln", tracer.wrap("lln.run_lln", lln.run_lln, path_bytes))
    for fname in ("verify_bounds", "chebyshev_bounds"):
        patch(lln, fname, tracer.wrap(f"lln.{fname}", getattr(lln, fname)))
    patch(lln.SimReport, "averages_csv",
          tracer.wrap("lln.averages_csv", lln.SimReport.averages_csv))

    # cli: the entry point the benchmark calls, and bundle writing
    patch(cli, "main", tracer.wrap("cli.main", cli.main))
    def bundle_bytes(a, k, r):
        add("cli.write_bundle.bytes",
            sum(len(c.encode() if isinstance(c, str) else c) for c in a[1].values()))

    patch(cli, "write_bundle", tracer.wrap("cli.write_bundle", cli.write_bundle,
                                           bundle_bytes))
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, attr, old in reversed(saved):
        setattr(owner, attr, old)
