"""Benchmark for dgeo: one closed-loop caller in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; dgeo is imported from ``src/``.
Workloads and metric names come from ``BENCHMARK.json`` at the root.

``--trace 0`` times the workload and reports every end-to-end metric;
``--trace 1`` replays a fixed part of it with tracing wrappers installed
(see tracer.py) and reports every per-layer metric.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the
environment, goes to ``perfbench/out/``.  BLAS threads are pinned to 1
before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
PROBE_REF_S = 0.005  # probe time that timed metrics are scaled to
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dgeo.cli; print(time.perf_counter() - t)")

now = time.perf_counter


class Tally:
    """Attempted and failed ops, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, op) -> float:
        """Call op once, check its output, return the call's latency."""
        t0 = now()
        try:
            res = op.fn()
        except Exception as exc:  # a raising op is a failed op, never a crash
            res = exc
        dt = now() - t0
        try:
            ok = not isinstance(res, Exception) and bool(op.check(res))
        except Exception:
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.name}: {res!r}"[:300])
        return dt


def tail(samples: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n).

    With ten samples or fewer no percentile qualifies; the maximum stands in."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


class Probe:
    """Times a fixed kernel that does not touch dgeo: interpreter work,
    small numpy calls, small dense solves, an in-place pass over 8 MB and
    a 150x150 matrix product.  Its buffers are allocated once, so its time
    does not depend on the heap state the workload leaves behind.  About
    5 ms on an idle core of the reference machine (see README)."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.linspace(0.1, 1.0, 50)
        self.m = np.eye(40) * 4.0 + np.cos(np.arange(40.0))[:, None] * 0.01
        self.stream = np.ones(1_000_000)
        self.sq = np.eye(150) + np.cos(np.arange(150.0))[:, None] * 0.01
        self.prod = np.empty((150, 150))

    def _kernel(self) -> None:
        np = self.np
        x = 0.0
        for i in range(30_000):
            x += (i % 7) * 0.5
        for _ in range(300):
            np.exp(-self.a).sum()
        for _ in range(20):
            np.linalg.solve(self.m, self.a[:40])
        np.multiply(self.stream, 1.0, out=self.stream)
        for _ in range(4):
            np.matmul(self.sq, self.sq, out=self.prod)

    def __call__(self) -> float:
        """Best of three runs of the kernel, in seconds."""
        best = math.inf
        for _ in range(3):
            t0 = now()
            self._kernel()
            best = min(best, now() - t0)
        return best


def timed(wl, seconds: float, tally: Tally, probe: Probe) -> dict:
    """Closed loop over the round pool until the time is up (whole rounds).

    A probe runs between rounds; each round's latencies are scaled by
    PROBE_REF_S over the mean of the probes around it (see README)."""
    p50, tl, raw_p50 = [], [], []
    busy = raw_busy = work = 0.0
    probes = [probe()]
    start = now()
    r = 0
    while not r or now() - start < seconds:
        lat = []
        for op in wl.rounds[r % len(wl.rounds)]:
            lat.append((op, tally.run(op)))
        probes.append(probe())
        scale = PROBE_REF_S / (0.5 * (probes[-2] + probes[-1]))
        for op, dt in lat:
            busy += dt * scale
            raw_busy += dt
            work += op.weight
            if op.latency in ("p50", "both"):
                p50.append(dt * scale)
                raw_p50.append(dt)
            if op.latency in ("tail", "both"):
                tl.append(dt * scale)
        r += 1
    tail_s, pct, n = tail(tl)
    return {
        "metrics": {"ops_per_s": work / busy,
                    "op_p50_ms": 1e3 * statistics.median(p50),
                    "op_tail_ms": 1e3 * tail_s},
        "detail": {"rounds": r, "wall_s": now() - start, "op_p50_samples": len(p50),
                   "op_tail_percentile": pct, "op_tail_samples": n,
                   "probe_s": probes, "raw_ops_per_s": work / raw_busy,
                   "raw_op_p50_ms": 1e3 * statistics.median(raw_p50)},
    }


def traced(wl, seconds: float, tally: Tally, per_layer: list, span_path: Path) -> dict:
    """Alternate untraced and traced passes over the first trace_rounds rounds.

    Counts come from the first traced pass and must repeat in every later
    one; times are medians over passes; the overhead is the ratio of the
    median traced to the median untraced pass."""
    import tracer as trc

    ops = [op for rnd in wl.rounds[:wl.trace_rounds] for op in rnd]
    tr = trc.Tracer()
    plain, traced_walls, counts, totals, selfs = [], [], [], [], []
    start = now()
    while not plain or now() - start < seconds:
        t0 = now()
        for op in ops:
            tally.run(op)
        plain.append(now() - t0)

        tr.reset()
        tr.keep_spans = not counts
        saved = trc.install(tr)
        try:
            t0 = now()
            for i, op in enumerate(ops):
                tr.op_id = i
                tr.open("op." + op.name)
                try:
                    tally.run(op)
                finally:
                    tr.close()
            traced_walls.append(now() - t0)
        finally:
            trc.restore(saved)
        counts.append({k: v for k, v in tr.count.items() if v})
        totals.append(dict(tr.total_s))
        selfs.append(dict(tr.self_s))
        if len(counts) == 1:
            tr.write(span_path)

    metrics = {}
    for name in per_layer:
        key, kind = name.rsplit(".", 1)
        if name == "trace.overhead_ratio":
            metrics[name] = statistics.median(traced_walls) / statistics.median(plain)
        elif kind in ("self_s", "total_s"):
            runs = selfs if kind == "self_s" else totals
            metrics[name] = statistics.median(r.get(key, 0.0) for r in runs)
        else:
            metrics[name] = counts[0].get(name, 0)
    return {"metrics": metrics,
            "detail": {"passes": len(plain), "untraced_pass_s": plain,
                       "traced_pass_s": traced_walls, "spans": len(tr.spans),
                       "span_file": str(span_path.relative_to(ROOT)),
                       "counts_repeat": all(c == counts[0] for c in counts),
                       "counts": counts[0]}}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_seconds() -> float:
    """Import time of dgeo in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dgeo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a dgeo source checkout ({SRC / 'dgeo'} is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = now()
    import dgeo.cli  # noqa: F401  (timed: part of set-up)
    imports = [now() - t0]
    import dgeo
    if Path(dgeo.__file__).resolve().parent != (SRC / "dgeo").resolve():
        print(f"error: dgeo imported from {dgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tally = Tally()
    try:
        # every set-up time is scaled by the probe taken just before it
        probe = Probe()
        scaled_imports = [imports[0] * PROBE_REF_S / probe()]
        for _ in range(SETUP_REPEATS - 1):
            scale = PROBE_REF_S / probe()
            imports.append(import_seconds())
            scaled_imports.append(imports[-1] * scale)
        prepare, scaled_prepare = [], []
        for _ in range(SETUP_REPEATS):
            scale = PROBE_REF_S / probe()
            t0 = now()
            wl = workloads.build(args.workload, args.seed, tmp)
            for op in wl.warmup:
                tally.run(op)
            prepare.append(now() - t0)
            scaled_prepare.append(prepare[-1] * scale)
        setup_s = statistics.median(scaled_imports) + statistics.median(scaled_prepare)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            layer = [m["name"] for m in spec["per_layer"]]
            res = traced(wl, args.seconds, tally, layer, OUT / f"spans-{tag}.npz")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            res = timed(wl, args.seconds, tally, probe)
            res["metrics"]["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            res["metrics"]["setup_s"] = setup_s
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    error_rate = tally.failed / tally.attempted
    correct = tally.failed == 0 and res["detail"].get("counts_repeat", True)
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "error_rate": error_rate, "failures": tally.failures,
              "metrics": metrics, "detail": res["detail"], "workload_info": wl.info,
              "setup": {"import_s": imports, "prepare_s": prepare},
              "environment": environment(args.seed)}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    if args.trace:
        shown = [f"overhead={metrics['trace.overhead_ratio']['value']:.3f}",
                 f"spans={res['detail']['spans']}",
                 f"counts_repeat={res['detail']['counts_repeat']}"]
    else:
        d = res["detail"]
        shown = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        shown.append(f"(tail is p{d['op_tail_percentile']:.1f} of {d['op_tail_samples']} calls)")
    print(f"{tag}: error_rate={error_rate:.6g} fraction ({tally.failed}/{tally.attempted}) "
          + "  ".join(shown))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
