"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:

1. Two traced runs of each workload with the same seed report identical
   deterministic counts (every per-layer metric whose unit is not ``s`` or
   ``ratio``), and every traced run is correct.
2. The bypass predictions hold: ``gauge.*`` and ``discrete.*`` counts are
   zero on ``lln-*`` and ``qgauss-laws``; ``lln.*`` and ``cli.*`` counts are
   zero on ``geometry`` and ``qgauss-laws``; ``qgauss.*`` counts are zero on
   ``geometry``.
3. ``dgeo lln run`` writes byte-identical bundles with ``--workers 1`` and
   ``--workers 2`` (at most two worker processes).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SEED = 7

BYPASS = {
    "lln-long": ("gauge.", "discrete."),
    "lln-short": ("gauge.", "discrete."),
    "geometry": ("lln.", "cli.", "qgauss."),
    "qgauss-laws": ("gauge.", "discrete.", "lln.", "cli."),
}


def traced_counts(workload: str, seed: int, count_names: list) -> tuple[bool, dict]:
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        raise RuntimeError(f"{workload}: exit {res.returncode}\n{res.stderr[-2000:]}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    return out["correct"], {n: out["metrics"][n]["value"] for n in count_names}


def workers_identical(seed: int) -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    import contextlib
    import io

    import dgeo.cli as cli

    dirs = [OUT / f"selftest-workers{w}" for w in (1, 2)]
    try:
        for w, d in zip((1, 2), dirs):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["lln", "run", "--q", "1.5", "--d", "1", "--v", "0.25",
                               "--k-max", "2000", "--reps", "120", "--seed", str(seed),
                               "--workers", str(w), "--out", str(d)])
            if rc != 0:
                return False
        names = sorted(p.name for p in dirs[0].iterdir())
        return names == sorted(p.name for p in dirs[1].iterdir()) and all(
            (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in ("s", "ratio")]
    ok = True

    def report(label: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label}", flush=True)

    for w in (w["name"] for w in spec["workloads"]):
        correct_a, a = traced_counts(w, SEED, counts)
        correct_b, b = traced_counts(w, SEED, counts)
        report(f"{w}: traced runs correct", correct_a and correct_b)
        diff = [n for n in counts if a[n] != b[n]]
        report(f"{w}: counts repeat for seed {SEED}" + (f" (differ: {diff})" if diff else ""),
               not diff)
        nonzero = [n for n in counts if n.startswith(BYPASS[w]) and a[n] != 0]
        report(f"{w}: bypassed layers {', '.join(BYPASS[w])} count zero"
               + (f" (nonzero: {nonzero})" if nonzero else ""), not nonzero)
    report("lln run bundles identical for --workers 1 and 2", workers_identical(SEED))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
