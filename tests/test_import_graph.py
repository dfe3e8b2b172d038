import subprocess
import sys
from pathlib import Path

import dgeo

# One call per layer after `import dgeo.cli`: the normalizer on a builtin and
# on a pair gauge, the divergence on that pair gauge (its h o tau is the
# Gauss-Legendre integral of _gl_integrate), the q-Gaussian marginal check and
# a tiny law-of-large-numbers run.  None of them may load a scipy solver module.
CALLS = """
import sys
sys.path.insert(0, {src!r})
import dgeo.cli
import numpy as np
from dgeo import discrete as dc, gauge as gg, lln, qgauss as qg

quad = []
real = gg._gl_integrate
gg._gl_integrate = lambda *a: quad.append(1) or real(*a)

one = gg.ScalarFn(lambda t: np.asarray(t, float) + 0.0,
                  lambda t: np.ones_like(np.asarray(t, float)),
                  lambda t: np.zeros_like(np.asarray(t, float)), gg.Interval(0.0, np.inf))
ell = gg.ScalarFn(lambda t: np.log(t) + 0.5 * np.asarray(t, float) + 1.0,
                  lambda t: 1.0 / np.asarray(t, float) + 0.5,
                  lambda t: -np.asarray(t, float) ** -2.0, one.domain)
T = np.array([[1.0, 0.0, -1.0]])
for g in (gg.builtin_gauge("kl"), gg.gauge_from_pair(one, ell, a=1.0)):
    spec = dc.DiscreteFamilySpec(dc.DiscreteBase(np.ones(3)), g, T, np.zeros(3))
    p = dc.normalize(spec, [0.3])[1]
assert dc.divergence(spec, p, dc.normalize(spec, [-0.2])[1]) > 0 and quad

p = qg.QGaussianParams(1.5, 1, [0.0], [[1.0]])
assert qg.marginal_check(qg.repetition(p, 2), qg.repetition(p, 1)).max_defect <= 1e-10
lln.run_lln(lln.SimConfig(q=1.5, d=1, v=(0.0,), k_max=10, reps=3))
print(sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules))
"""


def test_no_scipy_solver_module_is_loaded():
    src = str(Path(dgeo.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", CALLS.format(src=src)], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
