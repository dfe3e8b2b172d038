import subprocess
import sys
from pathlib import Path

import dgeo

# perfbench/tracer.py patches dgeo's module bindings by name; a binding that a
# library change drops fails install() with a KeyError.  Run in a subprocess,
# so that a failed restore cannot leave wrappers in this one.
INSTALL = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer
saved = tracer.install(tracer.Tracer())
assert all(owner.__dict__[attr] is not old for owner, attr, old in saved)
tracer.restore(saved)
assert all(owner.__dict__[attr] is old for owner, attr, old in saved)
print(len(saved))
"""


def test_tracer_installs_and_restores_every_binding():
    src = Path(dgeo.__file__).resolve().parents[1]
    bench = src.parent / "perfbench"
    run = subprocess.run([sys.executable, "-c", INSTALL.format(src=str(src), bench=str(bench))],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 0
