"""The benchmark's span tracer must find every function it traces.

``bench/tracing.py`` patches each ``(module, fn)`` of its ``TARGETS`` right
after ``import riscreen.cli``; a renamed or lazily loaded target would make
every traced benchmark run fail. This test only reads ``bench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter, so modules other tests imported cannot hide a lazy import
PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import riscreen.cli
missing = [f"{mod}.{fn}" for mod, fn in tracing.TARGETS
           if not callable(getattr(sys.modules.get("riscreen." + mod), fn, None))]
assert not missing, f"traced targets missing after import riscreen.cli: {missing}"
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
print(len(tracing.TARGETS))
"""


def test_every_traced_target_resolves_after_importing_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "bench" / "tracing.py")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
