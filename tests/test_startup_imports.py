"""Start-up guard: analytic paths keep heavy scipy submodules unloaded.

``scipy.stats`` and ``scipy.sparse`` together cost most of the package's
import time, yet only the simulation confidence intervals and the
truncated chain use them.  Both are imported inside the functions that
need them; a stray module-level import would silently put the cost back
on every CLI start, so this test fails instead.
"""

import os
import subprocess
import sys
from pathlib import Path

_PROBE = """
import sys
import repro.__main__

def heavy_loaded():
    return [m for m in ("scipy.stats", "scipy.sparse") if m in sys.modules]

assert not heavy_loaded(), f"import repro.__main__ loaded {heavy_loaded()}"
status = repro.__main__.main(
    ["figure", "4", "--grid", "0.3,0.9", "--workers", "0",
     "--checkpoint-dir", sys.argv[1]]
)
assert status == 0, status
assert not heavy_loaded(), f"figure 4 loaded {heavy_loaded()}"
"""


def test_cli_and_figure4_leave_heavy_scipy_unloaded(tmp_path):
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "ckpt")],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
