"""What ``import repro.runtime`` pulls in.

Every serving, batch and CLI process pays for the runtime's import
graph before its first request.  A fresh interpreter imports the
package and reports which heavy stdlib modules it loaded, so one that
creeps back into the import path fails here instead of silently
adding to start-up time.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Stdlib modules no runtime import path needs.
HEAVY = ("asyncio", "ssl")


def test_runtime_import_leaves_heavy_stdlib_unloaded():
    probe = (
        "import sys\n"
        "import repro.runtime\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
