"""What importing the simulation layers loads.

scipy is needed only for the Ewald terms (``repro.md.ewald`` imports
``erfc`` inside the functions that call it); importing it costs every
process about 21 MB of resident memory, so the layers that simulate
must not pull it in.
"""

import os
import subprocess
import sys

import repro

LAYERS = (
    "repro.core.machine",
    "repro.core.distributed",
    "repro.md.batch",
    "repro.harness.jobs",
)


def test_simulation_layers_do_not_import_scipy():
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in LAYERS)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
