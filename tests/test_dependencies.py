"""numpy is the only runtime dependency: importing the package and its CLI loads no scipy."""

import os
import subprocess
import sys

import spinrep


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinrep.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = ("import sys, spinrep, spinrep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert run.stdout.strip() == "[]"
