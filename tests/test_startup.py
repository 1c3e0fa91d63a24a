"""``repro`` starts, builds and serves without its optional dependencies.

networkx is needed only by :mod:`repro.diagram.topology`, which imports
it on first use; a runner with numpy alone (the CI chaos, serve and bench
jobs) must still import the package, build a snapshot and map it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = """
import sys

sys.modules["networkx"] = None  # any import of it now raises ImportError

from repro.cli import main
from repro.index.serialize import map_diagram

csv, snapshot = sys.argv[1:]
assert main(["build", csv, snapshot]) == 0
diagram, _ = map_diagram(snapshot)
assert diagram.query((0.0, 0.0)) == (0, 1, 2), diagram.query((0.0, 0.0))
assert sys.modules["networkx"] is None
"""


def test_build_and_map_without_networkx(tmp_path):
    csv = tmp_path / "points.csv"
    csv.write_text("2,8\n5,4\n9,1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(csv), str(tmp_path / "d.bin")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
