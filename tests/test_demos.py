"""The demos print exactly what they printed when their digests were recorded.

Each demo runs as a script with ``PYTHONPATH=src``; the sha256 of its
stdout is compared with a recorded digest.  The truncation lab's timing
line is dropped first, as it is the only output that varies from run to
run.  A change that alters a demo's output on purpose records the new
digest here.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "cone_duality.py": "e9c28bf7d1cd1752b589e1bd4dd8f616162c962d7f20a0dc1b5708d2b3a70791",
    "decompose_measures.py": "5a3e05471aea1143a31f7e7ffba6cd4e49da040ef3b675ba046ded870270cbec",
    "monotone_ranking.py": "3371b61c6bda645ed6c51626df029a2a4a74515acd76ee8d435c3e924c8f9e15",
    "represent_preferences.py": "cd7a4364ae3b953ab5fe895b6cd8bc87e749fbb03a08292150f7480b2131ccc4",
    "truncation_lab.py": "0e8e042f375ebf80c3115d4ec13a903ba592c3e4efd1cc87103c03c3e93c7a1f",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"computed in "))
    assert hashlib.sha256(kept).hexdigest() == DIGESTS[name], proc.stdout.decode()
