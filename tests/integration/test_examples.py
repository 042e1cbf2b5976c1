"""Every script under ``examples/`` runs to completion at its smallest size.

Each example runs in a fresh interpreter from an empty working
directory, against this checkout's ``src``: it must exit 0 and must
write no file into the repository.  An example that imports a removed
name fails here, not in a reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree_state():
    """``{relative path: (size, mtime_ns)}`` of every file in the repo."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            rel = os.path.relpath(os.path.join(dirpath, name), REPO)
            state[rel] = (st.st_size, st.st_mtime_ns)
    return state


def test_examples_found():
    assert EXAMPLES, f"no examples under {REPO / 'examples'}"


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script, tmp_path):
    args = [sys.executable, str(script)]
    if '"--steps"' in script.read_text():
        args += ["--steps", "3"]
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    before = _tree_state()
    proc = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
    )
    assert _tree_state() == before, f"{script.name} wrote into the repository"
