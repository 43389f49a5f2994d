"""The example scripts run as their docstrings say to run them.

Each script under ``examples/`` runs in a fresh interpreter, from an empty
working directory, with ``PYTHONPATH`` set to the source tree.  It must
exit 0 and write exactly the files it promises.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: The files each script writes to its working directory.
WRITES = {"exploded_supergraph.py": ["figure3.dot", "figure5.dot"]}


def run_example(name, cwd):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name", sorted(path.name for path in EXAMPLES.glob("*.py"))
)
def test_example_runs(name, tmp_path):
    completed = run_example(name, tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout
    assert sorted(path.name for path in tmp_path.iterdir()) == WRITES.get(name, [])


def test_figure5_call_and_return_edges_read_g(tmp_path):
    """Figure 5: ``y = foo(x)`` is annotated ``G``, so the call into foo
    and foo's returns to the call's return site exist only under ``G``.
    All four bold (call and return) edges of the lifted graph read it."""
    completed = run_example("exploded_supergraph.py", tmp_path)
    assert completed.returncode == 0, completed.stderr
    dot = (tmp_path / "figure5.dot").read_text()
    bold = [line for line in dot.splitlines() if "style=bold" in line]
    assert len(bold) == 4
    assert all('label="G"' in line for line in bold), bold
