"""``scripts/reach.py`` measures calls, not mentions.

Runs the script's call hook over a tiny package and entry script: the
function the script calls is reached, the one named only in a docstring
and a comment is not.  A reachability audit that falls back to a grep for
names would report both as reached and fail here.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"

MODULE = '''"""Pairs ``called`` with ``mentioned``; see mentioned()."""


def called():
    return helper() + 1


def helper():
    return 1


def mentioned():  # named by the module docstring, called by nobody
    """Docstring-only mention: ``called`` and ``mentioned``."""
    return 2


class Box:
    @property
    def size(self):
        return 3

    def unused(self):
        return 4
'''

ENTRY = """import sys, threading
sys.path.insert(0, sys.argv[1])
from fixture_pkg.mod import Box, called

called()
# A property read on a thread the entry starts: threads are traced too.
worker = threading.Thread(target=lambda: Box().size)
worker.start()
worker.join()
"""


def test_reach_reports_calls_not_mentions(tmp_path):
    package = tmp_path / "fixture_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    entry = tmp_path / "entry.py"
    entry.write_text(ENTRY)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--root", str(package),
         "--entry", f"{sys.executable} {entry} {tmp_path}"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    unreached = {line.split()[1] for line in lines[:-1]}
    assert unreached == {"mentioned", "Box.unused"}
    assert lines[-1] == "unreached: 2 of 5 functions, 3 body lines"
