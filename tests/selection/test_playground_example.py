"""``examples/feature_selection_playground.py`` runs on the selection API."""

import runpy
from pathlib import Path

from repro.selection import REDUNDANCY_METHODS

EXAMPLE = Path(__file__).parents[2] / "examples" / "feature_selection_playground.py"


def test_main_runs(capsys):
    runpy.run_path(str(EXAMPLE), run_name="playground")["main"]()
    out = capsys.readouterr().out
    for method in REDUNDANCY_METHODS:
        # Every method penalises the near-duplicate of the strongest feature.
        row = next(line for line in out.splitlines() if line.startswith(f"{method} "))
        assert row.split()[3] == "True", row
    assert "greedy MRMR selection order: red_00" in out
