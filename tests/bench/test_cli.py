"""Unit tests for the ``python -m repro.bench`` experiment CLI."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import average_by_method, format_table
from repro.bench.__main__ import EXPERIMENTS, main

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: Fixed Figure 4 rows: one run per method, AutoFeat ahead on every claim.
FIG4_ROWS = [
    {"method": method, "dataset": "credit", "model": "lightgbm",
     "accuracy": accuracy, "fs_seconds": fs_seconds, "status": "ok"}
    for method, accuracy, fs_seconds in (
        ("BASE", 0.55, 0.0),
        ("ARDA", 0.76, 2.5),
        ("MAB", 0.90, 15.0),
        ("AutoFeat", 0.91, 0.04),
    )
]


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig9" in out
        assert "benchmarks/results/fig8bcd_tau.txt" in out

    def test_every_registered_experiment_has_metadata(self):
        for key, artefact in EXPERIMENTS.items():
            assert artefact.title
            assert callable(artefact.run)
            assert callable(artefact.shape)

    def test_registry_matches_the_results_files_one_to_one(self):
        files = [a.results_file for a in EXPERIMENTS.values()]
        assert len(files) == len(set(files))
        assert set(files) == {p.stem for p in RESULTS_DIR.glob("*.txt")}

    def test_table2_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "bioresponse" in out

    def test_eq3_experiment(self, capsys):
        assert main(["eq3"]) == 0
        assert "joinall_orderings" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2

    def test_no_argument_lists_instead_of_erroring(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "available experiments" in out
        assert "table2" in out

    def test_seed_flag_replaces_profile_seed(self, monkeypatch, capsys):
        seen = {}

        def probe(profile):
            seen["seed"] = profile.seed
            return [{"ok": 1}]

        probed = replace(EXPERIMENTS["table2"], run=probe, shape=lambda rows: {})
        monkeypatch.setitem(EXPERIMENTS, "table2", probed)
        assert main(["table2", "--seed", "7"]) == 0
        assert seen["seed"] == 7
        assert main(["table2"]) == 0
        assert seen["seed"] == 1  # profile default when the flag is absent

    def test_out_flag_writes_table(self, tmp_path, capsys):
        out_path = tmp_path / "nested" / "eq3.txt"
        assert main(["eq3", "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "joinall_orderings" in out_path.read_text()
        assert f"table -> {out_path}" in printed

    def test_failed_shape_claim_exits_1_and_names_it(
        self, monkeypatch, capsys, tmp_path
    ):
        worse = [dict(r, accuracy=0.5) if r["method"] == "AutoFeat" else r
                 for r in FIG4_ROWS]
        broken = replace(EXPERIMENTS["fig4"], run=lambda profile: worse)
        monkeypatch.setitem(EXPERIMENTS, "fig4", broken)
        out_path = tmp_path / "fig4.txt"
        assert main(["fig4", "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "fig4: shape check failed: AutoFeat accuracy > BASE" in err
        # The table is still written, for the diagnosis.
        assert out_path.read_text().startswith("Figure 4: benchmark setting")


class TestRender:
    def test_fig4_renders_the_rows_and_two_per_method_mean_tables(self):
        artefact = EXPERIMENTS["fig4"]
        assert artefact.render(FIG4_ROWS) == "\n\n".join(
            [
                format_table(
                    FIG4_ROWS, title="Figure 4: benchmark setting (tree models)"
                ),
                format_table(
                    average_by_method(FIG4_ROWS),
                    title="Figure 4: mean accuracy per method",
                ),
                format_table(
                    average_by_method(FIG4_ROWS, "fs_seconds"),
                    title="Figure 4: mean feature-selection seconds per method",
                ),
            ]
        )
        assert all(artefact.shape(FIG4_ROWS).values())

    def test_single_table_artefacts_render_only_their_rows(self):
        rows = [{"method": "AutoFeat", "accuracy": 0.9}]
        for key in ("fig5", "fig7"):
            artefact = EXPERIMENTS[key]
            assert artefact.render(rows) == format_table(rows, title=artefact.title)
