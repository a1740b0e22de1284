"""Tests for the experiment harness (context, reporting, selected runners).

The full table runners are exercised by the benchmark suite; here they are
run at the ``tiny`` scale to validate the plumbing end to end.
"""

import os

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    TableResult,
    format_table,
    run_epsilon_ablation,
    run_overhead,
    run_table6,
    run_table8,
)
from repro.experiments.plans import EXPERIMENTS
from repro.pipeline.cli import build_parser


@pytest.fixture(scope="module")
def tiny_context(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    config = ExperimentConfig.tiny(cache_dir=cache, attack_scenes=1, hiding_scenes=1)
    return ExperimentContext(config)


class TestConfig:
    def test_default_vs_paper_scale(self):
        default = ExperimentConfig.default()
        paper = ExperimentConfig.paper_scale()
        assert paper.s3dis_points == 4096
        assert paper.attack_scenes == 100
        assert paper.attack_profile == "paper"
        assert default.s3dis_points < paper.s3dis_points

    def test_tiny_overrides(self):
        config = ExperimentConfig.tiny(attack_scenes=7)
        assert config.attack_scenes == 7

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ExperimentConfig.default().cache_dir == str(tmp_path)


class TestContext:
    def test_datasets_are_cached_objects(self, tiny_context):
        assert tiny_context.s3dis() is tiny_context.s3dis()
        assert tiny_context.semantic3d() is tiny_context.semantic3d()

    def test_attack_pool_sizes(self, tiny_context):
        pool = tiny_context.s3dis_attack_pool(count=2)
        assert len(pool) == 2
        assert all(s.num_points == tiny_context.config.s3dis_points for s in pool)

    def test_model_is_cached_in_memory_and_disk(self, tiny_context):
        model_a = tiny_context.model("resgcn", "s3dis")
        model_b = tiny_context.model("resgcn", "s3dis")
        assert model_a is model_b
        cached_files = os.listdir(tiny_context.config.cache_dir)
        assert any(name.startswith("resgcn_s3dis") for name in cached_files)

    def test_seed_offset_gives_different_weights(self, tiny_context):
        base = tiny_context.model("pointnet2", "s3dis", seed_offset=0)
        other = tiny_context.model("pointnet2", "s3dis", seed_offset=1)
        key = "classifier.weight"
        assert not np.allclose(base.state_dict()[key], other.state_dict()[key])

    def test_attack_config_profile(self, tiny_context):
        fast = tiny_context.attack_config(objective="degradation")
        assert fast.unbounded_steps < 1000
        paper_context = ExperimentContext(ExperimentConfig.tiny(
            attack_profile="paper", cache_dir=tiny_context.config.cache_dir))
        assert paper_context.attack_config().unbounded_steps == 1000

    def test_unknown_dataset_rejected(self, tiny_context):
        with pytest.raises(ValueError):
            tiny_context.model("resgcn", "kitti")


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 2.0, "b": "longer"}]
        text = format_table(["a", "b"], rows, title="Demo")
        lines = text.split("\n")
        assert lines[0] == "Demo"
        assert "1.23" in text and "longer" in text

    def test_table_result_columns_default_to_first_row(self):
        table = TableResult("t", "Title", rows=[{"x": 1, "y": 2}])
        assert table.column_names() == ["x", "y"]
        assert table.column("x") == [1]

    def test_markdown_rendering(self):
        table = TableResult("t", "Title", rows=[{"x": 1.5}], columns=["x"])
        markdown = table.markdown()
        assert markdown.startswith("### Title")
        assert "| 1.50 |" in markdown

    def test_none_rendered_as_dash(self):
        text = format_table(["a"], [{"a": None}])
        assert "-" in text.split("\n")[-1]


class TestRunners:
    def test_table8_structure(self, tiny_context):
        table = run_table8(tiny_context)
        assert {row["defense"] for row in table.rows} == {"none", "srs", "sor"}
        assert {row["attack"] for row in table.rows} == {"bounded", "unbounded"}
        assert all(0.0 <= row["accuracy_pct"] <= 100.0 for row in table.rows)
        assert "clean_accuracy" in table.metadata

    def test_table6_structure(self, tiny_context):
        table = run_table6(tiny_context)
        methods = {row["method"] for row in table.rows}
        assert methods == {"noise", "unbounded"}
        cases = [row["case"] for row in table.rows if row["method"] == "unbounded"]
        assert cases == ["best", "avg", "worst"]

    def test_epsilon_ablation_monotone_columns(self, tiny_context):
        table = run_epsilon_ablation(tiny_context, values=(0.05, 0.2))
        assert [row["epsilon"] for row in table.rows] == [0.05, 0.2]
        assert all(row["linf"] <= row["epsilon"] + 1e-9 for row in table.rows)

    def test_overhead_reports_both_methods(self, tiny_context):
        table = run_overhead(tiny_context, steps=2)
        assert {row["method"] for row in table.rows} == {"bounded", "unbounded"}
        assert all(row["seconds_per_step"] > 0 for row in table.rows)

    def test_formatted_output_nonempty(self, tiny_context):
        table = run_overhead(tiny_context, steps=1)
        assert "seconds_per_step" in table.formatted()

    def test_table_defenses_structure(self, tiny_context):
        from repro.experiments import run_table_defenses
        from repro.experiments.table_defenses import defense_specs

        config = ExperimentConfig.tiny(
            cache_dir=tiny_context.config.cache_dir, attack_scenes=1,
            hiding_scenes=1, eot_samples=2)
        context = ExperimentContext(config)
        table = run_table_defenses(context)
        labels = {spec.get("label", spec["name"])
                  for spec in defense_specs(config)}
        assert {row["defense"] for row in table.rows} == labels
        assert {row["attack"] for row in table.rows} == {"static", "adaptive"}
        assert table.metadata["eot_samples"] == 2
        for row in table.rows:
            if not np.isnan(row["defended_acc_pct"]):
                assert 0.0 <= row["defended_acc_pct"] <= 100.0
            assert 0.0 <= row["clean_defended_acc_pct"] <= 100.0
        # The static rows all describe the same (single) attack cell.
        static_l2 = {row["l2"] for row in table.rows
                     if row["attack"] == "static"}
        assert len(static_l2) == 1

    def test_table_blackbox_structure(self, tiny_context):
        from repro.experiments import run_table_blackbox
        from repro.experiments.table_blackbox import MODES, query_budgets

        config = ExperimentConfig.tiny(
            cache_dir=tiny_context.config.cache_dir, attack_scenes=1,
            hiding_scenes=1, query_budget=24, samples_per_step=1)
        context = ExperimentContext(config)
        table = run_table_blackbox(context)
        assert {row["mode"] for row in table.rows} == set(MODES)
        budgets = query_budgets(config)
        assert budgets == (6, 12, 24)
        for row in table.rows:
            assert row["query_budget"] in budgets
            assert row["queries_used"] <= row["query_budget"]
            assert 0.0 <= row["accuracy_pct"] <= 100.0
            assert 0.0 <= row["success_pct"] <= 100.0


class TestCLI:
    def test_registry_covers_all_tables(self):
        for name in ("table2", "table3", "table4", "table5", "table6", "table7",
                     "table8", "table9", "table_blackbox", "table_defenses",
                     "figures", "overhead", "extension_pct",
                     "extension_alternating"):
            assert name in EXPERIMENTS

    def test_run_experiment_writes_output_file(self, tmp_path, monkeypatch,
                                               capsys):
        """``python -m repro.experiments.run --output DIR`` prints each
        table and writes it to ``DIR/<name>.txt``."""
        from repro.experiments import plans
        from repro.experiments.run import main

        fake = TableResult("fake", "Fake table", rows=[{"value": 1.0}])
        monkeypatch.setitem(plans.EXPERIMENTS, "fake", lambda ctx: fake)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "out"
        assert main(["--experiment", "fake", "--scale", "tiny", "--no-store",
                     "--quiet", "--output", str(out)]) == 0
        assert (out / "fake.txt").read_text(encoding="utf-8") == \
            fake.formatted() + "\n"
        assert "Fake table" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "table3"
        assert args.scale == "default"
        assert build_parser().parse_args(["--paper-scale"]).scale == "paper"

    def test_parser_rejects_unknown_experiment(self, capsys):
        from repro.experiments.run import main

        assert main(["--experiment", "table42"]) == 2
        assert "unknown experiment(s): table42" in capsys.readouterr().out
