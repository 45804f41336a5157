"""Seed-sweep Monte-Carlo engine: spec semantics, aggregation, CLI."""

from __future__ import annotations

import json
import math

import pytest

from repro.api.cli import main as cli_main, parse_seeds
from repro.api.spec import ScenarioSpec
from repro.api.workspace import (
    Workspace,
    aggregate_sweep_values,
    flatten_sweep_aggregate,
)


#: A sweep long enough that a quadratic duplicate scan would be slow.
MAX_SEEDS_PROBE = 5_000


def sweep_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="c17", scheme="original", metrics=("distances",),
        seeds=(0, 1, 2),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSeedsField:
    def test_range_and_list_normalize_identically(self):
        explicit = ScenarioSpec(benchmark="c17", seeds=[3, 4, 5])
        ranged = ScenarioSpec(benchmark="c17", seeds={"start": 3, "count": 3})
        assert explicit.seeds == ranged.seeds == (3, 4, 5)
        assert explicit.content_hash() == ranged.content_hash()

    def test_default_start_is_zero(self):
        assert ScenarioSpec(benchmark="c17", seeds={"count": 2}).seeds == (0, 1)

    def test_sweep_changes_the_content_hash(self):
        plain = ScenarioSpec(benchmark="c17")
        assert plain.content_hash() != sweep_spec().content_hash()

    def test_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            ScenarioSpec(benchmark="c17", seeds=[])
        with pytest.raises(ValueError):
            ScenarioSpec(benchmark="c17", seeds=[1, 1])
        with pytest.raises(TypeError):
            ScenarioSpec(benchmark="c17", seeds="0:8")
        with pytest.raises(TypeError):
            ScenarioSpec(benchmark="c17", seeds={"count": 2, "step": 3})
        with pytest.raises(ValueError):
            ScenarioSpec(benchmark="c17", seeds={"start": 1, "count": 0})

    def test_sweep_size_is_bounded(self):
        from repro.api.spec import MAX_SWEEP_SEEDS

        ranged = ScenarioSpec(benchmark="c17",
                              seeds={"start": 5, "count": MAX_SWEEP_SEEDS})
        assert len(ranged.seeds) == MAX_SWEEP_SEEDS
        with pytest.raises(ValueError, match="limit"):
            ScenarioSpec(benchmark="c17", seeds={"start": 0, "count": 10**9})
        with pytest.raises(ValueError, match="limit"):
            ScenarioSpec(benchmark="c17", seeds=range(MAX_SWEEP_SEEDS + 1))

    def test_duplicate_seeds_are_named_once_in_order(self):
        seeds = list(range(MAX_SEEDS_PROBE)) + [7, 3, 7, 7]
        with pytest.raises(ValueError, match=r"duplicate seed\(s\) in sweep: 3, 7$"):
            ScenarioSpec(benchmark="c17", seeds=seeds)

    def test_round_trips_through_json(self):
        spec = sweep_spec()
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.seeds == (0, 1, 2)
        assert clone.content_hash() == spec.content_hash()

    def test_expand_seeds(self):
        spec = sweep_spec()
        singles = spec.expand_seeds()
        assert [s.seed for s in singles] == [0, 1, 2]
        assert all(s.seeds is None for s in singles)
        assert all(s.benchmark == "c17" for s in singles)
        plain = ScenarioSpec(benchmark="c17", seed=9)
        assert plain.expand_seeds() == [plain]

    def test_build_key_refuses_sweeps(self):
        with pytest.raises(ValueError, match="expand"):
            sweep_spec().build_key()

    def test_with_seeds(self):
        swept = ScenarioSpec(benchmark="c17").with_seeds({"start": 2, "count": 2})
        assert swept.seeds == (2, 3)
        with pytest.raises(TypeError):
            ScenarioSpec(benchmark="c17").with_seeds("0:8")


class TestAggregation:
    def test_numeric_leaf(self):
        agg = aggregate_sweep_values([1.0, 2.0, 3.0])
        assert agg["mean"] == 2.0
        assert agg["std"] == pytest.approx(1.0)
        assert agg["ci95"] == pytest.approx(1.96 / math.sqrt(3))
        assert agg["min"] == 1.0 and agg["max"] == 3.0
        assert agg["n"] == 3
        assert agg["per_seed"] == [1.0, 2.0, 3.0]

    def test_single_value_has_zero_spread(self):
        agg = aggregate_sweep_values([7])
        assert agg["mean"] == 7.0 and agg["std"] == 0.0 and agg["ci95"] == 0.0

    def test_nested_mappings_aggregate_per_key(self):
        agg = aggregate_sweep_values([{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}])
        assert agg["a"]["mean"] == 2.0
        assert agg["b"]["per_seed"] == [2.0, 4.0]

    def test_non_numeric_values_kept_verbatim(self):
        agg = aggregate_sweep_values(["x", "y"])
        assert agg == {"per_seed": ["x", "y"]}

    def test_empty_value_list(self):
        assert aggregate_sweep_values([]) == {"per_seed": []}

    def test_mismatched_keys_fall_back(self):
        agg = aggregate_sweep_values([{"a": 1}, {"b": 2}])
        assert agg == {"per_seed": [{"a": 1}, {"b": 2}]}

    def test_flatten(self):
        agg = {"mean_stat": aggregate_sweep_values([1.0, 2.0])}
        leaves = dict(flatten_sweep_aggregate(agg, "root"))
        assert list(leaves) == ["root.mean_stat"]

    def test_nonfinite_seed_excluded_from_moments(self):
        # Regression: one NaN leaf used to poison mean/std/ci95 of the
        # whole sweep.  Moments now cover only the finite seeds, with an
        # honest n, while per_seed keeps the raw values.
        agg = aggregate_sweep_values([1.0, float("nan"), 3.0, float("inf")])
        assert agg["mean"] == 2.0
        assert agg["std"] == pytest.approx(math.sqrt(2.0))
        assert agg["min"] == 1.0 and agg["max"] == 3.0
        assert agg["n"] == 2
        assert agg["n_nonfinite"] == 2
        assert math.isnan(agg["per_seed"][1])
        assert agg["per_seed"][3] == float("inf")

    def test_all_finite_leaf_has_no_nonfinite_key(self):
        # The happy path must keep its historical wire shape: golden
        # snapshots key on the exact stat-dict keys.
        agg = aggregate_sweep_values([1.0, 2.0])
        assert "n_nonfinite" not in agg

    def test_all_nonfinite_leaf_reports_none_stats(self):
        agg = aggregate_sweep_values([float("nan"), float("-inf")])
        assert agg["mean"] is None and agg["std"] is None
        assert agg["ci95"] is None and agg["min"] is None and agg["max"] is None
        assert agg["n"] == 0 and agg["n_nonfinite"] == 2
        assert len(agg["per_seed"]) == 2


class TestWorkspaceSweeps:
    def test_run_sweep_aggregates_per_seed_results(self):
        workspace = Workspace()
        sweep = workspace.run_sweep(sweep_spec())
        assert sweep.seeds == (0, 1, 2)
        assert sweep.num_seeds == 3
        assert len(sweep.results) == 3
        # The aggregate mirrors the raw per-seed metric values exactly.
        per_seed = sweep.per_seed("distances")
        aggregate = sweep.metric("distances")
        assert aggregate["mean"]["per_seed"] == [v["mean"] for v in per_seed]
        values = [v["mean"] for v in per_seed]
        mean = sum(values) / len(values)
        assert aggregate["mean"]["mean"] == pytest.approx(mean)
        # Distinct seeds produce distinct builds in the artefact cache.
        assert len(workspace) >= 3

    def test_run_scenario_refuses_sweeps(self):
        with pytest.raises(ValueError, match="run_sweep"):
            Workspace().run_scenario(sweep_spec())

    def test_prewarm_expands_sweep_specs(self):
        workspace = Workspace()
        built = workspace.prewarm([sweep_spec()], jobs=1)
        assert len(built) == 3
        assert len(workspace) == 3
        # Second prewarm is a no-op against the warm cache.
        assert workspace.prewarm([sweep_spec()], jobs=1) == []

    def test_single_seed_spec_runs_as_one_seed_sweep(self):
        workspace = Workspace()
        sweep = workspace.run_sweep(ScenarioSpec(
            benchmark="c17", scheme="original", metrics=("distances",), seed=4,
        ))
        assert sweep.seeds == (4,)
        assert sweep.metric("distances")["mean"]["n"] == 1

    def test_sweep_to_dict_is_json_serializable(self):
        sweep = Workspace().run_sweep(sweep_spec())
        payload = json.loads(json.dumps(sweep.to_dict()))
        assert payload["seeds"] == [0, 1, 2]
        assert len(payload["results"]) == 3


class TestCli:
    def test_parse_seeds_spellings(self):
        assert parse_seeds("0:8") == list(range(8))
        assert parse_seeds("2:5") == [2, 3, 4]
        assert parse_seeds("1,4,9") == [1, 4, 9]
        assert parse_seeds("7") == [7]
        with pytest.raises(ValueError):
            parse_seeds("5:5")

    def test_run_spec_file_with_seeds_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(ScenarioSpec(
            benchmark="c17", scheme="original", metrics=("distances",),
        ).to_json())
        exit_code = cli_main([
            "run", str(spec_path), "--seeds", "0:3", "--jobs", "1",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [0, 1, 2]
        aggregate = payload["layout_metrics"]["distances"]["protected"]
        assert aggregate["mean"]["n"] == 3

    def test_run_spec_file_with_embedded_seeds(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(sweep_spec(seeds={"start": 5, "count": 2}).to_json())
        assert cli_main(["run", str(spec_path), "--jobs", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [5, 6]

    @pytest.mark.slow
    def test_run_experiment_target_with_seeds(self, capsys):
        exit_code = cli_main([
            "run", "table1", "--seeds", "0:2", "--quick",
            "--superblue-scale", "0.001", "--jobs", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo sweep over 2 seeds" in out
        assert "Mean" in out and "CI95" in out and "Per-seed" in out
        assert "distances[protected].mean" in out


def test_sweep_report_table_rows():
    from repro.experiments.common import sweep_report_table

    sweep = Workspace().run_sweep(sweep_spec())
    table = sweep_report_table([sweep], title="demo")
    assert table.columns[:4] == ["Benchmark", "Scheme", "Seeds", "Quantity"]
    quantities = table.column("Quantity")
    assert "distances[protected].mean" in quantities
    seeds_column = table.column("Seeds")
    assert all(value == 3 for value in seeds_column)
