"""Tests for the suite registry and the declarative bench engine."""

import json
import re
from pathlib import Path

import pytest

from repro.exp import suites
from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.runner import TrialExecutionError
from repro.exp.scenarios import scenario_names
from repro.exp.suites import (
    SuiteJournal,
    SuiteSpec,
    SuiteUnit,
    derive_smoke_suite,
    get_suite,
    paper_suites,
    run_suite,
    subtrial_key,
    suite_for_artifact,
)

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
PAPER_ARTIFACTS = (
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "table2",
    "table3",
    "table4",
)


def sweep_unit(name="points", **overrides):
    params = {"rates": [0.05], "warmup_cycles": 10, "measure_cycles": 40, "seed": 0}
    params.update(overrides)
    return SuiteUnit(name, "sweep", params)


class TestSpecValidation:
    def test_rejects_empty_units(self):
        with pytest.raises(ValueError, match="at least one unit"):
            SuiteSpec(name="x", description="", units=())

    def test_rejects_duplicate_unit_names(self):
        with pytest.raises(ValueError, match="duplicate unit names"):
            SuiteSpec(name="x", description="", units=(sweep_unit(), sweep_unit()))

    def test_rejects_unknown_unit_kind(self):
        with pytest.raises(ValueError, match="unknown unit kind"):
            SuiteUnit("x", "teleport", {})

    def test_sweep_unit_needs_rates(self):
        with pytest.raises(ValueError, match="rates"):
            SuiteUnit("x", "sweep", {})

    def test_eval_unit_needs_policy(self):
        with pytest.raises(ValueError, match="policy"):
            SuiteUnit("x", "eval", {})

    def test_scenario_unit_needs_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            SuiteUnit("x", "scenario", {})

    def test_scenario_unit_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeat"):
            SuiteUnit("x", "scenario", {"scenario": "bursty", "repeats": 0})

    def test_train_eval_unit_needs_known_agent(self):
        with pytest.raises(ValueError, match="agent"):
            SuiteUnit("x", "train-eval", {"agent": "sarsa"})

    def test_drl_eval_without_training_spec_rejected(self):
        with pytest.raises(ValueError, match="training"):
            SuiteSpec(
                name="x",
                description="",
                units=(SuiteUnit("e", "eval", {"policy": "drl"}),),
            )


class TestSerialization:
    def test_every_registered_suite_round_trips_through_json(self):
        for spec in suites.all_suites():
            assert SuiteSpec.from_json(spec.to_json()) == spec

    def test_unit_dicts_rebuild_as_units(self):
        spec = get_suite("table1")
        payload = json.loads(spec.to_json())
        rebuilt = SuiteSpec.from_dict(payload)
        assert all(isinstance(unit, SuiteUnit) for unit in rebuilt.units)


class TestRegistryCompleteness:
    def test_all_nine_paper_artifacts_are_registered(self):
        assert {spec.artifact for spec in paper_suites()} >= set(PAPER_ARTIFACTS)

    def test_every_paper_bench_script_maps_to_a_registered_suite(self):
        scripts = sorted(BENCH_DIR.glob("bench_*.py"))
        assert scripts, "benchmarks/ directory not found"
        artifacts = {spec.artifact for spec in paper_suites()}
        for path in scripts:
            match = re.match(r"bench_((?:fig|table)\d+)_", path.name)
            if match:
                assert match.group(1) in artifacts, (
                    f"{path.name} has no registered suite for {match.group(1)}"
                )

    def test_every_suite_scenario_ref_exists_in_scenario_registry(self):
        for spec in suites.all_suites():
            for unit in spec.units:
                if unit.kind == "scenario":
                    assert unit.params["scenario"] in scenario_names(), (
                        f"suite {spec.name} references unknown scenario "
                        f"{unit.params['scenario']!r}"
                    )

    def test_every_full_suite_has_a_smoke_variant(self):
        for spec in suites.all_suites():
            if spec.is_smoke():
                continue
            smoke = get_suite(f"{spec.name}-smoke")
            assert smoke.smoke_of == spec.name
            assert [unit.name for unit in smoke.units] == [
                unit.name for unit in spec.units
            ]

    def test_suite_for_artifact_returns_the_full_suite(self):
        spec = suite_for_artifact("fig1")
        assert spec.name == "fig1"
        assert not spec.is_smoke()

    def test_suite_for_unknown_artifact_raises(self):
        with pytest.raises(KeyError, match="no suite registered"):
            suite_for_artifact("fig99")

    def test_get_unknown_suite_raises_with_known_names(self):
        with pytest.raises(KeyError, match="known:"):
            get_suite("no-such-suite")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            suites.register_suite(get_suite("fig1"))


class TestSmokeDerivation:
    def test_sweep_sizes_are_capped_and_rates_truncated(self):
        full = get_suite("fig1")
        smoke = get_suite("fig1-smoke")
        for unit in smoke.units:
            assert unit.params["warmup_cycles"] <= 100
            assert unit.params["measure_cycles"] <= 240
            assert len(unit.params["rates"]) <= suites.SMOKE_MAX_RATES
        full_rates = full.units[0].params["rates"]
        smoke_rates = smoke.units[0].params["rates"]
        # The smoke sweep keeps the endpoints, so it still crosses saturation.
        assert smoke_rates[0] == full_rates[0]
        assert smoke_rates[-1] == full_rates[-1]

    def test_training_and_eval_sizes_are_capped(self):
        smoke = get_suite("table4-smoke")
        assert smoke.training["episodes"] <= 2
        assert smoke.training["epoch_cycles"] <= 150
        for unit in smoke.units:
            assert unit.params["num_epochs"] <= 3

    def test_train_eval_episodes_are_capped(self):
        smoke = get_suite("table3-smoke")
        for unit in smoke.units:
            if unit.kind == "train-eval":
                assert unit.params["episodes"] <= 2

    def test_caps_never_grow_small_suites(self):
        tiny = SuiteSpec(
            name="tiny",
            description="",
            units=(sweep_unit(warmup_cycles=5, measure_cycles=20),),
        )
        smoke = derive_smoke_suite(tiny)
        assert smoke.units[0].params["warmup_cycles"] == 5
        assert smoke.units[0].params["measure_cycles"] == 20
        assert smoke.name == "tiny-smoke"
        assert smoke.smoke_of == "tiny"


class TestRunSuite:
    def test_fig1_smoke_is_deterministic_and_writes_the_artifact(self, tmp_path):
        first = run_suite("fig1-smoke", jobs=1, out_dir=tmp_path)
        second = run_suite("fig1-smoke", jobs=1)
        assert json.dumps(first.deterministic_payload(), sort_keys=True) == json.dumps(
            second.deterministic_payload(), sort_keys=True
        )
        payload = json.loads((tmp_path / "fig1-smoke.json").read_text())
        assert payload["suite"] == "fig1-smoke"
        assert payload["schema"] == ["scenario", "cycles", "wall_s", "cycles_per_s"]
        assert [unit["unit"] for unit in payload["units"]] == ["turbo", "powersave"]
        assert all(record["suite"] == "fig1-smoke" for record in payload["runs"])
        assert all(record["cycles_per_s"] > 0 for record in payload["runs"])

    def test_scenario_suite_reports_scenario_summaries(self):
        outcome = run_suite("hotpath-smoke", jobs=1)
        rows = outcome.rows("powersave-idle")
        assert rows[0]["scenario"] == "powersave-idle"
        assert rows[0]["cycles"] == 2 * 150  # smoke caps: 2 epochs x 150 cycles

    def test_training_suite_shares_the_memoized_controller(self):
        smoke = get_suite("fig3-smoke")
        outcome = run_suite(smoke, jobs=1)
        rows = outcome.rows("dqn-train")
        assert len(rows) == smoke.training["episodes"]
        assert outcome.training is suites.train_controller(smoke.training, jobs=1)

    def test_eval_suite_deploys_drl_and_baselines(self):
        outcome = run_suite("table4-smoke", jobs=1)
        for unit in ("4x4/drl", "8x8/static-max"):
            summary = outcome.summary(unit)
            assert summary["epochs"] == 3  # the smoke num_epochs cap
            assert summary["energy_per_flit_pj"] > 0
        assert len(outcome.rows("6x6/heuristic")) == 3

    def test_perf_repeats_resamples_wall_clock_but_not_rows(self):
        single = run_suite("fig1-smoke", jobs=1)
        repeated = run_suite("fig1-smoke", jobs=1, perf_repeats=3)
        assert repeated.units == single.units  # rows/cycles identical
        assert len(repeated.records) == len(single.records)
        with pytest.raises(ValueError, match="perf_repeats"):
            run_suite("fig1-smoke", perf_repeats=0)

    def test_perf_repeats_covers_train_units_too(self):
        single = run_suite("fig3-smoke", jobs=1)
        repeated = run_suite("fig3-smoke", jobs=1, perf_repeats=2)
        assert repeated.units == single.units
        # The repeated run resampled the training wall clock; best-of-N can
        # only improve (lower wall = higher cycles/s) on the cached sample.
        assert repeated.records[0]["cycles_per_s"] >= single.records[0]["cycles_per_s"]

    def test_reuse_evals_memoizes_identical_evaluations(self):
        suites._EVAL_CACHE.clear()
        first = run_suite("table2-smoke", jobs=1, reuse_evals=True)
        cache_size = len(suites._EVAL_CACHE)
        assert cache_size == len(first.units)
        # fig5-smoke shares table2-smoke's five phased policies (same smoke
        # eval params, same weights) and adds the two static mid levels.
        second = run_suite("fig5-smoke", jobs=1, reuse_evals=True)
        assert len(suites._EVAL_CACHE) == cache_size + 2
        for unit in ("phased/drl", "phased/static-min"):
            assert second.unit(unit)["rows"] == first.unit(unit)["rows"]

    def test_outcome_lookup_errors_name_the_known_units(self):
        outcome = run_suite("fig1-smoke", jobs=1)
        with pytest.raises(KeyError, match="turbo"):
            outcome.unit("no-such-unit")
        with pytest.raises(KeyError, match="no summary"):
            outcome.summary("turbo")

    def test_unit_level_engine_override_wins_and_tags_its_record(self):
        spec = SuiteSpec(
            name="adhoc-engines",
            description="one unit pinned to the event engine",
            units=(sweep_unit("pinned", engine="event"), sweep_unit("default")),
        )
        outcome = run_suite(spec, jobs=1)
        by_name = {record["scenario"]: record["engine"] for record in outcome.records}
        assert by_name == {"pinned": "event", "default": "cycle"}

    def test_event_engine_yields_identical_outcomes_with_tagged_records(self):
        cycle_outcome = run_suite("hotpath-smoke", jobs=1)
        event_outcome = run_suite("hotpath-smoke", jobs=1, engine="event")
        assert json.dumps(
            cycle_outcome.deterministic_payload(), sort_keys=True
        ) == json.dumps(event_outcome.deterministic_payload(), sort_keys=True)
        assert all(record["engine"] == "cycle" for record in cycle_outcome.records)
        assert all(record["engine"] == "event" for record in event_outcome.records)

    @pytest.mark.slow
    def test_pool_fanout_matches_serial_outcomes(self):
        serial = run_suite("fig2-smoke", jobs=1)
        parallel = run_suite("fig2-smoke", jobs=2)
        assert json.dumps(serial.deterministic_payload(), sort_keys=True) == json.dumps(
            parallel.deterministic_payload(), sort_keys=True
        )


class TestDiffPayloads:
    def test_identical_payloads_have_no_differences(self):
        payload = {"units": [{"rows": [{"rate": 0.1, "latency": 3.5}]}], "wall_s": 1.0}
        other = json.loads(json.dumps(payload))
        other["wall_s"] = 9.0  # wall clocks are ignored by default
        assert suites.diff_payloads(payload, other) == []

    def test_every_field_is_compared_not_just_throughput(self):
        a = {"runs": [{"scenario": "turbo", "cycles": 100, "cycles_per_s": 1.0}]}
        b = {"runs": [{"scenario": "turbo", "cycles": 120, "cycles_per_s": 2.0}]}
        differences = suites.diff_payloads(a, b)
        assert differences == ["runs[0].cycles: A=100 vs B=120"]

    def test_missing_keys_and_length_mismatches_are_reported(self):
        differences = suites.diff_payloads(
            {"units": [1, 2], "only_a": True}, {"units": [1]}
        )
        assert any("only in A" in line for line in differences)
        assert any("row(s)" in line for line in differences)

    def test_extra_ignores_drop_fields_everywhere(self):
        a = {"runs": [{"engine": "cycle", "cycles": 5}]}
        b = {"runs": [{"engine": "event", "cycles": 5}]}
        assert suites.diff_payloads(a, b) != []
        ignore = suites.DIFF_IGNORED_KEYS | {"engine"}
        assert suites.diff_payloads(a, b, ignore=ignore) == []

    def test_training_payloads_differing_only_in_timing_fields_match(self):
        # Regression test for the episodes_per_second leak: the ignore set
        # once missed training's rate field, so two byte-identical training
        # runs diffed as nondeterministic purely on wall-clock jitter.
        payload = {
            "suite": "fig3",
            "units": [
                {
                    "unit": "dqn-train",
                    "kind": "train",
                    "rows": [{"episode": 0, "mean_reward": 1.25}],
                    "cycles": 4_000,
                    "wall_s": 1.0,
                    "wall_time_s": 1.0,
                    "episodes_per_second": 4.0,
                }
            ],
            "records": [
                {"scenario": "dqn-train", "cycles_per_s": 4_000.0, "wall_s": 1.0}
            ],
            "wall_s_total": 1.0,
            "generated_at": 1_000.0,
        }
        other = json.loads(json.dumps(payload))
        for unit in other["units"]:
            unit["wall_s"] = 2.0
            unit["wall_time_s"] = 2.0
            unit["episodes_per_second"] = 0.5
        other["records"][0].update({"cycles_per_s": 2_000.0, "wall_s": 2.0})
        other["wall_s_total"] = 2.0
        other["generated_at"] = 2_000.0
        assert suites.diff_payloads(payload, other) == []
        # Simulated fields still diff as before.
        other["units"][0]["rows"][0]["mean_reward"] = 9.0
        assert suites.diff_payloads(payload, other) != []

    def test_ignored_keys_come_from_the_telemetry_registry(self):
        from repro.exp.telemetry import NONDETERMINISTIC_FIELDS, WALL_CLOCK_FIELDS

        assert suites.DIFF_IGNORED_KEYS == NONDETERMINISTIC_FIELDS
        assert WALL_CLOCK_FIELDS <= suites.DIFF_IGNORED_KEYS
        assert "episodes_per_second" in suites.DIFF_IGNORED_KEYS
        # Scheduling metadata (retry accounting) is nondeterministic too.
        assert {"attempts", "retries"} <= suites.DIFF_IGNORED_KEYS


class TestTrainController:
    TINY = {
        "preset": "small",
        "episodes": 1,
        "seed": 5,
        "epoch_cycles": 120,
        "episode_epochs": 3,
    }

    def test_memoized_per_spec_and_jobs(self):
        first = suites.train_controller(dict(self.TINY), jobs=1)
        second = suites.train_controller(dict(self.TINY), jobs=1)
        assert first is second
        assert first.episodes == 1

    def test_agent_payload_rebuilds_the_greedy_policy(self):
        result = suites.train_controller(dict(self.TINY), jobs=1)
        experiment = suites.build_experiment(self.TINY)
        policy = suites.build_policy(
            "drl", experiment, suites._agent_payload(result)
        )
        import numpy as np

        observation = np.zeros(experiment.build_feature_extractor().dim)
        action = policy.select_action(observation, None)
        assert action == result.to_policy().select_action(observation, None)


class TestBuildPolicy:
    def test_static_ladder_and_baselines(self):
        experiment = suites.build_experiment({})
        for name in ("static-max", "static-min", "heuristic", "random", "static-L2"):
            policy = suites.build_policy(name, experiment)
            assert hasattr(policy, "select_action")

    def test_drl_without_payload_rejected(self):
        with pytest.raises(ValueError, match="agent payload"):
            suites.build_policy("drl", suites.build_experiment({}))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            suites.build_policy("oracle", suites.build_experiment({}))


class TestBuildExperiment:
    def test_presets_and_overrides(self):
        experiment = suites.build_experiment(
            {"preset": "small", "width": 6, "epoch_cycles": 99}
        )
        assert experiment.simulator.width == 6
        assert experiment.epoch_cycles == 99

    def test_traffic_override(self):
        experiment = suites.build_experiment(
            {"traffic": {"pattern": "hotspot", "rate": 0.2,
                         "kwargs": {"hotspot_fraction": 0.15}}}
        )
        assert experiment.traffic.kind == "synthetic"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment preset"):
            suites.build_experiment({"preset": "enormous"})


class TestSubtrialKey:
    def test_key_is_stable_and_order_insensitive(self):
        a = ("sweep", {"rates": [0.05], "seed": 0})
        b = ("sweep", {"seed": 0, "rates": [0.05]})
        assert subtrial_key(a) == subtrial_key(b)

    def test_key_separates_kind_and_params(self):
        base = subtrial_key(("sweep", {"rates": [0.05], "seed": 0}))
        assert subtrial_key(("eval", {"rates": [0.05], "seed": 0})) != base
        assert subtrial_key(("sweep", {"rates": [0.05], "seed": 1})) != base

    def test_train_eval_keys_are_distinct_and_stable_per_agent_variant(self):
        def train_eval_keys():
            keys = {}
            for unit in get_suite("table3-smoke").units:
                if unit.kind == "train-eval":
                    (subtrial,) = suites.expand_unit(unit)
                    keys[unit.params["agent"]] = subtrial.key
            return keys

        keys = train_eval_keys()
        assert sorted(keys) == sorted(suites.TRAIN_EVAL_AGENTS)
        assert len(set(keys.values())) == len(keys)
        assert train_eval_keys() == keys


class TestSuiteJournal:
    def test_append_and_load_round_trip(self, tmp_path):
        journal = SuiteJournal(tmp_path / "x.journal.jsonl")
        journal.append("k1", unit="u", kind="sweep", attempts=1, payload={"rows": [1]})
        journal.append("k2", unit="u", kind="sweep", attempts=2, payload={"rows": [2]})
        journal.close()
        assert SuiteJournal(journal.path).load() == {
            "k1": {"rows": [1]},
            "k2": {"rows": [2]},
        }

    def test_append_is_idempotent_per_key(self, tmp_path):
        journal = SuiteJournal(tmp_path / "x.journal.jsonl")
        journal.append("k", unit="u", kind="sweep", attempts=1, payload={})
        journal.append("k", unit="u", kind="sweep", attempts=5, payload={"other": 1})
        journal.close()
        assert len(journal.path.read_text().splitlines()) == 1

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "x.journal.jsonl"
        journal = SuiteJournal(path)
        journal.append("k1", unit="u", kind="sweep", attempts=1, payload={"ok": True})
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "payload": {"ok"')  # killed mid-write
        assert SuiteJournal(path).load() == {"k1": {"ok": True}}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SuiteJournal(tmp_path / "none.jsonl").load() == {}


class TestResumableSuites:
    def test_resume_requires_an_out_dir(self):
        with pytest.raises(ValueError, match="resume needs an out_dir"):
            run_suite("fig1-smoke", resume=True)

    def test_resume_satisfies_everything_from_the_journal(self, tmp_path):
        clean = run_suite("fig1-smoke", jobs=1, out_dir=tmp_path)
        journal_path = tmp_path / "fig1-smoke.journal.jsonl"
        rows = [json.loads(line) for line in journal_path.read_text().splitlines()]
        resumed = run_suite("fig1-smoke", jobs=1, out_dir=tmp_path, resume=True)
        assert clean.resumed_subtrials == 0
        assert rows[0]["journal"]["suite"] == "fig1-smoke"
        assert resumed.resumed_subtrials == len([row for row in rows if "key" in row])
        assert suites.diff_payloads(
            clean.deterministic_payload(), resumed.deterministic_payload()
        ) == []

    def test_fresh_run_truncates_a_stale_journal(self, tmp_path):
        path = tmp_path / "fig1-smoke.journal.jsonl"
        path.write_text('{"key": "stale", "payload": {}}\n', encoding="utf-8")
        run_suite("fig1-smoke", jobs=1, out_dir=tmp_path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows and all(row.get("key") != "stale" for row in rows)

    def test_telemetry_rows_carry_attempt_accounting(self):
        rows = []

        class Sink:
            def emit(self, row):
                rows.append(row)

        run_suite("fig1-smoke", jobs=1, telemetry=Sink())
        subtrial_rows = [row for row in rows if row["source"] == "subtrial"]
        assert subtrial_rows
        assert all(
            row["attempts"] >= 1 and row["retries"] == row["attempts"] - 1
            for row in subtrial_rows
        )


class TestSuiteChaos:
    def test_chaos_run_matches_clean_run(self):
        clean = run_suite("fig1-smoke", jobs=1)
        chaos = ChaosPolicy(rules=(ChaosRule("raise", 0), ChaosRule("raise", 3)))
        perturbed = run_suite("fig1-smoke", jobs=1, chaos=chaos)
        assert suites.diff_payloads(
            clean.deterministic_payload(), perturbed.deterministic_payload()
        ) == []

    def test_poison_subtrial_quarantines_then_resume_completes(self, tmp_path):
        clean = run_suite("fig1-smoke", jobs=1)
        poison = ChaosPolicy(rules=(ChaosRule("raise", 2),))
        with pytest.raises(TrialExecutionError):
            run_suite("fig1-smoke", jobs=1, out_dir=tmp_path, retries=0, chaos=poison)
        journal = SuiteJournal(tmp_path / "fig1-smoke.journal.jsonl").load()
        assert journal  # the siblings landed before the quarantine surfaced
        resumed = run_suite("fig1-smoke", jobs=1, out_dir=tmp_path, resume=True)
        assert resumed.resumed_subtrials == len(journal)
        assert suites.diff_payloads(
            clean.deterministic_payload(), resumed.deterministic_payload()
        ) == []
