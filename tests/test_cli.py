"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_flags(self):
        args = build_parser().parse_args(["figures", "--quick", "--only", "fig1"])
        assert args.quick and args.only == "fig1"

    def test_simulate_subcommand_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate"])
        assert exc.value.code == 2


class TestCommands:
    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in (
            "centralized",
            "replicated",
            "decentralized",
            "hybrid",
            "subtree",
            "relational-db",
            "k-replicated",
        ):
            assert name in out

    def test_synthetic_benchmark_via_sweep(self, capsys):
        """The reader/writer benchmark runs as a one-cell sweep."""
        assert (
            main(
                [
                    "sweep", "--scenario", "paper_synthetic",
                    "--set", "strategy.name=dn",
                    "--set", "n_nodes=8",
                    "--set", "ops_per_node=10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 combinations" in out
        assert "ops/s" in out

    def test_advise_montage(self, capsys):
        assert main(["advise", "--workflow", "montage", "--ops", "1000"]) == 0
        out = capsys.readouterr().out
        assert "recommended strategy: decentralized" in out

    def test_figures_single_quick(self, capsys):
        assert main(["figures", "--quick", "--only", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_run_with_workflow_file_and_export(self, capsys, tmp_path):
        from repro.workflow import pipeline, save_workflow

        wf_path = tmp_path / "wf.json"
        out_path = tmp_path / "run.json"
        save_workflow(pipeline(3, extra_ops=4), wf_path)
        assert (
            main(
                [
                    "run",
                    "--file",
                    str(wf_path),
                    "--strategy",
                    "dr",
                    "--nodes",
                    "8",
                    "--export",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tasks per site" in out
        import json

        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "scenario-result"
        assert doc["result"]["strategy"] == "hybrid"

    def test_run_export_artifact_reproduces_and_diffs(self, capsys, tmp_path):
        """run --export writes the artifact sweep --out stores: its spec
        alone reproduces its metrics, and diff pairs two of them."""
        import json

        from repro.results import result_metrics
        from repro.scenario import ScenarioSpec

        paths = []
        for seed in ("3", "4"):
            path = tmp_path / f"run-{seed}.json"
            assert (
                main(
                    [
                        "run", "--workflow", "montage", "--ops", "2",
                        "--nodes", "8", "--seed", seed,
                        "--export", str(path),
                    ]
                )
                == 0
            )
            paths.append(path)
        doc = json.loads(paths[0].read_text())
        rerun = ScenarioSpec.from_dict(doc["spec"]).run()
        assert result_metrics(rerun) == doc["metrics"]
        capsys.readouterr()
        assert main(["diff", str(paths[0]), str(paths[1])]) == 0
        out = capsys.readouterr().out
        assert "makespan_s" in out
        assert "seed" in out

    def test_advise_from_file(self, capsys, tmp_path):
        from repro.workflow import pipeline, save_workflow

        wf_path = tmp_path / "wf.json"
        save_workflow(pipeline(5, extra_ops=1200), wf_path)
        assert main(["advise", "--file", str(wf_path)]) == 0
        out = capsys.readouterr().out
        assert "recommended strategy" in out

    def test_advise_requires_target(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])


class TestSchedulerFlags:
    def test_schedulers_lists_all_policies(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in (
            "locality",
            "round_robin",
            "load_balanced",
            "bandwidth_aware",
            "hybrid",
        ):
            assert name in out

    def test_run_with_scheduler(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--workflow",
                    "montage",
                    "--strategy",
                    "dn",
                    "--nodes",
                    "8",
                    "--ops",
                    "2",
                    "--scheduler",
                    "load_balanced",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "load_balanced" in out

    def test_unknown_scheduler_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workflow", "montage", "--scheduler", "annealing"]
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hybrid-locality-weight", "2.0"],
            ["--hybrid-load-weight", "0.5"],
            ["--hybrid-transfer-weight", "3.0"],
            ["--scheduler", "locality", "--hybrid-locality-weight", "2.0"],
            ["--scheduler", "bandwidth_aware",
             "--hybrid-transfer-weight", "2.0"],
        ],
    )
    def test_hybrid_knobs_require_hybrid_scheduler(self, flags, capsys):
        code = main(["run", "--workflow", "montage"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "require --scheduler hybrid" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--bw-pending-penalty", "0.0"],
            ["--scheduler", "locality", "--bw-pending-penalty", "2.0"],
            ["--scheduler", "load_balanced", "--bw-pending-penalty", "0.5"],
        ],
    )
    def test_pending_penalty_requires_bandwidth_aware(self, flags, capsys):
        code = main(["run", "--workflow", "montage"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "--bw-pending-penalty requires" in err

    def test_knobs_accepted_with_matching_scheduler(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--workflow",
                    "montage",
                    "--strategy",
                    "dn",
                    "--nodes",
                    "8",
                    "--ops",
                    "2",
                    "--scheduler",
                    "hybrid",
                    "--hybrid-locality-weight",
                    "2.0",
                    "--bw-pending-penalty",
                    "0.5",
                ]
            )
            == 0
        )
        assert "hybrid" in capsys.readouterr().out


class TestWorkloadFlags:
    def test_workloads_lists_applications_and_policies(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("montage-small", "ingest", "max_in_flight"):
            assert name in out

    def test_run_multi_tenant_closed_loop(self, capsys):
        assert (
            main(
                [
                    "run", "--workflow", "montage", "--tenants", "3",
                    "--admission", "max_in_flight",
                    "--max-in-flight", "2", "--ops", "8", "--nodes", "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tenant-02" in out
        assert "peak in-flight 2 (bound 2)" in out
        assert "Jain fairness" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--admission", "unbounded"],
            ["--instances", "2"],
            ["--mode", "open"],
            ["--think-time", "1.5"],
            ["--arrival-rate", "0.5"],
        ],
    )
    def test_workload_flags_require_tenants(self, flags, capsys):
        """Single-workflow mode must reject workload-only knobs instead
        of silently ignoring them (masquerade guard)."""
        rc = main(["run", "--workflow", "montage"] + flags)
        assert rc == 2
        assert "--tenants" in capsys.readouterr().err

    def test_admission_knobs_require_policy(self, capsys):
        rc = main(
            [
                "run", "--workflow", "montage", "--tenants", "2",
                "--max-in-flight", "2",
            ]
        )
        assert rc == 2
        assert "max_in_flight" in capsys.readouterr().err

    def test_tenants_incompatible_with_file(self, capsys, tmp_path):
        from repro.workflow.patterns import scatter
        from repro.workflow.serialization import save_workflow

        path = tmp_path / "wf.json"
        save_workflow(scatter(2), path)
        rc = main(["run", "--file", str(path), "--tenants", "2"])
        assert rc == 2
        assert "--workflow" in capsys.readouterr().err

    def test_open_loop_run(self, capsys):
        assert (
            main(
                [
                    "run", "--workflow", "buzzflow", "--tenants", "2",
                    "--mode", "open", "--arrival-rate", "1.0",
                    "--ops", "4", "--nodes", "8",
                ]
            )
            == 0
        )
        assert "open loop" in capsys.readouterr().out


def _trace_out(command, tmp_path):
    """Keep ``trace`` from writing its default ``trace.json`` in cwd."""
    if command == "trace":
        return ["--out", str(tmp_path / "trace.json")]
    return []


class TestScenarioFlags:
    def test_scenarios_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "paper_default",
            "paper_synthetic",
            "fair_capped",
            "multi_tenant_8",
            "outage_resilience",
        ):
            assert name in out

    def test_dump_spec_to_stdout(self, capsys):
        """The fast-profile smoke check: flags compile to a spec."""
        assert (
            main(
                [
                    "run", "--workflow", "montage", "--ops", "2",
                    "--nodes", "8", "--dump-spec", "-",
                ]
            )
            == 0
        )
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["surface"] == "workflow"
        assert doc["application"] == "montage"
        assert doc["ops_per_task"] == 2
        assert doc["n_nodes"] == 8

    def test_dump_spec_then_spec_reproduces_the_run(self, capsys, tmp_path):
        """--dump-spec output re-fed via --spec reproduces the same
        result object (identical rendered report)."""
        flags = [
            "run", "--workflow", "buzzflow", "--strategy", "dn",
            "--ops", "2", "--nodes", "8", "--seed", "3",
        ]
        assert main(flags) == 0
        direct_out = capsys.readouterr().out
        path = tmp_path / "spec.json"
        assert main(flags + ["--dump-spec", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(path)]) == 0
        spec_out = capsys.readouterr().out
        assert spec_out == direct_out

    def test_dump_spec_for_workload_mode(self, capsys, tmp_path):
        path = tmp_path / "wl.json"
        assert (
            main(
                [
                    "run", "--workflow", "montage", "--tenants", "3",
                    "--admission", "max_in_flight", "--max-in-flight", "2",
                    "--ops", "4", "--nodes", "8",
                    "--dump-spec", str(path),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(path.read_text())
        assert doc["surface"] == "workload"
        assert doc["admission"] == "max_in_flight"
        assert len(doc["workload"]["tenants"]) == 3

    def test_spec_rejects_conflicting_direct_flags(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        assert (
            main(
                [
                    "run", "--workflow", "montage", "--ops", "2",
                    "--nodes", "8", "--dump-spec", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        rc = main(["run", "--spec", str(path), "--nodes", "4"])
        assert rc == 2
        assert "--spec replaces" in capsys.readouterr().err

    def test_spec_is_exclusive_with_workflow(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workflow", "montage", "--spec", "x.json"]
            )

    def test_spec_missing_file_errors_cleanly(self, capsys):
        rc = main(["run", "--spec", "/nonexistent/spec.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"surface": "workflow", "admission": "unbounded"}')
        rc = main(["run", "--spec", str(path)])
        assert rc == 2
        assert "workload-surface" in capsys.readouterr().err

    def test_wrongly_typed_spec_rejected_cleanly(self, capsys, tmp_path):
        """Hand-edited JSON with a mistyped value errors, not a traceback."""
        path = tmp_path / "typed.json"
        path.write_text('{"surface": "workflow", "n_nodes": "eight"}')
        rc = main(["run", "--spec", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["sweep", "--set", "seed=1", "--quick"],
            ["trace", "--quick"],
            ["analyze", "--quick"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_mistyped_spec_field_exits_2(self, capsys, tmp_path, argv):
        """Every spec-taking subcommand rejects a mistyped field the
        same way: exit 2 with an error line, never a traceback."""
        import json

        from repro.scenario import get_scenario

        doc = get_scenario("paper_synthetic").to_dict()
        doc["n_nodes"] = "4"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        extra = _trace_out(argv[0], tmp_path)
        rc = main(argv[:1] + ["--spec", str(path)] + argv[1:] + extra)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--set", "seed=1", "--quick"],
            ["trace", "--quick"],
            ["analyze", "--quick"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_spec_file_exits_2(self, capsys, tmp_path, argv):
        """An unreadable ``--spec`` path is an error line, exit 2."""
        missing = str(tmp_path / "absent.json")
        extra = _trace_out(argv[0], tmp_path)
        rc = main(argv[:1] + ["--spec", missing] + argv[1:] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.json" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--set", "seed=1", "--quick"],
            ["trace", "--quick"],
            ["analyze", "--quick"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_spec_failing_validation_exits_2(self, capsys, tmp_path, argv):
        """A well-typed spec that ``validate()`` rejects exits 2 the same
        way under every spec-taking subcommand, not only ``run``."""
        path = tmp_path / "bad.json"
        path.write_text('{"surface": "workflow", "admission": "unbounded"}')
        extra = _trace_out(argv[0], tmp_path)
        rc = main(argv[:1] + ["--spec", str(path)] + argv[1:] + extra)
        assert rc == 2
        assert "workload-surface" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "analyze"])
    def test_unknown_named_scenario_exits_2(self, capsys, tmp_path, command):
        """The positional scenario name goes through the same loader as
        ``sweep --scenario``: an unknown name is exit 2, not a KeyError."""
        extra = _trace_out(command, tmp_path)
        rc = main([command, "nope", "--quick"] + extra)
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_runtime_value_error_reported_cleanly(self, capsys, tmp_path):
        """A spec that validates but cannot run (1-node synthetic
        benchmark) exits 2 with an error line, not a traceback."""
        from repro.scenario import ScenarioSpec

        path = tmp_path / "tiny.json"
        ScenarioSpec(surface="synthetic", n_nodes=1, ops_per_node=2).save(
            path
        )
        rc = main(["run", "--spec", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_run_named_scenario_via_dumped_spec(self, capsys, tmp_path):
        """Registry scenarios are plain spec files once saved."""
        from repro.scenario import get_scenario

        spec = get_scenario("paper_default").replace(
            ops_per_task=2, n_nodes=8
        )
        path = tmp_path / "paper.json"
        spec.save(path)
        assert main(["run", "--spec", str(path)]) == 0
        assert "tasks per site" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_over_spec_file(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec, StrategySpec

        path = tmp_path / "base.json"
        ScenarioSpec(
            name="sweep-base",
            surface="synthetic",
            strategy=StrategySpec(name="hybrid"),
            ops_per_node=5,
            n_nodes=8,
            seed=1,
        ).save(path)
        assert (
            main(
                [
                    "sweep", "--spec", str(path),
                    "--set", "strategy.name=centralized,hybrid",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 combinations" in out
        assert "centralized" in out and "hybrid" in out

    def test_sweep_export(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        base = tmp_path / "base.json"
        out_path = tmp_path / "sweep.json"
        ScenarioSpec(
            surface="synthetic", ops_per_node=5, n_nodes=8
        ).save(base)
        assert (
            main(
                [
                    "sweep", "--spec", str(base),
                    "--set", "n_nodes=4,8",
                    "--export", str(out_path),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(out_path.read_text())
        assert len(doc["cells"]) == 2
        assert doc["axes"] == {"n_nodes": [4, 8]}

    def test_sweep_requires_axes(self, capsys):
        rc = main(["sweep", "--scenario", "paper_synthetic"])
        assert rc == 2
        assert "--set" in capsys.readouterr().err

    def test_sweep_bad_set_syntax(self, capsys):
        rc = main(
            ["sweep", "--scenario", "paper_synthetic", "--set", "n_nodes"]
        )
        assert rc == 2
        assert "dotted.path" in capsys.readouterr().err

    def test_sweep_unknown_scenario(self, capsys):
        rc = main(["sweep", "--scenario", "nope", "--set", "n_nodes=4"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweepParallelAndStore:
    def _base(self, tmp_path):
        from repro.scenario import ScenarioSpec

        path = tmp_path / "base.json"
        ScenarioSpec(
            name="cli-par", surface="synthetic", ops_per_node=5, n_nodes=8
        ).save(path)
        return path

    def test_sweep_jobs_writes_same_artifacts_as_serial(
        self, capsys, tmp_path
    ):
        base = self._base(tmp_path)
        argv = ["sweep", "--spec", str(base), "--set", "seed=0,1"]
        assert main(argv + ["--jobs", "2", "--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts written" in out
        a_files = sorted(p.name for p in (tmp_path / "a").glob("*.json"))
        b_files = sorted(p.name for p in (tmp_path / "b").glob("*.json"))
        assert a_files == b_files and len(a_files) == 2
        import json

        for name in a_files:
            doc_a = json.loads((tmp_path / "a" / name).read_text())
            doc_b = json.loads((tmp_path / "b" / name).read_text())
            # meta carries wall time (varies run to run); the result
            # payload itself is bit-for-bit identical.
            doc_a.pop("meta")
            doc_b.pop("meta")
            assert doc_a == doc_b

    def test_sweep_rejects_bad_jobs(self, capsys):
        rc = main(
            [
                "sweep", "--scenario", "paper_synthetic",
                "--set", "seed=0", "--jobs", "0",
            ]
        )
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_export_marks_errored_cells(self, capsys, tmp_path):
        import json

        base = self._base(tmp_path)
        out_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep", "--spec", str(base),
                    "--set", "strategy.name=centralized,nope",
                    "--export", str(out_path),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "1 of 2 cells errored" in err
        doc = json.loads(out_path.read_text())
        assert doc["cells"][0]["error"] is None
        assert doc["cells"][0]["makespan"] is not None
        assert doc["cells"][1]["makespan"] is None
        assert "nope" in doc["cells"][1]["error"]


class TestResultsCommand:
    def test_results_lists_store(self, capsys, tmp_path):
        base_path = tmp_path / "base.json"
        from repro.scenario import ScenarioSpec

        ScenarioSpec(
            name="cli-res", surface="synthetic", ops_per_node=5, n_nodes=8
        ).save(base_path)
        store = tmp_path / "runs"
        assert (
            main(
                [
                    "sweep", "--spec", str(base_path),
                    "--set", "seed=0,1",
                    "--out", str(store),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["results", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts" in out
        assert "cli-res" in out
        assert "-s0" in out and "-s1" in out

    def test_results_empty_store_errors(self, capsys, tmp_path):
        rc = main(["results", str(tmp_path / "empty")])
        assert rc == 2
        assert "no artifacts" in capsys.readouterr().err

    def test_results_surfaces_obs_and_slo_columns(self, capsys, tmp_path):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        store.save(get_scenario("multi_tenant_slo").run(quick=True))
        # An untraced, SLO-less run lands in the same store.
        store.save(get_scenario("paper_synthetic").run(quick=True))
        capsys.readouterr()
        assert main(["results", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "obs" in out and "SLO" in out
        assert "violated" in out  # the judged artifact
        assert "ev+an" in out  # event count + analysis marker
        # The legacy-shaped artifact renders "-" placeholders, no crash.
        assert "paper_synthetic" in out


class TestDiffCommand:
    def _store(self, tmp_path, name, n_nodes):
        from repro.scenario import ScenarioSpec

        base_path = tmp_path / f"{name}.json"
        ScenarioSpec(
            name="cli-diff",
            surface="synthetic",
            ops_per_node=5,
            n_nodes=n_nodes,
        ).save(base_path)
        store = tmp_path / name
        assert (
            main(
                [
                    "sweep", "--spec", str(base_path),
                    "--set", "seed=0",
                    "--out", str(store),
                ]
            )
            == 0
        )
        return store

    def test_diff_two_stores_renders_keyed_delta(self, capsys, tmp_path):
        a = self._store(tmp_path, "a", n_nodes=8)
        b = self._store(tmp_path, "b", n_nodes=4)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "1 paired" in out
        assert "n_nodes" in out
        assert "makespan_s" in out

    def test_diff_two_artifact_files(self, capsys, tmp_path):
        a = self._store(tmp_path, "a", n_nodes=8)
        b = self._store(tmp_path, "b", n_nodes=4)
        capsys.readouterr()
        file_a = sorted(a.glob("*.json"))[0]
        file_b = sorted(b.glob("*.json"))[0]
        assert main(["diff", str(file_a), str(file_b)]) == 0
        out = capsys.readouterr().out
        assert "n_nodes" in out
        assert "makespan_s" in out

    def test_diff_mixed_targets_errors(self, capsys, tmp_path):
        a = self._store(tmp_path, "a", n_nodes=8)
        capsys.readouterr()
        file_a = sorted(a.glob("*.json"))[0]
        rc = main(["diff", str(a), str(file_a)])
        assert rc == 2
        assert "two artifact files or two store" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_named_scenario_writes_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "fanout_bandwidth_aware",
                    "--quick",
                    "--out",
                    str(out),
                    "--jsonl",
                    str(jsonl),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "traced fanout_bandwidth_aware" in printed
        assert "streaming sketches" in printed
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"kernel", "network", "scheduler", "span"} <= cats
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_trace_category_subset(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "fanout_bandwidth_aware",
                    "--quick",
                    "--categories",
                    "scheduler,span",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        cats = {
            e.get("cat")
            for e in json.loads(out.read_text())["traceEvents"]
        }
        assert "kernel" not in cats
        assert {"scheduler", "span"} <= cats

    def test_trace_spec_file(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ScenarioSpec(
                name="cli-trace-spec",
                surface="workflow",
                application="montage",
                ops_per_task=4,
                n_nodes=8,
            ).to_json()
        )
        out = tmp_path / "trace.json"
        assert (
            main(["trace", "--spec", str(spec_path), "--out", str(out)])
            == 0
        )
        assert "cli-trace-spec" in capsys.readouterr().out
        assert out.exists()

    def test_trace_requires_exactly_one_target(self, capsys, tmp_path):
        rc = main(["trace", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "exactly one target" in capsys.readouterr().err
        rc = main(
            [
                "trace",
                "fanout_bandwidth_aware",
                "--spec",
                "x.json",
                "--out",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2

    def test_trace_unknown_category_errors(self, capsys, tmp_path):
        rc = main(
            [
                "trace",
                "fanout_bandwidth_aware",
                "--quick",
                "--categories",
                "bogus",
                "--out",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "unknown" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_named_scenario_renders_full_report(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "report.txt"
        assert (
            main(
                [
                    "analyze", "multi_tenant_slo", "--quick",
                    "--out", str(out_path),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        for needle in (
            "time attribution",
            "observed critical path",
            "VM occupancy",
            "SLO verdict: violated",
            "tenant_deadline:tenant-00",
        ):
            assert needle in printed, f"report missing {needle!r}"
        assert "observed critical path" in out_path.read_text()

    def test_analyze_forces_tracing_on(self, capsys):
        # fanout_bandwidth_aware is untraced in the registry; analyze
        # must still produce a span-level report.
        assert main(["analyze", "fanout_bandwidth_aware", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "observed critical path" in out
        assert "SLO: none declared" in out

    def test_analyze_spec_file(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        spec_path = tmp_path / "spec.json"
        ScenarioSpec(
            name="cli-analyze-spec",
            surface="workflow",
            application="montage",
            ops_per_task=4,
            n_nodes=8,
        ).save(spec_path)
        assert main(["analyze", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-analyze-spec" in out
        assert "observed critical path" in out

    def test_analyze_stored_artifact_without_rerunning(
        self, capsys, tmp_path
    ):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        artifact = store.save(
            get_scenario("multi_tenant_slo").run(quick=True)
        )
        capsys.readouterr()
        assert main(["analyze", "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "stored run" in out
        assert "observed critical path" in out
        assert "SLO verdict: violated" in out

    def test_analyze_artifact_without_blocks_errors(
        self, capsys, tmp_path
    ):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        artifact = store.save(
            get_scenario("paper_synthetic").run(quick=True)
        )
        rc = main(["analyze", "--artifact", str(artifact)])
        assert rc == 2
        assert "no 'analysis' or 'slo'" in capsys.readouterr().err

    def test_analyze_requires_exactly_one_target(self, capsys, tmp_path):
        rc = main(["analyze"])
        assert rc == 2
        assert "exactly one target" in capsys.readouterr().err
        rc = main(
            [
                "analyze", "multi_tenant_slo",
                "--artifact", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2
        assert "exactly one target" in capsys.readouterr().err


class TestRunMetricsFlag:
    def test_run_with_metrics_prints_sketches(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--workflow",
                    "montage",
                    "--ops",
                    "6",
                    "--nodes",
                    "8",
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streaming sketches" in out
        assert "ops.latency_s" in out

    def test_metrics_flag_composes_with_spec(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ScenarioSpec(
                name="cli-metrics-spec",
                surface="workflow",
                application="montage",
                ops_per_task=4,
                n_nodes=8,
            ).to_json()
        )
        assert main(["run", "--spec", str(spec_path), "--metrics"]) == 0
        assert "trace events" in capsys.readouterr().out


class TestElasticityFlags:
    def test_elasticity_lists_policies(self, capsys):
        assert main(["elasticity"]) == 0
        out = capsys.readouterr().out
        for name in ("threshold", "slo_debt", "predictive"):
            assert name in out

    def test_scenarios_table_shows_capability_columns(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "caps" in out
        # The elastic scenarios advertise the control plane; the SLO
        # scenario advertises its lens; plain ones show the dash.
        assert "elastic" in out
        assert "obs+elastic" in out
        assert "slo+elastic" in out
        assert "obs+slo" in out

    def test_run_with_elastic_flags_reports_actions(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--workflow",
                    "montage",
                    "--ops",
                    "10",
                    "--nodes",
                    "4",
                    "--elastic",
                    "threshold",
                    "--elastic-lag",
                    "5",
                    "--elastic-max",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "elastic policy threshold" in out
        assert "vm-seconds" in out

    def test_elastic_knobs_require_elastic_flag(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--workflow",
                    "montage",
                    "--ops",
                    "4",
                    "--elastic-lag",
                    "5",
                ]
            )
            == 2
        )
        assert "--elastic" in capsys.readouterr().err

    def test_elastic_flags_clash_with_spec_file(self, capsys, tmp_path):
        from repro.scenario import get_scenario

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(get_scenario("paper_default").to_json())
        assert (
            main(
                [
                    "run",
                    "--spec",
                    str(spec_path),
                    "--elastic",
                    "threshold",
                ]
            )
            == 2
        )
        assert "--spec" in capsys.readouterr().err

    def test_analyze_elastic_scenario_prints_capacity_timeline(
        self, capsys
    ):
        assert main(["analyze", "autoscale_ramp", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "capacity timeline" in out
        assert "elastic policy predictive" in out

    def test_elastic_artifact_analyzes_from_disk(self, capsys, tmp_path):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        path = store.save(get_scenario("autoscale_ramp").run(quick=True))
        assert main(["analyze", "--artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "elastic policy predictive" in out
        assert "vm-seconds" in out
