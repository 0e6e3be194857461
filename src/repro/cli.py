"""Command-line interface.

::

    python -m repro.cli figures [--quick] [--only fig7]
    python -m repro.cli sweep --scenario paper_synthetic --set strategy.name=dr --set n_nodes=32
    python -m repro.cli advise --workflow montage --ops 1000
    python -m repro.cli advise --file my_workflow.json
    python -m repro.cli run --workflow montage --strategy dr --export out.json
    python -m repro.cli run --workflow montage --tenants 8 --admission max_in_flight --max-in-flight 4
    python -m repro.cli run --workflow montage --dump-spec scenario.json
    python -m repro.cli run --spec scenario.json
    python -m repro.cli trace fanout_bandwidth_aware --quick --out trace.json
    python -m repro.cli run --workflow montage --tenants 4 --metrics
    python -m repro.cli sweep --scenario paper_synthetic --set "strategy.name=centralized,hybrid"
    python -m repro.cli sweep --scenario paper_synthetic --set "seed=0,1,2,3" --jobs 4 --out runs/
    python -m repro.cli results runs/
    python -m repro.cli diff runs-before/ runs-after/
    python -m repro.cli scenarios
    python -m repro.cli strategies
    python -m repro.cli workloads

Every ``run`` invocation compiles its flags into a declarative
``repro.scenario.ScenarioSpec`` first; ``--dump-spec`` writes that spec
as a JSON artifact and ``--spec`` replays one (see ``docs/scenarios.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.analysis.advisor import profile_workflow, recommend_strategy
from repro.elastic import ELASTICITY_NAMES, ELASTICITY_POLICIES
from repro.experiments import (
    run_fig1,
    run_fig3,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig10,
)
from repro.experiments.reporting import render_table
from repro.metadata.controller import STRATEGIES, StrategyName
from repro.scenario import (
    SCENARIOS,
    WORKFLOW_BUILDERS,
    ElasticitySpec,
    ObservabilitySpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    get_scenario,
    run_sweep,
)
from repro.scheduling import SCHEDULERS, SCHEDULER_NAMES
from repro.workload import (
    ADMISSIONS,
    ADMISSION_NAMES,
    APPLICATION_NAMES,
    APPLICATIONS,
    WorkloadSpec,
)
from repro.workflow.serialization import load_workflow
from repro.workflow.traces import characterize

__all__ = ["main", "build_parser"]

FIGURES = {
    "fig1": lambda quick: run_fig1(
        file_counts=(100, 500, 1000) if quick else (100, 500, 1000, 5000)
    ),
    "fig3": lambda quick: run_fig3(),
    "fig5": lambda quick: run_fig5(
        ops_per_node=(100, 250, 500, 1000) if quick else (500, 1000, 5000, 10000),
        n_nodes=32,
    ),
    "fig6": lambda quick: run_fig6(
        n_nodes=32, ops_per_node=1500 if quick else 5000
    ),
    "fig7": lambda quick: run_fig7(
        node_counts=(8, 16, 32, 64) if quick else (8, 16, 32, 64, 128),
        ops_per_node=500 if quick else 5000,
    ),
    "fig8": lambda quick: run_fig8(
        node_counts=(8, 16, 32, 64) if quick else (8, 16, 32, 64, 128),
        total_ops=8000 if quick else 32000,
    ),
    "fig10": lambda quick: run_fig10(
        scenarios=("SS", "MI") if quick else ("SS", "CI", "MI")
    ),
}

#: The workflow-surface applications (one shared name -> builder map,
#: see ``repro.scenario.spec.WORKFLOW_BUILDERS``).
WORKFLOWS = WORKFLOW_BUILDERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figs = sub.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    figs.add_argument("--quick", action="store_true")
    figs.add_argument(
        "--only",
        choices=sorted(FIGURES),
        help="run a single figure instead of all",
    )

    adv = sub.add_parser(
        "advise", help="characterize a workflow and recommend a strategy"
    )
    target = adv.add_mutually_exclusive_group(required=True)
    target.add_argument("--workflow", choices=sorted(WORKFLOWS))
    target.add_argument("--file", help="path to a workflow JSON document")
    adv.add_argument("--ops", type=int, default=1000)
    adv.add_argument("--nodes", type=int, default=32)

    runp = sub.add_parser(
        "run", help="execute a workflow under a strategy and report"
    )
    rtarget = runp.add_mutually_exclusive_group(required=True)
    rtarget.add_argument("--workflow", choices=sorted(WORKFLOWS))
    rtarget.add_argument("--file", help="path to a workflow JSON document")
    rtarget.add_argument(
        "--spec",
        metavar="FILE",
        help=(
            "run a declarative scenario spec (JSON, as written by "
            "--dump-spec or repro.scenario); replaces the direct flags"
        ),
    )
    runp.add_argument(
        "--dump-spec",
        metavar="PATH",
        help=(
            "compile the flags into a scenario spec, write it as JSON "
            "('-' for stdout) and exit without running"
        ),
    )
    runp.add_argument("--strategy", default="hybrid")
    runp.add_argument("--nodes", type=int, default=32)
    runp.add_argument("--ops", type=int, default=100)
    runp.add_argument("--seed", type=int, default=7)
    runp.add_argument(
        "--export",
        metavar="PATH",
        help=(
            "write the run as a scenario-result JSON artifact (the "
            "document sweep --out stores; repro.cli diff takes two)"
        ),
    )
    runp.add_argument(
        "--scheduler",
        choices=SCHEDULER_NAMES,
        default=None,
        help=(
            "task-placement policy (default: locality, the paper's "
            "heuristic); see docs/scheduling.md"
        ),
    )
    runp.add_argument(
        "--hybrid-locality-weight",
        type=float,
        default=1.0,
        help="hybrid scheduler only: locality-term coefficient",
    )
    runp.add_argument(
        "--hybrid-load-weight",
        type=float,
        default=1.0,
        help="hybrid scheduler only: queue-depth-term coefficient",
    )
    runp.add_argument(
        "--hybrid-transfer-weight",
        type=float,
        default=1.0,
        help="hybrid scheduler only: transfer-time-term coefficient",
    )
    runp.add_argument(
        "--bw-pending-penalty",
        type=float,
        default=1.0,
        help=(
            "bandwidth_aware/hybrid schedulers only: pending-bytes "
            "staging pessimism (0 disables)"
        ),
    )
    runp.add_argument(
        "--tenants",
        type=int,
        default=1,
        help=(
            "run a multi-tenant workload: this many tenants submit the "
            "workflow concurrently to one shared deployment (default 1: "
            "single-workflow mode); see docs/workloads.md"
        ),
    )
    runp.add_argument(
        "--instances",
        type=int,
        default=1,
        help="workload mode only: workflow instances per tenant",
    )
    runp.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help=(
            "workload mode only: closed loop (one in flight per tenant, "
            "think time between) or open loop (Poisson arrivals)"
        ),
    )
    runp.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="closed-loop workloads only: seconds between submissions",
    )
    runp.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="open-loop workloads only: Poisson arrivals per second",
    )
    runp.add_argument(
        "--admission",
        choices=ADMISSION_NAMES,
        default=None,
        help=(
            "workload mode only: admission control policy "
            "(default: unbounded)"
        ),
    )
    runp.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help=(
            "admission max_in_flight only: global cap on concurrently "
            "executing workflows"
        ),
    )
    runp.add_argument(
        "--token-rate",
        type=float,
        default=None,
        help=(
            "admission token_bucket only: per-tenant admissions/second"
        ),
    )
    runp.add_argument(
        "--token-burst",
        type=int,
        default=None,
        help="admission token_bucket only: per-tenant burst allowance",
    )
    runp.add_argument(
        "--elastic",
        choices=ELASTICITY_NAMES,
        default=None,
        help=(
            "enable the elastic provisioning control plane with this "
            "policy (docs/elasticity.md); the fleet then starts at "
            "--nodes and is resized at runtime"
        ),
    )
    runp.add_argument(
        "--elastic-min",
        type=int,
        default=1,
        metavar="N",
        help="elastic only: per-site fleet floor (default 1)",
    )
    runp.add_argument(
        "--elastic-max",
        type=int,
        default=8,
        metavar="N",
        help="elastic only: per-site fleet ceiling (default 8)",
    )
    runp.add_argument(
        "--elastic-lag",
        type=float,
        default=30.0,
        metavar="S",
        help=(
            "elastic only: provisioning lag between ordering a VM and "
            "it becoming placeable (default 30s)"
        ),
    )
    runp.add_argument(
        "--elastic-warmup",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "elastic only: warm-up window during which a fresh VM "
            "computes degraded (default 0: none)"
        ),
    )
    runp.add_argument(
        "--elastic-interval",
        type=float,
        default=5.0,
        metavar="S",
        help="elastic only: control-loop sampling interval (default 5s)",
    )
    runp.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "run with the metrics plane enabled and print counters and "
            "latency-sketch quantiles after the report "
            "(docs/observability.md); composes with --spec"
        ),
    )
    _RUN_FLAG_DEFAULTS.update(
        {name: runp.get_default(name) for name in _RUN_SPEC_CLASH_FLAGS}
    )

    tracep = sub.add_parser(
        "trace",
        help=(
            "run a scenario with full tracing and export a Chrome "
            "trace-event file (chrome://tracing, Perfetto)"
        ),
    )
    tracep.add_argument(
        "scenario",
        nargs="?",
        help="named scenario to trace (repro.cli scenarios)",
    )
    tracep.add_argument(
        "--spec",
        metavar="FILE",
        help="trace a scenario spec file instead of a named scenario",
    )
    tracep.add_argument(
        "--out",
        metavar="PATH",
        default="trace.json",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    tracep.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also write the raw event stream as JSON lines",
    )
    tracep.add_argument(
        "--categories",
        metavar="CAT,CAT",
        default=None,
        help=(
            "comma-separated event categories to record "
            "(default: all; see docs/observability.md)"
        ),
    )
    tracep.add_argument(
        "--quick",
        action="store_true",
        help="trace the CI-sized variant of the scenario",
    )

    analyzep = sub.add_parser(
        "analyze",
        help=(
            "trace a scenario and report where the time went: observed "
            "critical path, attribution buckets, hottest site/link, "
            "SLO verdicts (docs/observability.md)"
        ),
    )
    analyzep.add_argument(
        "scenario",
        nargs="?",
        help="named scenario to analyze (repro.cli scenarios)",
    )
    analyzep.add_argument(
        "--spec",
        metavar="FILE",
        help="analyze a scenario spec file instead of a named scenario",
    )
    analyzep.add_argument(
        "--artifact",
        metavar="FILE",
        help=(
            "render the report from a stored run artifact (must carry "
            "an 'analysis' or 'slo' block) instead of running anything"
        ),
    )
    analyzep.add_argument(
        "--quick",
        action="store_true",
        help="analyze the CI-sized variant of the scenario",
    )
    analyzep.add_argument(
        "--out",
        metavar="PATH",
        help="also write the report to a text file",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a cartesian grid of scenario-spec overrides",
    )
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec", metavar="FILE", help="base scenario spec (JSON file)"
    )
    source.add_argument(
        "--scenario",
        metavar="NAME",
        help="base scenario from the named registry (repro.cli scenarios)",
    )
    sweep.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=V1,V2",
        help=(
            "one sweep axis: a dotted spec path with comma-separated "
            "values, e.g. --set strategy.name=centralized,hybrid "
            "(repeatable; axes combine as a cartesian product)"
        ),
    )
    sweep.add_argument(
        "--quick",
        action="store_true",
        help="run each cell at CI-friendly op volumes",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run grid cells in N worker processes (bit-for-bit "
            "identical to serial; default 1)"
        ),
    )
    sweep.add_argument(
        "--out",
        metavar="DIR",
        help=(
            "persist every successful cell as a JSON artifact in a "
            "result store keyed by spec hash + seed (repro.cli results, "
            "repro.cli diff)"
        ),
    )
    sweep.add_argument(
        "--export", metavar="PATH", help="write the sweep table as JSON"
    )

    res = sub.add_parser(
        "results",
        help="list the run artifacts of a result store directory",
    )
    res.add_argument("store", metavar="DIR", help="result store directory")

    diffp = sub.add_parser(
        "diff",
        help=(
            "keyed comparison of two run artifacts or two result-store "
            "directories: metric deltas and changed spec fields"
        ),
    )
    diffp.add_argument(
        "a", metavar="A", help="artifact JSON file or store directory"
    )
    diffp.add_argument(
        "b", metavar="B", help="artifact JSON file or store directory"
    )

    sub.add_parser("strategies", help="list available strategies")
    sub.add_parser(
        "schedulers", help="list available task-placement policies"
    )
    sub.add_parser(
        "workloads",
        help="list workload applications and admission policies",
    )
    sub.add_parser(
        "elasticity",
        help="list elastic autoscaling policies (docs/elasticity.md)",
    )
    sub.add_parser(
        "scenarios",
        help="list the named scenario registry (docs/scenarios.md)",
    )
    return parser


def _resolve_workflow(args):
    if getattr(args, "file", None):
        return load_workflow(args.file)
    return WORKFLOWS[args.workflow](ops_per_task=args.ops)


def _cmd_figures(args) -> int:
    names = [args.only] if args.only else sorted(FIGURES)
    for name in names:
        result = FIGURES[name](args.quick)
        print(f"\n=== {name} ===")
        print(result.render())
    return 0


def _cmd_advise(args) -> int:
    wf = _resolve_workflow(args)
    ch = characterize(wf)
    print(
        render_table(
            ["feature", "value"],
            [
                ["tasks", ch.n_tasks],
                ["files", ch.n_files],
                ["mean file size (B)", ch.mean_file_size],
                ["small-file fraction", f"{ch.small_file_fraction:.0%}"],
                ["ops per task", ch.metadata_ops_per_task],
                ["read/write ratio", ch.read_write_ratio],
                ["dominant pattern", ch.dominant_pattern],
                ["metadata-intensive", ch.is_metadata_intensive()],
            ],
            title=f"characterization: {wf.name}",
        )
    )
    prof = profile_workflow(wf, n_sites=4, n_nodes=args.nodes)
    strategy, reasons = recommend_strategy(prof)
    print(f"\nrecommended strategy: {strategy}")
    for r in reasons:
        print(f"  - {r}")
    return 0


#: ``run`` flags that ``--spec`` replaces; every one must be left at
#: its parser default when a spec file is given (the spec is the
#: single source of truth).  Defaults are captured from the parser
#: itself in :func:`build_parser`, so they can never desync.
_RUN_SPEC_CLASH_FLAGS = (
    "strategy",
    "nodes",
    "ops",
    "seed",
    "scheduler",
    "hybrid_locality_weight",
    "hybrid_load_weight",
    "hybrid_transfer_weight",
    "bw_pending_penalty",
    "tenants",
    "instances",
    "mode",
    "think_time",
    "arrival_rate",
    "admission",
    "max_in_flight",
    "token_rate",
    "token_burst",
    "elastic",
    "elastic_min",
    "elastic_max",
    "elastic_lag",
    "elastic_warmup",
    "elastic_interval",
)
_RUN_FLAG_DEFAULTS: dict = {}


def _spec_from_run_args(args) -> ScenarioSpec:
    """Compile ``run`` flags into a validated :class:`ScenarioSpec`.

    This is the whole point of ``--dump-spec``: the spec *is* the
    invocation, so any flag combination is reproducible from the JSON
    artifact alone.
    """
    if args.tenants <= 0:
        raise ValueError("--tenants must be positive")
    if args.tenants > 1 and getattr(args, "file", None):
        raise ValueError(
            "--tenants applies to built-in applications only "
            "(--workflow), not --file"
        )
    if args.tenants == 1 and (
        args.admission is not None
        or args.instances != 1
        or args.mode != "closed"
        or args.think_time != 0.0
        or args.arrival_rate is not None
    ):
        # Mirrors the experiment runner's --with-workloads guard:
        # silently running a single workflow would masquerade as an
        # admission-controlled multi-tenant run.
        raise ValueError(
            "--admission/--instances/--mode/--think-time/"
            "--arrival-rate require --tenants > 1"
        )
    if args.elastic is None and (
        args.elastic_min != 1
        or args.elastic_max != 8
        or args.elastic_lag != 30.0
        or args.elastic_warmup != 0.0
        or args.elastic_interval != 5.0
    ):
        raise ValueError(
            "--elastic-min/--elastic-max/--elastic-lag/--elastic-warmup/"
            "--elastic-interval require --elastic POLICY"
        )
    elasticity = ElasticitySpec()
    if args.elastic is not None:
        elasticity = ElasticitySpec(
            enabled=True,
            policy=args.elastic,
            interval_s=args.elastic_interval,
            lag_s=args.elastic_lag,
            warmup_s=args.elastic_warmup,
            min_vms_per_site=args.elastic_min,
            max_vms_per_site=args.elastic_max,
        )
    scheduler = SchedulerSpec(
        name=args.scheduler,
        hybrid_locality_weight=args.hybrid_locality_weight,
        hybrid_load_weight=args.hybrid_load_weight,
        hybrid_transfer_weight=args.hybrid_transfer_weight,
        bw_pending_penalty=args.bw_pending_penalty,
    )
    if args.tenants > 1:
        spec = ScenarioSpec(
            name=f"cli-{args.workflow}-x{args.tenants}",
            surface="workload",
            strategy=StrategySpec(name=args.strategy),
            scheduler=scheduler,
            workload=WorkloadSpec.uniform(
                args.tenants,
                applications=(args.workflow,),
                mode=args.mode,
                n_instances=args.instances,
                think_time=args.think_time,
                arrival_rate=args.arrival_rate,
                input_sites=ScenarioSpec().topology.site_names(),
                ops_per_task=args.ops,
                seed=args.seed,
                name=args.workflow,
            ),
            admission=args.admission,
            max_in_flight=args.max_in_flight,
            token_rate=args.token_rate,
            token_burst=args.token_burst,
            elasticity=elasticity,
            n_nodes=args.nodes,
            seed=args.seed,
        )
    else:
        spec = ScenarioSpec(
            name=f"cli-{args.workflow or 'file'}",
            surface="workflow",
            strategy=StrategySpec(name=args.strategy),
            scheduler=scheduler,
            application=args.workflow or "montage",
            workflow_file=getattr(args, "file", None),
            ops_per_task=args.ops,
            elasticity=elasticity,
            n_nodes=args.nodes,
            seed=args.seed,
        )
    spec.validate()
    return spec


#: What a bad scenario target raises: ``ValueError`` from validation
#: and unknown names, ``TypeError`` from hand-edited spec JSON with a
#: wrong value type (e.g. a string ``n_nodes``), ``OSError`` from an
#: unreadable file.  Every subcommand maps them to exit status 2.
_SPEC_ERRORS = (ValueError, TypeError, OSError)


def _load_spec(args) -> ScenarioSpec:
    """The validated scenario a subcommand targets.

    ``args.spec`` names a spec file; otherwise ``args.scenario`` names
    a registry entry.  Raises one of :data:`_SPEC_ERRORS`.
    """
    if args.spec:
        spec = ScenarioSpec.load(args.spec)
    else:
        spec = get_scenario(args.scenario)
    spec.validate()
    return spec


def _cmd_run(args) -> int:
    if not _RUN_FLAG_DEFAULTS:
        build_parser()  # populate the clash-check defaults
    try:
        if args.spec:
            clashing = sorted(
                f"--{flag.replace('_', '-')}"
                for flag, default in _RUN_FLAG_DEFAULTS.items()
                if getattr(args, flag) != default
            )
            if clashing:
                raise ValueError(
                    f"--spec replaces the direct run flags ({', '.join(clashing)} "
                    "given); edit the spec file, or sweep overrides with "
                    "`repro.cli sweep --spec ... --set path=value`"
                )
            spec = _load_spec(args)
        else:
            spec = _spec_from_run_args(args)
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics and not spec.observability.enabled:
        spec = spec.replace(observability=ObservabilitySpec(enabled=True))
    if args.dump_spec:
        text = spec.to_json()
        if args.dump_spec == "-":
            print(text)
        else:
            with open(args.dump_spec, "w") as fh:
                fh.write(text + "\n")
            print(f"spec written to {args.dump_spec}")
        return 0
    try:
        result = spec.run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.metrics and result.obs is not None:
        print()
        print(_render_obs(result.obs))
    if args.export:
        from repro.results import scenario_result_to_dict

        doc = scenario_result_to_dict(result)
        with open(args.export, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nresult written to {args.export}")
    return 0


def _render_obs(obs: dict) -> str:
    """The metrics-plane summary tables of one traced run."""
    parts = []
    events = obs.get("events") or {}
    if events:
        rows = [[cat, n] for cat, n in sorted(events.items())]
        rows.append(["(spans)", obs.get("n_spans", 0)])
        if obs.get("dropped"):
            rows.append(["(dropped)", obs["dropped"]])
        parts.append(
            render_table(
                ["category", "events"], rows, title="trace events"
            )
        )
    metrics = obs.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        rows = [[name, v] for name, v in sorted(counters.items())]
        parts.append(render_table(["counter", "value"], rows))
    histograms = metrics.get("histograms") or {}
    if histograms:
        rows = [
            [
                name,
                int(h["count"]),
                f"{h['mean']:.6f}",
                f"{h['p50']:.6f}",
                f"{h['p90']:.6f}",
                f"{h['p99']:.6f}",
            ]
            for name, h in sorted(histograms.items())
        ]
        parts.append(
            render_table(
                ["latency histogram", "n", "mean", "p50", "p90", "p99"],
                rows,
                title="streaming sketches (seconds)",
            )
        )
    return "\n\n".join(parts) if parts else "no metrics recorded"


def _cmd_trace(args) -> int:
    from repro.obs import write_chrome_trace, write_jsonl

    try:
        if bool(args.scenario) == bool(args.spec):
            raise ValueError(
                "trace takes exactly one target: a scenario name or "
                "--spec FILE"
            )
        spec = _load_spec(args)
        categories = (
            tuple(c.strip() for c in args.categories.split(",") if c.strip())
            if args.categories
            else None
        )
        spec = spec.replace(
            observability=ObservabilitySpec(
                enabled=True, categories=categories
            )
        )
        spec.validate()
        result = spec.run(quick=args.quick)
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_chrome_trace(result.tracer, args.out)
    if args.jsonl:
        write_jsonl(result.tracer, args.jsonl)
    obs = result.obs or {}
    total = obs.get("n_events", 0)
    print(
        f"traced {spec.name}: {total} events, "
        f"{obs.get('n_spans', 0)} spans "
        f"({obs.get('dropped', 0)} dropped)"
    )
    print(f"chrome trace written to {args.out}")
    if args.jsonl:
        print(f"event stream written to {args.jsonl}")
    print()
    print(_render_obs(obs))
    return 0


def _render_slo_dict(slo: dict) -> str:
    """The SLO verdict table from an artifact's (or fresh run's)
    serialized ``slo`` block."""
    head = f"SLO verdict: {slo.get('status', '?')}"
    if slo.get("n_violated"):
        head += (
            f" ({slo['n_violated']} rule(s) violated, total debt "
            f"{slo.get('total_debt', 0.0):.3g}"
        )
        first = slo.get("first_violation_at")
        if first is not None:
            head += f", first violation at t={first:.3g}s"
        head += ")"
    rows = []
    for rule in slo.get("rules", []):
        observed = rule.get("observed")
        first = rule.get("first_violation_at")
        rows.append(
            [
                rule.get("rule", "?"),
                rule.get("status", "?"),
                f"{observed:.4g}" if observed is not None else "--",
                f"{rule.get('target', 0.0):.4g}",
                f"{rule.get('debt', 0.0):.4g}",
                f"{first:.4g}" if first is not None else "--",
                rule.get("note", ""),
            ]
        )
    if not rows:
        return head
    return head + "\n" + render_table(
        ["rule", "status", "observed", "target", "debt", "first at", "note"],
        rows,
    )


def _render_analysis(analysis: dict) -> str:
    """The bottleneck report from a serialized ``analysis`` block."""
    parts = []
    buckets = analysis.get("buckets") or {}
    total = sum(buckets.values())
    workflows = analysis.get("workflows") or []
    if buckets and total > 0:
        rows = [
            [bucket, f"{seconds:.3f}", f"{seconds / total:.1%}"]
            for bucket, seconds in sorted(
                buckets.items(), key=lambda kv: -kv[1]
            )
        ]
        top = rows[0][0]
        parts.append(
            render_table(
                ["bucket", "seconds", "share"],
                rows,
                title=(
                    f"time attribution over {len(workflows)} "
                    f"workflow(s) -- bottleneck: {top}"
                ),
            )
        )
    if workflows:
        slowest = max(workflows, key=lambda w: w.get("makespan", 0.0))
        rows = []
        for step in slowest.get("path", []):
            rows.append(
                [
                    step.get("task", "?"),
                    step.get("site", "?"),
                    f"{step.get('start', 0.0):.2f}",
                    f"{step.get('end', 0.0) - step.get('start', 0.0):.2f}",
                    f"{step.get('wait_before', 0.0):.2f}",
                    f"{step.get('compute', 0.0):.2f}",
                    f"{step.get('metadata', 0.0):.2f}",
                    f"{step.get('wan_transfer', 0.0):.2f}",
                ]
            )
        parts.append(
            render_table(
                [
                    "task", "site", "start", "dur (s)", "wait",
                    "compute", "metadata", "transfer",
                ],
                rows,
                title=(
                    f"observed critical path of {slowest.get('run', '?')!r}"
                    f" -- {len(rows)} of {slowest.get('n_tasks', 0)} tasks,"
                    f" makespan {slowest.get('makespan', 0.0):.3f}s"
                ),
            )
        )
    sites = analysis.get("sites") or {}
    if sites:
        rows = [
            [
                key,
                s.get("vms_seen", 0),
                s.get("peak", 0),
                f"{s.get('mean', 0.0):.2f}",
                f"{s.get('busy_s', 0.0):.2f}",
                f"{s.get('idle_fraction', 0.0):.1%}",
            ]
            for key, s in sorted(
                sites.items(), key=lambda kv: -kv[1].get("busy_s", 0.0)
            )
        ]
        parts.append(
            render_table(
                ["site", "vms", "peak", "mean", "busy (s)", "idle"],
                rows,
                title=(
                    "VM occupancy by site -- hottest: "
                    f"{analysis.get('hottest_site') or '-'}"
                ),
            )
        )
    links = analysis.get("links") or {}
    if links:
        ranked = sorted(
            links.items(), key=lambda kv: -kv[1].get("busy_s", 0.0)
        )
        rows = [
            [
                key,
                s.get("n_intervals", 0),
                f"{s.get('bytes', 0.0) / 1e6:.1f}",
                s.get("peak", 0),
                f"{s.get('busy_s', 0.0):.2f}",
                f"{s.get('idle_fraction', 0.0):.1%}",
            ]
            for key, s in ranked[:10]
        ]
        title = (
            "WAN link busy time -- hottest: "
            f"{analysis.get('hottest_link') or '-'}"
        )
        if len(ranked) > 10:
            title += f" (top 10 of {len(ranked)})"
        parts.append(
            render_table(
                ["link", "transfers", "MB", "peak flows", "busy (s)", "idle"],
                rows,
                title=title,
            )
        )
    registry_wait = analysis.get("registry_wait") or {}
    if registry_wait:
        rows = [
            [
                site,
                int(w.get("count", 0)),
                f"{w.get('total_s', 0.0):.3f}",
                f"{w.get('max_s', 0.0):.4f}",
            ]
            for site, w in sorted(
                registry_wait.items(),
                key=lambda kv: -kv[1].get("total_s", 0.0),
            )
        ]
        parts.append(
            render_table(
                ["registry site", "waits", "total (s)", "max (s)"],
                rows,
                title="registry slot-wait pressure",
            )
        )
    if not analysis.get("complete", True):
        parts.append(
            "warning: the tracer dropped events (max_events budget hit);"
            " this analysis is partial"
        )
    if not parts:
        parts.append(
            "no task spans recorded -- nothing to analyze (the "
            "synthetic surface has no workflow tasks)"
        )
    return "\n\n".join(parts)


def _render_capacity_timeline(timeline: dict) -> str:
    """The elastic fleet's placeable-VM step series, per site."""
    rows = [
        [site, f"{t:.2f}", vms]
        for site in sorted(timeline)
        for t, vms in timeline[site]
    ]
    return render_table(
        ["site", "t (s)", "placeable VMs"],
        rows,
        title="capacity timeline (elastic fleet, placeable VMs by site)",
    )


def _render_elastic_dict(el: dict) -> str:
    """The elastic summary from an artifact's serialized block."""
    head = (
        f"elastic policy {el.get('policy', '?')}: "
        f"{el.get('n_scale_ups', 0)} scale-up(s), "
        f"{el.get('n_scale_downs', 0)} scale-down(s); fleet "
        f"{el.get('fleet_initial', 0)} -> peak {el.get('fleet_peak', 0)} "
        f"-> final {el.get('fleet_final', 0)}; "
        f"{el.get('vm_seconds', 0.0):.1f} vm-seconds"
    )
    rows = [
        [f"{a.get('t', 0.0):.2f}", a.get("site", "?"), a.get("delta", 0)]
        for a in el.get("actions", [])
    ]
    if not rows:
        return head
    return head + "\n" + render_table(["t (s)", "site", "delta"], rows)


def _cmd_analyze(args) -> int:
    targets = [
        bool(args.scenario), bool(args.spec), bool(args.artifact)
    ]
    try:
        if sum(targets) != 1:
            raise ValueError(
                "analyze takes exactly one target: a scenario name, "
                "--spec FILE or --artifact FILE"
            )
        if args.artifact:
            with open(args.artifact) as fh:
                doc = json.load(fh)
            analysis = doc.get("analysis")
            slo = doc.get("slo")
            if analysis is None and slo is None:
                raise ValueError(
                    f"{args.artifact} carries no 'analysis' or 'slo' "
                    "block; re-run it traced (repro.cli analyze "
                    "<scenario>) or with an slo spec to get one"
                )
            parts = [
                f"analysis of stored run {doc.get('name', '?')!r} "
                f"(surface {doc.get('surface', '?')}, makespan "
                f"{doc.get('metrics', {}).get('makespan_s', 0.0):.3f}s)"
            ]
            if analysis is not None:
                parts.append(_render_analysis(analysis))
            if doc.get("elastic") is not None:
                parts.append(_render_elastic_dict(doc["elastic"]))
            parts.append(
                _render_slo_dict(slo)
                if slo is not None
                else "SLO: none declared"
            )
            report = "\n\n".join(parts)
        else:
            spec = _load_spec(args)
            obs = spec.observability
            if not obs.enabled:
                obs = ObservabilitySpec(enabled=True)
            elif obs.categories is not None and (
                "span" not in obs.categories
            ):
                # Critical-path analysis needs spans; widen to all.
                obs = dataclasses.replace(obs, categories=None)
            spec = spec.replace(observability=obs)
            spec.validate()
            result = spec.run(quick=args.quick)
            parts = [
                f"analyzed {spec.name!r} (surface {result.surface}, "
                f"makespan {result.makespan:.3f}s)"
            ]
            if result.analysis is not None:
                parts.append(_render_analysis(result.analysis.to_dict()))
            if result.elastic is not None:
                from repro.obs import capacity_timeline

                parts.append(result.elastic.render())
                timeline = (
                    capacity_timeline(result.tracer)
                    if result.tracer is not None
                    else {}
                )
                if timeline:
                    parts.append(_render_capacity_timeline(timeline))
            parts.append(
                _render_slo_dict(result.slo.to_dict())
                if result.slo is not None
                else "SLO: none declared"
            )
            report = "\n\n".join(parts)
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_strategies(_args) -> int:
    rows = []
    for name in sorted(STRATEGIES):
        cls = STRATEGIES[name]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        core = "core" if name in StrategyName.all() else "extension"
        rows.append([name, core, doc])
    print(render_table(["name", "kind", "summary"], rows))
    return 0


def _cmd_schedulers(_args) -> int:
    rows = []
    for name in SCHEDULER_NAMES:
        doc = (SCHEDULERS[name].__doc__ or "").strip().splitlines()[0]
        rows.append([name, doc])
    print(render_table(["name", "summary"], rows))
    return 0


def _cmd_scenarios(_args) -> int:
    rows = []
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        knobs = [
            spec.strategy.name,
            spec.scheduler.name or "locality",
            spec.network.bandwidth_model or "slots",
            f"{spec.n_nodes}n",
        ]
        if spec.workload is not None:
            knobs.append(f"{spec.workload.n_tenants} tenants")
        if spec.faults:
            knobs.append(f"{len(spec.faults)} faults")
        # Compact capability column: which optional planes the scenario
        # exercises (observability / SLO judgement / elastic fleet).
        caps = "+".join(
            label
            for label, on in (
                ("obs", spec.observability.enabled),
                ("slo", spec.slo is not None and not spec.slo.empty),
                ("elastic", spec.elasticity.enabled),
            )
            if on
        )
        rows.append(
            [
                name,
                spec.surface,
                "/".join(knobs),
                caps or "-",
                spec.description,
            ]
        )
    print(
        render_table(
            ["name", "surface", "key knobs", "caps", "summary"],
            rows,
            title="named scenarios (repro.cli run --spec / repro.cli sweep)",
        )
    )
    return 0


def _parse_sweep_value(text: str):
    """One override value: JSON scalar when it parses, else a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _cmd_sweep(args) -> int:
    try:
        base = _load_spec(args)
        axes = {}
        for item in args.overrides:
            path, eq, values = item.partition("=")
            if not eq or not path:
                raise ValueError(
                    f"bad --set {item!r}; expected dotted.path=v1,v2"
                )
            axes[path] = tuple(
                _parse_sweep_value(v) for v in values.split(",")
            )
        if not axes:
            raise ValueError("sweep needs at least one --set axis")
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        result = run_sweep(base, axes, quick=args.quick, jobs=args.jobs)
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    errored = result.errored_cells()
    if errored:
        print(
            f"\nwarning: {len(errored)} of {len(result.cells)} cells "
            "errored (marked inline above)",
            file=sys.stderr,
        )
    if args.out:
        from repro.results import ResultStore, current_git_rev

        store = ResultStore(args.out)
        rev = current_git_rev()
        for cell in result.ok_cells():
            store.save(
                cell.result,
                overrides=cell.overrides,
                git_rev=rev,
                wall_time_s=cell.wall_time_s,
            )
        print(
            f"\n{len(result.ok_cells())} artifacts written to "
            f"store {args.out}"
        )
    if args.export:
        doc = {
            "base": base.to_dict(),
            "axes": {k: list(v) for k, v in result.axes.items()},
            "cells": [
                {
                    "overrides": cell.overrides,
                    "makespan": (
                        cell.result.makespan if cell.ok else None
                    ),
                    "error": cell.error,
                }
                for cell in result.cells
            ],
        }
        with open(args.export, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"\nsweep written to {args.export}")
    return 0


def _cmd_results(args) -> int:
    from repro.results import ResultStore

    store = ResultStore(args.store)
    docs = store.list()
    if not docs:
        print(f"error: no artifacts in {args.store}", file=sys.stderr)
        return 2
    rows = []
    for doc in docs:
        meta = doc.get("meta") or {}
        wall = meta.get("wall_time_s")
        # Pre-obs / pre-SLO artifacts simply show "-" in these columns.
        obs = doc.get("obs")
        if obs is not None:
            obs_label = f"{obs.get('n_events', 0)} ev"
            if doc.get("analysis") is not None:
                obs_label += "+an"
        else:
            obs_label = "-"
        slo_block = doc.get("slo")
        rows.append(
            [
                doc["key"],
                doc.get("name", "?"),
                doc.get("surface", "?"),
                f"{doc.get('metrics', {}).get('makespan_s', 0.0):.3f}",
                obs_label,
                slo_block.get("status", "?") if slo_block else "-",
                (doc.get("provenance") or {}).get("flow_solver") or "-",
                meta.get("git_rev") or "-",
                f"{wall:.2f}" if wall is not None else "-",
            ]
        )
    print(
        render_table(
            [
                "key", "scenario", "surface", "makespan (s)", "obs",
                "SLO", "flow solver", "rev", "wall (s)",
            ],
            rows,
            title=f"result store {args.store} -- {len(docs)} artifacts",
        )
    )
    return 0


def _cmd_diff(args) -> int:
    import os

    from repro.results import diff_artifacts, diff_stores

    try:
        if os.path.isdir(args.a) and os.path.isdir(args.b):
            print(diff_stores(args.a, args.b).render())
            return 0
        if os.path.isfile(args.a) and os.path.isfile(args.b):
            with open(args.a) as fh:
                doc_a = json.load(fh)
            with open(args.b) as fh:
                doc_b = json.load(fh)
            print(
                diff_artifacts(
                    doc_a, doc_b, a_label=args.a, b_label=args.b
                ).render()
            )
            return 0
        raise ValueError(
            "diff takes two artifact files or two store directories "
            f"(got {args.a!r}, {args.b!r})"
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_elasticity(_args) -> int:
    rows = []
    for name in ELASTICITY_NAMES:
        doc = (ELASTICITY_POLICIES[name].__doc__ or "")
        rows.append([name, doc.strip().splitlines()[0]])
    print(
        render_table(
            ["policy", "summary"],
            rows,
            title=(
                "elastic autoscaling policies "
                "(repro.cli run --elastic POLICY; docs/elasticity.md)"
            ),
        )
    )
    return 0


def _cmd_workloads(_args) -> int:
    rows = []
    for name in APPLICATION_NAMES:
        # Builders are lambdas; describe via the built DAG's shape.
        from repro.workload import TenantSpec

        wf = APPLICATIONS[name](TenantSpec(name="probe", application=name))
        rows.append([name, len(wf), len(wf.levels())])
    print(
        render_table(
            ["application", "tasks", "stages"],
            rows,
            title="workload applications",
        )
    )
    print()
    rows = []
    for name in ADMISSION_NAMES:
        doc = (ADMISSIONS[name].__doc__ or "").strip().splitlines()[0]
        rows.append([name, doc])
    print(
        render_table(
            ["admission policy", "summary"],
            rows,
            title="admission control",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figures": _cmd_figures,
        "advise": _cmd_advise,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "results": _cmd_results,
        "diff": _cmd_diff,
        "strategies": _cmd_strategies,
        "schedulers": _cmd_schedulers,
        "workloads": _cmd_workloads,
        "elasticity": _cmd_elasticity,
        "scenarios": _cmd_scenarios,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
