#!/usr/bin/env python
"""Kernel profiling harness + synthetic churn benchmarks.

Three subcommands::

    python benchmarks/profile_kernel.py profile [--scenario NAME]
                                                [--sort tottime] [--top 25]
    python benchmarks/profile_kernel.py churn   [--merge-into BENCH.json]
                                                [--json PATH] [--runs 2]
    python benchmarks/profile_kernel.py trace-cost [--seed 0]

``profile`` runs one pinned bench scenario (from ``scripts/bench.py``)
under :mod:`cProfile` and prints the hottest functions -- this is the
workflow that located every optimization in the speedup PR (the event
calendar, the water-filling re-solve, per-op stats allocation).

``churn`` runs the synthetic churn workloads that isolate the two
algorithmic changes, measuring each against its retained "before"
implementation *in the same process, on the same inputs*:

- **flow churn**: many independent constraint components with flows
  opening/completing/aborting concurrently.  ``solver="global"`` is the
  seed algorithm (full re-solve on every perturbation, kept as a debug
  mode); ``solver="incremental"`` re-solves only the perturbed
  component.  Results are checked identical before the speedup is
  reported.
- **reschedule churn**: rebalance-style timer churn (every perturbation
  reschedules many pending completions).  "Before" disables dead-entry
  compaction (the seed behavior: lazily-deleted entries pile up in the
  calendar); "after" is the shipped 50%-dead compaction threshold.

``trace-cost`` runs the benchmark's traced ``tenants_traced`` workload
once and prints, per trace category, the retained rows and the bytes
the tracer's lane store keeps for them (the table in
``docs/observability.md``).

``--merge-into BENCH_<rev>.json`` embeds the results under a ``churn``
key of an existing bench-trajectory document (see ``scripts/bench.py``),
which is how the committed ``BENCH_<rev>.json`` carries both the pinned
scenario walls and the churn-scenario speedups.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cloud.flow import FlowAborted, FlowNetwork  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.sim import core as sim_core  # noqa: E402

LINK_CAP = 100.0


# -- cProfile over a pinned scenario ---------------------------------------


def run_profile(scenario: str, sort: str, top: int) -> None:
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench import pinned_scenarios

    specs = dict(pinned_scenarios())
    if scenario not in specs:
        raise SystemExit(
            f"unknown scenario {scenario!r}; pinned: {sorted(specs)}"
        )
    spec = specs[scenario]
    prof = cProfile.Profile()
    prof.enable()
    spec.run(quick=True)
    prof.disable()
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)


# -- retained trace memory per category -----------------------------------


def _owned_bytes(values, seen) -> int:
    """Sizes of the value objects in ``values`` not counted before.

    Singletons and cached small ints cost nothing; a dict value (the
    scheduler's ``scores``) counts with its own values.
    """
    total = 0
    for v in values:
        if v is None or isinstance(v, bool) or id(v) in seen:
            continue
        if type(v) is int and -5 <= v <= 256:
            continue
        seen.add(id(v))
        total += sys.getsizeof(v)
        if isinstance(v, dict):
            total += _owned_bytes(v.values(), seen)
    return total


def trace_cost(tracer):
    """``category -> [rows, retained bytes]`` of a lane-store tracer.

    A row costs its share of the lane columns (list over-allocation
    included), its lane id (the order array, or a span's lane and end
    slots and any ``finish()`` extras) and the value objects it is the
    first row to reference.  Values the simulation also holds (site
    names, registry keys) are counted too, so the bytes are an upper
    bound on what dropping the trace would free.
    """
    seen: set = set()
    cost = {}

    def add(cat, rows, nbytes):
        entry = cost.setdefault(cat, [0, 0])
        entry[0] += rows
        entry[1] += nbytes

    for lane in tracer._lanes:
        columns = [lane.ts, *lane.cols]
        add(lane.cat, len(lane.ts), tracer._order.itemsize * len(lane.ts)
            + sum(sys.getsizeof(c) + _owned_bytes(c, seen) for c in columns))
    for lane in tracer._span_lanes:
        columns = [lane.ts, *lane.cols]
        add(lane.cat, len(lane.ts),
            sum(sys.getsizeof(c) + _owned_bytes(c, seen) for c in columns))
    cat_of = [tracer._span_lanes[lane_id].cat for lane_id in tracer._span_lane]
    per_span = tracer._span_lane.itemsize + 8  # lane id + end slot
    for sid, end in enumerate(tracer._span_end):
        add(cat_of[sid], 0, per_span + _owned_bytes((end,), seen))
    for sids, cols in tracer._extras.values():
        for j, sid in enumerate(sids):
            values = [col[j] for col in cols]
            add(cat_of[sid], 0, sids.itemsize + 8 * len(values)
                + _owned_bytes(values, seen))
    return cost


def run_trace_cost(seed: int) -> None:
    """Print the per-category cost table of one ``tenants_traced`` run."""
    sys.path.insert(0, str(REPO_ROOT))
    from perfbench.workloads import build_spec

    tracer = build_spec("tenants_traced", seed).run().tracer
    cost = trace_cost(tracer)
    rows = sum(r for r, _ in cost.values())
    nbytes = sum(b for _, b in cost.values())
    print("| category | rows | retained MiB | bytes/row |")
    print("|----------|-----:|-------------:|----------:|")
    for cat, (r, b) in sorted(cost.items(), key=lambda kv: -kv[1][1]):
        print(f"| {cat} | {r:,} | {b / 2**20:.2f} | {b / r:.0f} |")
    print(f"| all | {rows:,} | {nbytes / 2**20:.2f} | {nbytes / rows:.0f} |")
    print(f"\nmax_events=1_000_000 at this mix: "
          f"{nbytes / rows * 1e6 / 2**20:.0f} MiB")


# -- flow churn: incremental vs global water-filling -----------------------


def _flow_churn(solver: str, components: int,
                flows_per_component: int, seed: int):
    """Seeded churn over ``components`` disjoint 3-site meshes.

    Returns a completion trace so callers can assert the two solvers
    produced identical simulations before trusting the wall times.
    """
    env = Environment()
    egress = {}
    ingress = {}
    sites = []
    for c in range(components):
        trio = tuple(f"s{c}_{i}" for i in range(3))
        sites.append(trio)
        egress[trio[0]] = LINK_CAP * 1.2
        ingress[trio[1]] = LINK_CAP * 0.8
    fn = FlowNetwork(
        env,
        site_caps=lambda s: (
            egress.get(s, math.inf),
            ingress.get(s, math.inf),
        ),
        solver=solver,
    )
    for trio in sites:
        for src in trio:
            for dst in trio:
                if src != dst:
                    fn.link(src, dst, capacity=LINK_CAP)
    rng = random.Random(seed)
    trace = []

    def client(i, trio):
        yield env.timeout(rng.random() * 10.0)
        src, dst = rng.sample(trio, 2)
        link = fn.link(src, dst, capacity=LINK_CAP)
        flow = link.open(
            size=rng.randrange(100, 5000),
            weight=rng.choice([0.5, 1.0, 2.0]),
        )
        if i % 11 == 0:
            yield env.timeout(rng.random())
            if flow in link.flows:
                link.abort(flow, reason="churn")
        try:
            yield flow.done
            trace.append(("done", i, round(env.now, 6)))
        except FlowAborted:
            trace.append(("aborted", i, round(env.now, 6)))

    i = 0
    for trio in sites:
        for _ in range(flows_per_component):
            env.process(client(i, trio))
            i += 1
    env.run()
    return trace


def bench_flow_churn(components: int, flows_per_component: int,
                     runs: int, seed: int = 42):
    walls = {}
    traces = {}
    for solver in ("global", "incremental"):
        best = math.inf
        for _ in range(runs):
            t0 = time.perf_counter()
            traces[solver] = _flow_churn(
                solver, components, flows_per_component, seed
            )
            best = min(best, time.perf_counter() - t0)
        walls[solver] = best
    return {
        "components": components,
        "flows": components * flows_per_component,
        "wall_global_s": round(walls["global"], 4),
        "wall_incremental_s": round(walls["incremental"], 4),
        "speedup": round(walls["global"] / walls["incremental"], 2),
        "identical_results": traces["global"] == traces["incremental"],
    }


# -- reschedule churn: compaction vs unbounded lazy deletion ---------------


def _reschedule_churn(live: int, rounds: int):
    """Rebalance-style churn: every round reschedules all live timers.

    Returns (wall_seconds, max_queue_len) for the current value of
    ``sim_core._COMPACT_MIN`` (set above the churn volume to emulate the
    pre-compaction kernel, where every reschedule leaks a dead entry).
    """
    env = Environment()
    events = [env.timeout(1e6 + i) for i in range(live)]
    max_queue = 0
    t0 = time.perf_counter()
    for r in range(rounds):
        for ev in events:
            env.reschedule(ev, 1e6 + r)
        max_queue = max(max_queue, env.queued)
    env.run(until=1e6)
    wall = time.perf_counter() - t0
    return wall, max_queue


def bench_reschedule_churn(live: int, rounds: int, runs: int):
    results = {}
    threshold = sim_core._COMPACT_MIN
    for mode in ("no_compaction", "compaction"):
        sim_core._COMPACT_MIN = (
            live * rounds * 2 if mode == "no_compaction" else threshold
        )
        try:
            best = (math.inf, 0)
            for _ in range(runs):
                wall, max_queue = _reschedule_churn(live, rounds)
                if wall < best[0]:
                    best = (wall, max_queue)
            results[mode] = best
        finally:
            sim_core._COMPACT_MIN = threshold
    return {
        "live_events": live,
        "reschedules": live * rounds,
        "wall_no_compaction_s": round(results["no_compaction"][0], 4),
        "wall_compaction_s": round(results["compaction"][0], 4),
        "speedup": round(
            results["no_compaction"][0] / results["compaction"][0], 2
        ),
        "max_queue_no_compaction": results["no_compaction"][1],
        "max_queue_compaction": results["compaction"][1],
    }


def run_churn(runs: int):
    # Sized so the "before" (global / no-compaction) legs finish in a
    # few seconds each; the speedups grow with component count and
    # churn volume, so these are conservative demonstrations.
    doc = {
        "flow_churn_8c": bench_flow_churn(8, 80, runs),
        "flow_churn_16c": bench_flow_churn(16, 80, runs),
        "reschedule_churn": bench_reschedule_churn(256, 400, runs),
    }
    before = sum(
        v.get("wall_global_s", v.get("wall_no_compaction_s"))
        for v in doc.values()
    )
    after = sum(
        v.get("wall_incremental_s", v.get("wall_compaction_s"))
        for v in doc.values()
    )
    doc["aggregate"] = {
        "wall_before_s": round(before, 4),
        "wall_after_s": round(after, 4),
        "speedup": round(before / after, 2),
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_prof = sub.add_parser("profile", help="cProfile one pinned scenario")
    p_prof.add_argument("--scenario", default="fig5_synthetic")
    p_prof.add_argument("--sort", default="tottime")
    p_prof.add_argument("--top", type=int, default=25)

    p_cost = sub.add_parser(
        "trace-cost",
        help="retained trace rows and bytes per category (tenants_traced)",
    )
    p_cost.add_argument("--seed", type=int, default=0)

    p_churn = sub.add_parser("churn", help="run the churn benchmarks")
    p_churn.add_argument("--runs", type=int, default=2,
                         help="take the best of N runs (default 2)")
    p_churn.add_argument("--json", default=None, metavar="PATH",
                         help="write the churn document to PATH")
    p_churn.add_argument("--merge-into", default=None, metavar="BENCH",
                         help="embed under the 'churn' key of a "
                              "BENCH_<rev>.json trajectory file")

    args = parser.parse_args(argv)
    if args.cmd == "profile":
        run_profile(args.scenario, args.sort, args.top)
        return 0
    if args.cmd == "trace-cost":
        run_trace_cost(args.seed)
        return 0

    doc = run_churn(args.runs)
    for name, entry in doc.items():
        if name == "aggregate":
            continue
        print(
            f"{name:<22} before {entry.get('wall_global_s', entry.get('wall_no_compaction_s')):7.3f}s"
            f"  after {entry.get('wall_incremental_s', entry.get('wall_compaction_s')):7.3f}s"
            f"  {entry['speedup']:5.2f}x",
            file=sys.stderr,
        )
    agg = doc["aggregate"]
    print(
        f"{'aggregate':<22} before {agg['wall_before_s']:7.3f}s"
        f"  after {agg['wall_after_s']:7.3f}s  {agg['speedup']:5.2f}x",
        file=sys.stderr,
    )
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
    if args.merge_into:
        path = Path(args.merge_into)
        bench = json.loads(path.read_text())
        bench["churn"] = doc
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"merged churn results into {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
