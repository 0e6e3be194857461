#!/bin/sh
# Single entry point for the pre-commit checks:
#   1. fast test profile (everything except the @slow figure
#      regenerations, ~20 s; see pytest.ini for the profiles) --
#      explicitly including the scheduling-subsystem modules
#      (tests/scheduling, the seed-compat goldens and the scheduler
#      CLI/config validation), the workload-subsystem modules
#      (tests/workload, the engine op-attribution regression and the
#      workload_compare scenario checks) and the declarative scenario
#      API (tests/scenario: spec validation/round-trip/sweeps, plus
#      the spec-vs-direct golden equivalence in
#      tests/experiments/test_seed_compat.py and the --dump-spec/--spec
#      CLI smoke checks in tests/test_cli.py); the slow-marked benches
#      (benchmarks/test_schedulers.py, benchmarks/test_workloads.py)
#      run in the FULL profile; the benchmark harness's own tests
#      (perfbench/tests) run in both profiles;
#   2. a --dump-spec smoke run (flags must keep compiling to a valid
#      JSON scenario artifact);
#   3. the parallel experiment plane: a --jobs 2 sweep persisted to a
#      result store, the serial twin, a store diff between them (must
#      pair every artifact), and a quick BENCH trajectory run
#      (scripts/bench.py) gated against the newest *committed*
#      BENCH_*.json (scripts/bench.py --print-baseline; falls back to
#      BENCH_seed.json) -- any pinned scenario whose --quick wall
#      exceeds 1.25x that baseline's full-run wall fails the check
#      (kernel-regression smoke); the bench runs with tracing
#      disabled, so the gate doubles as the observability plane's
#      zero-overhead guard (docs/observability.md);
#   4. a trace smoke: a quick fully-traced scenario must export valid,
#      non-empty Chrome trace-event JSON covering the kernel, network,
#      scheduler and span layers;
#   5. an analyze smoke: repro.cli analyze on the SLO-bearing registry
#      scenario must render an observed-critical-path section and an
#      SLO verdict line (docs/observability.md);
#   6. an elasticity smoke: a quick autoscale_ramp run must emit at
#      least one scale_up event under the elastic trace category, and
#      repro.cli analyze on it must render the capacity-timeline
#      section (docs/elasticity.md);
#   7. unused-import lint over the source tree.
#
# Usage, from the repo root:
#   scripts/check.sh            # fast profile + lint
#   FULL=1 scripts/check.sh     # full tier-1 suite + lint (~3.5 min)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [ "${FULL:-0}" = "1" ]; then
    python -m pytest -x -q tests benchmarks perfbench/tests
else
    python -m pytest -x -q -m "not slow" tests benchmarks perfbench/tests
fi
python -m repro.cli run --workflow montage --dump-spec - > /dev/null

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
python -m repro.cli sweep --scenario paper_synthetic \
    --set "strategy.name=centralized,hybrid" --quick \
    --jobs 2 --out "$TMP/par" > /dev/null
python -m repro.cli sweep --scenario paper_synthetic \
    --set "strategy.name=centralized,hybrid" --quick \
    --out "$TMP/ser" > /dev/null
python -m repro.cli diff "$TMP/par" "$TMP/ser" > "$TMP/diff.txt"
grep -q "2 paired" "$TMP/diff.txt"
python -m repro.cli results "$TMP/par" > /dev/null
python scripts/bench.py --quick --label check \
    --out "$TMP/BENCH_check.json" 2> /dev/null
python -c "import json, sys; \
doc = json.load(open(sys.argv[1])); \
assert doc['kind'] == 'bench-trajectory' and len(doc['scenarios']) >= 3" \
    "$TMP/BENCH_check.json"
# Bench-regression smoke: a --quick run covers a fraction of each full
# pinned scenario, so its wall must sit far below the committed
# baseline wall; any quick scenario exceeding 1.25x the baseline's
# FULL wall means an order-of-magnitude kernel/solver regression, not
# timer noise.  The baseline is the newest committed BENCH_*.json so
# the bar tracks the trajectory instead of pinning the seed forever.
BASELINE=$(python scripts/bench.py --print-baseline)
python - "$TMP/BENCH_check.json" "$BASELINE" <<'PY'
import json, sys
quick = json.load(open(sys.argv[1]))["scenarios"]
base = json.load(open(sys.argv[2]))["scenarios"]
bad = [
    (name, quick[name]["wall_time_s"], entry["wall_time_s"])
    for name, entry in base.items()
    if name in quick
    and quick[name]["wall_time_s"] > 1.25 * entry["wall_time_s"]
]
for name, got, ref in bad:
    print(f"bench regression: {name} quick wall {got}s > "
          f"1.25 x baseline wall {ref}s ({sys.argv[2]})", file=sys.stderr)
sys.exit(1 if bad else 0)
PY

# Trace smoke: full tracing on a quick scenario must yield a valid,
# non-empty Chrome trace with every major layer represented.
python -m repro.cli trace fanout_bandwidth_aware --quick \
    --out "$TMP/trace.json" > /dev/null
python - "$TMP/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty Chrome trace"
cats = {e.get("cat") for e in events}
missing = {"kernel", "network", "scheduler", "span"} - cats
assert not missing, f"trace missing categories: {sorted(missing)}"
PY

# Analyze smoke: the trace-analysis plane must turn a quick traced
# run into a bottleneck report with an observed critical path and a
# judged SLO verdict.
python -m repro.cli analyze multi_tenant_slo --quick > "$TMP/analyze.txt"
grep -qi "observed critical path" "$TMP/analyze.txt"
grep -q "SLO verdict:" "$TMP/analyze.txt"

# Elasticity smoke: the autoscaler must actually scale on the ramp
# scenario (>= 1 scale_up trace event) and the analyze report must
# carry the capacity timeline built from those events.
python - <<'PY'
from repro.scenario import get_scenario

res = get_scenario("autoscale_ramp").run(quick=True)
ups = [
    (ts, args)
    for ts, cat, name, args in res.tracer.events
    if cat == "elastic" and name == "scale_up"
]
assert ups, "autoscale_ramp --quick ordered no capacity"
assert res.elastic is not None and res.elastic.stranded_tasks == 0
PY
python -m repro.cli analyze autoscale_ramp --quick > "$TMP/elastic.txt"
grep -q "capacity timeline" "$TMP/elastic.txt"
grep -q "elastic policy predictive" "$TMP/elastic.txt"

python -m repro.util.lint src

echo "check: all green"
