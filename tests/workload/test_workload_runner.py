"""Workload-runner properties: completion, attribution, shared state."""

import pytest

from repro.cloud.deployment import Deployment
from repro.metadata.controller import ArchitectureController
from repro.workload import (
    MaxInFlightAdmission,
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
    jain_index,
)


def run_workload(
    spec,
    strategy="hybrid",
    scheduler=None,
    admission=None,
    n_nodes=12,
    seed=2,
):
    dep = Deployment(n_nodes=n_nodes, seed=seed)
    ctrl = ArchitectureController(dep, strategy=strategy)
    runner = WorkloadRunner(
        dep, ctrl.strategy, scheduler=scheduler, admission=admission
    )
    res = runner.run(spec)
    ctrl.shutdown()
    return res, runner


class TestAcceptanceProperties:
    """The subsystem's acceptance criteria, at fast-test scale."""

    @pytest.mark.parametrize("strategy", ["centralized", "hybrid"])
    def test_all_tenants_complete_and_ops_conserve(self, strategy):
        spec = WorkloadSpec.uniform(
            8,
            applications=("scatter", "pipeline"),
            n_instances=1,
            ops_per_task=4,
            compute_time=0.2,
            seed=7,
        )
        res, _ = run_workload(spec, strategy=strategy)
        # Every tenant's workflow completes.
        assert res.n_completed == 8
        assert len(res.tenants()) == 8
        # Per-workflow op counts sum to the strategy's global count:
        # no lost or double-attributed ops.
        assert res.attributed_ops() == res.total_ops
        assert all(
            len(r.result.ops.records) > 0 for r in res.records
        )

    def test_per_workflow_ops_match_dag_op_counts(self):
        spec = WorkloadSpec.uniform(
            4,
            applications=("scatter",),
            n_instances=1,
            ops_per_task=6,
            compute_time=0.1,
            seed=3,
        )
        res, runner = run_workload(spec)
        from repro.workload.generators import generate_instances

        plan = generate_instances(spec)
        for record in res.records:
            tenant, idx = record.run.split("/")
            wf = plan[tenant][int(idx)].workflow
            assert len(record.result.ops.records) == wf.total_metadata_ops

    def test_closed_loop_max_in_flight_never_exceeds_bound(self):
        spec = WorkloadSpec.uniform(
            8,
            applications=("scatter", "pipeline"),
            n_instances=2,
            ops_per_task=4,
            compute_time=0.2,
            seed=5,
        )
        dep = Deployment(n_nodes=12, seed=2)
        ctrl = ArchitectureController(dep, strategy="decentralized")
        runner = WorkloadRunner(
            dep,
            ctrl.strategy,
            admission=MaxInFlightAdmission(dep.env, limit=3),
        )
        res = runner.run(spec)
        ctrl.shutdown()
        assert res.admission_bound == 3
        assert 0 < res.peak_in_flight <= 3
        assert res.n_completed == 16
        # Admission produced real queueing under 8 tenants / 3 slots.
        assert res.mean_queue_wait() > 0

    def test_sequential_specs_on_one_runner_stay_conserved(self):
        """Regression: a second run() must not reuse the first epoch's
        run tags or file keys -- op attribution stays exact per spec."""
        spec = WorkloadSpec.uniform(
            3,
            applications=("scatter",),
            ops_per_task=4,
            compute_time=0.1,
            seed=6,
        )
        dep = Deployment(n_nodes=8, seed=2)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(dep, ctrl.strategy)
        first = runner.run(spec)
        second = runner.run(spec)
        ctrl.shutdown()
        for res in (first, second):
            assert res.n_completed == 3
            assert res.attributed_ops() == res.total_ops
        # Distinct epochs, distinct tags, no cross-talk.
        assert {r.run for r in first.records}.isdisjoint(
            r.run for r in second.records
        )
        assert all(r.run.startswith("r2/") for r in second.records)
        # The second epoch's work is real (fresh keys, not cache hits):
        # it issues exactly as many ops as the first.
        assert second.total_ops == first.total_ops

    def test_unbounded_exceeds_tight_bound_peak(self):
        spec = WorkloadSpec.uniform(
            6,
            applications=("scatter",),
            ops_per_task=4,
            compute_time=0.3,
            seed=5,
        )
        free, _ = run_workload(spec, admission="unbounded")
        assert free.peak_in_flight == 6  # closed loop: all tenants at once
        assert free.mean_queue_wait() == 0.0


class TestSharedState:
    def test_concurrent_same_app_instances_do_not_collide(self):
        """Two montage-small instances share no file keys at any site."""
        spec = WorkloadSpec(
            tenants=(
                TenantSpec(
                    name="a", application="montage-small",
                    ops_per_task=4, compute_time=0.1,
                ),
                TenantSpec(
                    name="b", application="montage-small",
                    ops_per_task=4, compute_time=0.1,
                ),
            ),
            seed=1,
        )
        res, runner = run_workload(spec)
        assert res.n_completed == 2
        stored = [
            f.name
            for store in runner.engine.transfer.stores.values()
            for f in store
        ]
        a_keys = {n for n in stored if n.startswith("a/0/")}
        b_keys = {n for n in stored if n.startswith("b/0/")}
        assert a_keys and b_keys
        assert not (a_keys & b_keys)
        assert set(stored) == a_keys | b_keys  # nothing unprefixed

    def test_single_shared_policy_instance_and_clean_ledger(self):
        """One policy serves every tenant; its ledger drains to empty."""
        spec = WorkloadSpec.uniform(
            4,
            applications=("scatter", "montage-small"),
            ops_per_task=4,
            compute_time=0.1,
            seed=9,
        )
        dep = Deployment(n_nodes=12, seed=2)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(
            dep, ctrl.strategy, scheduler="bandwidth_aware"
        )
        res = runner.run(spec)
        ctrl.shutdown()
        policy = runner.engine.policy
        assert res.n_completed == 4
        # Workflow-scoped hooks (claims keyed by namespaced task ids)
        # fully release the cluster-scoped pending-bytes ledger.
        assert policy._pending == {}
        assert policy._claims == {}
        # And the engine's load counters return to idle.
        assert all(v == 0 for v in runner.engine._vm_load.values())

    def test_queue_wait_accounting_serialized_tenants(self):
        """With one slot, tenant B waits out tenant A's makespan."""
        spec = WorkloadSpec.uniform(
            2,
            applications=("scatter",),
            ops_per_task=4,
            compute_time=0.2,
            seed=4,
        )
        dep = Deployment(n_nodes=8, seed=2)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(
            dep,
            ctrl.strategy,
            admission=MaxInFlightAdmission(dep.env, limit=1),
        )
        res = runner.run(spec)
        ctrl.shutdown()
        first, second = sorted(res.records, key=lambda r: r.admitted_at)
        assert first.queue_wait == 0.0
        assert second.queue_wait == pytest.approx(first.makespan)

    def test_per_tenant_input_sites_respected(self):
        dep = Deployment(n_nodes=8, seed=2)
        far = dep.sites[-1]
        spec = WorkloadSpec(
            tenants=(
                TenantSpec(
                    name="t", application="ingest", input_site=far,
                    ops_per_task=2, compute_time=0.1,
                ),
            ),
            seed=1,
        )
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(dep, ctrl.strategy)
        runner.run(spec)
        ctrl.shutdown()
        # The external seed was staged at the tenant's input site.
        assert runner.engine.transfer.stores[far].has("t/0/ingest/seed")


class TestMetrics:
    def test_jain_index_bounds(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert 0.0 < jain_index([1.0, 2.0, 3.0]) < 1.0

    def test_slowdown_floor_is_one_for_best_instance(self):
        spec = WorkloadSpec.uniform(
            3,
            applications=("pipeline",),
            ops_per_task=4,
            compute_time=0.2,
            seed=8,
        )
        res, _ = run_workload(spec)
        # The fastest unqueued instance defines the baseline.
        assert min(res.slowdowns()) >= 1.0
        assert res.slowdown_percentile(0) >= 1.0

    def test_to_dict_json_roundtrip(self):
        import json

        spec = WorkloadSpec.uniform(
            2, applications=("scatter",), ops_per_task=2,
            compute_time=0.1, seed=1,
        )
        res, _ = run_workload(spec)
        doc = json.loads(json.dumps(res.to_dict()))
        assert doc["strategy"] == "hybrid"
        assert len(doc["instances"]) == 2
        assert doc["jain_fairness"] == pytest.approx(res.jain_fairness())
        assert doc["instances"][0]["result"]["tasks"]
