"""Engine-level integration of the scheduling subsystem."""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import (
    azure_4dc_topology,
    heterogeneous_fanout_topology,
)
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import ArchitectureController
from repro.scheduling import (
    LocalityPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    SCHEDULER_NAMES,
)
from repro.util.units import MB
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import gather, scatter


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=5
    )


def build(dep, fast_config, **kw):
    cfg = kw.pop("config", fast_config)
    ctrl = ArchitectureController(dep, strategy="decentralized", config=cfg)
    return WorkflowEngine(dep, ctrl.strategy, **kw), ctrl


class TestPolicyResolution:
    def test_default_is_locality(self, dep, fast_config):
        engine, ctrl = build(dep, fast_config)
        ctrl.shutdown()
        assert isinstance(engine.policy, LocalityPolicy)

    def test_config_pins_policy(self, dep, fast_config):
        cfg = MetadataConfig(
            **{**fast_config.__dict__, "scheduler": "load_balanced"}
        )
        engine, ctrl = build(dep, fast_config, config=cfg)
        ctrl.shutdown()
        assert engine.policy.name == "load_balanced"

    def test_deployment_default_used_when_config_silent(self, fast_config):
        dep = Deployment(
            topology=azure_4dc_topology(jitter=False),
            n_nodes=8,
            seed=5,
            scheduler="round_robin",
        )
        engine, ctrl = build(dep, fast_config)
        ctrl.shutdown()
        assert engine.policy.name == "round_robin"

    def test_explicit_argument_wins(self, fast_config):
        dep = Deployment(
            topology=azure_4dc_topology(jitter=False),
            n_nodes=8,
            seed=5,
            scheduler="round_robin",
        )
        cfg = MetadataConfig(
            **{**fast_config.__dict__, "scheduler": "load_balanced"}
        )
        engine, ctrl = build(dep, fast_config, config=cfg, scheduler="hybrid")
        ctrl.shutdown()
        assert engine.policy.name == "hybrid"

    def test_policy_instance_injected_directly(self, dep, fast_config):
        policy = RoundRobinPolicy()
        engine, ctrl = build(dep, fast_config, scheduler=policy)
        ctrl.shutdown()
        assert engine.policy is policy

    def test_config_knobs_reach_the_policy(self, dep, fast_config):
        cfg = MetadataConfig(
            **{
                **fast_config.__dict__,
                "scheduler": "hybrid",
                "hybrid_locality_weight": 3.0,
                "hybrid_transfer_weight": 0.25,
                "bw_pending_penalty": 2.0,
            }
        )
        engine, ctrl = build(dep, fast_config, config=cfg)
        ctrl.shutdown()
        assert engine.policy.locality_weight == 3.0
        assert engine.policy.transfer_weight == 0.25
        assert engine.policy.pending_penalty == 2.0

    def test_unknown_scheduler_rejected(self, dep, fast_config):
        with pytest.raises(ValueError, match="unknown scheduler"):
            build(dep, fast_config, scheduler="work-stealing")

    def test_unknown_deployment_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Deployment(n_nodes=4, scheduler="work-stealing")


class TestEveryPolicyRuns:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_completes_and_releases_load(self, dep, fast_config, name):
        engine, ctrl = build(dep, fast_config, scheduler=name)
        res = engine.run(scatter(10, compute_time=0.2, file_size=1 * MB))
        ctrl.shutdown()
        assert len(res.task_results) == 11
        assert all(v == 0 for v in engine._vm_load.values())
        sites = set(dep.sites)
        workers = {vm.name for vm in dep.workers}
        for r in res.task_results:
            assert r.site in sites
            assert r.vm in workers

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_placements_reproducible(self, dep, fast_config, name):
        """Same seed + same policy -> identical placement sequence."""

        def placements(seed):
            d = Deployment(
                topology=azure_4dc_topology(jitter=False),
                n_nodes=8,
                seed=seed,
            )
            engine, ctrl = build(d, fast_config, scheduler=name)
            res = engine.run(
                gather(9, compute_time=0.1, file_size=2 * MB)
            )
            ctrl.shutdown()
            return [
                (r.task_id, r.vm)
                for r in sorted(res.task_results, key=lambda r: r.task_id)
            ]

        assert placements(3) == placements(3)


class TestHooks:
    def test_hooks_fire_once_per_task(self, dep, fast_config):
        class Recorder(PlacementPolicy):
            name = "recorder"

            def __init__(self):
                self.inner = RoundRobinPolicy()
                self.placed = []
                self.completed = []

            def place(self, task, workflow, parent_sites, cluster):
                return self.inner.place(
                    task, workflow, parent_sites, cluster
                )

            def on_task_placed(self, task, vm, cluster):
                self.placed.append((task.task_id, vm.name))

            def on_task_complete(self, task, vm, cluster):
                self.completed.append((task.task_id, vm.name))

        policy = Recorder()
        engine, ctrl = build(dep, fast_config, scheduler=policy)
        res = engine.run(scatter(6, compute_time=0.1))
        ctrl.shutdown()
        assert len(res.task_results) == 7
        assert len(policy.placed) == 7
        assert sorted(policy.placed) == sorted(policy.completed)


class TestInputSite:
    @staticmethod
    def external_input_workflow():
        from repro.workflow.dag import Task, Workflow, WorkflowFile

        wf = Workflow("ext")
        ext = WorkflowFile("ext.dat", size=1 * MB)
        wf.add_task(Task("reader", inputs=[ext], compute_time=0.1))
        return wf

    def test_default_stages_at_first_site(self, dep, fast_config):
        engine, ctrl = build(dep, fast_config)
        engine.run(self.external_input_workflow())
        ctrl.shutdown()
        assert engine.transfer.stores[dep.sites[0]].has("ext.dat")

    @pytest.mark.parametrize("site", ["east-us", "south-central-us"])
    def test_input_site_knob_moves_the_origin(self, dep, fast_config, site):
        engine, ctrl = build(dep, fast_config, input_site=site)
        engine.run(self.external_input_workflow())
        ctrl.shutdown()
        # Staged at the requested origin; the reader (placed at
        # dep.sites[0] by root round-robin) had to fetch it from there.
        assert engine.transfer.stores[site].has("ext.dat")
        assert engine.transfer.wan_bytes == 1 * MB
        assert engine.transfer.transfers == 1

    def test_unknown_input_site_rejected(self, dep, fast_config):
        with pytest.raises(KeyError):
            build(dep, fast_config, input_site="mars-central")


class TestBandwidthAwareEndToEnd:
    def test_avoids_thin_pipe_on_capped_fanout(self, fast_config):
        """End-to-end: on the heterogeneous testbed the bandwidth-aware
        engine never stages bulk inputs over the thin link, and beats
        the locality engine's makespan."""
        from repro.experiments.scheduler_compare import (
            run_scheduler_compare,
        )

        result = run_scheduler_compare(
            policies=("locality", "bandwidth_aware"),
            bandwidth_model="fair",
            config=fast_config,
        )
        assert (
            result.makespan["bandwidth_aware"]
            <= result.makespan["locality"]
        )
        assert result.tasks_per_site["bandwidth_aware"].get("thin", 0) == 0
        assert result.tasks_per_site["locality"].get("thin", 0) > 0
