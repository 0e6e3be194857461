"""Integration: fault injection against live workloads.

Exercises the resilience story end to end -- failures land *while* the
metadata service is under load, and the run must still complete with
correct results.
"""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.faults import (
    CacheFailureInjector,
    LatencySpikeInjector,
    LinkFlapInjector,
    SiteOutage,
)
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.util.units import MB
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import scatter


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=61
    )


class TestWorkflowUnderFaults:
    def test_workflow_survives_cache_failures(self, dep, fast_config):
        ctrl = ArchitectureController(dep, strategy="hybrid", config=fast_config)
        engine = WorkflowEngine(dep, ctrl.strategy)
        injector = CacheFailureInjector(
            dep.env,
            ctrl.strategy.registries,
            schedule=[(0.2, "west-europe"), (0.4, "east-us")],
        )
        res = engine.run(scatter(10, compute_time=0.1, extra_ops=6))
        ctrl.shutdown()
        assert len(res.task_results) == 11
        assert len(injector.events) == 2
        # Both failed-over caches are consistent again.
        for site in ("west-europe", "east-us"):
            cache = ctrl.strategy.registries[site].cache
            assert cache.failovers == 1
            assert cache.is_consistent_with_replica()

    def test_workflow_survives_latency_spike(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="decentralized", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        spike = LatencySpikeInjector(
            dep.env,
            dep.topology,
            "west-europe",
            "east-us",
            start=0.1,
            duration=1.0,
            factor=20.0,
        )
        res = engine.run(scatter(8, compute_time=0.1, extra_ops=4))
        ctrl.shutdown()
        assert len(res.task_results) == 9
        # The spike window closed and the link healed.
        kinds = [e.kind for e in spike.events]
        assert kinds == ["latency-spike-start", "latency-spike-end"]
        assert dep.topology.latency("west-europe", "east-us") == pytest.approx(
            0.040
        )

    def test_spike_slows_affected_runs(self, fast_config):
        """The same workload takes longer with a mid-run latency spike."""

        def run(with_spike):
            dep = Deployment(
                topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=62
            )
            ctrl = ArchitectureController(
                dep, strategy="centralized", config=fast_config
            )
            engine = WorkflowEngine(
                dep, ctrl.strategy, scheduler="round_robin"
            )
            if with_spike:
                LatencySpikeInjector(
                    dep.env,
                    dep.topology,
                    "west-europe",
                    "east-us",
                    start=0.05,
                    duration=30.0,
                    factor=25.0,
                )
            res = engine.run(scatter(10, compute_time=0.05, extra_ops=8))
            ctrl.shutdown()
            return res.makespan

        assert run(True) > run(False)

    def test_site_outage_delays_but_completes(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        SiteOutage(
            dep.env,
            ctrl.strategy.registry,
            start=0.05,
            duration=2.0,
        )
        res = engine.run(scatter(6, compute_time=0.05, extra_ops=4))
        ctrl.shutdown()
        assert len(res.task_results) == 7
        # The outage window is visible in the makespan.
        assert res.makespan >= 2.0


def _fair_dep(seed=61, n_nodes=8):
    return Deployment(
        topology=azure_4dc_topology(jitter=False),
        n_nodes=n_nodes,
        seed=seed,
        bandwidth_model="fair",
    )


def _run_scatter_with_outage(duration, fast_config, start=0.3):
    """One fair-model scatter run with a mid-provisioning site outage.

    Bulky outputs keep WAN flows in flight for seconds, so the outage
    reliably lands mid-transfer; west-europe hosts workers (round-robin
    placement), so flows into or out of it are active at the cut.
    Returns ``(result, network_stats, outage)``.
    """
    dep = _fair_dep()
    ctrl = ArchitectureController(dep, strategy="hybrid", config=fast_config)
    engine = WorkflowEngine(dep, ctrl.strategy)
    outage = (
        SiteOutage(
            dep.env,
            start=start,
            duration=duration,
            network=dep.network,
            site="west-europe",
        )
        if duration
        else None
    )
    res = engine.run(
        scatter(8, compute_time=0.05, extra_ops=2, file_size=30 * MB)
    )
    ctrl.shutdown()
    return res, dep.network.stats, outage


class TestFairModelFlowTeardown:
    """Acceptance: a SiteOutage during in-flight fair-model transfers
    aborts the flows, the storage layer retries, the workflow still
    completes, and the damage is visible in the NetworkStats abort and
    retry counters."""

    def test_outage_aborts_retries_and_completes(self, fast_config):
        res, stats, outage = _run_scatter_with_outage(3.0, fast_config)
        assert len(res.task_results) == 9  # split + 8 workers
        assert outage.aborted_flows >= 1
        assert stats.aborted_transfers >= 1
        assert stats.aborted_bytes > 0
        assert stats.retried_transfers >= 1
        assert stats.retried_bytes > 0
        # Every abort was eventually recovered by a retry.
        assert stats.retried_transfers >= stats.aborted_transfers

    def test_makespan_degrades_monotonically_with_outage_duration(
        self, fast_config
    ):
        makespans = [
            _run_scatter_with_outage(d, fast_config)[0].makespan
            for d in (0, 1.0, 3.0, 6.0)
        ]
        assert makespans == sorted(makespans), makespans
        # And the longest outage visibly dominates the fault-free run.
        assert makespans[-1] > makespans[0] + 3.0

    def test_link_flap_mid_workflow_recovers(self, fast_config):
        dep = _fair_dep()
        ctrl = ArchitectureController(
            dep, strategy="hybrid", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        flap = LinkFlapInjector(
            dep.env,
            dep.network,
            "west-europe",
            "east-us",
            times=[0.4, 0.8],
        )
        res = engine.run(
            scatter(8, compute_time=0.05, extra_ops=2, file_size=30 * MB)
        )
        ctrl.shutdown()
        assert len(res.task_results) == 9
        assert len(flap.events) == 2
        # Any torn-down transfer was re-issued and the data arrived.
        assert dep.network.stats.retried_transfers >= (
            dep.network.stats.aborted_transfers
        )
