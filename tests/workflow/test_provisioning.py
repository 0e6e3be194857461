"""Tests for the Section III-C proactive data-provisioning extension."""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import gather


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=17
    )


def run_gather(dep, fast_config, proactive):
    ctrl = ArchitectureController(
        dep, strategy="decentralized", config=fast_config
    )
    engine = WorkflowEngine(
        dep,
        ctrl.strategy,
        proactive_provisioning=proactive,
        scheduler="round_robin",  # force remote inputs
    )
    res = engine.run(gather(8, compute_time=0.05))
    ctrl.shutdown()
    return res


class TestProactiveProvisioning:
    def test_same_results_either_mode(self, fast_config):
        seq = run_gather(
            Deployment(
                topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=17
            ),
            fast_config,
            proactive=False,
        )
        par = run_gather(
            Deployment(
                topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=17
            ),
            fast_config,
            proactive=True,
        )
        assert len(seq.task_results) == len(par.task_results) == 9

    def test_parallel_staging_is_faster(self, fast_config):
        """A fan-in task staging 8 remote inputs overlaps the fetches."""
        seq = run_gather(
            Deployment(
                topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=17
            ),
            fast_config,
            proactive=False,
        )
        par = run_gather(
            Deployment(
                topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=17
            ),
            fast_config,
            proactive=True,
        )
        seq_collect = next(
            r for r in seq.task_results if r.task_id == "gather-collect"
        )
        par_collect = next(
            r for r in par.task_results if r.task_id == "gather-collect"
        )
        assert par_collect.duration < seq_collect.duration

    def test_single_input_tasks_unaffected(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="hybrid", config=fast_config
        )
        engine = WorkflowEngine(
            dep, ctrl.strategy, proactive_provisioning=True
        )
        from repro.workflow.patterns import pipeline

        res = engine.run(pipeline(3, compute_time=0.05))
        ctrl.shutdown()
        assert len(res.task_results) == 3
