"""Close the loop: the Section VII advisor's picks must actually win.

For each workload family the advisor has an opinion about, run the
workload under the recommended strategy and under the centralized
baseline, and check the recommendation is at least competitive -- the
empirical backing for the best-match analysis.
"""

import pytest

from repro.analysis.advisor import profile_workflow, recommend_strategy
from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import ArchitectureController, StrategyName
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import pipeline, scatter


def run_under(strategy, wf_builder, seed=111):
    dep = Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=16, seed=seed
    )
    cfg = MetadataConfig(
        home_site="east-us",
        client_overhead=0.005,
        service_time=0.002,
        sync_period=0.5,
        replication_flush_interval=0.1,
    )
    ctrl = ArchitectureController(dep, strategy=strategy, config=cfg)
    engine = WorkflowEngine(dep, ctrl.strategy)
    res = engine.run(wf_builder())
    ctrl.shutdown()
    return res


class TestAdvisorEmpirically:
    def test_pipeline_recommendation_wins(self):
        """Metadata-heavy pipeline -> hybrid, and hybrid beats baseline."""
        builder = lambda: pipeline(8, compute_time=0.2, extra_ops=800)
        wf = builder()
        strategy, _ = recommend_strategy(
            profile_workflow(wf, n_sites=4, n_nodes=16)
        )
        assert strategy == StrategyName.HYBRID
        recommended = run_under(strategy, builder)
        baseline = run_under(StrategyName.CENTRALIZED, builder)
        assert recommended.makespan < baseline.makespan

    @pytest.mark.slow
    def test_parallel_recommendation_wins(self):
        """Metadata-heavy scatter -> decentralized, and it beats baseline."""
        builder = lambda: scatter(24, compute_time=0.2, extra_ops=700)
        wf = builder()
        strategy, _ = recommend_strategy(
            profile_workflow(wf, n_sites=4, n_nodes=16)
        )
        assert strategy == StrategyName.DECENTRALIZED
        recommended = run_under(strategy, builder)
        baseline = run_under(StrategyName.CENTRALIZED, builder)
        assert recommended.makespan < baseline.makespan

    def test_small_scale_centralized_is_fine(self):
        """Light workload -> centralized recommended; decentralizing
        buys only seconds -- the paper's "acceptable choice" claim is
        about *absolute* gain ("slightly more than 1 minute in the best
        case, which is rather low")."""
        builder = lambda: pipeline(6, compute_time=0.5, extra_ops=40)
        wf = builder()
        strategy, _ = recommend_strategy(
            profile_workflow(wf, n_sites=4, n_nodes=16)
        )
        assert strategy == StrategyName.CENTRALIZED
        central = run_under(StrategyName.CENTRALIZED, builder)
        hybrid = run_under(StrategyName.HYBRID, builder)
        assert central.makespan - hybrid.makespan < 60.0
