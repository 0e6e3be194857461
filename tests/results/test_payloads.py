"""Surface payloads: the ``result`` section of a scenario artifact."""

import json

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.results import workflow_result_to_dict
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import pipeline


@pytest.fixture
def result(fast_config):
    dep = Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=4, seed=71
    )
    ctrl = ArchitectureController(dep, strategy="hybrid", config=fast_config)
    engine = WorkflowEngine(dep, ctrl.strategy)
    res = engine.run(pipeline(3, compute_time=0.05, extra_ops=4))
    ctrl.shutdown()
    return res


class TestWorkflowPayload:
    def test_workflow_result_dict_shape(self, result):
        doc = workflow_result_to_dict(result)
        assert doc["workflow"] == "pipeline"
        assert doc["strategy"] == "hybrid"
        assert doc["makespan"] > 0
        assert len(doc["tasks"]) == 3
        assert "op_metrics" in doc
        assert "ops" not in doc

    def test_include_full_trace(self, result):
        doc = workflow_result_to_dict(result, include_ops=True)
        assert len(doc["ops"]) == len(result.ops.records)
        first = doc["ops"][0]
        assert {"kind", "site", "latency", "local"} <= set(first)

    def test_payload_is_json_ready(self, result):
        doc = workflow_result_to_dict(result, include_ops=True)
        assert json.loads(json.dumps(doc)) == doc
