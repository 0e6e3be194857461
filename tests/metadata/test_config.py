"""Validation tests for MetadataConfig."""

import pytest

from repro.metadata.config import MetadataConfig
from repro.scenario import NetworkSpec, SchedulerSpec, config_from_specs
from repro.util.units import MB


class TestDefaultsAreValid:
    def test_default_config_validates(self):
        MetadataConfig().validate()

    def test_defaults_reflect_calibration(self):
        cfg = MetadataConfig()
        assert cfg.service_time == pytest.approx(0.003)
        assert cfg.client_overhead == pytest.approx(0.050)
        assert cfg.sync_period == 2.0
        assert cfg.hybrid_sync_replication is False
        assert cfg.write_lookup is False


@pytest.mark.parametrize(
    "field,value",
    [
        ("service_time", 0),
        ("service_time", -1),
        ("service_concurrency", 0),
        ("client_overhead", -0.1),
        ("merge_entry_time", -1),
        ("sync_period", 0),
        ("replication_flush_interval", 0),
        ("replication_batch_size", 0),
        ("read_max_retries", -1),
        ("read_retry_backoff", 0.5),
        ("virtual_nodes", 0),
        ("scheduler", "annealing"),
        ("hybrid_locality_weight", -1.0),
        ("hybrid_load_weight", -0.5),
        ("hybrid_transfer_weight", -2.0),
        ("bw_pending_penalty", -0.1),
    ],
)
def test_invalid_values_rejected(field, value):
    cfg = MetadataConfig(**{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_retry_cap_must_cover_interval():
    cfg = MetadataConfig(read_retry_interval=1.0, read_retry_max_delay=0.5)
    with pytest.raises(ValueError):
        cfg.validate()


def _scheduler_config(name, base=None, **knobs):
    return config_from_specs(
        scheduler=SchedulerSpec(name=name, **knobs), base=base
    )


class TestConfigFromSpecs:
    def test_none_without_knobs_keeps_base(self):
        assert _scheduler_config(None) is None
        base = MetadataConfig(bandwidth_model="fair")
        assert _scheduler_config(None, base=base) is base

    def test_scheduler_pinned_on_top_of_base(self):
        base = MetadataConfig(bandwidth_model="fair", rpc_flow_weight=2.0)
        cfg = _scheduler_config(
            "bandwidth_aware", bw_pending_penalty=0.5, base=base
        )
        assert cfg.scheduler == "bandwidth_aware"
        assert cfg.bw_pending_penalty == 0.5
        assert cfg.bandwidth_model == "fair"
        assert cfg.rpc_flow_weight == 2.0

    def test_valid_schedulers_accepted(self):
        from repro.scheduling import SCHEDULER_NAMES

        for name in SCHEDULER_NAMES:
            assert _scheduler_config(name).scheduler == name

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scheduler=None, hybrid_locality_weight=2.0),
            dict(scheduler="locality", hybrid_load_weight=0.5),
            dict(scheduler="bandwidth_aware", hybrid_transfer_weight=2.0),
            dict(scheduler="round_robin", bw_pending_penalty=0.0),
            dict(scheduler=None, bw_pending_penalty=2.0),
        ],
    )
    def test_mismatched_knobs_rejected(self, kwargs):
        scheduler = kwargs.pop("scheduler")
        with pytest.raises(ValueError):
            _scheduler_config(scheduler, **kwargs)

    def test_pending_penalty_allowed_for_hybrid(self):
        cfg = _scheduler_config(
            "hybrid", bw_pending_penalty=0.0, hybrid_locality_weight=3.0
        )
        assert cfg.bw_pending_penalty == 0.0
        assert cfg.hybrid_locality_weight == 3.0

    def test_network_caps_convert_to_bytes(self):
        cfg = config_from_specs(
            network=NetworkSpec(
                bandwidth_model="fair",
                egress_cap_mb=10.0,
                ingress_cap_mb=5.0,
                rpc_flow_weight=2.0,
            )
        )
        assert cfg.site_egress_bw == 10.0 * MB
        assert cfg.site_ingress_bw == 5.0 * MB
        assert cfg.rpc_flow_weight == 2.0
        assert config_from_specs(network=NetworkSpec()) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(network=NetworkSpec(bandwidth_model="slots",
                                     egress_cap_mb=10.0)),
            dict(scheduler=SchedulerSpec(name="locality",
                                         hybrid_load_weight=2.0)),
            dict(admission="unbounded", max_in_flight=2),
        ],
    )
    def test_cross_field_rules_enforced(self, kwargs):
        with pytest.raises(ValueError):
            config_from_specs(**kwargs)


def test_config_is_plain_dataclass():
    """Configs clone via the ``__dict__`` idiom used by the harness."""
    cfg = MetadataConfig(home_site="east-us")
    clone = MetadataConfig(**{**cfg.__dict__, "sync_period": 9.0})
    assert clone.home_site == "east-us"
    assert clone.sync_period == 9.0
    assert cfg.sync_period == 2.0
