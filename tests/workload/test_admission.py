"""Admission-control tests: policies, knob threading and validation."""

import pytest

from repro.sim import Environment
from repro.cloud.deployment import Deployment
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import ArchitectureController
from repro.scenario import config_from_specs
from repro.workload import (
    ADMISSION_NAMES,
    MaxInFlightAdmission,
    TokenBucketAdmission,
    UnboundedAdmission,
    WorkloadRunner,
    make_admission,
)


def drive(env, gen):
    """Run one admission process to completion; returns (value, end_time)."""
    proc = env.process(gen)
    value = env.run(until=proc)
    return value, env.now


class TestPolicies:
    def test_unbounded_admits_immediately(self):
        env = Environment()
        adm = UnboundedAdmission(env)
        _, at = drive(env, adm.admit("t"))
        assert at == 0.0
        assert adm.bound is None
        assert adm.admitted == 1

    def test_max_in_flight_blocks_at_limit(self):
        env = Environment()
        adm = MaxInFlightAdmission(env, limit=2)
        t1, _ = drive(env, adm.admit("a"))
        t2, _ = drive(env, adm.admit("b"))
        assert adm.in_flight == 2

        # A third admit must wait until someone releases.
        def third():
            token = yield from adm.admit("c")
            return token

        proc = env.process(third())
        env.run(until=env.timeout(1.0))
        assert adm.in_flight == 2  # still blocked
        adm.release(t1)
        env.run(until=proc)
        assert adm.in_flight == 2
        adm.release(t2)
        assert adm.bound == 2

    def test_token_bucket_burst_then_pacing(self):
        env = Environment()
        adm = TokenBucketAdmission(env, rate=1.0, burst=2)
        _, t1 = drive(env, adm.admit("t"))
        _, t2 = drive(env, adm.admit("t"))
        _, t3 = drive(env, adm.admit("t"))
        _, t4 = drive(env, adm.admit("t"))
        assert (t1, t2) == (0.0, 0.0)  # burst of 2
        assert (t3, t4) == (1.0, 2.0)  # then 1/s pacing

    def test_token_bucket_tenants_independent(self):
        env = Environment()
        adm = TokenBucketAdmission(env, rate=1.0, burst=1)
        _, t1 = drive(env, adm.admit("a"))
        _, t2 = drive(env, adm.admit("b"))
        assert t1 == t2 == 0.0  # b's bucket is untouched by a

    def test_token_bucket_refills_while_idle(self):
        env = Environment()
        adm = TokenBucketAdmission(env, rate=2.0, burst=1)
        drive(env, adm.admit("t"))
        env.run(until=env.timeout(5.0))  # plenty of idle refill
        _, at = drive(env, adm.admit("t"))
        assert at == 5.0  # no residual debt

    @pytest.mark.parametrize(
        "factory",
        [
            lambda env: MaxInFlightAdmission(env, limit=0),
            lambda env: TokenBucketAdmission(env, rate=0.0),
            lambda env: TokenBucketAdmission(env, rate=1.0, burst=0),
        ],
    )
    def test_bad_knobs_rejected(self, factory):
        with pytest.raises(ValueError):
            factory(Environment())

    def test_make_admission_unknown_name(self):
        with pytest.raises(ValueError, match="unknown admission"):
            make_admission("nope", Environment())

    def test_registry_names_stable(self):
        assert ADMISSION_NAMES == (
            "unbounded",
            "max_in_flight",
            "token_bucket",
        )


class TestThreading:
    def test_runner_default_is_unbounded(self):
        dep = Deployment(n_nodes=4, seed=0)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(dep, ctrl.strategy)
        assert runner.admission.name == "unbounded"
        ctrl.shutdown()

    def test_config_admission_with_knobs_wins(self):
        dep = Deployment(n_nodes=4, seed=0)
        cfg = MetadataConfig(admission="max_in_flight", max_in_flight=3)
        ctrl = ArchitectureController(dep, strategy="hybrid", config=cfg)
        runner = WorkloadRunner(dep, ctrl.strategy)
        assert runner.admission.name == "max_in_flight"
        assert runner.admission.bound == 3
        ctrl.shutdown()

    def test_deployment_default_used_when_config_silent(self):
        dep = Deployment(n_nodes=4, seed=0, admission="token_bucket")
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(dep, ctrl.strategy)
        assert runner.admission.name == "token_bucket"
        ctrl.shutdown()

    def test_explicit_argument_wins_over_config(self):
        dep = Deployment(n_nodes=4, seed=0)
        cfg = MetadataConfig(admission="token_bucket", token_rate=2.0)
        ctrl = ArchitectureController(dep, strategy="hybrid", config=cfg)
        runner = WorkloadRunner(dep, ctrl.strategy, admission="unbounded")
        assert runner.admission.name == "unbounded"
        ctrl.shutdown()

    def test_deployment_rejects_unknown_admission(self):
        with pytest.raises(ValueError, match="unknown admission"):
            Deployment(n_nodes=4, admission="nope")


class TestConfigValidation:
    def test_config_from_specs_roundtrip(self):
        cfg = config_from_specs(
            admission="token_bucket", token_rate=2.0, token_burst=3
        )
        assert cfg.admission == "token_bucket"
        assert cfg.token_rate == 2.0
        assert cfg.token_burst == 3

    def test_no_knobs_returns_base(self):
        base = MetadataConfig()
        assert config_from_specs(admission=None, base=base) is base
        assert config_from_specs(admission=None) is None

    def test_max_in_flight_requires_policy(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            config_from_specs(admission=None, max_in_flight=2)
        with pytest.raises(ValueError, match="max_in_flight"):
            config_from_specs(admission="unbounded", max_in_flight=2)

    def test_token_knobs_require_policy(self):
        with pytest.raises(ValueError, match="token_bucket"):
            config_from_specs(admission="unbounded", token_rate=1.0)
        with pytest.raises(ValueError, match="token_bucket"):
            config_from_specs(
                admission="max_in_flight", token_burst=2
            )

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError, match="admission"):
            MetadataConfig(admission="nope").validate()
        with pytest.raises(ValueError, match="max_in_flight"):
            MetadataConfig(max_in_flight=0).validate()
        with pytest.raises(ValueError, match="token_rate"):
            MetadataConfig(token_rate=-1.0).validate()
        with pytest.raises(ValueError, match="token_burst"):
            MetadataConfig(token_burst=0).validate()
