"""Declarative scenario specs: one validated description per experiment.

The paper's contribution is a comparison *matrix* -- metadata strategies
crossed with deployments, placement policies and workloads -- and before
this module every axis of that matrix travelled through a different
ad-hoc channel (``MetadataConfig.from_*_args`` classmethods, a dozen
``Deployment`` keywords, ~25 CLI flags, per-figure plumbing).  A
:class:`ScenarioSpec` is the single composable description of "a
scenario": a frozen dataclass tree that is

- **validated once** (:meth:`ScenarioSpec.validate` owns every
  cross-field rule: policy-specific knobs are rejected under other
  policies, fair-only WAN knobs under the slot model, workload-only
  knobs in single-workflow mode);
- **serializable** (``to_dict``/``from_dict`` and a JSON round-trip
  that is exactly identity, so every run is reproducible from a file
  artifact -- see ``repro.cli run --spec/--dump-spec``);
- **functionally composable** (:meth:`ScenarioSpec.replace` accepts
  dotted paths like ``"scheduler.name"`` so sweeps derive variant
  specs without mutating anything);
- **runnable** (:meth:`ScenarioSpec.run` builds the deployment --
  always on a *fresh* topology, never mutating a shared one -- wires
  fault injectors, dispatches to the right execution surface and
  collects stats; see ``repro.scenario.runner``).

Three execution surfaces cover every experiment shape in the repo:
``"workflow"`` (one DAG through the workflow engine), ``"synthetic"``
(the Section VI-B reader/writer benchmark behind Figs. 5-8) and
``"workload"`` (the multi-tenant layer, with an embedded
:class:`~repro.workload.spec.WorkloadSpec`).  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cloud.network import BANDWIDTH_MODELS
from repro.cloud.presets import (
    AZURE_4DC,
    HETERO_FANOUT_SITES,
    azure_4dc_topology,
    heterogeneous_fanout_topology,
    make_topology,
)
from repro.cloud.topology import CloudTopology
from repro.elastic.policies import ELASTICITY_NAMES
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import STRATEGIES, StrategyName
from repro.obs import TRACE_CATEGORIES
from repro.scenario.slo import SLOSpec
from repro.scheduling import SCHEDULER_NAMES
from repro.util.units import MB
from repro.workflow.applications import buzzflow, montage
from repro.workload.admission import ADMISSION_NAMES
from repro.workload.spec import WorkloadSpec

__all__ = [
    "ElasticitySpec",
    "FAULT_KINDS",
    "FaultSpec",
    "NetworkSpec",
    "ObservabilitySpec",
    "SLOSpec",
    "SURFACES",
    "ScenarioSpec",
    "SchedulerSpec",
    "StrategySpec",
    "TOPOLOGY_PRESETS",
    "TopologySpec",
    "WORKFLOW_APPLICATIONS",
    "WORKFLOW_BUILDERS",
    "config_from_specs",
]

#: Recognized topology presets (see ``repro.cloud.presets``).
TOPOLOGY_PRESETS: Tuple[str, ...] = ("azure_4dc", "hetero_fanout", "uniform")

#: Execution surfaces a scenario can dispatch to.
SURFACES: Tuple[str, ...] = ("workflow", "synthetic", "workload")

#: Applications the single-workflow surface can build (the paper's two
#: real DAGs; arbitrary DAGs come in via ``workflow_file``).  The one
#: name -> builder mapping every consumer (validation, the scenario
#: runner, the CLI) derives from.
WORKFLOW_BUILDERS = {"buzzflow": buzzflow, "montage": montage}

#: Recognized workflow-surface application names, in a stable order.
WORKFLOW_APPLICATIONS: Tuple[str, ...] = tuple(sorted(WORKFLOW_BUILDERS))

#: Recognized fault kinds (see ``repro.cloud.faults``).
FAULT_KINDS: Tuple[str, ...] = (
    "site_outage",
    "region_outage",
    "link_flap",
    "latency_spike",
)


def _check_keys(label: str, data: Mapping, allowed) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")


def _sub_from_dict(cls, data: Mapping):
    _check_keys(cls.__name__, data, (f.name for f in dataclasses.fields(cls)))
    return cls(**data)


@dataclass(frozen=True)
class TopologySpec:
    """Which site layout to build -- always *fresh* per run.

    ``Scenario.run`` never hands a previously-used
    :class:`~repro.cloud.topology.CloudTopology` object to a deployment:
    site-cap and fault-latency edits mutate topologies in place, so a
    shared one would leak state between runs.  Building from a preset
    name sidesteps the footgun entirely (and
    :meth:`CloudTopology.copy <repro.cloud.topology.CloudTopology.copy>`
    exists for callers holding a concrete topology).

    Attributes
    ----------
    preset:
        ``"azure_4dc"`` (the paper's testbed), ``"hetero_fanout"`` (the
        scheduler-comparison WAN where proximity and capacity disagree)
        or ``"uniform"`` (synthetic latency classes over ``sites``).
    jitter:
        ``azure_4dc`` only: sample latency jitter (the other presets
        are deterministic by construction).
    wan_bandwidth_mb:
        ``azure_4dc``/``uniform``: override every WAN link's bandwidth
        (megabytes/s); ``None`` keeps the preset default.
    hub_egress_mb:
        ``hetero_fanout`` only: aggregate egress cap of the ``hub``
        site (megabytes/s; enforced by the fair bandwidth model).
    sites / regions:
        ``uniform`` only: site names, plus optional ``(site, region)``
        pairs grouping them (unlisted sites get singleton regions).
    """

    preset: str = "azure_4dc"
    jitter: bool = True
    wan_bandwidth_mb: Optional[float] = None
    hub_egress_mb: Optional[float] = None
    sites: Optional[Tuple[str, ...]] = None
    regions: Optional[Tuple[Tuple[str, str], ...]] = None

    def __post_init__(self):
        if self.sites is not None:
            object.__setattr__(self, "sites", tuple(self.sites))
        if self.regions is not None:
            object.__setattr__(
                self,
                "regions",
                tuple((pair[0], pair[1]) for pair in self.regions),
            )

    def validate(self) -> None:
        if self.preset not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology preset {self.preset!r}; expected one "
                f"of {TOPOLOGY_PRESETS}"
            )
        if self.hub_egress_mb is not None:
            if self.preset != "hetero_fanout":
                raise ValueError(
                    "hub_egress_mb is a hetero_fanout-preset knob"
                )
            if self.hub_egress_mb <= 0:
                raise ValueError("hub_egress_mb must be positive")
        if self.wan_bandwidth_mb is not None:
            if self.preset == "hetero_fanout":
                raise ValueError(
                    "wan_bandwidth_mb does not apply to hetero_fanout "
                    "(its thin/fat link classes are fixed)"
                )
            if self.wan_bandwidth_mb <= 0:
                raise ValueError("wan_bandwidth_mb must be positive")
        if not self.jitter and self.preset != "azure_4dc":
            raise ValueError(
                "jitter is an azure_4dc-preset knob (the other presets "
                "are always jitter-free)"
            )
        if self.preset == "uniform":
            if not self.sites:
                raise ValueError("the uniform preset needs sites")
            if len(set(self.sites)) != len(self.sites):
                raise ValueError(f"duplicate sites in {self.sites}")
            for site, _region in self.regions or ():
                if site not in self.sites:
                    raise ValueError(
                        f"regions names unknown site {site!r}"
                    )
        elif self.sites is not None or self.regions is not None:
            raise ValueError("sites/regions are uniform-preset knobs")

    def site_names(self) -> Tuple[str, ...]:
        """Site names of the topology this spec builds, in order."""
        if self.preset == "azure_4dc":
            return AZURE_4DC
        if self.preset == "hetero_fanout":
            return HETERO_FANOUT_SITES
        return self.sites or ()

    def region_names(self) -> Tuple[str, ...]:
        """Region tags of the topology this spec builds, sorted.

        What a ``region_outage`` fault's ``region`` may name (mirrors
        :meth:`CloudTopology.sites_in_region
        <repro.cloud.topology.CloudTopology.sites_in_region>`
        resolution, including the singleton ``region-<site>`` tags the
        uniform preset assigns to unlisted sites).
        """
        if self.preset == "azure_4dc":
            return ("europe", "us")
        if self.preset == "hetero_fanout":
            return ("hetero",)
        listed = dict(self.regions or ())
        return tuple(
            sorted(
                {
                    listed.get(site, f"region-{site}")
                    for site in self.sites or ()
                }
            )
        )

    def build(self) -> CloudTopology:
        """Construct a fresh topology (never a shared/mutated one)."""
        if self.preset == "azure_4dc":
            kwargs: Dict[str, Any] = {"jitter": self.jitter}
            if self.wan_bandwidth_mb is not None:
                kwargs["wan_bandwidth"] = self.wan_bandwidth_mb * MB
            return azure_4dc_topology(**kwargs)
        if self.preset == "hetero_fanout":
            return heterogeneous_fanout_topology(
                hub_egress_bw=(
                    self.hub_egress_mb * MB
                    if self.hub_egress_mb is not None
                    else None
                )
            )
        kwargs = {}
        if self.wan_bandwidth_mb is not None:
            kwargs["wan_bandwidth"] = self.wan_bandwidth_mb * MB
        return make_topology(
            list(self.sites or ()),
            regions=dict(self.regions) if self.regions else None,
            **kwargs,
        )


@dataclass(frozen=True)
class NetworkSpec:
    """WAN bandwidth-sharing model plus its fair-model-only knobs.

    ``bandwidth_model=None`` keeps the deployment default (``"slots"``,
    the seed-exact model).  The caps/weights are enforced by the
    flow-level fair model only, so pinning them under any other model
    is rejected -- silently producing uncapped slots numbers would
    masquerade as a capped run (see ``docs/network-model.md``).
    """

    bandwidth_model: Optional[str] = None
    egress_cap_mb: Optional[float] = None
    ingress_cap_mb: Optional[float] = None
    rpc_flow_weight: float = 1.0
    transfer_flow_weight: float = 1.0

    def validate(self) -> None:
        if self.bandwidth_model is not None and (
            self.bandwidth_model not in BANDWIDTH_MODELS
        ):
            raise ValueError(
                f"bandwidth_model must be None or one of {BANDWIDTH_MODELS}"
            )
        fair_only_knobs = (
            self.egress_cap_mb is not None
            or self.ingress_cap_mb is not None
            or self.rpc_flow_weight != 1.0
        )
        if fair_only_knobs and self.bandwidth_model != "fair":
            raise ValueError(
                "--egress-cap-mb/--ingress-cap-mb/--rpc-flow-weight "
                "require --bandwidth-model fair"
            )
        if self.transfer_flow_weight != 1.0 and self.bandwidth_model != "fair":
            raise ValueError(
                "transfer_flow_weight requires bandwidth_model='fair'"
            )
        if self.egress_cap_mb is not None and self.egress_cap_mb <= 0:
            raise ValueError("egress_cap_mb must be positive")
        if self.ingress_cap_mb is not None and self.ingress_cap_mb <= 0:
            raise ValueError("ingress_cap_mb must be positive")
        if self.rpc_flow_weight <= 0:
            raise ValueError("rpc_flow_weight must be positive")
        if self.transfer_flow_weight <= 0:
            raise ValueError("transfer_flow_weight must be positive")


@dataclass(frozen=True)
class StrategySpec:
    """Which metadata strategy runs the registry, plus its key knobs.

    ``name`` accepts the canonical names and the paper-figure aliases
    (``dn``, ``dr``, ``baseline``, ...).  The remaining fields are the
    strategy knobs experiments actually vary; anything finer-grained
    stays on :class:`~repro.metadata.config.MetadataConfig`.
    """

    name: str = "hybrid"
    home_site: Optional[str] = None
    hybrid_sync_replication: bool = False
    write_lookup: bool = False
    sync_period: Optional[float] = None

    @property
    def canonical_name(self) -> str:
        return StrategyName.canonical(self.name)

    def validate(self) -> None:
        if self.canonical_name not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.name!r}; available: "
                f"{sorted(STRATEGIES)}"
            )
        if self.sync_period is not None and self.sync_period <= 0:
            raise ValueError("sync_period must be positive")


@dataclass(frozen=True)
class SchedulerSpec:
    """Task-placement policy plus its policy-specific knobs.

    ``name=None`` keeps the engine default (``"locality"``, the
    paper's bit-for-bit heuristic).  The hybrid coefficients act only
    under ``hybrid`` and the pending penalty only under
    ``bandwidth_aware``/``hybrid``; pinning them under any other policy
    is rejected -- silently accepting them would masquerade as a tuned
    run (see ``docs/scheduling.md``).
    """

    name: Optional[str] = None
    hybrid_locality_weight: float = 1.0
    hybrid_load_weight: float = 1.0
    hybrid_transfer_weight: float = 1.0
    bw_pending_penalty: float = 1.0
    input_site: Optional[str] = None

    def validate(self) -> None:
        if self.name is not None and self.name not in SCHEDULER_NAMES:
            raise ValueError(
                f"scheduler must be None or one of {SCHEDULER_NAMES}"
            )
        hybrid_knobs = (
            self.hybrid_locality_weight != 1.0
            or self.hybrid_load_weight != 1.0
            or self.hybrid_transfer_weight != 1.0
        )
        if hybrid_knobs and self.name != "hybrid":
            raise ValueError(
                "--hybrid-locality-weight/--hybrid-load-weight/"
                "--hybrid-transfer-weight require --scheduler hybrid"
            )
        if self.bw_pending_penalty != 1.0 and self.name not in (
            "bandwidth_aware",
            "hybrid",
        ):
            raise ValueError(
                "--bw-pending-penalty requires --scheduler "
                "bandwidth_aware (or hybrid)"
            )
        for label in (
            "hybrid_locality_weight",
            "hybrid_load_weight",
            "hybrid_transfer_weight",
            "bw_pending_penalty",
        ):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (see ``repro.cloud.faults``).

    Kinds and their fields:

    - ``site_outage``: ``site`` + ``start``/``duration`` -- registry
      slots held, fair flows through the site torn down;
    - ``region_outage``: ``sites`` tuple *or* ``region`` tag +
      ``start``/``duration`` -- correlated multi-site outage, one
      batched teardown;
    - ``link_flap``: ``link`` pair + ``times`` (absolute sim instants)
      -- transient flaps killing in-flight fair flows, no down window;
    - ``latency_spike``: ``link`` pair + ``start``/``duration`` +
      ``factor`` -- a brown-out inflating one link's latency.

    Fields that belong to a different kind are rejected, mirroring the
    policy-knob validation elsewhere in the spec tree.
    """

    kind: str
    start: float = 0.0
    duration: float = 0.0
    site: Optional[str] = None
    sites: Optional[Tuple[str, ...]] = None
    region: Optional[str] = None
    link: Optional[Tuple[str, str]] = None
    times: Optional[Tuple[float, ...]] = None
    factor: float = 10.0

    def __post_init__(self):
        for name in ("sites", "link", "times"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))

    def _forbid(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{name} does not apply to {self.kind} faults"
                )

    def validate(self, site_names: Optional[Tuple[str, ...]] = None) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.start < 0:
            raise ValueError("fault start must be >= 0")
        if self.kind == "site_outage":
            self._forbid("sites", "region", "link", "times")
            if self.site is None:
                raise ValueError("site_outage needs a site")
            if self.duration <= 0:
                raise ValueError("site_outage duration must be positive")
        elif self.kind == "region_outage":
            self._forbid("site", "link", "times")
            if (self.sites is None) == (self.region is None):
                raise ValueError(
                    "region_outage needs exactly one of sites or region"
                )
            if self.sites is not None and not self.sites:
                raise ValueError("region_outage sites must be non-empty")
            if self.duration <= 0:
                raise ValueError("region_outage duration must be positive")
        elif self.kind == "link_flap":
            self._forbid("site", "sites", "region")
            if self.link is None:
                raise ValueError("link_flap needs a link (a, b)")
            if not self.times:
                raise ValueError("link_flap needs at least one flap time")
            if any(t < 0 for t in self.times):
                raise ValueError("link_flap times must be >= 0")
            if self.duration:
                raise ValueError(
                    "duration does not apply to link_flap faults "
                    "(flaps are instantaneous)"
                )
        else:  # latency_spike
            self._forbid("site", "sites", "region", "times")
            if self.link is None:
                raise ValueError("latency_spike needs a link (a, b)")
            if self.duration <= 0:
                raise ValueError("latency_spike duration must be positive")
            if self.factor <= 0:
                raise ValueError("latency_spike factor must be positive")
        if self.link is not None:
            if len(self.link) != 2 or self.link[0] == self.link[1]:
                raise ValueError(
                    f"link must name two distinct sites, got {self.link}"
                )
        if site_names is not None:
            named = []
            if self.site is not None:
                named.append(self.site)
            named.extend(self.sites or ())
            named.extend(self.link or ())
            for site in named:
                if site not in site_names:
                    raise ValueError(
                        f"fault {self.kind!r} names unknown site "
                        f"{site!r}; topology has {list(site_names)}"
                    )


@dataclass(frozen=True)
class ObservabilitySpec:
    """Tracing + metrics plane configuration (see ``repro.obs``).

    Disabled by default: a run with ``enabled=False`` attaches no
    tracer at all, keeping the kernel hot paths on their no-op fast
    path.  Because the tracer only *observes* (it schedules no events
    and consumes no randomness), this block is deliberately **excluded
    from** :meth:`ScenarioSpec.canonical_json` / ``spec_hash`` -- the
    same experiment traced and untraced stores under the same artifact
    key.

    Attributes
    ----------
    enabled:
        Master switch.  The remaining knobs require it (pinning
        sampling detail on a disabled tracer would masquerade as an
        observed run).
    categories:
        Subset of :data:`repro.obs.TRACE_CATEGORIES` to record;
        ``None`` means all of them.
    sample_interval:
        Simulated seconds between counter/gauge time-series samples.
    max_events:
        Retained event/span cap; beyond it events are counted as
        dropped, bounding trace memory.
    histogram_capacity:
        Reservoir size per streaming histogram (quantiles are exact up
        to this many observations; see ``docs/observability.md``).
    """

    enabled: bool = False
    categories: Optional[Tuple[str, ...]] = None
    sample_interval: float = 1.0
    max_events: int = 1_000_000
    histogram_capacity: int = 2048

    def __post_init__(self):
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(self.categories))

    def validate(self) -> None:
        if self.categories is not None:
            if not self.categories:
                raise ValueError(
                    "categories must be None (all) or a non-empty tuple"
                )
            unknown = sorted(set(self.categories) - set(TRACE_CATEGORIES))
            if unknown:
                raise ValueError(
                    f"unknown trace categories {unknown}; expected a "
                    f"subset of {list(TRACE_CATEGORIES)}"
                )
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.histogram_capacity < 5:
            raise ValueError(
                "histogram_capacity must be >= 5 (quantile sketches "
                "need at least five retained points)"
            )
        if not self.enabled and (
            self.categories is not None
            or self.sample_interval != 1.0
            or self.max_events != 1_000_000
            or self.histogram_capacity != 2048
        ):
            # The spec tree's masquerade guard: tuning a tracer that
            # records nothing would silently present as an observed run.
            raise ValueError(
                "observability knobs require enabled=True"
            )


@dataclass(frozen=True)
class ElasticitySpec:
    """Elastic provisioning control plane (see ``repro.elastic``).

    Disabled by default: a run with ``enabled=False`` constructs no
    controller, schedules no control-loop events and draws no
    randomness, so every pre-elasticity golden stays bit-for-bit.
    Unlike ``observability``/``slo`` this block **participates in**
    ``spec_hash`` when enabled -- an autoscaled run simulates a
    genuinely different system than a static one -- while a disabled
    block is dropped from the canonical form so existing artifact keys
    never move.

    Attributes
    ----------
    enabled:
        Master switch.  Every other knob requires it (a tuned but
        disabled autoscaler would masquerade as an elastic run).
    policy:
        Decision kernel: ``threshold`` (queue-depth hysteresis bands),
        ``slo_debt`` (scale when projected deadline debt crosses
        ``debt_budget_s``) or ``predictive`` (EWMA arrival-rate
        forecast, pre-provisions ahead of ramps).
    interval_s:
        Control-loop period (simulated seconds between decisions).
    lag_s:
        Provisioning lag: ordered capacity becomes placeable this many
        seconds after the decision.
    warmup_s / warmup_factor:
        Warm-up cost: a freshly provisioned VM's computes are stretched
        by ``warmup_factor`` until ``warmup_s`` after arrival.
    min_vms_per_site / max_vms_per_site:
        Hard fleet bounds every policy's actions are clamped to.
    scale_step:
        VMs added per scale-up decision (drains shed at most this
        many, most policies shed one).
    cooldown_s:
        Per-site dwell time after any action before the next one.
    up_threshold / down_threshold:
        ``threshold`` policy's hysteresis band (tasks per effective
        VM); ``slo_debt`` reuses ``down_threshold`` as its quiet-fleet
        bar.  Must satisfy ``down < up``.
    debt_budget_s:
        ``slo_debt`` only: projected debt (seconds) that triggers a
        scale-up.
    ewma_alpha / target_task_s:
        ``predictive`` only: EWMA smoothing factor and the per-instance
        service-demand estimate (vm-seconds) its Little's-law fleet
        sizing uses.
    cost_rates:
        ``(site_class, rate)`` pairs pricing vm-seconds per site class
        (the datacenter's region tag); unlisted classes bill at 1.0.
    """

    enabled: bool = False
    policy: str = "threshold"
    interval_s: float = 5.0
    lag_s: float = 30.0
    warmup_s: float = 0.0
    warmup_factor: float = 2.0
    min_vms_per_site: int = 1
    max_vms_per_site: int = 8
    scale_step: int = 1
    cooldown_s: float = 0.0
    up_threshold: float = 2.0
    down_threshold: float = 0.25
    debt_budget_s: float = 5.0
    ewma_alpha: float = 0.3
    target_task_s: float = 30.0
    cost_rates: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "cost_rates",
            tuple((str(c), float(r)) for c, r in self.cost_rates),
        )

    def validate(self) -> None:
        if self.policy not in ELASTICITY_NAMES:
            raise ValueError(
                f"unknown elasticity policy {self.policy!r}; expected "
                f"one of {ELASTICITY_NAMES}"
            )
        if not self.enabled:
            if self != ElasticitySpec():
                # The spec tree's masquerade guard: a tuned autoscaler
                # that never acts would present as an elastic run.
                raise ValueError(
                    "elasticity knobs require enabled=True"
                )
            return
        if self.interval_s <= 0:
            raise ValueError("elasticity.interval_s must be positive")
        if self.lag_s < 0:
            raise ValueError("elasticity.lag_s must be >= 0")
        if self.warmup_s < 0:
            raise ValueError("elasticity.warmup_s must be >= 0")
        if self.warmup_factor < 1.0:
            raise ValueError(
                "elasticity.warmup_factor must be >= 1 (warm-up slows "
                "a VM down, it cannot speed one up)"
            )
        if self.min_vms_per_site < 1:
            raise ValueError(
                "elasticity.min_vms_per_site must be >= 1 (draining a "
                "site to zero would strand its queue)"
            )
        if self.max_vms_per_site < self.min_vms_per_site:
            raise ValueError(
                "elasticity.max_vms_per_site must be >= min_vms_per_site"
            )
        if self.scale_step < 1:
            raise ValueError("elasticity.scale_step must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("elasticity.cooldown_s must be >= 0")
        if self.down_threshold < 0 or self.up_threshold <= self.down_threshold:
            raise ValueError(
                "elasticity thresholds must satisfy "
                "0 <= down_threshold < up_threshold (the gap is the "
                "hysteresis band)"
            )
        if self.debt_budget_s < 0:
            raise ValueError("elasticity.debt_budget_s must be >= 0")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("elasticity.ewma_alpha must be in (0, 1]")
        if self.target_task_s <= 0:
            raise ValueError("elasticity.target_task_s must be positive")
        # Policy-specific knobs are rejected under other policies, like
        # the scheduler/admission sub-specs: a tuned-but-unread knob
        # would masquerade as a tuned run.
        if self.up_threshold != 2.0 and self.policy != "threshold":
            raise ValueError(
                "elasticity.up_threshold requires policy='threshold'"
            )
        if self.down_threshold != 0.25 and self.policy not in (
            "threshold",
            "slo_debt",
        ):
            raise ValueError(
                "elasticity.down_threshold requires policy='threshold' "
                "(or 'slo_debt')"
            )
        if self.debt_budget_s != 5.0 and self.policy != "slo_debt":
            raise ValueError(
                "elasticity.debt_budget_s requires policy='slo_debt'"
            )
        if (
            self.ewma_alpha != 0.3 or self.target_task_s != 30.0
        ) and self.policy != "predictive":
            raise ValueError(
                "elasticity.ewma_alpha/target_task_s require "
                "policy='predictive'"
            )
        seen = set()
        for cls, rate in self.cost_rates:
            if not cls:
                raise ValueError("elasticity.cost_rates needs class names")
            if cls in seen:
                raise ValueError(
                    f"elasticity.cost_rates repeats class {cls!r}"
                )
            seen.add(cls)
            if rate <= 0:
                raise ValueError(
                    f"elasticity cost rate for {cls!r} must be positive"
                )


def _validate_admission_knobs(
    admission: Optional[str],
    max_in_flight: Optional[int],
    token_rate: Optional[float],
    token_burst: Optional[int],
) -> None:
    """The workload-policy knob rules shared by spec and legacy paths."""
    if max_in_flight is not None and admission != "max_in_flight":
        raise ValueError(
            "--max-in-flight requires --admission max_in_flight"
        )
    if (
        token_rate is not None or token_burst is not None
    ) and admission != "token_bucket":
        raise ValueError(
            "--token-rate/--token-burst require "
            "--admission token_bucket"
        )
    if admission is not None and admission not in ADMISSION_NAMES:
        raise ValueError(
            f"admission must be None or one of {ADMISSION_NAMES}"
        )
    if max_in_flight is not None and max_in_flight <= 0:
        raise ValueError("max_in_flight must be positive")
    if token_rate is not None and token_rate <= 0:
        raise ValueError("token_rate must be positive")
    if token_burst is not None and token_burst < 1:
        raise ValueError("token_burst must be >= 1")


def config_from_specs(
    network: Optional[NetworkSpec] = None,
    scheduler: Optional[SchedulerSpec] = None,
    admission: Optional[str] = None,
    max_in_flight: Optional[int] = None,
    token_rate: Optional[float] = None,
    token_burst: Optional[int] = None,
    base: Optional[MetadataConfig] = None,
) -> Optional[MetadataConfig]:
    """Fold validated spec components into a :class:`MetadataConfig`.

    Each component is validated, and contributes its fields on top of
    ``base`` only when it actually pins something.  Returns ``base``
    unchanged (possibly ``None``) when nothing is pinned, so callers
    keep their defaults -- a ``None`` config stays ``None``.
    """
    config = base
    if network is not None:
        network.validate()
        if network.bandwidth_model is not None:
            config = MetadataConfig(
                **{
                    **(config.__dict__ if config is not None else {}),
                    "bandwidth_model": network.bandwidth_model,
                    "site_egress_bw": (
                        network.egress_cap_mb * MB
                        if network.egress_cap_mb is not None
                        else None
                    ),
                    "site_ingress_bw": (
                        network.ingress_cap_mb * MB
                        if network.ingress_cap_mb is not None
                        else None
                    ),
                    "rpc_flow_weight": network.rpc_flow_weight,
                    "transfer_flow_weight": network.transfer_flow_weight,
                }
            )
    if scheduler is not None:
        scheduler.validate()
        if scheduler.name is not None:
            config = MetadataConfig(
                **{
                    **(config.__dict__ if config is not None else {}),
                    "scheduler": scheduler.name,
                    "hybrid_locality_weight": scheduler.hybrid_locality_weight,
                    "hybrid_load_weight": scheduler.hybrid_load_weight,
                    "hybrid_transfer_weight": scheduler.hybrid_transfer_weight,
                    "bw_pending_penalty": scheduler.bw_pending_penalty,
                }
            )
    _validate_admission_knobs(admission, max_in_flight, token_rate, token_burst)
    if admission is not None:
        config = MetadataConfig(
            **{
                **(config.__dict__ if config is not None else {}),
                "admission": admission,
                "max_in_flight": max_in_flight,
                "token_rate": token_rate,
                "token_burst": token_burst if token_burst is not None else 1,
            }
        )
    if config is not None:
        config.validate()
    return config


def _nested_replace(obj, path: str, value):
    head, _, rest = path.partition(".")
    if isinstance(obj, (tuple, list)):
        # Numeric segments index into spec tuples, so one fault's field
        # or one tenant's rate is sweepable without replacing the whole
        # list: ``faults.0.duration``, ``workload.tenants.1.arrival_rate``.
        try:
            idx = int(head)
        except ValueError:
            raise ValueError(
                f"cannot descend into {type(obj).__name__} with {path!r}: "
                f"expected a numeric index, got {head!r}"
            ) from None
        if not 0 <= idx < len(obj):
            raise ValueError(
                f"index {idx} out of range: {type(obj).__name__} has "
                f"{len(obj)} element(s)"
            )
        items = list(obj)
        items[idx] = _nested_replace(items[idx], rest, value) if rest else value
        return tuple(items)
    if not dataclasses.is_dataclass(obj):
        raise ValueError(
            f"cannot descend into {type(obj).__name__} with {path!r}"
        )
    if head not in {f.name for f in dataclasses.fields(obj)}:
        raise ValueError(
            f"unknown field {head!r} on {type(obj).__name__}"
        )
    if rest:
        current = getattr(obj, head)
        if current is None:
            raise ValueError(
                f"cannot override {path!r}: {head!r} is unset"
            )
        value = _nested_replace(current, rest, value)
    return dataclasses.replace(obj, **{head: value})


@dataclass(frozen=True)
class ScenarioSpec:
    """The full description of one experiment: validated, serializable.

    Attributes
    ----------
    surface:
        Which execution path :meth:`run` dispatches to: ``"workflow"``
        (one DAG through the engine), ``"synthetic"`` (the Section
        VI-B reader/writer benchmark) or ``"workload"`` (multi-tenant;
        requires an embedded ``workload``).
    topology / network / strategy / scheduler / faults:
        The axes of the comparison matrix, one sub-spec each.
    observability:
        Tracing/metrics plane (:class:`ObservabilitySpec`); off by
        default, and excluded from :meth:`spec_hash` because it only
        observes the run.
    slo:
        Optional service-level objectives
        (:class:`~repro.scenario.slo.SLOSpec`) judged post-run into
        ``ScenarioResult.slo``; excluded from :meth:`spec_hash` for
        the same reason as ``observability`` (re-judging a stored
        experiment must not orphan its artifact).
    elasticity:
        Elastic provisioning control plane
        (:class:`ElasticitySpec`); off by default.  Unlike the two
        lens blocks above it *changes simulated behaviour*, so an
        enabled block participates in :meth:`spec_hash`.
    workload:
        Workload surface only: the embedded
        :class:`~repro.workload.spec.WorkloadSpec`.
    admission / max_in_flight / token_rate / token_burst:
        Workload surface only: admission-control policy and its
        policy-specific knobs.
    application / workflow_file / ops_per_task / compute_time:
        Workflow surface only: which DAG to build (a name from
        :data:`WORKFLOW_APPLICATIONS`, or a workflow JSON file which
        wins when set) and its sizing.  ``compute_time=None`` keeps
        the application default.
    ops_per_node:
        Synthetic surface only: operations per reader/writer node.
    n_nodes / seed:
        Deployment fleet size and master seed (all surfaces).
    """

    name: str = "scenario"
    description: str = ""
    surface: str = "workflow"
    topology: TopologySpec = field(default_factory=TopologySpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    strategy: StrategySpec = field(default_factory=StrategySpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)
    slo: Optional[SLOSpec] = None
    elasticity: ElasticitySpec = field(default_factory=ElasticitySpec)
    faults: Tuple[FaultSpec, ...] = ()
    workload: Optional[WorkloadSpec] = None
    admission: Optional[str] = None
    max_in_flight: Optional[int] = None
    token_rate: Optional[float] = None
    token_burst: Optional[int] = None
    application: str = "montage"
    workflow_file: Optional[str] = None
    ops_per_task: int = 100
    compute_time: Optional[float] = None
    ops_per_node: int = 1000
    n_nodes: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check every cross-field rule; raises ``ValueError``."""
        if self.surface not in SURFACES:
            raise ValueError(
                f"surface must be one of {SURFACES}, got {self.surface!r}"
            )
        self.topology.validate()
        self.network.validate()
        self.strategy.validate()
        self.scheduler.validate()
        self.observability.validate()
        self.elasticity.validate()
        if self.elasticity.enabled:
            if self.surface == "synthetic":
                raise ValueError(
                    "elasticity does not apply to the synthetic surface "
                    "(its reader/writer nodes are the experiment, not a "
                    "schedulable fleet)"
                )
            if self.elasticity.policy == "slo_debt" and (
                self.surface != "workload"
                or self.slo is None
                or not (
                    self.slo.deadline_s is not None
                    or self.slo.tenant_deadlines
                )
            ):
                raise ValueError(
                    "elasticity.policy='slo_debt' needs the workload "
                    "surface and an slo block with deadline_s or "
                    "tenant_deadlines (its signal is live deadline debt)"
                )
            if (
                self.elasticity.policy == "predictive"
                and self.surface != "workload"
            ):
                raise ValueError(
                    "elasticity.policy='predictive' needs the workload "
                    "surface (its signal is the tenant arrival rate)"
                )
            known_regions = set(self.topology.region_names())
            for cls, _rate in self.elasticity.cost_rates:
                if cls not in known_regions:
                    raise ValueError(
                        f"elasticity.cost_rates names unknown site class "
                        f"{cls!r}; topology has {sorted(known_regions)}"
                    )
        if self.slo is not None:
            self.slo.validate()
            if self.slo.latency_targets and not self.observability.enabled:
                # Latency objectives are judged against the obs
                # histograms; without tracing they would silently skip
                # every run (the masquerade class this tree rejects).
                raise ValueError(
                    "slo.latency_targets require observability.enabled "
                    "(they are judged against the obs histograms)"
                )
            if self.slo.tenant_deadlines and self.surface != "workload":
                raise ValueError(
                    "slo.tenant_deadlines is a workload-surface knob"
                )
        sites = self.topology.site_names()
        for label in ("home_site", "input_site"):
            owner = self.strategy if label == "home_site" else self.scheduler
            value = getattr(owner, label)
            if value is not None and value not in sites:
                raise ValueError(
                    f"{label} {value!r} is not a site of the "
                    f"{self.topology.preset!r} topology {list(sites)}"
                )
        regions = self.topology.region_names()
        for fault in self.faults:
            fault.validate(site_names=sites)
            if fault.region is not None and fault.region not in regions:
                raise ValueError(
                    f"fault {fault.kind!r} names unknown region "
                    f"{fault.region!r}; topology has {list(regions)}"
                )
        _validate_admission_knobs(
            self.admission, self.max_in_flight,
            self.token_rate, self.token_burst,
        )
        if self.surface == "workload":
            if self.workload is None:
                raise ValueError(
                    "surface='workload' needs an embedded workload spec"
                )
            self.workload.validate()
            if self.slo is not None and self.slo.tenant_deadlines:
                tenant_names = {t.name for t in self.workload.tenants}
                for tenant, _ in self.slo.tenant_deadlines:
                    if tenant not in tenant_names:
                        raise ValueError(
                            f"slo.tenant_deadlines names unknown tenant "
                            f"{tenant!r}; workload has "
                            f"{sorted(tenant_names)}"
                        )
            for tenant in self.workload.tenants:
                if (
                    tenant.input_site is not None
                    and tenant.input_site not in sites
                ):
                    raise ValueError(
                        f"tenant {tenant.name!r} input_site "
                        f"{tenant.input_site!r} is not a site of the "
                        f"topology {list(sites)}"
                    )
        else:
            if self.workload is not None:
                raise ValueError(
                    "an embedded workload spec requires surface='workload'"
                )
            if self.admission is not None:
                # The spec twin of the CLI masquerade guard: admission
                # control over a single workflow is a contradiction.
                raise ValueError(
                    "admission control is a workload-surface knob "
                    "(--tenants > 1 on the CLI)"
                )
        if self.surface != "workflow" and self.scheduler.input_site:
            # The synthetic benchmark stages no data, and on the
            # workload surface data origins are per-tenant -- accepting
            # a scenario-level input_site there would silently do
            # nothing (the masquerade class this spec tree rejects).
            raise ValueError(
                "input_site is a workflow-surface knob (workload "
                "tenants carry their own input_site; the synthetic "
                "benchmark stages no data)"
            )
        if self.workflow_file is not None and self.surface != "workflow":
            raise ValueError(
                "workflow_file is a workflow-surface knob"
            )
        if (
            self.surface == "workflow"
            and self.workflow_file is None
            and self.application not in WORKFLOW_APPLICATIONS
        ):
            raise ValueError(
                f"unknown application {self.application!r}; expected one "
                f"of {WORKFLOW_APPLICATIONS} (or a workflow_file)"
            )
        if self.ops_per_task < 0:
            raise ValueError("ops_per_task must be >= 0")
        if self.compute_time is not None and self.compute_time < 0:
            raise ValueError("compute_time must be >= 0")
        if self.ops_per_node <= 0:
            raise ValueError("ops_per_node must be positive")
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")

    # -- derived artefacts -------------------------------------------------

    def to_metadata_config(
        self, base: Optional[MetadataConfig] = None
    ) -> Optional[MetadataConfig]:
        """The :class:`MetadataConfig` this scenario pins, over ``base``.

        ``None`` when the spec pins nothing config-level (callers keep
        their defaults -- exactly what the pre-spec flag plumbing did).
        """
        s = self.strategy
        if (
            s.home_site is not None
            or s.hybrid_sync_replication
            or s.write_lookup
            or s.sync_period is not None
        ):
            # Only knobs the spec actually pins override the base --
            # an unset default must never clobber a base-config value.
            kwargs = dict(base.__dict__) if base is not None else {}
            if s.home_site is not None:
                kwargs["home_site"] = s.home_site
            if s.hybrid_sync_replication:
                kwargs["hybrid_sync_replication"] = True
            if s.write_lookup:
                kwargs["write_lookup"] = True
            if s.sync_period is not None:
                kwargs["sync_period"] = s.sync_period
            base = MetadataConfig(**kwargs)
        return config_from_specs(
            network=self.network,
            scheduler=self.scheduler,
            admission=self.admission,
            max_in_flight=self.max_in_flight,
            token_rate=self.token_rate,
            token_burst=self.token_burst,
            base=base,
        )

    def quick(self) -> "ScenarioSpec":
        """A CI-sized variant: same shape, reduced op volumes.

        Caps ``ops_per_node`` at 100 (synthetic), ``ops_per_task`` at
        20 (workflow), and each tenant at one instance with
        ``ops_per_task`` capped at 8 (workload).
        """
        if self.surface == "synthetic":
            return self.replace(ops_per_node=min(self.ops_per_node, 100))
        if self.surface == "workflow":
            return self.replace(ops_per_task=min(self.ops_per_task, 20))
        tenants = tuple(
            dataclasses.replace(
                t,
                n_instances=1,
                ops_per_task=min(t.ops_per_task, 8),
                arrival_times=(
                    t.arrival_times[:1] if t.arrival_times else None
                ),
            )
            for t in self.workload.tenants
        )
        return self.replace(
            workload=dataclasses.replace(self.workload, tenants=tenants)
        )

    # -- functional builders -----------------------------------------------

    def replace(self, **overrides) -> "ScenarioSpec":
        """A new spec with fields swapped; dotted paths reach sub-specs.

        >>> spec.replace(**{"scheduler.name": "bandwidth_aware",
        ...                 "network.bandwidth_model": "fair"})

        Plain keys replace top-level fields (``replace(n_nodes=8)``).
        The original spec is untouched; the result is *not* validated
        (sweeps may pass through transiently-invalid intermediates) --
        :meth:`run` validates.
        """
        direct: Dict[str, Any] = {}
        for key, value in overrides.items():
            head, _, rest = key.partition(".")
            if not rest:
                direct[head] = value
                continue
            current = direct.get(head, getattr(self, head, None))
            if current is None:
                raise ValueError(
                    f"cannot override {key!r}: {head!r} is unset"
                )
            direct[head] = _nested_replace(current, rest, value)
        try:
            return dataclasses.replace(self, **direct)
        except TypeError as exc:
            raise ValueError(f"bad override: {exc}") from None

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict; ``from_dict`` inverts it exactly."""
        out = dataclasses.asdict(self)
        out["faults"] = [dataclasses.asdict(f) for f in self.faults]
        out["workload"] = (
            self.workload.to_dict() if self.workload is not None else None
        )
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        data = dict(data)
        _check_keys(
            "ScenarioSpec", data, (f.name for f in dataclasses.fields(cls))
        )
        for key, sub in (
            ("topology", TopologySpec),
            ("network", NetworkSpec),
            ("strategy", StrategySpec),
            ("scheduler", SchedulerSpec),
            ("observability", ObservabilitySpec),
            ("slo", SLOSpec),
            ("elasticity", ElasticitySpec),
        ):
            if isinstance(data.get(key), Mapping):
                data[key] = _sub_from_dict(sub, data[key])
        if "faults" in data:
            data["faults"] = tuple(
                _sub_from_dict(FaultSpec, f) if isinstance(f, Mapping) else f
                for f in data["faults"]
            )
        if isinstance(data.get("workload"), Mapping):
            data["workload"] = WorkloadSpec.from_dict(data["workload"])
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def canonical_json(self) -> str:
        """The canonical serialized form :meth:`spec_hash` digests.

        Sorted keys, minimal separators: any two specs with equal
        :meth:`to_dict` output produce the identical string -- except
        the ``observability`` and ``slo`` blocks, which are dropped
        before hashing.  Tracing only observes a run (same seeds, same
        events, same metrics) and objectives only judge one, so a
        traced or re-judged re-run of a stored experiment must land on
        the same artifact key.  A *disabled* ``elasticity`` block is
        dropped too (behaviour-free, keys stay stable); an enabled one
        is kept -- an autoscaled run is a different experiment.
        """
        doc = self.to_dict()
        del doc["observability"]
        doc.pop("slo", None)
        if not self.elasticity.enabled:
            # Disabled elasticity is behaviour-free, so it is dropped
            # and every pre-elasticity artifact key stays valid; an
            # *enabled* block changes what the simulation does and
            # stays in the digest.
            del doc["elasticity"]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """A stable content hash of this spec (hex SHA-256).

        The key under which :class:`~repro.results.ResultStore`
        persists run artifacts: equal specs hash equally across
        processes and sessions, and *any* field change (including
        nested sub-spec fields) changes the hash -- except
        ``observability`` and ``slo``, which never affect simulated
        behaviour and are excluded (see :meth:`canonical_json`).  The
        hash of the
        ``paper_default`` scenario is pinned by a golden test --
        accidental spec-shape changes that would orphan stored
        artifacts fail loudly there.
        """
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the spec as a JSON artifact (the ``--spec`` format)."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- execution ---------------------------------------------------------

    def run(
        self,
        quick: bool = False,
        workflow=None,
        config_base: Optional[MetadataConfig] = None,
    ):
        """Validate and execute this scenario; see ``repro.scenario.runner``.

        Returns a :class:`~repro.scenario.runner.ScenarioResult`.
        ``workflow`` optionally injects a pre-built DAG (workflow
        surface only); ``config_base`` supplies defaults the spec's
        own pins override.
        """
        from repro.scenario.runner import run_scenario

        return run_scenario(
            self, quick=quick, workflow=workflow, config_base=config_base
        )
