"""Pluggable multi-site task scheduling.

Turns the workflow engine's placement step into a swappable
:class:`PlacementPolicy`: five concrete policies (``round_robin``,
``locality`` -- the bit-for-bit-compatible default -- ``load_balanced``,
``bandwidth_aware`` and ``hybrid``) observe the cluster through a
:class:`ClusterView` and are selected by name via
:func:`make_scheduler`, ``Deployment(scheduler=...)``,
``MetadataConfig.scheduler`` or the ``scheduler.name`` spec path
(``repro.cli run SCENARIO --set scheduler.name=...``).

See ``docs/scheduling.md`` for policy semantics, knobs and guidance.
"""

from repro.scheduling.base import ClusterView, PlacementPolicy, TenantContext
from repro.scheduling.policies import (
    BandwidthAwarePolicy,
    HybridPolicy,
    LoadBalancedPolicy,
    LocalityPolicy,
    RoundRobinPolicy,
    SCHEDULERS,
    SCHEDULER_NAMES,
    make_scheduler,
)

__all__ = [
    "BandwidthAwarePolicy",
    "ClusterView",
    "HybridPolicy",
    "LoadBalancedPolicy",
    "LocalityPolicy",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "TenantContext",
    "make_scheduler",
]
