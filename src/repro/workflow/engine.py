"""The workflow execution engine.

Implements the paper's engine model (Section II-A): "the workflow engine
queries the metadata service to retrieve the job input files, retrieves
them, executes the job and stores the metadata and data of the final
results."  Plus the scheduling behaviour the consistency argument relies
on (Section III-D): "the engine scheduler takes care to schedule the
task close to the data production nodes (i.e. on the same node, in the
same datacenter)".

Task lifecycle on its assigned VM:

1. resolve every input file through the metadata service
   (``require_found`` -- a producer published it, so a miss means
   "not visible here yet" and is retried);
2. fetch any input not materialized at the VM's site (data transfer,
   paying WAN latency + size/bandwidth);
3. compute (a sleep, exactly as the paper simulates task internals);
4. store outputs locally and publish their metadata;
5. perform the task's ``extra_ops`` registry operations in the paper's
   write-once/read-many pattern (publish a small file, later read it
   back), alternating writes and reads of the task's own key space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Union

from repro.sim import AllOf, Environment, Event
from repro.cloud.deployment import Deployment
from repro.cloud.vm import VirtualMachine
from repro.metadata.entry import RegistryEntry
from repro.metadata.stats import OpStats
from repro.metadata.strategies.base import MetadataStrategy
from repro.obs import NULL_TRACER
from repro.scheduling import (
    ClusterView,
    PlacementPolicy,
    TenantContext,
    make_scheduler,
)
from repro.storage.filestore import StoredFile
from repro.storage.transfer import TransferService
from repro.workflow.dag import Task, Workflow, WorkflowFile

__all__ = ["TaskResult", "WorkflowEngine", "WorkflowResult"]


@dataclass
class TaskResult:
    """Execution record of one task."""

    task_id: str
    vm: str
    site: str
    started_at: float
    finished_at: float
    metadata_time: float
    transfer_time: float
    compute_time: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class WorkflowResult:
    """Outcome of one workflow execution."""

    workflow: str
    strategy: str
    makespan: float
    task_results: List[TaskResult] = field(default_factory=list)
    #: Snapshot of strategy op stats over this run only (tag-filtered,
    #: so results stay exact when workflows execute concurrently).
    ops: Optional[OpStats] = None
    #: The run tag this execution's op records carry.
    run: str = ""
    #: Absolute simulation times bracketing the execution.
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def total_metadata_time(self) -> float:
        return sum(r.metadata_time for r in self.task_results)

    @property
    def total_transfer_time(self) -> float:
        return sum(r.transfer_time for r in self.task_results)

    def tasks_per_site(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.task_results:
            out[r.site] = out.get(r.site, 0) + 1
        return out

    def __repr__(self) -> str:
        return (
            f"<WorkflowResult {self.workflow}/{self.strategy} "
            f"makespan={self.makespan:.1f}s tasks={len(self.task_results)}>"
        )


class WorkflowEngine:
    """Schedules a workflow over a deployment using a metadata strategy.

    Task *placement* is delegated to a pluggable
    :class:`~repro.scheduling.PlacementPolicy` (see
    ``docs/scheduling.md``).  ``scheduler`` may be a policy instance or
    a registry name (``"locality"``, ``"round_robin"``,
    ``"load_balanced"``, ``"bandwidth_aware"``, ``"hybrid"``); when
    omitted it falls back to the strategy config's ``scheduler``, then
    the deployment's, then the historical default, ``"locality"``.
    Name-built policies pick up their knobs (hybrid weights, pending
    penalty) from the strategy config.

    ``input_site`` selects the site where the workflow's external
    inputs are staged before the run (default: the deployment's first
    site, the historical behaviour), so scheduler experiments can vary
    the data origin.
    """

    def __init__(
        self,
        deployment: Deployment,
        strategy: MetadataStrategy,
        transfer: Optional[TransferService] = None,
        proactive_provisioning: bool = False,
        data_provisioning: bool = False,
        scheduler: Optional[Union[str, PlacementPolicy]] = None,
        input_site: Optional[str] = None,
    ):
        self.deployment = deployment
        self.env: Environment = deployment.env
        self.strategy = strategy
        config = getattr(strategy, "config", None)
        self.transfer = transfer or TransferService(
            self.env,
            deployment.network,
            deployment.sites,
            default_weight=(
                config.transfer_flow_weight if config is not None else 1.0
            ),
        )
        if input_site is not None:
            deployment.topology.get(input_site)  # validate the site name
        self.input_site = input_site
        #: Section III-C: "proactively move data between nodes in
        #: distant datacenters before it is needed".  When enabled, a
        #: task resolves and stages all of its inputs *concurrently*
        #: instead of one at a time, overlapping metadata latency with
        #: data movement.
        self.proactive_provisioning = proactive_provisioning
        #: Stronger III-C mode: speculative cross-site prefetch of
        #: produced files toward their likely consumers, driven by a
        #: :class:`~repro.workflow.provisioning.DataProvisioner` per run.
        self.data_provisioning = data_provisioning
        #: The provisioner of the most recent ``execute`` call (for
        #: inspection of prefetch hit rates).
        self.last_provisioner = None
        self._rng = deployment.rng.get("engine")
        # Monotonic run counter: every execute() call gets a unique op
        # attribution tag even when runs interleave on one engine.
        self._run_seq = 0
        # Per-VM pending-task counters for least-loaded selection (the
        # policies read them through the cluster view).
        self._vm_load: Dict[str, int] = {
            vm.name: 0 for vm in deployment.workers
        }
        # Elastic fleets: newly provisioned VMs need a load counter the
        # moment they become placeable.  Entries of removed (draining)
        # VMs are kept -- their in-flight decrements still land there,
        # and the elastic controller reads them to detect drain
        # completion.
        deployment.add_fleet_listener(self._on_fleet_change)
        self.cluster = ClusterView(deployment, self.transfer, self._vm_load)
        self.policy = self._resolve_policy(scheduler, config)
        # Observability: placement decisions under "scheduler" (with
        # per-site candidate scores), task lifecycles as spans with
        # staging/compute/publish children.  Category flags are cached
        # at construction like the network's fairness flag.
        tr = getattr(self.env, "tracer", None) or NULL_TRACER
        self._tracer = tr
        self._trace_sched = tr.enabled and tr.wants("scheduler")
        self._trace_span = tr.enabled and tr.wants("span")

    def _on_fleet_change(self, added, removed) -> None:
        """Keep per-VM load counters in sync with an elastic fleet."""
        for vm in added:
            self._vm_load.setdefault(vm.name, 0)

    def _resolve_policy(
        self,
        scheduler: Optional[Union[str, PlacementPolicy]],
        config,
    ) -> PlacementPolicy:
        """Turn the ``scheduler`` argument into a policy instance.

        Precedence: explicit argument > strategy config > deployment
        default > ``"locality"``.
        """
        if scheduler is None:
            scheduler = getattr(config, "scheduler", None)
        if scheduler is None:
            scheduler = getattr(self.deployment, "scheduler", None)
        if scheduler is None:
            scheduler = "locality"
        if isinstance(scheduler, PlacementPolicy):
            return scheduler
        knobs = {}
        if scheduler in ("bandwidth_aware", "hybrid"):
            knobs["pending_penalty"] = getattr(
                config, "bw_pending_penalty", 1.0
            )
        if scheduler == "hybrid":
            knobs.update(
                locality_weight=getattr(
                    config, "hybrid_locality_weight", 1.0
                ),
                load_weight=getattr(config, "hybrid_load_weight", 1.0),
                transfer_weight=getattr(
                    config, "hybrid_transfer_weight", 1.0
                ),
            )
        return make_scheduler(scheduler, **knobs)

    # -- public API ---------------------------------------------------------------

    def run(self, workflow: Workflow) -> WorkflowResult:
        """Execute ``workflow`` to completion and return its result.

        Drives the deployment's environment until the workflow's last
        task finishes.  Multiple workflows can be run sequentially on
        the same engine; op stats snapshots are per-run.
        """
        workflow.validate()
        done = self.env.process(
            self.execute(workflow), name=f"wf-{workflow.name}"
        )
        return self.env.run(until=done)

    def execute(
        self,
        workflow: Workflow,
        input_site: Optional[str] = None,
        run: Optional[str] = None,
        tenant: Optional[TenantContext] = None,
    ) -> Generator:
        """Process form of :meth:`run`, for composition with other load.

        Many ``execute`` processes may be in flight concurrently on one
        engine (the workload layer's whole purpose): each call gets a
        unique ``run`` tag carried on every op record it issues, and the
        result's op snapshot is filtered by that tag -- interleaved runs
        can neither lose nor double-attribute operations.  ``input_site``
        optionally stages *this* workflow's external inputs at a
        different site than the engine default (per-tenant data
        origins); ``run`` overrides the auto-generated tag; ``tenant``
        identifies the submitting tenant to placement policies (exposed
        as ``cluster.placing_tenant`` during this workflow's placement
        decisions, with in-flight counts in ``cluster.tenant_load``).
        """
        self._run_seq += 1
        if run is None:
            run = f"{workflow.name}#{self._run_seq}"
        start = self.env.now
        # Records appended before this instant cannot carry this run's
        # tag, so the completion-time filter only scans the run's own
        # window of the shared record list (keeps a long workload's
        # attribution linear instead of quadratic in total op count).
        ops_before = len(self.strategy.stats)
        self._materialize_initial_inputs(workflow, input_site)

        provisioner = None
        if self.data_provisioning:
            from repro.workflow.provisioning import DataProvisioner

            provisioner = DataProvisioner(
                self.env, workflow, self.strategy, self.transfer
            )
        self.last_provisioner = provisioner

        completion: Dict[str, Event] = {
            tid: self.env.event() for tid in workflow.tasks
        }
        results: List[TaskResult] = []
        for task in workflow.topological_order():
            parent_events = [
                completion[p.task_id] for p in workflow.parents(task)
            ]
            self.env.process(
                self._task_lifecycle(
                    workflow, task, parent_events, completion[task.task_id],
                    results, provisioner, run, tenant,
                ),
                name=f"task-{task.task_id}",
            )
        yield AllOf(self.env, list(completion.values()))

        ops = self.strategy.stats.tail_for_run(ops_before, run)
        return WorkflowResult(
            workflow=workflow.name,
            strategy=self.strategy.name,
            makespan=self.env.now - start,
            task_results=sorted(results, key=lambda r: r.started_at),
            ops=ops,
            run=run,
            started_at=start,
            finished_at=self.env.now,
        )

    # -- internals ---------------------------------------------------------------------

    def _materialize_initial_inputs(
        self, workflow: Workflow, input_site: Optional[str] = None
    ) -> None:
        """Stage external input files at the input site and publish them.

        The staging site defaults to the deployment's first site (the
        historical behaviour) and can be varied per engine via the
        ``input_site`` knob or per run via ``execute(input_site=...)``
        (per-tenant data origins) -- the origin matters to the
        bandwidth-aware placement policies.
        """
        if input_site is not None:
            self.deployment.topology.get(input_site)  # validate
        site = input_site or self.input_site or self.deployment.sites[0]
        for f in workflow.initial_inputs():
            self.transfer.store(
                site, StoredFile(f.name, f.size, self.env.now, producer="")
            )
            # Published synchronously at t=0 (stage-in happens before the
            # run in real deployments); bypass timing via direct cache
            # access on every registry so all strategies see it.
            for registry in self.strategy.registries.values():
                registry.cache.merge(
                    RegistryEntry(
                        key=f.name, locations=frozenset({site}), size=f.size
                    )
                )

    def _task_lifecycle(
        self,
        workflow: Workflow,
        task: Task,
        parent_events: List[Event],
        done: Event,
        results: List[TaskResult],
        provisioner=None,
        run: str = "",
        tenant: Optional[TenantContext] = None,
    ) -> Generator:
        if parent_events:
            yield AllOf(self.env, parent_events)
        parent_sites = [ev.value for ev in parent_events]
        # Expose the submitting tenant to the policy for the duration
        # of this one placement decision (satellite plumbing: policies
        # may read it, none act on it yet).
        self.cluster.placing_tenant = tenant
        try:
            vm = self._place(workflow, task, parent_sites)
        finally:
            self.cluster.placing_tenant = None
        if self._trace_sched:
            self._emit_placement(task, vm, parent_sites)
        self.policy.on_task_placed(task, vm, self.cluster)
        if provisioner is not None:
            provisioner.on_task_placed(task, vm.site)
        self._vm_load[vm.name] += 1
        if tenant is not None:
            self.cluster.tenant_load[tenant.name] = (
                self.cluster.tenant_load.get(tenant.name, 0) + 1
            )
        span = (
            self._tracer.span(
                "task", task=task.task_id, vm=vm.name, site=vm.site, run=run
            )
            if self._trace_span
            else None
        )
        try:
            result = yield from self._execute_task(
                task, vm, workflow.parents(task), run, span
            )
        finally:
            self._vm_load[vm.name] -= 1
            if tenant is not None:
                self.cluster.tenant_load[tenant.name] -= 1
            self.policy.on_task_complete(task, vm, self.cluster)
            if span is not None:
                span.finish()
        results.append(result)
        if provisioner is not None:
            provisioner.on_task_complete(task, vm.site)
        done.succeed(vm.site)

    def _place(
        self,
        workflow: Workflow,
        task: Task,
        parent_sites: List[str],
    ) -> VirtualMachine:
        """Pick the VM for a ready task (delegates to the policy)."""
        return self.policy.place(task, workflow, parent_sites, self.cluster)

    def _emit_placement(
        self,
        task: Task,
        vm: VirtualMachine,
        parent_sites: List[str],
    ) -> None:
        """One "scheduler"/"place" event per decision, with per-site
        candidate scores (estimated staging seconds -- the quantity
        bandwidth-aware policies minimize).  Score computation is pure
        and only runs when the category is enabled."""
        scores = {
            site: round(
                self.policy.staging_time(task, site, self.cluster), 6
            )
            for site in self.deployment.sites
        }
        self._tracer.emit(
            "scheduler",
            "place",
            task=task.task_id,
            vm=vm.name,
            site=vm.site,
            policy=self.policy.name,
            parent_sites=sorted(set(parent_sites)),
            scores=scores,
        )

    @staticmethod
    def scratch_keys(task: Task) -> List[str]:
        """The scratch keys a task publishes during its extra ops.

        Deterministic so consumer tasks can address a producer's scratch
        space without any side channel (mirrors how workflow engines
        derive file names from job templates).
        """
        return [
            f"{task.task_id}/scratch-{i}"
            for i in range(0, task.extra_ops, 2)
        ]

    def _execute_task(
        self,
        task: Task,
        vm: VirtualMachine,
        parents: Optional[List[Task]] = None,
        run: str = "",
        span=None,
    ) -> Generator:
        start = self.env.now
        metadata_time = 0.0
        transfer_time = 0.0

        # 1-2. Resolve and stage inputs (concurrently under proactive
        # provisioning, sequentially otherwise).
        stage_span = (
            span.child("stage", inputs=len(task.inputs))
            if span is not None and task.inputs
            else None
        )
        if self.proactive_provisioning and len(task.inputs) > 1:
            t0 = self.env.now
            staged = [
                self.env.process(
                    self._stage_input(f, vm.site, run),
                    name=f"stage-{task.task_id}-{f.name}",
                )
                for f in task.inputs
            ]
            yield AllOf(self.env, staged)
            # Concurrent staging: attribute the whole wait to transfer,
            # with the slowest metadata resolution as metadata time.
            metadata_time += max(p.value[0] for p in staged)
            transfer_time += (self.env.now - t0) - max(
                p.value[0] for p in staged
            )
        else:
            for f in task.inputs:
                t0 = self.env.now
                entry = yield from self.strategy.read(
                    vm.site, f.name, require_found=True, run=run
                )
                metadata_time += self.env.now - t0
                locations = entry.locations if entry is not None else ()
                t0 = self.env.now
                yield from self.transfer.fetch(
                    f.name, vm.site, known_locations=locations
                )
                transfer_time += self.env.now - t0
        if stage_span is not None:
            stage_span.finish(
                metadata_s=metadata_time, transfer_s=transfer_time
            )
        self.policy.on_inputs_staged(task, vm, self.cluster)

        # 3. Compute (a sleep, as in the paper).  Tasks with extra
        # registry ops interleave their computation with those ops
        # (step 5) -- real jobs alternate processing and metadata
        # passing rather than bursting all registry traffic at once --
        # so here we only pay the lump for op-free tasks.
        compute_time = 0.0
        think_slice = (
            task.compute_time / task.extra_ops if task.extra_ops else 0.0
        )
        if not task.extra_ops:
            t0 = self.env.now
            compute_span = (
                span.child("compute") if span is not None else None
            )
            yield from vm.compute(task.compute_time)
            compute_time = self.env.now - t0
            if compute_span is not None:
                compute_span.finish()

        # 4. Store and publish outputs.
        publish_span = (
            span.child("publish", outputs=len(task.outputs))
            if span is not None and task.outputs
            else None
        )
        publish_meta0 = metadata_time
        for f in task.outputs:
            self.transfer.store(
                vm.site,
                StoredFile(f.name, f.size, self.env.now, producer=task.task_id),
            )
            t0 = self.env.now
            yield from self.strategy.write(
                vm.site,
                RegistryEntry(
                    key=f.name, locations=frozenset({vm.site}), size=f.size
                ),
                run=run,
            )
            metadata_time += self.env.now - t0
        if publish_span is not None:
            publish_span.finish(metadata_s=metadata_time - publish_meta0)

        # 5. Extra registry ops in the write-once/read-many pattern:
        # even ops publish this task's own scratch entries; odd ops read
        # entries published by the task's *parents* (the cross-task
        # consumption that makes metadata placement matter).  Root tasks
        # read back their own scratch space instead.
        parent_keys: List[str] = []
        for p in parents or []:
            parent_keys.extend(self.scratch_keys(p))
            parent_keys.extend(f.name for f in p.outputs)
        own_written: List[str] = []
        ops_span = (
            span.child("ops", extra_ops=task.extra_ops)
            if span is not None and task.extra_ops
            else None
        )
        ops_meta0, ops_compute0 = metadata_time, compute_time
        for i in range(task.extra_ops):
            if think_slice > 0:
                t0 = self.env.now
                yield from vm.compute(think_slice)
                compute_time += self.env.now - t0
            t0 = self.env.now
            if i % 2 == 0:
                key = f"{task.task_id}/scratch-{i}"
                yield from self.strategy.write(
                    vm.site,
                    RegistryEntry(key=key, locations=frozenset({vm.site})),
                    run=run,
                )
                own_written.append(key)
            else:
                pool = parent_keys or own_written
                key = pool[int(self._rng.integers(len(pool)))]
                yield from self.strategy.read(
                    vm.site, key, require_found=True, run=run
                )
            metadata_time += self.env.now - t0
        if ops_span is not None:
            # Attribution split for repro.obs.analyze: the ops loop
            # interleaves think slices (compute) with registry traffic.
            ops_span.finish(
                metadata_s=metadata_time - ops_meta0,
                compute_s=compute_time - ops_compute0,
            )

        return TaskResult(
            task_id=task.task_id,
            vm=vm.name,
            site=vm.site,
            started_at=start,
            finished_at=self.env.now,
            metadata_time=metadata_time,
            transfer_time=transfer_time,
            compute_time=compute_time,
        )

    def _stage_input(
        self, f: WorkflowFile, site: str, run: str = ""
    ) -> Generator:
        """Process: resolve one input's metadata and fetch its data.

        Returns ``(metadata_seconds, transfer_seconds)`` so the caller
        can attribute time under concurrent staging.
        """
        t0 = self.env.now
        entry = yield from self.strategy.read(
            site, f.name, require_found=True, run=run
        )
        meta_t = self.env.now - t0
        locations = entry.locations if entry is not None else ()
        t0 = self.env.now
        yield from self.transfer.fetch(
            f.name, site, known_locations=locations
        )
        return meta_t, self.env.now - t0
