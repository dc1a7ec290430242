"""The composition root: one object wiring every LSDF subsystem together.

A :class:`Facility` owns a single simulator and a single network topology:
the slide-7 backbone (DAQs, redundant routers, DDN+IBM arrays, tape,
Heidelberg WAN) with the slide-11 analysis cluster grafted on as racks
behind the routers — so ingest flows, HDFS pipelines, MapReduce shuffles
and cloud image stagings all contend for the same links, as they did in the
real facility.

The glue layer (metadata repository, ADAL, DataBrowser, trigger engine) is
real and shared by the simulated subsystems.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.simkit.core import Simulator
from repro.simkit.events import Event
from repro.simkit import units
from repro.netsim.builders import build_lsdf_backbone
from repro.netsim.network import Network
from repro.storage.devices import DiskArray
from repro.storage.hsm import HsmConfig, HsmSystem
from repro.storage.pool import StoragePool
from repro.storage.tape import TapeLibrary
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.namenode import NameNode
from repro.mapreduce.sim import MapReduceSim
from repro.cloud.controller import CloudController
from repro.cloud.model import Host
from repro.metadata.store import MetadataStore
from repro.adal.api import AdalClient, BackendRegistry
from repro.adal.backends.memory import MemoryBackend
from repro.durability import DurabilityKit, DurableMetadataStore
from repro.policy import (
    ConvergenceDaemon,
    DriftDetector,
    PolicyEngine,
    QuotaBook,
    community_defaults,
    hdfs_path,
)
from repro.databrowser.browser import DataBrowser
from repro.databrowser.triggers import TriggerEngine
from repro.rules.engine import RuleContext, RuleEngine
from repro.ingest.microscope import MicroscopeConfig
from repro.ingest.pipeline import IngestPipeline, IngestReport
from repro.ingest.transfer import StorageSink
from repro.resilience import ResilienceKit, RetryPolicy
from repro.frontdoor import FrontDoor, scaled_tenants
from repro.telemetry.hub import TelemetryHub
from repro.workloads.zebrafish import (
    ZEBRAFISH_PROJECT,
    zebrafish_basic_schema,
    zebrafish_microscopes,
    zebrafish_processing_schemas,
)
from repro.core.config import FacilityConfig, lsdf_2011_config


class Facility:
    """The simulated LSDF plus its real glue layer.

    Parameters
    ----------
    config:
        Deployment description (default: the canonical 2011 facility).
    seed:
        Root random seed; every subsystem derives an independent stream.
    hsm_daemon:
        Start the periodic HSM migration daemon (off by default so
        ``sim.run()`` with no horizon terminates).
    scrub_daemon:
        Start the periodic integrity-scrub daemon (off by default for the
        same reason; ``facility.durability.scrubber.scrub_once()`` runs a
        single pass on demand).
    policy_daemon:
        Start the periodic placement-convergence daemon (off by default
        for the same reason; ``facility.convergence.converge_once()``
        runs a single pass on demand).
    """

    def __init__(
        self,
        config: Optional[FacilityConfig] = None,
        seed: int = 0,
        hsm_daemon: bool = False,
        scrub_daemon: bool = False,
        policy_daemon: bool = False,
    ):
        self.config = config or lsdf_2011_config()
        cfg = self.config
        self.sim = Simulator(seed=seed)
        # The telemetry spine must exist before any subsystem registers an
        # instrument: `enabled` only takes effect at hub-creation time.
        self.telemetry = TelemetryHub.for_sim(
            self.sim, enabled=cfg.telemetry_enabled
        )

        # -- network: backbone + grafted cluster racks -----------------------
        topo, names = build_lsdf_backbone(
            daq_count=cfg.daq_count,
            cluster_nodes=0,
            trunk_gbits=cfg.trunk_gbits,
            storage_gbits=cfg.storage_gbits,
            wan_gbits=cfg.wan_gbits,
        )
        self.names = names
        node_bw = units.gbit_per_s(cfg.cluster_node_gbits)
        uplink_bw = units.gbit_per_s(cfg.rack_uplink_gbits)
        rack_hosts: list[list[str]] = []
        for rack in range(cfg.cluster_racks):
            switch = f"sw-rack-{rack:02d}"
            near = names.routers[rack % 2]
            far = names.routers[(rack + 1) % 2]
            topo.add_link(switch, near, capacity=uplink_bw, latency=0.0001)
            topo.add_link(switch, far, capacity=uplink_bw, latency=0.0002)
            hosts = []
            for index in range(cfg.nodes_per_rack):
                host = f"r{rack:02d}h{index:02d}"
                topo.add_link(host, switch, capacity=node_bw, latency=0.0002)
                hosts.append(host)
            rack_hosts.append(hosts)
        names.cluster = [h for hosts in rack_hosts for h in hosts]
        self.net = Network(
            self.sim, topo, sharing=cfg.sharing, efficiency=cfg.network_efficiency)

        # -- storage estate ------------------------------------------------------
        self.arrays = [
            DiskArray(self.sim, spec.name, spec.capacity, spec.bandwidth, spec.op_overhead)
            for spec in cfg.arrays
        ]
        self.pool = StoragePool(self.sim, self.arrays, name="lsdf-pool")
        self.array_nodes = {
            array.name: names.storage[i % len(names.storage)]
            for i, array in enumerate(self.arrays)
        }
        self.tape = TapeLibrary(
            self.sim,
            drives=cfg.tape_drives,
            drive_bw=cfg.tape_drive_bw,
            cartridge_capacity=cfg.tape_cartridge_bytes,
            mount_time=cfg.tape_mount_time,
        )
        self.hsm = HsmSystem(
            self.sim,
            self.pool,
            self.tape,
            HsmConfig(high_water=cfg.hsm_high_water, low_water=cfg.hsm_low_water),
            start_daemon=hsm_daemon,
        )

        # -- analysis cluster: HDFS + MapReduce ----------------------------------
        namenode = NameNode(
            block_size=cfg.hdfs_block_size,
            replication=cfg.hdfs_replication,
            placement=cfg.hdfs_placement,
            rng=self.sim.random.spawn("hdfs.namenode"),
        )
        for rack, hosts in enumerate(rack_hosts):
            for host in hosts:
                namenode.add_datanode(host, f"rack-{rack:02d}", cfg.hdfs_node_capacity)
        self.hdfs = HdfsCluster(self.sim, self.net, namenode, disk_bw=cfg.node_disk_bw)
        self.mapreduce = MapReduceSim(
            self.sim,
            self.hdfs,
            map_slots_per_node=cfg.map_slots_per_node,
            reduce_slots_per_node=cfg.reduce_slots_per_node,
            scheduler=cfg.mr_scheduler,
            speculation=cfg.mr_speculation,
        )

        # -- cloud on the same nodes ------------------------------------------------
        self.cloud = CloudController(
            self.sim,
            [Host(h, cfg.cloud_host_cpus, cfg.cloud_host_mem) for h in names.cluster],
            self.net,
            image_store=self.array_nodes[self.arrays[-1].name],
            scheduler=cfg.cloud_scheduler,
            boot_time=cfg.cloud_boot_time,
            image_cache=cfg.cloud_image_cache,
        )

        # -- resilience layer ---------------------------------------------------------
        self.resilience = ResilienceKit(
            self.sim,
            policy=RetryPolicy(
                max_attempts=cfg.retry_max_attempts,
                base_delay=cfg.retry_base_delay,
                multiplier=cfg.retry_multiplier,
                max_delay=cfg.retry_max_delay,
                jitter=cfg.retry_jitter,
            ),
            breaker_failure_threshold=cfg.breaker_failure_threshold,
            breaker_reset_timeout=cfg.breaker_reset_timeout,
            breaker_probe_timeout=cfg.breaker_probe_timeout,
            dlq_capacity=cfg.dlq_capacity,
            enabled=cfg.resilience_enabled,
        )

        # -- glue layer ---------------------------------------------------------------
        if cfg.metadata_wal:
            self.metadata: MetadataStore = DurableMetadataStore(
                snapshot_every=cfg.metadata_snapshot_every
            )
        else:
            self.metadata = MetadataStore()
        self.metadata.register_project(
            ZEBRAFISH_PROJECT, zebrafish_basic_schema(), zebrafish_processing_schemas()
        )
        self.adal_registry = BackendRegistry()
        self.adal_registry.register("lsdf", MemoryBackend())
        # Replica stores are real backends but are *not* audited: policy
        # replica copies carry no catalog entries of their own and would
        # read as dark data to the consistency auditor.
        for replica_store in cfg.policy_replica_stores:
            self.adal_registry.register(replica_store, MemoryBackend())
        self.adal = AdalClient(
            self.adal_registry,
            retry_policy=self.resilience.policy if cfg.resilience_enabled else None,
            retry_rng=self.resilience.rng.spawn("adal"),
            telemetry=self.telemetry,
        )
        self.triggers = TriggerEngine(self.metadata, telemetry=self.telemetry)
        self.browser = DataBrowser(self.adal, self.metadata, self.triggers,
                                   home="adal://lsdf")
        self.rules = RuleEngine(
            RuleContext(
                store=self.metadata,
                hsm=self.hsm,
                adal=self.adal,
                clock=lambda: self.sim.now,
            )
        )

        # -- durability layer ---------------------------------------------------------
        self.durability = DurabilityKit(
            self.sim,
            self.adal_registry,
            self.metadata,
            stores=cfg.audit_stores,
            hdfs=self.hdfs,
            hsm=self.hsm,
            dlq=self.resilience.dlq,
            replica_stores=cfg.policy_replica_stores,
            scrub_bandwidth=cfg.scrub_bandwidth,
            scrub_interval=cfg.scrub_interval,
            enabled=cfg.durability_enabled,
        )
        if scrub_daemon:
            self.durability.scrubber.start()

        # -- placement policy ---------------------------------------------------------
        self.policy = PolicyEngine(
            self.metadata,
            self.adal_registry,
            primary_store=cfg.audit_stores[0] if cfg.audit_stores else "lsdf",
            replica_stores=cfg.policy_replica_stores,
            quotas=QuotaBook(default_limit=cfg.policy_quota_bytes),
        )
        if cfg.policy_default_rules:
            self.policy.register_defaults(
                community_defaults(len(cfg.policy_replica_stores)))
        self.drift = DriftDetector(
            self.policy,
            tape=self.tape,
            namenode=self.hdfs.namenode,
            clock=lambda: self.sim.now,
            hub=self.telemetry,
        )
        self.convergence = ConvergenceDaemon(
            self.sim,
            self.policy,
            self.drift,
            planner=self.durability.planner,
            resilience=self.resilience,
            tape=self.tape,
            stager=lambda record: self.load_into_hdfs(
                hdfs_path(record), max(1.0, float(record.size))),
            bandwidth=cfg.policy_bandwidth,
            interval=cfg.policy_interval,
            max_retries=cfg.policy_max_retries,
            max_rounds=cfg.policy_max_rounds,
            enabled=cfg.policy_enabled,
        )
        if policy_daemon:
            self.convergence.start()

        # -- overload-safe front door -------------------------------------------------
        # The door gets its own ADAL client *without* a retry policy: the
        # door owns the end-to-end retry/deadline budget, and stacked
        # client-side retries would multiply attempts under overload.
        self.frontdoor_client = AdalClient(
            self.adal_registry, telemetry=self.telemetry)
        self.frontdoor = FrontDoor(
            self.sim,
            self.frontdoor_client,
            tenants=scaled_tenants(cfg.frontdoor_scale),
            enabled=cfg.frontdoor_enabled,
            workers=cfg.frontdoor_workers,
            queue_capacity=cfg.frontdoor_queue_capacity,
            codel_target=cfg.frontdoor_codel_target,
            codel_interval=cfg.frontdoor_codel_interval,
            brownout_target=cfg.frontdoor_brownout_target,
            service_overhead=cfg.frontdoor_service_overhead,
            service_bandwidth=cfg.frontdoor_service_bandwidth,
            deadlines=cfg.frontdoor_deadlines,
            dlq_capacity=cfg.frontdoor_dlq_capacity,
            breaker_threshold=cfg.frontdoor_breaker_threshold,
            breaker_reset=cfg.frontdoor_breaker_reset,
            breaker_probe_timeout=cfg.frontdoor_breaker_probe_timeout,
        )

        # -- facility-level gauges ------------------------------------------------
        # The glue-layer objects (metadata repository, topology) have no
        # simulator of their own, so the composition root exposes their
        # state on the shared registry.
        reg = self.telemetry.registry
        reg.gauge_fn("metadata.projects",
                     lambda: float(self.metadata.stats()["projects"]),
                     "Projects registered in the catalog")
        reg.gauge_fn("metadata.datasets",
                     lambda: float(self.metadata.stats()["datasets"]),
                     "Dataset records in the catalog")
        reg.gauge_fn("metadata.processing_records",
                     lambda: float(self.metadata.stats()["processing_records"]),
                     "Processing records in the catalog")
        reg.gauge_fn("metadata.tags",
                     lambda: float(self.metadata.stats()["tags"]),
                     "Distinct tags in use")
        reg.gauge_fn("metadata.bytes_catalogued",
                     lambda: float(self.metadata.stats()["total_bytes"]),
                     "Total bytes described by catalog records", unit="bytes")
        reg.gauge_fn(
            "net.routers_healthy",
            lambda: float(sum(1 for r in self.names.routers
                              if self.net.topology.node_is_up(r))),
            "Backbone routers currently up")
        reg.gauge_fn("net.routers_total",
                     lambda: float(len(self.names.routers)),
                     "Backbone routers in the topology")
        if isinstance(self.metadata, DurableMetadataStore):
            durable = self.metadata
            for key, help_text in (
                ("wal_records", "Records in the metadata WAL"),
                ("wal_bytes", "Bytes in the metadata WAL"),
                ("snapshots", "Metadata snapshots taken"),
                ("crashes", "Metadata repository crashes injected"),
                ("recoveries", "Metadata crash recoveries completed"),
            ):
                reg.gauge_fn(
                    f"metadata.{key}",
                    lambda k=key: float(durable.durability_stats()[k]),
                    help_text)

    # -- high-level operations -------------------------------------------------
    def ingest_pipeline(
        self,
        configs: Optional[Sequence[MicroscopeConfig]] = None,
        daq_index: int = 0,
        register_metadata: bool = True,
        **kwargs,
    ) -> IngestPipeline:
        """An ingest pipeline from a DAQ host into the storage pool.

        The facility's :class:`~repro.resilience.ResilienceKit` is attached
        by default (pass ``resilience=None`` to get the bare seed behaviour,
        or your own kit to isolate its counters)."""
        sink = StorageSink(self.pool, self.array_nodes)
        kwargs.setdefault("resilience", self.resilience)
        kwargs.setdefault("transfer_timeout", self.config.ingest_transfer_timeout)
        kwargs.setdefault("fluid", self.config.fluid_ingest)
        kwargs.setdefault("fluid_chunk", self.config.fluid_chunk_frames)
        return IngestPipeline(
            self.sim,
            self.net,
            self.names.daq[daq_index],
            sink,
            configs or zebrafish_microscopes(),
            store=self.metadata if register_metadata else None,
            project=ZEBRAFISH_PROJECT,
            **kwargs,
        )

    def simulate_microscopy_day(
        self, duration: float = units.DAY, rate: str = "frames",
        deterministic: Optional[bool] = None, **kwargs
    ) -> IngestReport:
        """Run the zebrafish screens for ``duration`` at the paper's rate.

        ``deterministic`` zeroes the arrival/size jitter; it defaults to
        the fluid-ingest setting, since fluid mode requires it."""
        if deterministic is None:
            deterministic = kwargs.get("fluid", self.config.fluid_ingest)
        pipeline = self.ingest_pipeline(
            zebrafish_microscopes(rate=rate, deterministic=deterministic),
            **kwargs)
        return pipeline.run(duration)

    def load_into_hdfs(self, hdfs_path: str, size: float,
                       array_name: Optional[str] = None) -> Event:
        """Stage a dataset from the storage estate into HDFS.

        Models the "copy the screen data onto the analysis cluster" step:
        the array streams the bytes while the HDFS write pipeline fans them
        out to replicas over the shared network.
        """
        array = self.arrays[0] if array_name is None else self.pool.arrays[array_name]

        def run() -> Generator:
            read = array.read(size)
            write = self.hdfs.write_file(hdfs_path, size, self.array_nodes[array.name])
            yield self.sim.all_of([read, write])
            return self.hdfs.namenode.file_blocks(hdfs_path)

        return self.sim.process(run(), name=f"stage:{hdfs_path}")

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Raw network transfer between any two facility nodes."""
        return self.net.transfer(src, dst, nbytes)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until)

    # -- reporting -----------------------------------------------------------------
    def stats(self) -> dict:
        """Snapshot of the whole facility's headline numbers."""
        return {
            "time": self.sim.now,
            "pool_used": self.pool.used,
            "pool_fill": self.pool.fill_fraction,
            "tape_cartridges": self.tape.cartridge_count,
            "hdfs": self.hdfs.stats(),
            "metadata": self.metadata.stats(),
            "cloud_running_vms": self.cloud.running_vms.value,
            "net_bytes": self.net.bytes_delivered.value,
            "resilience": self.resilience.stats(),
            "durability": self.durability.stats(),
            "policy": {**self.policy.stats(), **self.convergence.stats()},
            "frontdoor": self.frontdoor.stats(),
        }

    def resilience_drill(self, **kwargs):
        """The bundled chaos scenario for this facility's topology.

        Convenience wrapper around
        :func:`repro.core.chaos.resilience_drill` filling in the router,
        datanode and array names from the built topology."""
        from repro.core.chaos import resilience_drill

        kwargs.setdefault("routers", list(self.names.routers))
        kwargs.setdefault("datanodes", list(self.names.cluster[:6]))
        kwargs.setdefault("arrays", [a.name for a in self.arrays])
        return resilience_drill(**kwargs)

    def durability_drill(self, **kwargs):
        """The bundled durable-fault scenario (silent corruption + metadata
        crash) for this facility.

        Convenience wrapper around
        :func:`repro.core.chaos.durability_drill`; run the returned
        schedule with ``schedule.run(facility)`` and let the scrubber /
        auditor clean up."""
        from repro.core.chaos import durability_drill

        kwargs.setdefault("store", self.config.audit_stores[0])
        return durability_drill(**kwargs)

    def policy_drill(self, **kwargs):
        """The bundled placement-policy scenario (silent corruption + array
        brown-out + node loss) for this facility.

        Convenience wrapper around
        :func:`repro.core.chaos.policy_drill`; run the returned schedule
        with ``schedule.run(facility)``, then let the convergence daemon
        (or ``facility.convergence.converge_once()``) restore every
        declared replica count — the closing audit must be clean."""
        from repro.core.chaos import policy_drill

        kwargs.setdefault("store", self.config.audit_stores[0])
        kwargs.setdefault("arrays", [a.name for a in self.arrays])
        kwargs.setdefault("datanodes", list(self.names.cluster[:2]))
        return policy_drill(**kwargs)

    def overload_drill(self, loadgen, **kwargs):
        """The bundled overload scenario (load ramp + backend faults at
        saturation) for this facility's front door.

        Convenience wrapper around
        :func:`repro.core.chaos.overload_drill`; run the returned schedule
        with ``schedule.run(facility)`` while the load generator drives
        the door."""
        from repro.core.chaos import overload_drill

        kwargs.setdefault("arrays", [a.name for a in self.arrays])
        return overload_drill(loadgen, **kwargs)

    def director(self, **kwargs):
        """A workflow director wired to this facility's simulator and
        resilience policy (bounded firing retries from the config knobs)."""
        from repro.workflow.director import SimulatedDirector

        kwargs.setdefault(
            "retry_policy",
            RetryPolicy(
                max_attempts=1 + self.config.director_retry_attempts,
                base_delay=self.config.director_retry_base_delay,
            ),
        )
        kwargs.setdefault("retry_rng", self.resilience.rng.spawn("director"))
        return SimulatedDirector(self.sim, **kwargs)
