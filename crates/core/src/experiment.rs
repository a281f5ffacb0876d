//! Experiment specification, deployment, execution, and result
//! collection — one call reproduces one data point of the paper.
//!
//! ## Sharded execution
//!
//! The run path is split into four deterministic stages so the same code
//! serves every shard count:
//!
//! 1. [`layout`] — pure arithmetic on the spec: node counts, workload
//!    split, time windows.
//! 2. `build_world` — constructs one *replica* of the whole cluster.
//!    Under sharding every shard executes the identical build (same
//!    actor indices, same build-phase connection ids, same RNG streams);
//!    the kernel's locality filter turns foreign-node actors into ghosts.
//! 3. run — serial `run_until` for `shards == 1`, conservative LBTS
//!    lockstep (`simshard::run_sharded`) otherwise, with lookahead equal
//!    to the fabric's base latency.
//! 4. `extract_partial` / `merge_results` — every collector leaves its
//!    shard as a `Send` partial and goes through the *same* merge
//!    pipeline regardless of shard count (a serial run is merged-of-one),
//!    so results and artifacts are byte-identical across shard counts by
//!    construction. `tests/shard_equivalence.rs` enforces this
//!    differentially.

use crate::calibration;
use crate::report::HotpathReport;
use jms::AckMode;
use narada::{BrokerNetwork, ConnSettings};
use powergrid::{
    Fleet, FleetConfig, FleetProtocol, FleetStatsHandle, GridlogPublisher, GridlogSubscriber,
    NaradaPublisher, NaradaSubscriber, RgmaPublisher, RgmaSubscriber, TABLE_SQL,
};
use rgma::{
    ConsumerControl, ConsumerServlet, ProducerControl, ProducerServlet, RegistryActor, RgmaConfig,
    SecondaryProducer,
};
use simcore::{ActorId, RemoteEnvelope, SimDuration, SimTime, Simulation, Site, WallAccum};
use simfault::{FaultDriver, FaultInjector, FaultSchedule, FaultStats};
use simnet::session::ReconnectPolicy;
use simnet::{Endpoint, NetworkFabric, Transport};
use simos::{NodeId, OsModel, ProcessId, VmstatLog, VmstatSampler};
use simshard::ShardPlan;
use simtrace::{export, TraceCollector, TraceSummary};
use std::sync::atomic::{AtomicBool, Ordering};
use telemetry::slo::{self, SloReport, SloSpec};
use telemetry::{RttCollector, RttSummary};

/// Which deployment is under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemUnderTest {
    /// One Narada broker on one node.
    NaradaSingle,
    /// A Distributed Broker Network of `brokers` fully-meshed brokers.
    NaradaDbn {
        /// Broker count (paper: 4).
        brokers: usize,
    },
    /// Registry + Primary Producer servlet + Consumer servlet in one
    /// Tomcat on one node.
    RgmaSingle,
    /// Producer servlets on two nodes, Consumer servlets on two nodes
    /// (registry co-located with the first producer node).
    RgmaDistributed,
    /// Single server plus a Secondary Producer in the path (fig 10).
    RgmaSecondary,
    /// One gridlog partitioned-log broker on one node; producers batch
    /// with linger, a two-member consumer group splits the partitions.
    GridlogSingle,
}

impl SystemUnderTest {
    /// Is this an R-GMA deployment?
    pub fn is_rgma(self) -> bool {
        matches!(
            self,
            SystemUnderTest::RgmaSingle
                | SystemUnderTest::RgmaDistributed
                | SystemUnderTest::RgmaSecondary
        )
    }
}

/// The observation planes a run arms, as one set; empty by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe(u8);

impl Observe {
    /// Lifecycle tracing: the JSONL and Chrome trace exports.
    pub const TRACE: Observe = Observe(1);
    /// The virtual-time profiler and the metrics plane's exports.
    pub const PROFILE: Observe = Observe(2);
    /// Wall-clock hot-path attribution ([`HotpathReport`](crate::HotpathReport)).
    pub const SCOPE: Observe = Observe(4);
    /// Freshness and deadline compliance against [`SloSpec::grid_default`].
    pub const SLO: Observe = Observe(8);

    /// Is every plane of `planes` in this set?
    pub fn contains(self, planes: Observe) -> bool {
        self.0 & planes.0 == planes.0
    }
}

impl std::ops::BitOr for Observe {
    type Output = Observe;
    fn bitor(self, rhs: Observe) -> Observe {
        Observe(self.0 | rhs.0)
    }
}

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Human-readable name ("fig7/single/2000", "table2/UDP"…).
    pub name: String,
    /// Deployment.
    pub system: SystemUnderTest,
    /// Total simulated generators (concurrent connections).
    pub generators: usize,
    /// Transport for Narada connections (ignored by R-GMA, always HTTP).
    pub transport: Transport,
    /// JMS acknowledge mode (Narada only).
    pub ack_mode: AckMode,
    /// Payload multiplier (Narada "Triple" test).
    pub payload_repeat: usize,
    /// Publish period per generator.
    pub publish_interval: SimDuration,
    /// Messages per generator.
    pub msgs_per_generator: u32,
    /// Warm-up sleep range before first publish.
    pub warmup: (SimDuration, SimDuration),
    /// RNG seed.
    pub seed: u64,
    /// Use the v1.1.3 broadcast DBN (true) or routed ablation (false).
    pub dbn_broadcast: bool,
    /// Override the R-GMA configuration (None = gLite 3.0 defaults). Its
    /// `recover` flag is set from `faults` either way.
    pub rgma_config: Option<RgmaConfig>,
    /// Observation planes; empty by default, when each site is one failed
    /// type-map probe. A plane only records: no event or RNG draw moves.
    pub observe: Observe,
    /// Scripted fault schedule. Empty by default: no injector service is
    /// registered and no recovery policy is enabled, so fault-free runs
    /// are byte-identical to builds without fault support.
    pub faults: FaultSchedule,
    /// Conservative-parallel shard count (`simshard`). The cluster's
    /// nodes partition round-robin into this many shards, each a full
    /// replica of the world advancing in LBTS lockstep with lookahead
    /// equal to the fabric base latency. Results and observability
    /// artifacts are byte-identical across shard counts (a differential
    /// test suite enforces it); 1 — the default — runs the classic
    /// serial event loop, through the same merge pipeline.
    pub shards: usize,
}

impl ExperimentSpec {
    /// A paper-faithful spec with the standard settings; customize from
    /// here.
    pub fn paper_default(
        name: impl Into<String>,
        system: SystemUnderTest,
        generators: usize,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            system,
            generators,
            transport: Transport::Tcp,
            ack_mode: AckMode::Auto,
            payload_repeat: 1,
            publish_interval: calibration::publish_interval(),
            msgs_per_generator: 180,
            warmup: calibration::warmup_range(),
            seed: 0x9e3779b97f4a7c15,
            dbn_broadcast: true,
            rgma_config: None,
            observe: Observe::default(),
            faults: FaultSchedule::new(),
            shards: 1,
        }
    }

    /// Arm the planes in `set` for this run, beside those already armed.
    pub fn observed(mut self, set: Observe) -> Self {
        self.observe = self.observe | set;
        self
    }

    /// Enable per-message lifecycle tracing for this run.
    pub fn traced(self) -> Self {
        self.observed(Observe::TRACE)
    }

    /// Enable the virtual-time profiler and the metrics plane for this run.
    pub fn profiled(self) -> Self {
        self.observed(Observe::PROFILE)
    }

    /// Enable wall-clock hot-path attribution for this run.
    pub fn scoped(self) -> Self {
        self.observed(Observe::SCOPE)
    }

    /// Arm [`Observe::SLO`]; kept for gridbench. The plane measures only
    /// the paper's budget, so `spec` must be [`SloSpec::grid_default`].
    pub fn with_slo(self, spec: SloSpec) -> Self {
        assert_eq!(
            spec,
            SloSpec::grid_default(),
            "the SLO plane measures only the paper's budget, SloSpec::grid_default()"
        );
        self.observed(Observe::SLO)
    }

    /// Run on `shards` conservative parallel shards (1 = serial). Same
    /// seed + same spec ⇒ byte-identical results at any shard count.
    pub fn sharded(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Inject a scripted fault schedule. Also arms the default client
    /// recovery policies (Narada reconnect, R-GMA HTTP retry and
    /// soft-state refresh).
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// When the run stops — creation ramp, warm-up, publishing, drain —
    /// or why it may not run: a horizon past [`MAX_HORIZON`].
    pub(crate) fn horizon(&self) -> Result<SimTime, String> {
        layout(self).map(|l| l.horizon)
    }

    /// A scaled-down variant for tests: fewer messages per generator,
    /// same mechanisms.
    pub fn scaled(mut self, msgs: u32) -> Self {
        self.msgs_per_generator = msgs;
        self
    }
}

/// Trace artifacts of an [`Observe::TRACE`] run.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// JSON Lines export: every event plus the unified resource log
    /// (counter rows merged with vmstat rows).
    pub jsonl: String,
    /// Chrome `trace_event` JSON (open in Perfetto / `chrome://tracing`).
    pub chrome: String,
    /// Per-message PRT/PT/SRT reconstruction.
    pub summary: TraceSummary,
    /// Always empty: the trace's lifecycle events and the
    /// `RttCollector` record are written by the same `simnet::probe`
    /// call. Kept because gridbench reads it (ROADMAP item 1 deletes it).
    pub disagreements: Vec<String>,
}

/// Profiler and metrics-plane artifacts of an [`Observe::PROFILE`] run.
#[derive(Debug, Clone)]
pub struct ProfileArtifacts {
    /// Rendered per-component self-time table (the `repro --profile`
    /// terminal output).
    pub table: String,
    /// Flamegraph-compatible collapsed-stack lines
    /// (`path;to;frame <micros>`).
    pub collapsed: String,
    /// Prometheus text-exposition snapshot of the metrics registry at
    /// the end of the run.
    pub prometheus: String,
    /// Deterministic time-series CSV (`t_s,metric,value`) sampled on the
    /// vmstat cadence.
    pub metrics_csv: String,
    /// Simulated busy time the profiler attributed to components.
    pub attributed: SimDuration,
    /// Total simulated busy time submitted to every CPU in the cluster.
    /// The table's TOTAL row equals this (conservation).
    pub kernel_busy: SimDuration,
    /// `kernel_busy - attributed`; non-zero means a charge site is
    /// missing somewhere.
    pub unattributed: SimDuration,
}

/// Wall-clock hot-path artifacts of an [`Observe::SCOPE`] run.
#[derive(Debug, Clone)]
pub struct ScopeArtifacts {
    /// The per-site attribution report.
    pub report: HotpathReport,
    /// `gridmon-hotpath/1` JSON.
    pub json: String,
    /// Flamegraph-compatible collapsed-stack lines (simprof's format,
    /// wall-clock microseconds).
    pub collapsed: String,
}

/// Freshness / SLO artifacts of an [`Observe::SLO`] run, measured against
/// [`SloSpec::grid_default`].
#[derive(Debug, Clone)]
pub struct SloArtifacts {
    /// Per-reading outcome accounting, AoI sawtooth samples, burn
    /// windows and windowed delivery-latency percentiles.
    pub report: SloReport,
    /// Deterministic long-format CSV (`t_s,metric,value`) of the AoI
    /// and burn-window series (the `repro --slo` `slo.csv` file).
    pub csv: String,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Spec name.
    pub name: String,
    /// Requested connection count.
    pub generators: usize,
    /// Message telemetry (RTT, percentiles, loss, decomposition).
    pub summary: RttSummary,
    /// Mean CPU idle fraction across *server* nodes.
    pub server_idle: f64,
    /// Peak memory consumption across server nodes, MB (paper metric).
    pub server_mem_mb: f64,
    /// Connections accepted by the middleware.
    pub connected: u32,
    /// Connections refused (OOM / thread exhaustion).
    pub refused: u32,
    /// Messages the fleets attempted to publish.
    pub published: u64,
    /// Wasted inter-broker messages (DBN broadcast deficiency indicator).
    pub broker_forwards: u64,
    /// Virtual time the run covered.
    pub sim_time: SimTime,
    /// Kernel events processed (cost indicator). Under sharding this is
    /// the sum over shards — identical to the serial count, since every
    /// event executes on exactly one shard.
    pub events: u64,
    /// Trace exports (only under [`Observe::TRACE`]).
    pub trace: Option<TraceArtifacts>,
    /// Graceful-degradation accounting (only when `spec.faults` was
    /// non-empty): dropped vs delayed vs recovered, per cause.
    pub fault_stats: Option<FaultStats>,
    /// Profiler + metrics artifacts (only under [`Observe::PROFILE`]).
    pub profile: Option<ProfileArtifacts>,
    /// Kernel event accounting (always on): per-type counts, timer vs.
    /// message mix, queue-depth high-watermark and depth samples.
    pub kernel: simcore::KernelStats,
    /// Wall-clock hot-path attribution (only under [`Observe::SCOPE`]).
    /// Non-deterministic by nature (wall-clock), but producing it never
    /// perturbs the simulation.
    pub scope: Option<ScopeArtifacts>,
    /// Freshness / deadline-SLO accounting (only under [`Observe::SLO`]).
    /// Derived entirely from the merged record set, so it is
    /// byte-identical across shard counts like every other artifact.
    pub slo: Option<SloArtifacts>,
    /// Host wall-clock seconds the run took: world build, simulation and
    /// taking the shards' recorders apart (perf-baseline input;
    /// non-deterministic, like `merge_render_secs`).
    pub wall_secs: f64,
    /// Host wall-clock seconds after the run: merging the shards'
    /// recorders and rendering every export.
    pub merge_render_secs: f64,
}

/// The longest a run may last: 2^39 µs, about 6.4 simulated days. A
/// reading's instants are stored in 40 bits ([`telemetry::Stamp`]); this
/// leaves the upper half of that range for instants stamped ahead of the
/// clock (a frame's delivery, a CPU completion).
pub const MAX_HORIZON: SimTime = SimTime::from_micros(1 << 39);

/// Deterministic geometry of one experiment, shared by every shard's
/// build and by the merge: node counts, workload split, time windows.
struct Layout {
    server_count: usize,
    /// Fleet-hosting client nodes (one more client node hosts the
    /// subscriber program).
    fleet_nodes_n: usize,
    total_nodes: usize,
    per_fleet: Vec<usize>,
    /// Stagger between generator creations within a fleet.
    creation_interval: SimDuration,
    horizon: SimTime,
    steady_from: SimTime,
    steady_to: SimTime,
}

/// Pure arithmetic on the spec — no RNG, no kernel state. Refuses a
/// horizon past [`MAX_HORIZON`].
fn layout(spec: &ExperimentSpec) -> Result<Layout, String> {
    let server_count = match spec.system {
        SystemUnderTest::NaradaSingle
        | SystemUnderTest::RgmaSingle
        | SystemUnderTest::GridlogSingle => 1,
        SystemUnderTest::NaradaDbn { brokers } => brokers,
        SystemUnderTest::RgmaDistributed => 4,
        SystemUnderTest::RgmaSecondary => 2,
    };
    // Client nodes: enough for the fleet (≤1000 generators per node; the
    // R-GMA runs used two publishing nodes at 1000 connections, so cap at
    // 500 there — which also spreads connections over both producer
    // servlets in the distributed deployment), plus one node for the
    // subscriber program.
    let per_node_cap = if spec.system.is_rgma() {
        calibration::MAX_GENERATORS_PER_NODE / 2
    } else {
        calibration::MAX_GENERATORS_PER_NODE
    };
    let fleet_nodes_n = spec.generators.div_ceil(per_node_cap).max(1);
    let total_nodes = server_count + fleet_nodes_n + 1;
    let per_fleet = split_evenly(spec.generators, fleet_nodes_n);
    let creation_interval = if spec.system.is_rgma() {
        calibration::rgma_creation_interval()
    } else {
        calibration::narada_creation_interval()
    };
    let max_fleet = per_fleet.iter().copied().max().unwrap_or(0) as u64;
    let ramp = creation_interval.saturating_mul(max_fleet);
    let publishing = spec
        .publish_interval
        .saturating_mul(u64::from(spec.msgs_per_generator));
    let drain = if spec.system == SystemUnderTest::RgmaSecondary {
        SimDuration::from_secs(120)
    } else if spec.system.is_rgma() {
        SimDuration::from_secs(30)
    } else {
        SimDuration::from_secs(10)
    };
    let horizon = SimTime::ZERO + ramp + spec.warmup.1 + publishing + drain;
    if horizon > MAX_HORIZON {
        return Err(format!(
            "{} would run to {horizon}, past the {MAX_HORIZON} (2^39 µs) a run may last: \
             a reading's instants are stored in 40 bits",
            spec.name
        ));
    }
    Ok(Layout {
        server_count,
        fleet_nodes_n,
        total_nodes,
        per_fleet,
        creation_interval,
        horizon,
        steady_from: SimTime::ZERO + ramp + spec.warmup.1,
        steady_to: SimTime::ZERO + ramp + publishing,
    })
}

/// Thread-local build artifacts the extractor needs: `Rc` stats handles
/// the world's actors share with the driver. Never crosses threads.
struct WorldHandles {
    fleet_stats: Vec<FleetStatsHandle>,
    broker_stats: Vec<narada::StatsHandle>,
}

/// Add one generator fleet per fleet-hosting client node: fleet `i` runs
/// in the driver JVM `drivers[i]`, publishes through `server_eps[i % n]`
/// and speaks the protocol `protocol` builds for its node. Generator ids
/// are dense across fleets.
fn add_fleets<P: FleetProtocol + 'static>(
    sim: &mut Simulation,
    spec: &ExperimentSpec,
    lay: &Layout,
    drivers: &[(NodeId, ProcessId)],
    server_eps: &[Endpoint],
    protocol: impl Fn(NodeId) -> P,
) -> Vec<FleetStatsHandle> {
    let mut stats = Vec::new();
    let mut first_id = 0u32;
    for (i, &n_generators) in lay.per_fleet.iter().enumerate() {
        let (node, proc) = drivers[i];
        let cfg = FleetConfig {
            proc,
            server_ep: server_eps[i % server_eps.len()],
            n_generators,
            first_id,
            creation_interval: lay.creation_interval,
            warmup: spec.warmup,
            publish_interval: spec.publish_interval,
            msgs_per_generator: spec.msgs_per_generator,
        };
        let fleet = Fleet::new(cfg, protocol(node));
        stats.push(fleet.stats_handle());
        sim.on_node(node.0);
        sim.add_actor(fleet);
        first_id += n_generators as u32;
    }
    stats
}

/// Construct one replica of the whole cluster into `sim`.
///
/// Runs identically on every shard (and serially): same service set,
/// same actor order — so actor indices, per-actor RNG streams, and
/// build-phase connection ids agree across replicas. `sim.on_node`
/// precedes every placed actor so the kernel's locality filter (if any)
/// can ghost foreign-node actors; the vmstat sampler and the fault
/// driver are *replicated* (run on every shard) instead.
fn build_world(
    spec: &ExperimentSpec,
    lay: &Layout,
    plan: &ShardPlan,
    shard_ix: usize,
    sim: &mut Simulation,
) -> WorldHandles {
    // --- Cluster ---------------------------------------------------
    let mut os = OsModel::new();
    let mut server_nodes = Vec::new();
    for i in 0..lay.server_count {
        server_nodes.push(os.add_node(calibration::hydra_server(format!("hydra{}", i + 1))));
    }
    let mut client_nodes = Vec::new();
    for i in 0..=lay.fleet_nodes_n {
        client_nodes.push(os.add_node(calibration::hydra_client(format!(
            "hydra{}",
            lay.server_count + i + 1
        ))));
    }
    sim.add_service(NetworkFabric::new(
        calibration::hydra_fabric(),
        lay.total_nodes,
    ));
    // The one record of every reading; the SLO plane adds its topic and
    // subscriber columns, keyed by content-derived probe ids.
    sim.add_service(if spec.observe.contains(Observe::SLO) {
        RttCollector::with_freshness()
    } else {
        RttCollector::new()
    });
    sim.add_service(VmstatLog::new());
    if spec.observe.contains(Observe::TRACE) {
        sim.add_service(TraceCollector::new());
    }
    if !spec.faults.is_empty() {
        // The injector owns a private RNG stream, so registering it does
        // not perturb the kernel RNG; with an empty schedule it is not
        // registered at all and every fault probe is a no-op.
        sim.add_service(FaultInjector::new(spec.seed));
    }
    if spec.observe.contains(Observe::PROFILE) {
        sim.add_service(simprof::Profiler::new());
    }
    if spec.observe.contains(Observe::TRACE) || spec.observe.contains(Observe::PROFILE) {
        // The one store of counters and gauges: the trace's counter rows
        // and the profile's series. Sized for one snapshot a vmstat tick.
        let ticks = lay.horizon.as_micros() / SimDuration::from_secs(1).as_micros();
        sim.add_service(telemetry::MetricsRegistry::with_ticks(ticks as usize));
    }
    if spec.observe.contains(Observe::SCOPE) {
        sim.enable_hotpath_timing();
    }

    // Server processes.
    let server_procs: Vec<ProcessId> = server_nodes
        .iter()
        .map(|&n| {
            os.add_process(
                n,
                if spec.system.is_rgma() {
                    calibration::rgma_server_process()
                } else {
                    calibration::narada_broker_process()
                },
            )
        })
        .collect();
    // Driver processes, one JVM per client node.
    let drivers: Vec<(NodeId, ProcessId)> = client_nodes
        .iter()
        .map(|&n| (n, os.add_process(n, calibration::driver_process())))
        .collect();
    sim.add_service(os);
    // The sampler is replicated (one replica per shard), each replica
    // sampling only the server nodes its shard hosts: a node's CPU/memory
    // state is maintained by that node's actors, which execute on exactly
    // one shard. The merge interleaves the per-shard rows by (time, node).
    let local_server_nodes: Vec<NodeId> = server_nodes
        .iter()
        .copied()
        .filter(|n| plan.shard_of(n.0) == shard_ix)
        .collect();
    sim.add_replicated_actor(VmstatSampler::new(
        SimDuration::from_secs(1),
        local_server_nodes,
    ));
    // Stop-the-world GC pauses on the middleware JVMs (the latency-tail
    // mechanism; see simos::gc).
    let gc_cfg = if spec.system.is_rgma() {
        simos::GcConfig::rgma_server()
    } else {
        simos::GcConfig::narada_broker()
    };
    for (&node, &proc) in server_nodes.iter().zip(&server_procs) {
        sim.on_node(node.0);
        sim.add_actor(simos::GcPauser::new(gc_cfg.clone(), node, proc));
    }

    // --- Middleware + workload -------------------------------------
    // The last client node hosts the subscriber program.
    let sub_node = *client_nodes.last().expect("at least one client node");
    // Broker clients ride faults out with the default recovery policy and
    // stay fail-stop (the paper's behaviour) without them.
    let reconnect = (!spec.faults.is_empty()).then(ReconnectPolicy::default);
    let fleet_stats: Vec<FleetStatsHandle>;
    let mut broker_stats: Vec<narada::StatsHandle> = Vec::new();
    // Fault targets, filled in by the deployment branches below.
    let mut fault_brokers: Vec<ActorId> = Vec::new();
    let mut fault_registry: Option<ActorId> = None;

    match spec.system {
        SystemUnderTest::NaradaSingle | SystemUnderTest::NaradaDbn { .. } => {
            // Brokers.
            let hosts: Vec<(NodeId, ProcessId)> = server_nodes
                .iter()
                .copied()
                .zip(server_procs.iter().copied())
                .collect();
            let endpoints: Vec<Endpoint> = if hosts.len() == 1 {
                let broker = narada::Broker::new(spec.dbn_broadcast, hosts[0].0, hosts[0].1);
                broker_stats.push(broker.stats_handle());
                sim.on_node(hosts[0].0 .0);
                let id = sim.add_actor(broker);
                vec![Endpoint::new(hosts[0].0, id)]
            } else {
                let network = BrokerNetwork::deploy(
                    &mut *sim,
                    spec.dbn_broadcast,
                    &hosts,
                    SimDuration::from_millis(200),
                );
                broker_stats.extend(network.stats.iter().cloned());
                network.endpoints
            };
            fault_brokers = endpoints.iter().map(|ep| ep.actor).collect();
            let settings = ConnSettings {
                transport: spec.transport,
                ack_mode: spec.ack_mode,
                reconnect,
            };
            // Fig 5 topology: "Publishers connect to publishing brokers.
            // Subscribers connect to subscribing brokers." The last broker
            // serves subscribers; the rest take publisher connections, so
            // every measured delivery crosses the broker network — which
            // v1.1.3 floods to every peer ("data congestion").
            let pub_eps: Vec<Endpoint> = if endpoints.len() > 1 {
                endpoints[..endpoints.len() - 1].to_vec()
            } else {
                endpoints.clone()
            };
            let sub_eps: Vec<Endpoint> = if endpoints.len() > 1 {
                endpoints[endpoints.len() - 1..].to_vec()
            } else {
                endpoints.clone()
            };
            // Fleets: fleet i connects to broker i % n.
            fleet_stats = add_fleets(sim, spec, lay, &drivers, &pub_eps, |node| {
                NaradaPublisher::new(node, settings, spec.payload_repeat)
            });
            // Subscribers: one per subscribing broker, on the dedicated
            // client node.
            for ep in &sub_eps {
                sim.on_node(sub_node.0);
                sim.add_actor(NaradaSubscriber::new(sub_node, *ep, settings));
            }
        }
        SystemUnderTest::GridlogSingle => {
            let broker = gridlog::LogBroker::new(server_nodes[0], server_procs[0]);
            sim.on_node(server_nodes[0].0);
            let id = sim.add_actor(broker);
            let broker_ep = Endpoint::new(server_nodes[0], id);
            fault_brokers = vec![id];
            // The JMS acknowledge axis maps onto Kafka's offset axis:
            // CLIENT_ACKNOWLEDGE ↦ committed-offset resume (zero loss
            // across a broker crash), AUTO_ACKNOWLEDGE ↦
            // auto.offset.reset=latest (the crash window is lost).
            let reset = if spec.ack_mode == AckMode::Client {
                gridlog::OffsetReset::Committed
            } else {
                gridlog::OffsetReset::Latest
            };
            fleet_stats = add_fleets(sim, spec, lay, &drivers, &[broker_ep], |node| {
                GridlogPublisher::new(node, reconnect, spec.payload_repeat)
            });
            // One consumer host with a two-member group on the dedicated
            // client node: the partitions split between the members.
            sim.on_node(sub_node.0);
            sim.add_actor(GridlogSubscriber::new(
                sub_node, broker_ep, 2, reset, reconnect,
            ));
        }
        SystemUnderTest::RgmaSingle
        | SystemUnderTest::RgmaDistributed
        | SystemUnderTest::RgmaSecondary => {
            let mut rcfg = spec
                .rgma_config
                .clone()
                .unwrap_or_else(RgmaConfig::glite_3_0);
            // Recovery rides along with the faults, whatever the spec's
            // `rgma_config`: insert retry-on-5xx and soft-state
            // re-registration.
            rcfg.recover = !spec.faults.is_empty();
            // Registry always on server node 0.
            sim.on_node(server_nodes[0].0);
            let reg = sim.add_actor(RegistryActor::new(server_nodes[0], server_procs[0]));
            fault_registry = Some(reg);
            let reg_ep = Endpoint::new(server_nodes[0], reg);
            // Producer/Consumer servlets.
            let (prod_hosts, cons_hosts): (Vec<usize>, Vec<usize>) = match spec.system {
                SystemUnderTest::RgmaSingle | SystemUnderTest::RgmaSecondary => (vec![0], vec![0]),
                SystemUnderTest::RgmaDistributed => (vec![0, 1], vec![2, 3]),
                _ => unreachable!(),
            };
            let mut prod_eps = Vec::new();
            for &h in &prod_hosts {
                sim.on_node(server_nodes[h].0);
                let p = sim.add_actor(ProducerServlet::new(
                    rcfg.clone(),
                    server_nodes[h],
                    server_procs[h],
                    reg_ep,
                ));
                sim.schedule(
                    SimDuration::ZERO,
                    p,
                    Box::new(ProducerControl::DeclareTable {
                        sql: TABLE_SQL.into(),
                    }),
                );
                prod_eps.push(Endpoint::new(server_nodes[h], p));
            }
            let mut cons_eps = Vec::new();
            for &h in &cons_hosts {
                sim.on_node(server_nodes[h].0);
                let c = sim.add_actor(ConsumerServlet::new(
                    rcfg.clone(),
                    server_nodes[h],
                    server_procs[h],
                    reg_ep,
                ));
                sim.schedule(
                    SimDuration::ZERO,
                    c,
                    Box::new(ConsumerControl::DeclareTable {
                        sql: TABLE_SQL.into(),
                    }),
                );
                cons_eps.push(Endpoint::new(server_nodes[h], c));
            }
            // The fig-10 chain: a Secondary Producer on the second node.
            let subscriber_table = if spec.system == SystemUnderTest::RgmaSecondary {
                let sp = SecondaryProducer::new(
                    rcfg.clone(),
                    server_nodes[1],
                    server_procs[1],
                    reg_ep,
                    powergrid::TABLE,
                    "generator_archive",
                );
                sim.on_node(server_nodes[1].0);
                sim.add_actor(sp);
                "generator_archive"
            } else {
                powergrid::TABLE
            };
            // Fleets spread over producer servlets.
            fleet_stats = add_fleets(sim, spec, lay, &drivers, &prod_eps, |node| {
                RgmaPublisher::new(node, rcfg.clone())
            });
            // One subscriber per consumer servlet.
            for ep in &cons_eps {
                sim.on_node(sub_node.0);
                sim.add_actor(RgmaSubscriber::new(
                    sub_node,
                    *ep,
                    format!("SELECT * FROM {subscriber_table}"),
                    rcfg.clone(),
                ));
            }
        }
    }

    // The fault driver registers *after* every production actor: per-actor
    // RNG streams are keyed by actor index, so an actor that only exists
    // in faulted runs must not shift the indices (and hence the
    // randomness) of the actors common to all runs. Its `on_start` timers
    // land after every deployment actor exists; targets that a schedule
    // names but the deployment lacks (e.g. a registry in a Narada run) are
    // ignored. Replicated: each replica drives its own shard's injector service;
    // control messages to actors its shard doesn't host are ghost-dropped
    // (the owning shard's replica delivers them), and the `injected`
    // count is gated on the accounting primary.
    if !spec.faults.is_empty() {
        sim.add_replicated_actor(FaultDriver::new(
            spec.faults.clone(),
            fault_brokers,
            fault_registry,
        ));
    }

    // Build wiring complete: runtime connection ids switch to
    // opener-derived packing, which is shard-invariant (build-phase ids
    // are sequential and rely on the replicated build for parity).
    sim.service_mut::<NetworkFabric>()
        .expect("fabric registered")
        .finish_build();

    WorldHandles {
        fleet_stats,
        broker_stats,
    }
}

/// Everything one shard contributes to the merged result. `Send`: the
/// `Rc`-based stats handles are reduced to plain sums before leaving the
/// shard thread.
struct ShardPartial {
    kernel: simcore::KernelStats,
    wall: Option<[WallAccum; Site::COUNT]>,
    rtt: RttCollector,
    vm: VmstatLog,
    trace: Option<TraceCollector>,
    fault: Option<FaultStats>,
    profiler: Option<simprof::Profiler>,
    metrics: Option<telemetry::MetricsRegistry>,
    os_busy: SimDuration,
    now: SimTime,
    connected: u32,
    refused: u32,
    published: u64,
    broker_forwards: u64,
}

/// Reduce one finished shard to its `Send` partial: collectors move out
/// of the service map, `Rc` handles collapse to sums. Ghost fleets never
/// execute, so their handles stay zero and the cross-shard sums equal
/// the serial values.
fn extract_partial(sim: &mut Simulation, world: &WorldHandles) -> ShardPartial {
    ShardPartial {
        kernel: sim.stats(),
        wall: sim.hotpath(),
        rtt: std::mem::replace(
            sim.service_mut::<RttCollector>()
                .expect("collector registered"),
            RttCollector::new(),
        ),
        vm: std::mem::replace(
            sim.service_mut::<VmstatLog>().expect("vmstat registered"),
            VmstatLog::new(),
        ),
        trace: sim
            .service_mut::<TraceCollector>()
            .map(|t| std::mem::replace(t, TraceCollector::new())),
        fault: sim.service::<FaultInjector>().map(|inj| inj.stats),
        profiler: sim
            .service_mut::<simprof::Profiler>()
            .map(|p| std::mem::replace(p, simprof::Profiler::new())),
        metrics: sim
            .service_mut::<telemetry::MetricsRegistry>()
            .map(std::mem::take),
        os_busy: sim
            .service::<OsModel>()
            .expect("os registered")
            .total_submitted_work(),
        now: sim.now(),
        connected: world.fleet_stats.iter().map(|s| s.borrow().connected).sum(),
        refused: world.fleet_stats.iter().map(|s| s.borrow().refused).sum(),
        published: world.fleet_stats.iter().map(|s| s.borrow().published).sum(),
        broker_forwards: world
            .broker_stats
            .iter()
            .map(|s| s.borrow().forwarded)
            .sum(),
    }
}

/// The shard executor's injection hook: materialize the connection a
/// cross-shard network frame rides on (the receiving shard may never
/// have seen it — the opener lives elsewhere), then hand the envelope to
/// the kernel. Non-network payloads inject as-is.
fn inject_delivery(sim: &mut Simulation, env: RemoteEnvelope) {
    if let Some(d) = env.payload.downcast_ref::<simnet::Delivery>() {
        let (conn, meta) = (d.conn, d.meta);
        sim.service_mut::<NetworkFabric>()
            .expect("fabric registered")
            .ensure_conn(conn, meta);
    }
    sim.inject_remote(env);
}

/// The whole-run `probes_in_flight` gauge series: +1 at each publish
/// instant, −1 at each delivery instant, cumulative. No single shard can
/// compute it (publisher and subscriber may live on different shards),
/// so it is derived from the *merged* RTT collector.
fn probes_in_flight_series(rtt: &RttCollector) -> Vec<(SimTime, f64)> {
    let mut deltas: Vec<(SimTime, i64)> = Vec::new();
    for (_, i) in rtt.records() {
        deltas.push((i.before_sending, 1));
        if let Some(t) = i.after_receiving {
            deltas.push((t, -1));
        }
    }
    deltas.sort_unstable();
    let mut series: Vec<(SimTime, f64)> = Vec::new();
    let mut level = 0i64;
    for (t, d) in deltas {
        level += d;
        match series.last_mut() {
            Some(last) if last.0 == t => last.1 = level as f64,
            _ => series.push((t, level as f64)),
        }
    }
    series
}

/// Sets the flag a parked render helper waits on and wakes it, when
/// dropped: before the join, or while the calling thread unwinds (the
/// scope would otherwise wait forever on the parked helper).
struct Release<'a>(&'a AtomicBool, &'a std::thread::Thread);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
        self.1.unpark();
    }
}

/// Fuse the per-shard partials into the final result. Every collector
/// goes through its canonical merge — the same code for one partial
/// (serial) as for many — so all derived artifacts are a function of the
/// merged state only, never of the shard layout.
fn merge_results(
    spec: &ExperimentSpec,
    lay: &Layout,
    partials: Vec<ShardPartial>,
    wall_secs: f64,
) -> ExperimentResult {
    let merge_start = std::time::Instant::now();
    let server_nodes: Vec<NodeId> = (0..lay.server_count).map(|i| NodeId(i as u16)).collect();
    let now = partials[0].now;
    debug_assert!(
        partials.iter().all(|p| p.now == now),
        "shard clocks disagree at end of run"
    );

    let mut kernels = Vec::new();
    let mut wall: Option<[WallAccum; Site::COUNT]> = None;
    let mut rtts = Vec::new();
    let mut vms = Vec::new();
    let mut traces = Vec::new();
    let mut faults = Vec::new();
    let mut profilers = Vec::new();
    let mut metrics_parts = Vec::new();
    let mut kernel_busy = SimDuration::ZERO;
    let (mut connected, mut refused) = (0u32, 0u32);
    let (mut published, mut broker_forwards) = (0u64, 0u64);
    for p in partials {
        kernels.push(p.kernel);
        // Site tables sum: the counts are deterministic at a fixed seed,
        // the nanoseconds are host time (the documented carve-out).
        if let Some(part) = p.wall {
            let total = wall.get_or_insert_with(Default::default);
            for (t, w) in total.iter_mut().zip(part) {
                t.merge(w);
            }
        }
        rtts.push(p.rtt);
        vms.push(p.vm);
        traces.push(p.trace);
        faults.push(p.fault);
        profilers.push(p.profiler);
        metrics_parts.push(p.metrics);
        kernel_busy += p.os_busy;
        connected += p.connected;
        refused += p.refused;
        published += p.published;
        broker_forwards += p.broker_forwards;
    }

    let kernel = simcore::KernelStats::merged(&kernels);
    let rtt = RttCollector::merged(rtts);
    let summary = rtt.summary();
    let vm = VmstatLog::merged(vms);
    // CPU idle over the steady publishing window (excludes the ramp).
    let idles: Vec<f64> = server_nodes
        .iter()
        .filter_map(|&n| {
            vm.mean_idle_between(n, lay.steady_from, lay.steady_to.max(lay.steady_from))
        })
        .collect();
    let server_idle = if idles.is_empty() {
        1.0
    } else {
        idles.iter().sum::<f64>() / idles.len() as f64
    };
    let mems: Vec<u64> = server_nodes
        .iter()
        .filter_map(|&n| vm.peak_mem(n))
        .collect();
    let server_mem_mb = mems
        .iter()
        .map(|&m| m as f64 / (1024.0 * 1024.0))
        .fold(0.0f64, f64::max);

    // Freshness plane: every statistic derives from the merged record.
    let slo_report = || {
        spec.observe.contains(Observe::SLO).then(|| {
            SloReport::from_collector(
                &rtt,
                &SloSpec::grid_default(),
                now,
                slo::SAMPLE_CADENCE,
                slo::DEFAULT_WINDOW,
            )
        })
    };

    // A traced run renders on two threads: a scoped helper writes the
    // Chrome trace while this thread writes the JSONL and builds the SLO
    // report. Both buffers are sized and allocated here, JSONL first, so
    // the helper allocates nothing. The helper does free the blocks
    // std's spawn allocated for it, and glibc hands them back to this
    // thread's heap when the helper exits, so the helper parks until
    // this thread has made its last allocation before the join (`done`):
    // an exit in the middle of the SLO report would let that timing pick
    // where the report lands, and peak RSS would vary from run to run.
    // The renderers are pure, so the bytes do not depend on which thread
    // finishes first. The counter rows are the merged registry's, which
    // the profile's exports read too.
    let mut metrics = telemetry::MetricsRegistry::merged(metrics_parts.into_iter().flatten());
    let (trace, slo_report) = if spec.observe.contains(Observe::TRACE) {
        let tr = TraceCollector::merged(traces.into_iter().flatten());
        let trace_summary = TraceSummary::from_collector(&tr);
        // Unified resource log: vmstat rows ride along with the counter
        // rows in the JSONL export.
        let resources: Vec<export::ResourceRow> = vm
            .samples()
            .iter()
            .map(|s| export::ResourceRow {
                at: s.at,
                node: u64::from(s.node.0),
                idle: s.idle,
                mem_bytes: s.mem_bytes,
            })
            .collect();
        let mut jsonl = Vec::with_capacity(export::jsonl_len(&tr, &metrics, &resources));
        let mut chrome =
            Vec::with_capacity(export::chrome_trace_len(&tr, &metrics, &trace_summary));
        let done = AtomicBool::new(false);
        let (jsonl, chrome, slo_report) = std::thread::scope(|s| {
            let (tr, m, summary, done) = (&tr, &metrics, &trace_summary, &done);
            let helper = s.spawn(move || {
                export::write_chrome_trace(&mut chrome, tr, m, summary);
                let chrome = String::from_utf8(chrome).expect("exports are ASCII");
                while !done.load(Ordering::Acquire) {
                    std::thread::park();
                }
                chrome
            });
            let release = Release(done, helper.thread());
            export::write_jsonl(&mut jsonl, tr, m, &resources);
            let jsonl = String::from_utf8(jsonl).expect("exports are ASCII");
            let slo_report = slo_report();
            drop(release);
            let chrome = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (jsonl, chrome, slo_report)
        });
        let trace = TraceArtifacts {
            jsonl,
            chrome,
            summary: trace_summary,
            disagreements: Vec::new(),
        };
        (Some(trace), slo_report)
    } else {
        (None, slo_report())
    };

    let profile = spec.observe.contains(Observe::PROFILE).then(|| {
        let p = simprof::Profiler::merged(profilers.into_iter().flatten());
        let report = p.report(kernel_busy);
        metrics.add_derived_gauge("probes_in_flight", &probes_in_flight_series(&rtt));
        for (name, points) in slo_report.iter().flat_map(|slo| &slo.series) {
            metrics.add_derived_gauge(name, points);
        }
        ProfileArtifacts {
            table: report
                .table(format!("{} — self time by component", spec.name))
                .render(),
            collapsed: p.collapsed(),
            prometheus: metrics.prometheus(),
            metrics_csv: metrics.csv(),
            attributed: report.attributed,
            kernel_busy: report.kernel_busy,
            unattributed: report.unattributed,
        }
    });

    let scope = wall.map(|table| {
        let report = HotpathReport::new(&spec.name, wall_secs, &table);
        ScopeArtifacts {
            json: report.to_json(),
            collapsed: report.collapsed(),
            report,
        }
    });

    ExperimentResult {
        name: spec.name.clone(),
        generators: spec.generators,
        summary,
        server_idle,
        server_mem_mb,
        connected,
        refused,
        published,
        broker_forwards,
        sim_time: now,
        events: kernel.events_processed,
        trace,
        fault_stats: (!spec.faults.is_empty())
            .then(|| FaultStats::merged(faults.into_iter().flatten())),
        profile,
        kernel,
        scope,
        slo: slo_report.map(|report| SloArtifacts {
            csv: report.csv(),
            report,
        }),
        wall_secs,
        merge_render_secs: merge_start.elapsed().as_secs_f64(),
    }
}

/// Deploy and run one experiment to completion — serially for
/// `spec.shards == 1`, in conservative parallel lockstep otherwise.
/// Same seed + same spec ⇒ byte-identical results at any shard count.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    let wall_start = std::time::Instant::now();
    let lay = layout(spec).unwrap_or_else(|e| panic!("{e}"));
    // `GRIDMON_SHARDS` lets CI re-run the entire suite under the
    // parallel kernel without editing every spec: it only raises an
    // unsharded spec (shards == 1), never overrides an explicit choice,
    // and — because sharded runs are byte-identical — every assertion
    // downstream must still hold.
    let env_shards = std::env::var("GRIDMON_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let shards = match env_shards {
        Some(n) if spec.shards <= 1 => n,
        _ => spec.shards.max(1),
    };
    let plan = ShardPlan::new(simnet::partition_nodes(lay.total_nodes, shards), shards);
    let partials: Vec<ShardPartial> = if shards == 1 {
        // Serial fast path: no locality filter, no lockstep rounds — but
        // the identical build and the identical merge pipeline
        // (merged-of-one), so artifacts match sharded runs byte for byte.
        let mut sim = Simulation::new(spec.seed);
        let world = build_world(spec, &lay, &plan, 0, &mut sim);
        sim.run_until(lay.horizon);
        vec![extract_partial(&mut sim, &world)]
    } else {
        let lookahead = calibration::hydra_fabric().base_latency;
        simshard::run_sharded(
            &plan,
            spec.seed,
            lay.horizon,
            lookahead,
            |ix, sim| build_world(spec, &lay, &plan, ix, sim),
            inject_delivery,
            |_, mut sim, world| extract_partial(&mut sim, &world),
        )
    };
    merge_results(spec, &lay, partials, wall_start.elapsed().as_secs_f64())
}

/// Split `total` into `parts` nearly equal chunks.
fn split_evenly(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_evenly_sums() {
        assert_eq!(split_evenly(10, 3), vec![4, 3, 3]);
        assert_eq!(split_evenly(4000, 4), vec![1000; 4]);
        assert_eq!(split_evenly(1, 1), vec![1]);
        assert_eq!(split_evenly(0, 2), vec![0, 0]);
    }

    #[test]
    fn spec_helpers() {
        let spec =
            ExperimentSpec::paper_default("x", SystemUnderTest::NaradaSingle, 800).scaled(10);
        assert_eq!(spec.generators * spec.msgs_per_generator as usize, 8000);
        assert!(!spec.system.is_rgma());
        assert!(SystemUnderTest::RgmaSingle.is_rgma());
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.clone().sharded(4).shards, 4);
    }

    #[test]
    fn builders_arm_their_planes_in_one_set() {
        let spec = ExperimentSpec::paper_default("x", SystemUnderTest::NaradaSingle, 8);
        assert_eq!(spec.observe, Observe::default());
        let both = spec.clone().traced().scoped().observe;
        assert!(both.contains(Observe::TRACE | Observe::SCOPE));
        assert!(!both.contains(Observe::PROFILE) && !both.contains(Observe::SLO));
        // The shim arms the SLO plane and nothing else.
        assert_eq!(spec.with_slo(SloSpec::grid_default()).observe, Observe::SLO);
    }

    /// The SLO plane measures the paper's budget only, so another budget
    /// fails loudly instead of being ignored.
    #[test]
    #[should_panic(expected = "only the paper's budget")]
    fn with_slo_refuses_a_budget_other_than_the_papers() {
        let _ = ExperimentSpec::paper_default("x", SystemUnderTest::NaradaSingle, 8)
            .with_slo(SloSpec::new(SimDuration::from_millis(250), 0.9));
    }

    #[test]
    fn small_narada_experiment_runs_end_to_end() {
        let spec = ExperimentSpec::paper_default("smoke/narada", SystemUnderTest::NaradaSingle, 20)
            .scaled(5);
        let r = run_experiment(&spec);
        assert_eq!(r.summary.sent, 100);
        assert_eq!(r.summary.received, 100);
        assert_eq!(r.connected, 20);
        assert_eq!(r.refused, 0);
        assert!(r.summary.rtt_mean_ms > 0.5 && r.summary.rtt_mean_ms < 50.0);
        assert!(r.server_idle > 0.5, "20 conns should leave the broker idle");
        assert!(r.events > 0);
    }

    #[test]
    fn small_gridlog_experiment_runs_end_to_end() {
        let spec =
            ExperimentSpec::paper_default("smoke/gridlog", SystemUnderTest::GridlogSingle, 20)
                .scaled(5);
        let r = run_experiment(&spec);
        assert_eq!(r.summary.sent, 100);
        assert_eq!(r.summary.received, 100, "fault-free log loses nothing");
        assert_eq!(r.connected, 20);
        assert_eq!(r.refused, 0);
        // Produce RTT is linger-dominated: slower than narada's ~5 ms
        // per-message path, far faster than R-GMA's ~905 ms poll chain.
        assert!(
            r.summary.rtt_mean_ms > 1.0 && r.summary.rtt_mean_ms < 600.0,
            "rtt {}",
            r.summary.rtt_mean_ms
        );
        assert!(r.events > 0);
    }

    #[test]
    fn small_rgma_experiment_runs_end_to_end() {
        let spec =
            ExperimentSpec::paper_default("smoke/rgma", SystemUnderTest::RgmaSingle, 10).scaled(5);
        let r = run_experiment(&spec);
        assert_eq!(r.summary.sent, 50);
        assert_eq!(r.summary.received, 50, "warm-up wait prevents loss");
        assert!(
            r.summary.rtt_mean_ms > 100.0,
            "R-GMA is slow: {}",
            r.summary.rtt_mean_ms
        );
        assert!(r.summary.rtt_mean_ms > 0.0);
    }

    #[test]
    fn identical_seeds_identical_results() {
        let spec = ExperimentSpec::paper_default("det/narada", SystemUnderTest::NaradaSingle, 10)
            .scaled(3);
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a.summary.rtt_mean_ms, b.summary.rtt_mean_ms);
        assert_eq!(a.events, b.events);
        let mut spec2 = spec.clone();
        spec2.seed += 1;
        let c = run_experiment(&spec2);
        assert_ne!(a.summary.rtt_mean_ms, c.summary.rtt_mean_ms);
    }

    #[test]
    fn slo_plane_accounts_for_every_reading() {
        for system in [
            SystemUnderTest::NaradaSingle,
            SystemUnderTest::GridlogSingle,
            SystemUnderTest::RgmaSingle,
        ] {
            let spec = ExperimentSpec::paper_default("slo/smoke", system, 8)
                .scaled(3)
                .observed(Observe::SLO);
            let r = run_experiment(&spec);
            let slo = r.slo.as_ref().expect("slo artifacts present");
            let rep = &slo.report;
            assert_eq!(rep.published, 24, "{system:?}: every publish recorded once");
            assert_eq!(
                rep.on_time + rep.late + rep.lost,
                rep.published,
                "{system:?}: outcomes partition the readings"
            );
            assert!(rep.delivered > 0, "{system:?}: deliveries recorded");
            assert!(slo.csv.starts_with("t_s,metric,value\n"));
            // Fault-free smoke runs at tiny load meet the grid default.
            assert!(rep.compliant, "{system:?}: {rep:?}");
        }
    }

    #[test]
    fn slo_runs_leave_other_artifacts_untouched() {
        for system in [
            SystemUnderTest::NaradaSingle,
            SystemUnderTest::GridlogSingle,
            SystemUnderTest::RgmaSingle,
        ] {
            let plain = ExperimentSpec::paper_default("slo/inert", system, 8).scaled(3);
            let slo = plain.clone().observed(Observe::SLO);
            let a = run_experiment(&plain);
            assert!(a.slo.is_none());
            // The planes sample on the vmstat tick every run has: none
            // adds a kernel event.
            for spec in [slo.clone(), slo.traced().profiled()] {
                let b = run_experiment(&spec);
                assert_eq!(a.summary.rtt_mean_ms, b.summary.rtt_mean_ms);
                assert_eq!(a.events, b.events, "{system:?}");
                assert_eq!(a.kernel.determinism_digest(), b.kernel.determinism_digest());
            }
        }
    }

    #[test]
    fn sharded_slo_report_matches_serial() {
        let spec = ExperimentSpec::paper_default("slo/shard", SystemUnderTest::NaradaSingle, 8)
            .scaled(3)
            .observed(Observe::SLO);
        let serial = run_experiment(&spec);
        let sharded = run_experiment(&spec.clone().sharded(2));
        let (a, b) = (serial.slo.unwrap(), sharded.slo.unwrap());
        assert_eq!(a.report, b.report);
        assert_eq!(a.csv, b.csv);
    }

    #[test]
    fn sharded_narada_matches_serial() {
        let spec = ExperimentSpec::paper_default("shard/narada", SystemUnderTest::NaradaSingle, 8)
            .scaled(3);
        let serial = run_experiment(&spec);
        let sharded = run_experiment(&spec.clone().sharded(2));
        assert_eq!(serial.summary.rtt_mean_ms, sharded.summary.rtt_mean_ms);
        assert_eq!(serial.summary.sent, sharded.summary.sent);
        assert_eq!(serial.summary.received, sharded.summary.received);
        assert_eq!(
            serial.kernel.determinism_digest(),
            sharded.kernel.determinism_digest()
        );
        assert_eq!(serial.sim_time, sharded.sim_time);
        assert_eq!(serial.connected, sharded.connected);
        assert_eq!(serial.published, sharded.published);
    }
}
