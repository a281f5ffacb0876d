//! A `vmstat`-style sampler: periodically records CPU idle % and memory
//! consumption per node, exactly the way the paper collected fig 6 and
//! fig 13.

use crate::node::{NodeId, OsModel};
use simcore::{Actor, Context, Payload, SimDuration, SimTime};

/// One sample for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSample {
    /// Sample instant.
    pub at: SimTime,
    /// Node sampled.
    pub node: NodeId,
    /// CPU idle fraction over the last interval, in `[0, 1]`.
    pub idle: f64,
    /// Memory consumption (paper metric: peak-minus-baseline + stacks) in bytes.
    pub mem_bytes: u64,
}

/// Accumulated samples, registered as a kernel service so experiments can
/// read them after the run.
#[derive(Default)]
pub struct VmstatLog {
    samples: Vec<VmSample>,
}

impl VmstatLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All samples, in time order.
    pub fn samples(&self) -> &[VmSample] {
        &self.samples
    }

    /// Merge per-shard logs. Each shard's vmstat replica samples only
    /// its own nodes, so the union re-sorted by `(instant, node)` is
    /// exactly the row set (and order) a serial sampler writes — node
    /// order within one tick is ascending in both worlds.
    pub fn merged(parts: impl IntoIterator<Item = VmstatLog>) -> VmstatLog {
        let mut samples: Vec<VmSample> = parts.into_iter().flat_map(|p| p.samples).collect();
        samples.sort_by_key(|s| (s.at, s.node.0));
        VmstatLog { samples }
    }

    /// Samples for one node.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &VmSample> {
        self.samples.iter().filter(move |s| s.node == node)
    }

    /// Mean CPU idle restricted to a window (used to exclude the
    /// connection ramp from the reported figure, as the paper's
    /// steady-state measurement does).
    pub fn mean_idle_between(&self, node: NodeId, from: SimTime, to: SimTime) -> Option<f64> {
        let (sum, n) = self
            .for_node(node)
            .filter(|x| x.at >= from && x.at <= to)
            .fold((0.0, 0u32), |(s, n), x| (s + x.idle, n + 1));
        (n > 0).then(|| sum / f64::from(n))
    }

    /// Peak memory consumption for a node (paper: "difference between peak
    /// and bottom values"; our consumption metric already subtracts the
    /// baseline).
    pub fn peak_mem(&self, node: NodeId) -> Option<u64> {
        self.for_node(node).map(|s| s.mem_bytes).max()
    }
}

/// Actor that samples every `interval`.
pub struct VmstatSampler {
    interval: SimDuration,
    nodes: Vec<NodeId>,
    last_busy: Vec<SimDuration>,
    last_at: SimTime,
}

struct Tick;

/// Synthetic metric-op lane for one node's vmstat gauges
/// (`base | node id`). High bit set so it can never collide with a real
/// actor lane (actor indices stay far below 2^31), and sorts after actor
/// lanes at the same instant.
const NODE_GAUGE_LANE_BASE: u32 = 0x8000_0000;

impl VmstatSampler {
    /// Sample the given nodes every `interval` (the paper used 1 s).
    pub fn new(interval: SimDuration, nodes: Vec<NodeId>) -> Self {
        let n = nodes.len();
        VmstatSampler {
            interval,
            nodes,
            last_busy: vec![SimDuration::ZERO; n],
            last_at: SimTime::ZERO,
        }
    }
}

impl Actor for VmstatSampler {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.timer(self.interval, Tick);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        debug_assert!(msg.downcast::<Tick>().is_ok());
        let now = ctx.now();
        let window = now.saturating_since(self.last_at).as_micros() as f64;
        for (i, &node) in self.nodes.iter().enumerate() {
            let (busy_now, mem, backlog) = {
                let os = ctx.service::<OsModel>();
                let n = os.node(node);
                (
                    n.cpu.busy_integral(now),
                    n.consumption().0,
                    n.cpu.backlog(now),
                )
            };
            let delta = busy_now.saturating_sub(self.last_busy[i]).as_micros() as f64;
            let idle = if window > 0.0 {
                (1.0 - delta / window).clamp(0.0, 1.0)
            } else {
                1.0
            };
            self.last_busy[i] = busy_now;
            ctx.service_mut::<VmstatLog>().samples.push(VmSample {
                at: now,
                node,
                idle,
                mem_bytes: mem,
            });
            // Feed the metrics plane (no-op unless a registry is
            // registered): the CPU run-queue depth in time units is the
            // model's per-node queue-depth signal.
            //
            // The sampler is *replicated* under sharding, each replica
            // holding only its shard's nodes, so ops must not ride the
            // sampler's own lane: the per-lane seq would then count
            // 3 × local-node-count ops per tick and diverge between
            // layouts. Instead each node's gauges ride a synthetic
            // per-node lane (a node is sampled by exactly one replica,
            // so its lane's seq stream is layout-invariant).
            telemetry::with_metrics(ctx, |m, at| {
                let ix = node.0;
                m.set_recorder(NODE_GAUGE_LANE_BASE | u32::from(ix), at);
                m.set_gauge(
                    &format!("node{ix}.cpu_backlog_us"),
                    backlog.as_micros() as f64,
                );
                m.set_gauge(&format!("node{ix}.idle"), idle);
                m.set_gauge(&format!("node{ix}.mem_mb"), mem as f64 / (1024.0 * 1024.0));
            });
        }
        self.last_at = now;
        // Snapshot the metrics plane at the same instant (no-op unless a
        // registry is registered): one time-series row per counter and
        // gauge, holding every write at or before the instant. Riding the
        // existing tick keeps observed runs free of extra kernel events.
        // The end-to-end `probes_in_flight` gauge is not written here: it
        // needs the whole run's RTT records, which no single shard holds,
        // so the experiment driver derives it from the merged collector
        // (`MetricsRegistry::add_derived_gauge`).
        telemetry::with_metrics(ctx, |m, at| m.sample(at));
        ctx.timer(self.interval, Tick);
    }

    fn name(&self) -> &str {
        "vmstat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeSpec, OsModel};
    use simcore::{FnActor, Simulation};

    #[test]
    fn sampler_records_idle_and_busy_windows() {
        let mut sim = Simulation::new(1);
        let mut os = OsModel::new();
        let node = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        sim.add_service(os);
        sim.add_service(VmstatLog::new());
        sim.add_actor(VmstatSampler::new(SimDuration::from_secs(1), vec![node]));
        // A worker that burns 500 ms of CPU at t=2s (inside the 3rd window).
        let worker = sim.add_actor(FnActor(move |_m: Payload, ctx: &mut Context| {
            let now = ctx.now();
            ctx.service_mut::<OsModel>()
                .execute_metered(node, now, SimDuration::from_millis(500));
        }));
        sim.schedule(SimDuration::from_millis(2_100), worker, Box::new(()));
        sim.run_until(SimTime::from_secs(4));
        let log = sim.service::<VmstatLog>().unwrap();
        let samples: Vec<_> = log.for_node(node).collect();
        assert_eq!(samples.len(), 4);
        assert!((samples[0].idle - 1.0).abs() < 1e-9);
        assert!((samples[1].idle - 1.0).abs() < 1e-9);
        // Window 2..3s contains 500 ms busy.
        assert!(
            (samples[2].idle - 0.5).abs() < 1e-6,
            "idle={}",
            samples[2].idle
        );
        assert!((samples[3].idle - 1.0).abs() < 1e-9);
    }

    #[test]
    fn the_tick_snapshots_the_metrics_registry() {
        let mut sim = Simulation::new(7);
        let mut os = OsModel::new();
        let node = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        sim.add_service(os);
        sim.add_service(VmstatLog::new());
        sim.add_service(telemetry::MetricsRegistry::new());
        sim.add_actor(VmstatSampler::new(SimDuration::from_secs(1), vec![node]));
        // A worker counts every 500 ms from t = 0, so also at every tick's
        // instant, before or after the tick.
        let worker = sim.add_actor(FnActor(|_m: Payload, ctx: &mut Context| {
            telemetry::with_metrics(ctx, |m, _| m.add_counter("worker.beats", 1));
            ctx.timer(SimDuration::from_millis(500), ());
        }));
        sim.schedule(SimDuration::ZERO, worker, Box::new(()));
        sim.run_until(SimTime::from_secs(5));
        let m = sim.service::<telemetry::MetricsRegistry>().unwrap();
        // N seconds on a 1 s cadence: N rows, the kernel runs the tick at
        // the horizon, and there is no row at t = 0.
        let ticks: Vec<u64> = m.ticks().iter().map(|t| t.as_micros()).collect();
        assert_eq!(ticks, [1, 2, 3, 4, 5].map(|s| s * 1_000_000));
        // Every beat at or before k s: 2k + 1.
        let rows: Vec<u64> = (0..5)
            .filter_map(|i| m.counter_at("worker.beats", i))
            .collect();
        assert_eq!(rows, [3, 5, 7, 9, 11]);
    }

    #[test]
    fn log_aggregates() {
        let mut log = VmstatLog::new();
        let node = NodeId(0);
        for (t, idle, mem) in [(1, 1.0, 10), (2, 0.5, 30), (3, 0.75, 20)] {
            log.samples.push(VmSample {
                at: SimTime::from_secs(t),
                node,
                idle,
                mem_bytes: mem,
            });
        }
        let all = |node| log.mean_idle_between(node, SimTime::ZERO, SimTime::MAX);
        assert!((all(node).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(log.peak_mem(node), Some(30));
        assert_eq!(all(NodeId(9)), None);
        assert_eq!(log.peak_mem(NodeId(9)), None);
    }
}
