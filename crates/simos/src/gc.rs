//! JVM garbage-collection pauses.
//!
//! Both middlewares ran on HotSpot 1.4.2, whose collectors are
//! stop-the-world. Pauses are the dominant source of latency *tails* on
//! the testbed: they explain why only 99.8 % (not 100 %) of Narada
//! messages beat 100 ms (fig 8), and the multi-second upper percentiles
//! of the loaded R-GMA server (fig 12).
//!
//! Model: a pause occupies the node's CPU (all service work queues
//! behind it, exactly like stop-the-world). Minor collections are
//! frequent and short; full collections are rare and scale with live
//! heap. Intervals are exponentially distributed around configured
//! means.

use crate::node::{NodeId, OsModel, ProcessId};
use simcore::{Actor, Context, Payload, SimDuration, Site};

/// GC behaviour of one JVM process.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Mean time between minor (young-generation) collections.
    pub minor_interval: SimDuration,
    /// Fixed part of a minor pause.
    pub minor_pause_base: SimDuration,
    /// Minor pause per MiB of live heap.
    pub minor_pause_per_mb: SimDuration,
    /// Mean time between full collections (`None` = old generation never
    /// fills within a test, as for the mostly non-allocating broker).
    pub full_interval: Option<SimDuration>,
    /// Full pause per MiB of live heap.
    pub full_pause_per_mb: SimDuration,
}

impl GcConfig {
    /// The Narada broker JVM: steady connection buffers, low allocation
    /// rate — frequent small minor GCs, no full collections within a
    /// 30-minute test.
    pub fn narada_broker() -> Self {
        GcConfig {
            minor_interval: SimDuration::from_secs(20),
            minor_pause_base: SimDuration::from_millis(12),
            minor_pause_per_mb: SimDuration::from_micros(80),
            full_interval: None,
            full_pause_per_mb: SimDuration::from_millis(4),
        }
    }

    /// The R-GMA/Tomcat JVM: heavy allocation (SQL strings, tuples,
    /// buffers) — minor GCs plus periodic full collections whose pauses
    /// scale with the resident heap.
    pub fn rgma_server() -> Self {
        GcConfig {
            minor_interval: SimDuration::from_secs(12),
            minor_pause_base: SimDuration::from_millis(15),
            minor_pause_per_mb: SimDuration::from_micros(120),
            full_interval: Some(SimDuration::from_secs(90)),
            full_pause_per_mb: SimDuration::from_millis(4),
        }
    }
}

enum Tick {
    Minor,
    Full,
}

/// Actor injecting stop-the-world pauses for one process.
pub struct GcPauser {
    cfg: GcConfig,
    node: NodeId,
    proc: ProcessId,
}

impl GcPauser {
    /// Pauser for `proc` on `node`.
    pub fn new(cfg: GcConfig, node: NodeId, proc: ProcessId) -> Self {
        GcPauser { cfg, node, proc }
    }

    fn arm_minor(&self, ctx: &mut Context<'_>) {
        let d = ctx.rng().exp_duration(self.cfg.minor_interval);
        ctx.timer(d, Tick::Minor);
    }

    fn arm_full(&self, ctx: &mut Context<'_>) {
        if let Some(mean) = self.cfg.full_interval {
            let d = ctx.rng().exp_duration(mean);
            ctx.timer(d, Tick::Full);
        }
    }

    fn heap_mb(&self, ctx: &Context<'_>) -> f64 {
        ctx.service::<OsModel>()
            .mem(self.proc)
            .heap_used()
            .as_mib_f64()
    }
}

impl Actor for GcPauser {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.arm_minor(ctx);
        self.arm_full(ctx);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let Ok(tick) = msg.downcast::<Tick>() else {
            return;
        };
        let heap = self.heap_mb(ctx);
        let pause = match *tick {
            Tick::Minor => {
                self.arm_minor(ctx);
                // Minor pause scans the young generation: a small
                // heap-dependent fraction.
                self.cfg.minor_pause_base + self.cfg.minor_pause_per_mb.mul_f64(heap / 8.0)
            }
            Tick::Full => {
                self.arm_full(ctx);
                self.cfg.full_pause_per_mb.mul_f64(heap)
            }
        };
        // Stop-the-world: the pause occupies the CPU; all service work
        // queues behind it.
        let node = self.node;
        ctx.with_service::<OsModel, _>(|os, ctx| {
            let t0 = ctx.wall_start();
            let (_, effective) = os.execute_metered(node, ctx.now(), pause);
            ctx.wall_record(Site::OsExecute, t0);
            simprof::charge(ctx, simprof::Component::OsGc, effective);
        });
        let micros = pause.as_micros().min(u64::from(u32::MAX)) as u32;
        let now = ctx.now();
        simtrace::hop(ctx, now, None, simtrace::EventKind::GcPause { micros });
    }

    fn name(&self) -> &str {
        "gc-pauser"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Bytes;
    use crate::node::{NodeSpec, ProcessSpec};
    use simcore::{SimTime, Simulation};

    fn world(cfg: GcConfig, heap_mb: u64) -> Simulation {
        let mut sim = Simulation::new(3);
        let mut os = OsModel::new();
        let node = os.add_node(NodeSpec::hydra("hydra1", 0.0));
        let proc = os.add_process(node, ProcessSpec::jvm_1g());
        os.alloc(proc, Bytes::mib(heap_mb)).unwrap();
        sim.add_service(os);
        sim.add_actor(GcPauser::new(cfg, node, proc));
        sim
    }

    fn busy_after(sim: &mut Simulation, secs: u64) -> f64 {
        sim.run_until(SimTime::from_secs(secs));
        let os = sim.service::<OsModel>().unwrap();
        os.node(crate::NodeId(0))
            .cpu
            .busy_integral(SimTime::from_secs(secs))
            .as_secs_f64()
    }

    #[test]
    fn minor_gcs_consume_a_little_cpu() {
        let mut sim = world(GcConfig::narada_broker(), 100);
        let busy = busy_after(&mut sim, 600);
        // ~30 minor GCs in 10 min at ~13ms each ≈ 0.4 s, well under 1 %.
        assert!(busy > 0.05, "some GC work happened: {busy}");
        assert!(busy < 6.0, "but far from dominating: {busy}");
    }

    #[test]
    fn full_gcs_scale_with_heap() {
        let small = busy_after(&mut world(GcConfig::rgma_server(), 50), 600);
        let large = busy_after(&mut world(GcConfig::rgma_server(), 500), 600);
        assert!(
            large > small * 2.0,
            "bigger heap, longer pauses: {small} vs {large}"
        );
    }

    #[test]
    fn narada_profile_never_runs_full_gc() {
        let cfg = GcConfig::narada_broker();
        assert!(cfg.full_interval.is_none());
    }
}
