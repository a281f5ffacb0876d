//! Calibration constants for the Hydra testbed (Table I) and derived
//! middleware process profiles.
//!
//! Everything with a physical meaning is set from the paper:
//!
//! * Pentium III 866 MHz, 2 GB RAM per node (Table I);
//! * isolated 100 Mbps switched LAN measured at 7–8 MB/s (§III.A);
//! * `-Xms1024m -Xmx1024m` for the Narada JVM, `-Xmx1024m` for Tomcat
//!   (§III.E, §III.F), `ulimit -n 50000`;
//! * observed scalability cliffs: a single Narada broker fails to accept
//!   4000 connections, a single R-GMA server fails near 800 — which pin
//!   the per-thread native reservations of the two JVM configurations.

use simcore::SimDuration;
use simnet::FabricConfig;
use simos::{Bytes, NodeSpec, ProcessSpec};

/// Per-runnable-thread CPU inflation on middleware *server* nodes.
///
/// Thousands of thread-per-connection Java threads on a single-core
/// PIII + JVM 1.4.2 slow every operation; this coefficient sets the slope
/// of the RTT-vs-connections lines (fig 7, fig 11).
pub const SERVER_CS_COEFF: f64 = 0.0004;

/// Scheduler dispatch latency per runnable thread on server nodes: a
/// runnable servlet/broker job waits while the 2.4-era Linux scheduler
/// and the JVM cycle through the other threads. At 3000 connections this
/// contributes ~12 ms per CPU visit — the slope of fig 7.
pub const SERVER_SCHED_LATENCY_US: u64 = 7;

/// Per-thread inflation on client/driver nodes (the paper kept client CPU
/// idle above 85 % with 750 generators, so this is small).
pub const CLIENT_CS_COEFF: f64 = 0.00012;

/// A Hydra node spec for a middleware server role.
pub fn hydra_server(name: impl Into<String>) -> NodeSpec {
    NodeSpec::hydra(name, SERVER_CS_COEFF)
        .with_sched_latency(SimDuration::from_micros(SERVER_SCHED_LATENCY_US))
}

/// A Hydra node spec for a driver/client role.
pub fn hydra_client(name: impl Into<String>) -> NodeSpec {
    NodeSpec::hydra(name, CLIENT_CS_COEFF)
}

/// The isolated 100 Mbps LAN (§III.A).
pub fn hydra_fabric() -> FabricConfig {
    FabricConfig {
        bandwidth_bps: 7_500_000,
        base_latency: SimDuration::from_micros(150),
        jitter_mean: SimDuration::from_micros(120),
        mss: 1460,
        per_packet_overhead: SimDuration::from_micros(40),
        // Per-datagram loss: calibrated so the end-to-end UDP AUTO test
        // loses ~0.06 % (§III.E.1) — deliveries are unrecovered in AUTO
        // mode while publishes are retransmitted.
        udp_loss_prob: 0.0006,
    }
}

/// The Narada broker JVM: `-Xms1024m -Xmx1024m`, ~200 KiB per-thread
/// native reservation ⇒ the native pool (2 GB − OS − heap) admits ~3900
/// service threads: 3000 connections fine, 4000 refused, matching
/// §III.E.2.
pub fn narada_broker_process() -> ProcessSpec {
    ProcessSpec {
        heap_cap: Bytes::mib(1024),
        stack_size: Bytes::kib(200),
        baseline: Bytes::mib(56),
    }
}

/// The R-GMA/Tomcat JVM: `-Xmx1024m` with 1 MiB per-thread reservation
/// (Tomcat connector defaults of the era) ⇒ ~760 service threads: the
/// paper's single server failed to accept 800 connections.
pub fn rgma_server_process() -> ProcessSpec {
    ProcessSpec {
        heap_cap: Bytes::mib(1024),
        stack_size: Bytes::mib(1),
        baseline: Bytes::mib(72),
    }
}

/// A driver-program JVM (the generator simulators).
pub fn driver_process() -> ProcessSpec {
    ProcessSpec {
        heap_cap: Bytes::mib(512),
        stack_size: Bytes::kib(128),
        baseline: Bytes::mib(24),
    }
}

/// Maximum generators simulated per driver node (the paper used ≤750 for
/// most tests, 1000 once).
pub const MAX_GENERATORS_PER_NODE: usize = 1000;

/// The paper's generator creation stagger for Narada tests.
pub fn narada_creation_interval() -> SimDuration {
    SimDuration::from_millis(500)
}

/// The paper's generator creation stagger for R-GMA tests.
pub fn rgma_creation_interval() -> SimDuration {
    SimDuration::from_secs(1)
}

/// The warm-up sleep range (both middlewares): 10–20 s.
pub fn warmup_range() -> (SimDuration, SimDuration) {
    (SimDuration::from_secs(10), SimDuration::from_secs(20))
}

/// The standard publish period: every 10 s.
pub fn publish_interval() -> SimDuration {
    SimDuration::from_secs(10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::OsModel;

    #[test]
    fn narada_broker_thread_cliff_is_between_3000_and_4000() {
        let mut os = OsModel::new();
        let node = os.add_node(hydra_server("hydra1"));
        let proc = os.add_process(node, narada_broker_process());
        let headroom = os.mem(proc).thread_headroom();
        assert!(
            (3000..4000).contains(&headroom),
            "paper: 3000 conns fine, 4000 refused; headroom = {headroom}"
        );
    }

    #[test]
    fn rgma_server_thread_cliff_is_below_800() {
        let mut os = OsModel::new();
        let node = os.add_node(hydra_server("hydra1"));
        let proc = os.add_process(node, rgma_server_process());
        let headroom = os.mem(proc).thread_headroom();
        assert!(
            (500..800).contains(&headroom),
            "paper: one server cannot accept 800 connections; headroom = {headroom}"
        );
    }

    #[test]
    fn paper_timings() {
        assert_eq!(publish_interval().as_secs_f64(), 10.0);
        let (lo, hi) = warmup_range();
        assert!(lo < hi);
    }
}
