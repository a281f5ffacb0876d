//! Fault-injection conformance suite: scripted faults against both
//! middlewares, proving the recovery machinery does what the design
//! claims — and that the degradation accounting explains every loss.
//!
//! Test names are prefixed `narada_tcp_`, `narada_udp_auto_`,
//! `narada_udp_client_`, `rgma_`, and `gridlog_` so the CI fault-matrix
//! job can run each cell with a `cargo test --test fault_conformance
//! <prefix>` filter.

use gridmon::core::{run_experiment, ExperimentResult, ExperimentSpec, SystemUnderTest};
use gridmon::jms::AckMode;
use gridmon::simfault::FaultSchedule;
use gridmon::simnet::Transport;
use gridmon::telemetry::Conservation;

/// Three distinct seeds: the crash asymmetry must hold on all of them,
/// not on one lucky draw.
const SEEDS: [u64; 3] = [0x9e3779b97f4a7c15, 0xC0FFEE, 7];

/// A Narada run long enough that the canonical fault window (t = 120 s
/// crash, t = 150 s restart) lands mid-publishing.
fn narada_spec(name: &str, transport: Transport, ack: AckMode, seed: u64) -> ExperimentSpec {
    let mut spec =
        ExperimentSpec::paper_default(name, SystemUnderTest::NaradaSingle, 12).scaled(20);
    spec.transport = transport;
    spec.ack_mode = ack;
    spec.seed = seed;
    spec
}

/// A gridlog run with the same workload shape: the JMS acknowledge axis
/// maps onto the offset axis (CLIENT ↦ committed-offset resume, AUTO ↦
/// `auto.offset.reset=latest`).
fn gridlog_spec(name: &str, ack: AckMode, seed: u64) -> ExperimentSpec {
    let mut spec =
        ExperimentSpec::paper_default(name, SystemUnderTest::GridlogSingle, 12).scaled(20);
    spec.ack_mode = ack;
    spec.seed = seed;
    spec
}

fn rgma_spec(name: &str, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_default(name, SystemUnderTest::RgmaSingle, 8).scaled(20);
    spec.seed = seed;
    spec
}

fn crash() -> FaultSchedule {
    FaultSchedule::scenario("broker-crash").expect("known scenario")
}

/// Message-level conservation: after the drain window nothing is still
/// in flight, so every sent message is either delivered or dropped, and
/// any loss must be attributable to at least one injected fault effect.
fn assert_conserved(r: &ExperimentResult) {
    let s = &r.summary;
    let lost = s.sent - s.received;
    let cons = Conservation {
        sent: s.sent,
        delivered: s.received,
        dropped: lost,
        in_flight_at_end: 0,
    };
    assert!(cons.holds(), "conservation violated: {cons:?}");
    if lost > 0 {
        let f = r.fault_stats.expect("faulted run has stats");
        let attributed = f.link_drops + f.partition_drops + f.crash_drops + f.stall_rejections;
        assert!(
            attributed > 0,
            "{lost} messages lost with no attributable fault effect: {f:?}"
        );
    }
}

// --- Narada: UDP CLIENT-ack vs AUTO-ack across a broker crash --------

#[test]
fn narada_udp_client_recovers_all_messages_across_crash() {
    for seed in SEEDS {
        let spec = narada_spec("conf/udp-client", Transport::Udp, AckMode::Client, seed)
            .with_faults(crash());
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert_eq!(
            r.summary.received, r.summary.sent,
            "seed {seed:#x}: CLIENT-ack must recover every gap-recoverable \
             message across the crash ({f:?})"
        );
        assert!(f.reconnects > 0, "seed {seed:#x}: no reconnect happened");
        assert!(
            f.recovered > 0,
            "seed {seed:#x}: resync recovered nothing ({f:?})"
        );
        assert_conserved(&r);
    }
}

#[test]
fn narada_udp_auto_loses_crash_window_messages() {
    for seed in SEEDS {
        let spec =
            narada_spec("conf/udp-auto", Transport::Udp, AckMode::Auto, seed).with_faults(crash());
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert!(
            r.summary.received < r.summary.sent,
            "seed {seed:#x}: AUTO-ack has no durable log — crash-window \
             messages must be lost ({f:?})"
        );
        assert!(f.crash_drops > 0, "seed {seed:#x}: crash dropped nothing");
        assert_conserved(&r);
    }
}

#[test]
fn narada_udp_client_strictly_beats_auto_on_every_seed() {
    for seed in SEEDS {
        let client = run_experiment(
            &narada_spec("conf/order-client", Transport::Udp, AckMode::Client, seed)
                .with_faults(crash()),
        );
        let auto = run_experiment(
            &narada_spec("conf/order-auto", Transport::Udp, AckMode::Auto, seed)
                .with_faults(crash()),
        );
        assert_eq!(client.summary.sent, auto.summary.sent, "same workload");
        assert!(
            client.summary.received > auto.summary.received,
            "seed {seed:#x}: CLIENT {} must strictly beat AUTO {}",
            client.summary.received,
            auto.summary.received
        );
    }
}

#[test]
fn narada_udp_client_faulted_run_replays_identically() {
    let spec = narada_spec("conf/replay", Transport::Udp, AckMode::Client, SEEDS[0])
        .with_faults(crash())
        .traced();
    let a = run_experiment(&spec);
    let b = run_experiment(&spec);
    assert_eq!(a.summary.sent, b.summary.sent);
    assert_eq!(a.summary.received, b.summary.received);
    assert_eq!(
        a.summary.rtt_mean_ms.to_bits(),
        b.summary.rtt_mean_ms.to_bits()
    );
    assert_eq!(a.events, b.events);
    assert_eq!(a.fault_stats, b.fault_stats);
    let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
    assert_eq!(ta.jsonl, tb.jsonl, "same seed must export identical traces");
    assert_eq!(ta.chrome, tb.chrome);
}

// --- Narada: TCP across a broker crash ------------------------------

#[test]
fn narada_tcp_reconnects_and_bounds_loss() {
    for seed in SEEDS {
        let spec =
            narada_spec("conf/tcp", Transport::Tcp, AckMode::Auto, seed).with_faults(crash());
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert!(f.reconnects > 0, "seed {seed:#x}: no reconnect happened");
        let lost = r.summary.sent - r.summary.received;
        // TCP has no durable log (that is UDP + CLIENT-ack territory), so
        // everything from the crash until the subscriber's re-subscribe
        // is at risk: publishes on the wire before crash detection, plus
        // drained offline messages that race the subscriber's reconnect.
        // That window is crash → restart → resubscribe ≈ 35 s, i.e. at
        // most ~4 publishes per generator at the 10 s publish period.
        // The conformance claim is that loss is *bounded* by that window
        // — the clients resume and everything after it is delivered.
        assert!(
            lost <= 5 * spec.generators as u64,
            "seed {seed:#x}: lost {lost} of {} — reconnect did not bound \
             the damage ({f:?})",
            r.summary.sent
        );
        assert!(
            r.summary.received > r.summary.sent / 2,
            "seed {seed:#x}: delivery never resumed after restart"
        );
        assert!(
            f.delayed > 0,
            "seed {seed:#x}: offline buffering never engaged ({f:?})"
        );
        assert_conserved(&r);
    }
}

// --- gridlog: committed-offset vs latest-reset across a broker crash -

#[test]
fn gridlog_committed_recovers_all_records_across_crash() {
    for seed in SEEDS {
        let spec =
            gridlog_spec("conf/gridlog-committed", AckMode::Client, seed).with_faults(crash());
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert_eq!(
            r.summary.received, r.summary.sent,
            "seed {seed:#x}: the durable log + committed offsets must \
             recover every record across the crash ({f:?})"
        );
        assert!(f.reconnects > 0, "seed {seed:#x}: no reconnect happened");
        assert!(
            f.crash_drops > 0,
            "seed {seed:#x}: the crash window dropped nothing ({f:?})"
        );
        assert_conserved(&r);
    }
}

#[test]
fn gridlog_auto_offset_loses_crash_window_records() {
    for seed in SEEDS {
        let spec = gridlog_spec("conf/gridlog-auto", AckMode::Auto, seed).with_faults(crash());
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert!(
            r.summary.received < r.summary.sent,
            "seed {seed:#x}: reset-to-latest consumers rejoin at the log \
             end — the crash window must be lost ({f:?})"
        );
        assert!(f.crash_drops > 0, "seed {seed:#x}: crash dropped nothing");
        assert_conserved(&r);
    }
}

#[test]
fn gridlog_committed_strictly_beats_auto_on_every_seed() {
    for seed in SEEDS {
        let committed = run_experiment(
            &gridlog_spec("conf/gridlog-order-committed", AckMode::Client, seed)
                .with_faults(crash()),
        );
        let auto = run_experiment(
            &gridlog_spec("conf/gridlog-order-auto", AckMode::Auto, seed).with_faults(crash()),
        );
        assert_eq!(committed.summary.sent, auto.summary.sent, "same workload");
        assert!(
            committed.summary.received > auto.summary.received,
            "seed {seed:#x}: committed {} must strictly beat latest {}",
            committed.summary.received,
            auto.summary.received
        );
    }
}

#[test]
fn gridlog_restart_replays_segments_and_resumes() {
    for seed in SEEDS {
        let spec =
            gridlog_spec("conf/gridlog-replay-log", AckMode::Client, seed).with_faults(crash());
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        // The restart replays durable segments and reports the gap
        // between the group's committed offsets and the log end as
        // recoverable backlog.
        assert!(
            f.recovered > 0,
            "seed {seed:#x}: restart recovered no backlog ({f:?})"
        );
        assert!(
            f.delayed > 0,
            "seed {seed:#x}: offline buffering never engaged ({f:?})"
        );
        assert!(
            f.republished > 0,
            "seed {seed:#x}: no unacked batch was retransmitted ({f:?})"
        );
        assert_conserved(&r);
    }
}

#[test]
fn gridlog_faulted_run_replays_identically() {
    let spec = gridlog_spec("conf/gridlog-replay", AckMode::Client, SEEDS[0])
        .with_faults(crash())
        .traced();
    let a = run_experiment(&spec);
    let b = run_experiment(&spec);
    assert_eq!(a.summary.sent, b.summary.sent);
    assert_eq!(a.summary.received, b.summary.received);
    assert_eq!(
        a.summary.rtt_mean_ms.to_bits(),
        b.summary.rtt_mean_ms.to_bits()
    );
    assert_eq!(a.events, b.events);
    assert_eq!(a.fault_stats, b.fault_stats);
    let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
    assert_eq!(ta.jsonl, tb.jsonl, "same seed must export identical traces");
    assert_eq!(ta.chrome, tb.chrome);
}

// --- Sharded execution: the fault machinery is shard-invariant -------

/// Every conformance cell, replayed on 4 conservative shards
/// (`simshard`): the merged `FaultStats`, the conservation identity,
/// and the rendered degradation table must equal the serial run's
/// exactly. Prefixed per middleware so each CI fault-matrix cell also
/// covers its own sharded variant.
fn assert_shard_invariant_faults(spec: &ExperimentSpec) {
    let serial = run_experiment(spec);
    let sharded = run_experiment(&spec.clone().sharded(4));
    assert_eq!(serial.summary.sent, sharded.summary.sent, "{}", spec.name);
    assert_eq!(
        serial.summary.received, sharded.summary.received,
        "{}: loss pattern drifted under sharding",
        spec.name
    );
    assert_eq!(
        serial.fault_stats, sharded.fault_stats,
        "{}: degradation accounting drifted under sharding",
        spec.name
    );
    let table = |r: &ExperimentResult| {
        let f = r.fault_stats.expect("faulted run has stats");
        gridmon::telemetry::degradation_table(format!("conf — {}", r.name), &f.rows()).render()
    };
    assert_eq!(
        table(&serial),
        table(&sharded),
        "{}: degradation tables differ",
        spec.name
    );
    assert_conserved(&serial);
    assert_conserved(&sharded);
}

/// The trace's `faults_injected` row is the driver's own count, at one
/// shard and at two (the driver runs on both; its primary counts).
#[test]
fn narada_tcp_trace_counts_every_injected_fault() {
    let spec = narada_spec("conf/trace-faults", Transport::Tcp, AckMode::Auto, SEEDS[0])
        .with_faults(crash())
        .traced();
    for spec in [spec.clone(), spec.sharded(2)] {
        let r = run_experiment(&spec);
        let injected = r.fault_stats.expect("faulted run has stats").injected;
        assert!(injected > 0);
        let trace = r.trace.expect("traced");
        let mut rows = trace.jsonl.lines().rev();
        let last = rows.find(|l| l.contains("\"type\":\"counters\""));
        let last = last.expect("counter rows");
        let counted = format!("\"faults_injected\":{injected},");
        assert!(last.contains(&counted), "{last}");
    }
}

#[test]
fn narada_tcp_crash_is_shard_invariant() {
    let spec =
        narada_spec("conf/shard-tcp", Transport::Tcp, AckMode::Auto, SEEDS[0]).with_faults(crash());
    assert_shard_invariant_faults(&spec);
}

#[test]
fn narada_udp_client_crash_is_shard_invariant() {
    let spec = narada_spec(
        "conf/shard-udp-client",
        Transport::Udp,
        AckMode::Client,
        SEEDS[1],
    )
    .with_faults(crash());
    assert_shard_invariant_faults(&spec);
}

#[test]
fn gridlog_crash_is_shard_invariant() {
    let spec = gridlog_spec("conf/shard-gridlog", AckMode::Client, SEEDS[2]).with_faults(crash());
    assert_shard_invariant_faults(&spec);
}

#[test]
fn rgma_registry_restart_is_shard_invariant() {
    let spec = rgma_spec("conf/shard-rgma", SEEDS[0])
        .with_faults(FaultSchedule::scenario("registry-restart").expect("known scenario"));
    assert_shard_invariant_faults(&spec);
}

// --- R-GMA: registry restart and servlet stall ----------------------

#[test]
fn rgma_consumer_outlives_registry_restart() {
    for seed in SEEDS {
        let spec = rgma_spec("conf/rgma-restart", seed)
            .with_faults(FaultSchedule::scenario("registry-restart").expect("known scenario"));
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert_eq!(
            r.summary.received, r.summary.sent,
            "seed {seed:#x}: continuous SELECT must survive the registry \
             restart ({f:?})"
        );
        assert!(
            f.reregistrations > 0,
            "seed {seed:#x}: soft-state refresh never re-registered ({f:?})"
        );
        assert_conserved(&r);
    }
}

/// Both legs of the Secondary Producer ablation recover, so the ablation
/// compares the two delays under one recovery policy: the leg that sets
/// an `rgma_config` (the 0.5 s flush) retries its rejected inserts too.
#[test]
fn rgma_secondary_ablation_legs_both_retry_under_servlet_stall() {
    let stall = FaultSchedule::scenario("servlet-stall").expect("known scenario");
    for spec in gridmon::core::scenarios::secondary_delay_ablation(20) {
        let r = run_experiment(&spec.with_faults(stall.clone()));
        let f = r.fault_stats.expect("faulted run has stats");
        assert!(
            f.stall_rejections > 0,
            "{}: the stall rejected nothing ({f:?})",
            r.name
        );
        assert!(
            f.http_retries > 0,
            "{}: no rejected request was retried ({f:?})",
            r.name
        );
    }
}

#[test]
fn rgma_insert_retry_rides_out_servlet_stall() {
    for seed in SEEDS {
        let spec = rgma_spec("conf/rgma-stall", seed)
            .with_faults(FaultSchedule::scenario("servlet-stall").expect("known scenario"));
        let r = run_experiment(&spec);
        let f = r.fault_stats.expect("faulted run has stats");
        assert!(
            f.stall_rejections > 0,
            "seed {seed:#x}: the stall rejected nothing ({f:?})"
        );
        assert!(
            f.http_retries > 0,
            "seed {seed:#x}: no insert was retried ({f:?})"
        );
        assert_eq!(
            r.summary.received, r.summary.sent,
            "seed {seed:#x}: retry-with-backoff must recover every insert \
             rejected during the stall ({f:?})"
        );
        assert_conserved(&r);
    }
}
