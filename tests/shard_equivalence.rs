//! Differential determinism suite for the conservative parallel kernel
//! (`simshard`): same-seed sharded and serial runs must be
//! **byte-identical** — not statistically close — for all three
//! contenders, at every observation level, and under fault schedules.
//!
//! The experiment driver funnels every shard count (including the
//! serial fast path) through one merge pipeline, so equality here is a
//! structural property; these tests are the proof obligation. Carve-outs
//! from comparison are exactly the documented non-deterministic fields:
//! `wall_secs` / `merge_render_secs`, the wall-clock `scope` nanos, and
//! the layout-dependent kernel counter (`peak_queue_depth`) that
//! `KernelStats::determinism_digest()` excludes — a queue high-watermark
//! is a property of one queue, and shards have several.

use gridmon::core::{run_experiment, ExperimentResult, ExperimentSpec, SystemUnderTest};
use gridmon::jms::AckMode;
use gridmon::simfault::FaultSchedule;
use gridmon::simnet::Transport;
use proptest::prelude::*;

/// Every deterministic field of two results must agree exactly; float
/// comparisons are bit-level.
fn assert_equivalent(serial: &ExperimentResult, sharded: &ExperimentResult, label: &str) {
    let (a, b) = (&serial.summary, &sharded.summary);
    assert_eq!(a.sent, b.sent, "{label}: sent");
    assert_eq!(a.received, b.received, "{label}: received");
    assert_eq!(
        a.rtt_mean_ms.to_bits(),
        b.rtt_mean_ms.to_bits(),
        "{label}: rtt_mean {} vs {}",
        a.rtt_mean_ms,
        b.rtt_mean_ms
    );
    assert_eq!(
        a.rtt_stddev_ms.to_bits(),
        b.rtt_stddev_ms.to_bits(),
        "{label}: rtt_stddev"
    );
    assert_eq!(a.percentiles_ms, b.percentiles_ms, "{label}: percentiles");
    assert_eq!(
        a.distribution_us, b.distribution_us,
        "{label}: histogram summary (windowed-histogram merge)"
    );
    assert_eq!(
        a.prt_mean_ms.to_bits(),
        b.prt_mean_ms.to_bits(),
        "{label}: prt"
    );
    assert_eq!(
        a.pt_mean_ms.to_bits(),
        b.pt_mean_ms.to_bits(),
        "{label}: pt"
    );
    assert_eq!(
        a.srt_mean_ms.to_bits(),
        b.srt_mean_ms.to_bits(),
        "{label}: srt"
    );
    assert_eq!(
        serial.server_idle.to_bits(),
        sharded.server_idle.to_bits(),
        "{label}: server idle"
    );
    assert_eq!(
        serial.server_mem_mb.to_bits(),
        sharded.server_mem_mb.to_bits(),
        "{label}: server mem"
    );
    assert_eq!(serial.connected, sharded.connected, "{label}: connected");
    assert_eq!(serial.refused, sharded.refused, "{label}: refused");
    assert_eq!(serial.published, sharded.published, "{label}: published");
    assert_eq!(
        serial.broker_forwards, sharded.broker_forwards,
        "{label}: broker forwards"
    );
    assert_eq!(serial.sim_time, sharded.sim_time, "{label}: sim time");
    assert_eq!(serial.events, sharded.events, "{label}: event count");
    assert_eq!(
        serial.kernel.determinism_digest(),
        sharded.kernel.determinism_digest(),
        "{label}: kernel determinism digest"
    );
    assert_eq!(
        serial.fault_stats, sharded.fault_stats,
        "{label}: fault degradation accounting"
    );
    // Observability artifacts: byte-for-byte.
    match (&serial.trace, &sharded.trace) {
        (None, None) => {}
        (Some(ta), Some(tb)) => {
            assert_eq!(ta.jsonl, tb.jsonl, "{label}: trace JSONL bytes");
            assert_eq!(ta.chrome, tb.chrome, "{label}: Chrome trace bytes");
        }
        _ => panic!("{label}: trace artifacts present on one side only"),
    }
    match (&serial.profile, &sharded.profile) {
        (None, None) => {}
        (Some(pa), Some(pb)) => {
            assert_eq!(pa.table, pb.table, "{label}: self-time table bytes");
            assert_eq!(
                pa.collapsed, pb.collapsed,
                "{label}: collapsed stacks bytes"
            );
            assert_eq!(pa.prometheus, pb.prometheus, "{label}: Prometheus bytes");
            assert_eq!(pa.metrics_csv, pb.metrics_csv, "{label}: metrics CSV bytes");
            assert_eq!(pa.attributed, pb.attributed, "{label}: attributed CPU time");
            assert_eq!(pa.kernel_busy, pb.kernel_busy, "{label}: kernel busy time");
        }
        _ => panic!("{label}: profile artifacts present on one side only"),
    }
    // Freshness/SLO artifacts: the report (burn windows, AoI sawtooth,
    // age percentiles) and the rendered slo.csv must merge to the same
    // bytes regardless of shard layout.
    match (&serial.slo, &sharded.slo) {
        (None, None) => {}
        (Some(sa), Some(sb)) => {
            assert_eq!(sa.report, sb.report, "{label}: SLO report");
            assert_eq!(sa.csv, sb.csv, "{label}: slo.csv bytes");
        }
        _ => panic!("{label}: SLO artifacts present on one side only"),
    }
    // Scope artifacts measure host wall time (non-deterministic by
    // nature); their shape and the operation counts must match.
    match (&serial.scope, &sharded.scope) {
        (None, None) => {}
        (Some(sa), Some(sb)) => {
            let sites = |r: &gridmon::core::HotpathReport| -> Vec<String> {
                r.sites.iter().map(|s| s.site.clone()).collect()
            };
            assert_eq!(
                sites(&sa.report),
                sites(&sb.report),
                "{label}: hot-path site set"
            );
            // Not kernel.queue.push/pop: replicated samplers' timers are
            // pushed and popped on every shard.
            for site in [
                "kernel.dispatch",
                "net.fabric.send",
                "jms.match",
                "os.execute",
            ] {
                let count = |r: &gridmon::core::HotpathReport| r.site(site).map(|s| s.count);
                assert_eq!(
                    count(&sa.report),
                    count(&sb.report),
                    "{label}: {site} count"
                );
            }
        }
        _ => panic!("{label}: scope artifacts present on one side only"),
    }
}

fn spec_for(system: SystemUnderTest, name: &str) -> ExperimentSpec {
    ExperimentSpec::paper_default(name, system, 10).scaled(4)
}

/// All three contenders (plus the multi-node deployments, whose brokers
/// and servlets land on *different* shards): shards ∈ {2, 4} vs serial.
#[test]
fn sharded_runs_match_serial_for_every_contender() {
    for (system, name) in [
        (SystemUnderTest::NaradaSingle, "shard/narada"),
        (SystemUnderTest::NaradaDbn { brokers: 3 }, "shard/dbn"),
        (SystemUnderTest::GridlogSingle, "shard/gridlog"),
        (SystemUnderTest::RgmaSingle, "shard/rgma"),
        (SystemUnderTest::RgmaDistributed, "shard/rgma-dist"),
    ] {
        let spec = spec_for(system, name);
        let serial = run_experiment(&spec);
        for shards in [2usize, 4] {
            let sharded = run_experiment(&spec.clone().sharded(shards));
            assert_equivalent(&serial, &sharded, &format!("{name}@{shards}"));
        }
    }
}

/// UDP loses messages through the jitter model; the loss pattern is
/// RNG-driven per connection, so shard-invariance of the *loss set* is
/// a strong check on the replicated-build RNG alignment.
#[test]
fn sharded_udp_loss_pattern_matches_serial() {
    let mut spec = spec_for(SystemUnderTest::NaradaSingle, "shard/udp");
    spec.transport = Transport::Udp;
    spec.ack_mode = AckMode::Client;
    let serial = run_experiment(&spec);
    for shards in [2usize, 4] {
        let sharded = run_experiment(&spec.clone().sharded(shards));
        assert_equivalent(&serial, &sharded, &format!("udp@{shards}"));
    }
}

/// Observation byte-identity under sharding: the full observability
/// stack (trace + profile + scope) exports byte-identical artifacts at
/// every shard count, and sharding itself never perturbs a plain run.
#[test]
fn observed_artifacts_are_byte_identical_across_shard_counts() {
    for (system, name) in [
        (SystemUnderTest::NaradaSingle, "shard/obs-narada"),
        (SystemUnderTest::GridlogSingle, "shard/obs-gridlog"),
        (SystemUnderTest::RgmaSingle, "shard/obs-rgma"),
    ] {
        let plain = spec_for(system, name);
        let observed = plain.clone().traced().profiled().scoped();
        let serial_plain = run_experiment(&plain);
        let serial_obs = run_experiment(&observed);
        for shards in [2usize, 4] {
            let sharded_plain = run_experiment(&plain.clone().sharded(shards));
            let sharded_obs = run_experiment(&observed.clone().sharded(shards));
            assert_equivalent(
                &serial_plain,
                &sharded_plain,
                &format!("{name}/plain@{shards}"),
            );
            assert_equivalent(&serial_obs, &sharded_obs, &format!("{name}/obs@{shards}"));
            // Observation must not perturb the sharded run either
            // (the serial-side equivalent lives in
            // simulation_invariants.rs).
            assert_eq!(
                sharded_plain.summary.rtt_mean_ms.to_bits(),
                sharded_obs.summary.rtt_mean_ms.to_bits(),
                "{name}@{shards}: observation perturbed the sharded run"
            );
        }
    }
}

/// The trace bound under sharding: the serial store and each of the
/// three shard stores drop their oldest past `DEFAULT_CAPACITY` while
/// recording, the merge cuts the shards' union to it, and both must hold
/// exactly the newest `DEFAULT_CAPACITY` events of the run (with the
/// metrics and gauge logs folded per shard). Only unit tests reach
/// eviction otherwise.
#[test]
fn evicting_traced_run_is_shard_invariant() {
    let name = "shard/evict-dbn";
    let spec = ExperimentSpec::paper_default(name, SystemUnderTest::NaradaDbn { brokers: 3 }, 120)
        .traced()
        .profiled()
        .observed(gridmon::core::Observe::SLO);
    let serial = run_experiment(&spec);
    let summary = &serial.trace.as_ref().expect("traced").summary;
    assert_eq!(
        summary.total_events,
        gridmon::simtrace::DEFAULT_CAPACITY as u64
    );
    assert!(
        summary.evicted_events > summary.total_events,
        "{name}: {} retained, {} evicted",
        summary.total_events,
        summary.evicted_events
    );
    let sharded = run_experiment(&spec.clone().sharded(3));
    assert_equivalent(&serial, &sharded, &format!("{name}@3"));
    assert_eq!(
        sharded
            .trace
            .as_ref()
            .expect("traced")
            .summary
            .evicted_events,
        summary.evicted_events,
        "{name}: evicted count"
    );
}

/// Freshness plane under sharding: publishes and deliveries for one
/// reading can land on different shards (multi-node deployments), so
/// the keyed-union merge of the SLO collectors — and every derived
/// statistic down to the csv bytes — must be shard-invariant.
#[test]
fn slo_reports_are_shard_invariant() {
    for (system, name) in [
        (SystemUnderTest::NaradaDbn { brokers: 3 }, "shard/slo-dbn"),
        (SystemUnderTest::GridlogSingle, "shard/slo-gridlog"),
        (SystemUnderTest::RgmaDistributed, "shard/slo-rgma"),
    ] {
        let spec = spec_for(system, name).observed(gridmon::core::Observe::SLO);
        let serial = run_experiment(&spec);
        assert!(serial.slo.is_some(), "{name}: SLO artifacts missing");
        for shards in [2usize, 4] {
            let sharded = run_experiment(&spec.clone().sharded(shards));
            assert_equivalent(&serial, &sharded, &format!("{name}@{shards}"));
        }
    }
    // A lossy transport exercises the `lost` accounting path too.
    let mut spec = spec_for(SystemUnderTest::NaradaSingle, "shard/slo-udp")
        .observed(gridmon::core::Observe::SLO);
    spec.transport = Transport::Udp;
    spec.ack_mode = AckMode::Client;
    let serial = run_experiment(&spec);
    for shards in [2usize, 4] {
        let sharded = run_experiment(&spec.clone().sharded(shards));
        assert_equivalent(&serial, &sharded, &format!("slo-udp@{shards}"));
    }
}

/// Fault schedules under sharding: the injector replicas fire on every
/// shard, control messages ghost-drop to the owning shard, and the
/// merged degradation accounting equals the serial one exactly.
#[test]
fn faulted_sharded_runs_match_serial() {
    for scenario in ["broker-crash", "link-burst", "chaos"] {
        let spec = spec_for(SystemUnderTest::NaradaSingle, "shard/faults")
            .scaled(20)
            .with_faults(FaultSchedule::scenario(scenario).expect("known scenario"));
        let serial = run_experiment(&spec);
        for shards in [2usize, 4] {
            let sharded = run_experiment(&spec.clone().sharded(shards));
            assert_equivalent(&serial, &sharded, &format!("{scenario}@{shards}"));
        }
    }
}

// --- Randomized differential coverage -------------------------------

fn arb_system() -> impl Strategy<Value = SystemUnderTest> {
    prop_oneof![
        Just(SystemUnderTest::NaradaSingle),
        Just(SystemUnderTest::NaradaDbn { brokers: 3 }),
        Just(SystemUnderTest::RgmaSingle),
        Just(SystemUnderTest::RgmaDistributed),
        Just(SystemUnderTest::GridlogSingle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The event-level generalization of `parallel_matches_sequential`:
    /// random topology, transport, seed, and observation level — the
    /// shard count must never be observable in the results.
    #[test]
    fn shards_are_unobservable(
        system in arb_system(),
        transport in prop_oneof![Just(Transport::Tcp), Just(Transport::Udp)],
        client_ack in any::<bool>(),
        generators in 2usize..24,
        msgs in 1u32..5,
        seed in any::<u64>(),
        shards in prop_oneof![Just(2usize), Just(3), Just(4)],
        observed in any::<bool>(),
    ) {
        let mut spec = ExperimentSpec::paper_default("prop/shard", system, generators)
            .scaled(msgs);
        spec.transport = transport;
        spec.ack_mode = if client_ack { AckMode::Client } else { AckMode::Auto };
        spec.seed = seed;
        if observed {
            spec = spec.traced().profiled();
        }
        let serial = run_experiment(&spec);
        let sharded = run_experiment(&spec.clone().sharded(shards));
        assert_equivalent(&serial, &sharded, &format!("prop@{shards}"));
    }

    /// Random fault schedules: merged `FaultStats` and the loss pattern
    /// must be shard-invariant too.
    #[test]
    fn faulted_shards_are_unobservable(
        seed in any::<u64>(),
        scenario in prop_oneof![
            Just("broker-crash"),
            Just("registry-restart"),
            Just("link-burst"),
            Just("partition"),
            Just("slowdown"),
        ],
        shards in prop_oneof![Just(2usize), Just(4)],
    ) {
        let mut spec = spec_for(SystemUnderTest::GridlogSingle, "prop/shard-fault").scaled(12);
        spec.seed = seed;
        let spec = spec.with_faults(FaultSchedule::scenario(scenario).expect("known"));
        let serial = run_experiment(&spec);
        let sharded = run_experiment(&spec.clone().sharded(shards));
        assert_equivalent(&serial, &sharded, &format!("{scenario}@{shards}"));
    }
}
